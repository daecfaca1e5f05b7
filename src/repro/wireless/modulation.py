"""Modulation schemes and BER-vs-SNR curves (after Proakis [25]).

"The first category of techniques, which focus on the pass-band
transceiver, exploits the fact that different modulation schemes result
in different BER vs. received signal-to-noise ratio (SNR)
characteristics.  The key trade-off is thus between the modulation
and/or power levels and the BER." (§4)

Standard approximations over AWGN: BPSK/QPSK exact, square M-QAM via the
Gray-coded nearest-neighbour bound.  SNR below is Es/N0 per *symbol*
unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import erfc, erfcinv

__all__ = ["Modulation", "BPSK", "QPSK", "QAM16", "QAM64",
           "MODULATIONS", "db_to_linear"]


def db_to_linear(db: float) -> float:
    """Convert decibels to a linear power ratio."""
    return 10.0 ** (db / 10.0)


def _q(x: float) -> float:
    """The Gaussian tail function Q(x)."""
    return 0.5 * erfc(x / math.sqrt(2.0))


def _q_inv(p: float) -> float:
    """Inverse of Q."""
    if not 0.0 < p < 0.5:
        raise ValueError("Q^-1 defined for p in (0, 0.5)")
    return math.sqrt(2.0) * erfcinv(2.0 * p)


@dataclass(frozen=True)
class Modulation:
    """A square-constellation modulation scheme.

    Parameters
    ----------
    name:
        Label, e.g. ``"16-QAM"``.
    bits_per_symbol:
        log2 of the constellation size.
    """

    name: str
    bits_per_symbol: int

    def __post_init__(self) -> None:
        if self.bits_per_symbol < 1:
            raise ValueError("bits_per_symbol must be >= 1")

    @property
    def constellation_size(self) -> int:
        """M = 2^bits."""
        return 2 ** self.bits_per_symbol

    def ber(self, snr_per_bit: float) -> float:
        """Bit error rate at Eb/N0 = ``snr_per_bit`` (linear).

        BPSK/QPSK: Q(sqrt(2 γ_b)).  Square M-QAM: the standard
        Gray-coded approximation.
        """
        if snr_per_bit < 0:
            raise ValueError("SNR must be non-negative")
        b = self.bits_per_symbol
        if b <= 2:
            return _q(math.sqrt(2.0 * snr_per_bit))
        m = self.constellation_size
        gamma_s = snr_per_bit * b
        factor = 4.0 / b * (1.0 - 1.0 / math.sqrt(m))
        arg = math.sqrt(3.0 * gamma_s / (m - 1.0))
        return min(0.5, factor * _q(arg))

    def required_snr_per_bit(self, target_ber: float) -> float:
        """Eb/N0 (linear) needed to hit ``target_ber``."""
        if not 0.0 < target_ber < 0.5:
            raise ValueError("target BER must lie in (0, 0.5)")
        b = self.bits_per_symbol
        if b <= 2:
            return _q_inv(target_ber) ** 2 / 2.0
        m = self.constellation_size
        factor = 4.0 / b * (1.0 - 1.0 / math.sqrt(m))
        # target = factor * Q(arg)  ->  arg = Q^-1(target/factor)
        p = target_ber / factor
        arg = _q_inv(min(p, 0.499999))
        gamma_s = arg**2 * (m - 1.0) / 3.0
        return gamma_s / b

    def __str__(self) -> str:
        return self.name


BPSK = Modulation("BPSK", 1)
QPSK = Modulation("QPSK", 2)
QAM16 = Modulation("16-QAM", 4)
QAM64 = Modulation("64-QAM", 6)

#: The adaptive-modulation ladder used by the E6 policies.
MODULATIONS = (BPSK, QPSK, QAM16, QAM64)
