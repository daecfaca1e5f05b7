"""Processor parameterization (§3.1, customization level c).

"the designer may have the choice to parameterize the extensible
processor for a specific multimedia application.  Examples include
setting the size of instruction/data caches in order to accommodate for
the characteristics of the multimedia application, choosing the
endianness (little or big endian), choosing the number of general
purpose registers, etc."

The model: cache sizes set miss rates through the classical
power-law (√2 rule) curve, misses inflate every kernel's CPI; a small
register file adds spill overhead; endianness is functional (must match
the stream format — mismatches cost a byte-swap per access).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ProcessorParameters"]


@dataclass(frozen=True)
class ProcessorParameters:
    """Tunable structural parameters of the extensible core.

    Parameters
    ----------
    icache_kb, dcache_kb:
        Cache sizes in KiB (powers of two expected but not enforced).
    n_registers:
        General-purpose register count.
    little_endian:
        Core byte order.
    """

    icache_kb: float = 8.0
    dcache_kb: float = 8.0
    n_registers: int = 32
    little_endian: bool = True

    #: Model constants — per-access miss penalties and baseline rates.
    _MISS_PENALTY_CYCLES = 20.0
    _IMISS_AT_1KB = 0.08
    _DMISS_AT_1KB = 0.12
    _IACCESS_PER_CYCLE = 1.0
    _DACCESS_PER_CYCLE = 0.35

    def __post_init__(self) -> None:
        if self.icache_kb <= 0 or self.dcache_kb <= 0:
            raise ValueError("cache sizes must be positive")
        if self.n_registers < 8:
            raise ValueError("need at least 8 registers")

    def icache_miss_rate(self) -> float:
        """Instruction miss rate via the √2 rule (halves per 4×)."""
        return self._IMISS_AT_1KB / math.sqrt(self.icache_kb)

    def dcache_miss_rate(self) -> float:
        """Data miss rate via the √2 rule."""
        return self._DMISS_AT_1KB / math.sqrt(self.dcache_kb)

    def spill_overhead(self) -> float:
        """Extra cycle fraction from register spilling.

        ~12% at 8 registers, decaying with the register count (media
        kernels have moderate live ranges).
        """
        return 1.0 / self.n_registers

    def cycle_multiplier(self, stream_little_endian: bool = True
                         ) -> float:
        """CPI inflation factor relative to a perfect memory system.

        Multiplies every kernel's cycle count: cache stalls + register
        spills + (if the byte orders differ) a swap penalty on data
        accesses.
        """
        stall = self._MISS_PENALTY_CYCLES * (
            self._IACCESS_PER_CYCLE * self.icache_miss_rate()
            + self._DACCESS_PER_CYCLE * self.dcache_miss_rate()
        )
        swap = (0.0 if self.little_endian == stream_little_endian
                else 0.05 * self._DACCESS_PER_CYCLE)
        return 1.0 + stall + self.spill_overhead() + swap

    def gates(self) -> float:
        """Silicon cost of the parameterized structures.

        ~1.1k gates per KiB of SRAM-equivalent cache plus ~220 gates
        per 32-bit register.
        """
        return (1_100.0 * (self.icache_kb + self.dcache_kb)
                + 220.0 * self.n_registers)

