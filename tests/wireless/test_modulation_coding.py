"""Tests for modulation BER curves, channel codes and the channel model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.wireless import (
    BPSK,
    CODE_LADDER,
    ChannelState,
    ConvolutionalCode,
    FiniteStateChannel,
    MODULATIONS,
    QAM16,
    QAM64,
    QPSK,
    UNCODED,
    db_to_linear,
    path_loss,
)


class TestDbConversions:
    def test_known_values(self):
        assert db_to_linear(3.0) == pytest.approx(1.995, rel=1e-3)
        assert db_to_linear(20.0) == pytest.approx(100.0)


class TestModulation:
    def test_bpsk_textbook_point(self):
        # BER of BPSK at Eb/N0 = 9.6 dB is ~1e-5
        assert BPSK.ber(db_to_linear(9.6)) == pytest.approx(1e-5,
                                                            rel=0.2)

    def test_qpsk_same_ber_as_bpsk_per_bit(self):
        snr = db_to_linear(8.0)
        assert QPSK.ber(snr) == pytest.approx(BPSK.ber(snr))

    def test_higher_order_needs_more_snr(self):
        snr = db_to_linear(10.0)
        assert QAM64.ber(snr) > QAM16.ber(snr) > QPSK.ber(snr)

    def test_ber_decreasing_in_snr(self):
        for mod in MODULATIONS:
            bers = [mod.ber(db_to_linear(d)) for d in range(0, 25, 3)]
            assert bers == sorted(bers, reverse=True)

    def test_required_snr_inverts_ber(self):
        for mod in MODULATIONS:
            snr = mod.required_snr_per_bit(1e-5)
            assert mod.ber(snr) == pytest.approx(1e-5, rel=1e-6)

    @given(st.sampled_from(MODULATIONS),
           st.floats(min_value=1e-8, max_value=1e-2))
    def test_required_snr_roundtrip(self, mod, target):
        snr = mod.required_snr_per_bit(target)
        assert mod.ber(snr) == pytest.approx(target, rel=1e-5)

    def test_ber_capped_at_half(self):
        assert QAM64.ber(0.0) <= 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            BPSK.ber(-1.0)
        with pytest.raises(ValueError):
            BPSK.required_snr_per_bit(0.6)

    def test_constellation_size(self):
        assert QAM16.constellation_size == 16
        assert QAM64.constellation_size == 64


class TestConvolutionalCode:
    def test_uncoded_properties(self):
        assert UNCODED.is_uncoded
        assert UNCODED.coding_gain == pytest.approx(1.0)
        assert UNCODED.decoder_ops_per_bit() == 0.0
        assert UNCODED.channel_bits(100.0) == 100.0

    def test_decoder_complexity_exponential(self):
        k5 = CODE_LADDER[2]
        k7 = CODE_LADDER[3]
        assert k7.decoder_ops_per_bit() == pytest.approx(
            4 * k5.decoder_ops_per_bit()
        )

    def test_gain_monotone_on_ladder(self):
        gains = [c.coding_gain_db for c in CODE_LADDER]
        assert gains == sorted(gains)

    def test_channel_bits_rate(self):
        code = ConvolutionalCode(3, 0.5, 3.0)
        assert code.channel_bits(100.0) == 200.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvolutionalCode(0, 0.5, 1.0)
        with pytest.raises(ValueError):
            ConvolutionalCode(3, 1.5, 1.0)
        with pytest.raises(ValueError):
            ConvolutionalCode(3, 0.5, -1.0)
        with pytest.raises(ValueError):
            UNCODED.channel_bits(-1.0)
        with pytest.raises(ValueError):
            UNCODED.decoder_energy_per_bit(-1.0)


class TestChannel:
    def test_path_loss_monotone(self):
        assert path_loss(20.0) > path_loss(10.0)

    def test_path_loss_exponent(self):
        assert path_loss(10.0, exponent=3.0) / path_loss(1.0, 3.0) == \
            pytest.approx(1000.0)

    def test_path_loss_validation(self):
        with pytest.raises(ValueError):
            path_loss(0.0)
        with pytest.raises(ValueError):
            path_loss(1.0, exponent=0.5)

    def test_state_probabilities_must_sum(self):
        with pytest.raises(ValueError):
            FiniteStateChannel(states=[
                ChannelState("a", 0.0, 0.5),
                ChannelState("b", 5.0, 0.3),
            ])

    def test_snr_power_roundtrip(self):
        channel = FiniteStateChannel.indoor_default()
        state = channel.states[-1]
        power = channel.required_tx_power(snr=100.0, state=state)
        assert channel.snr(power, state) == pytest.approx(100.0)

    def test_fade_lowers_snr(self):
        channel = FiniteStateChannel.indoor_default()
        los, fade = channel.states[0], channel.states[-1]
        assert channel.snr(0.1, fade) < channel.snr(0.1, los)

    def test_sample_states_distribution(self):
        channel = FiniteStateChannel.indoor_default()
        samples = channel.sample_states(20_000, seed=1)
        fraction_los = sum(
            1 for s in samples if s.name == "los"
        ) / len(samples)
        assert fraction_los == pytest.approx(0.35, abs=0.02)

    def test_validation(self):
        channel = FiniteStateChannel.indoor_default()
        with pytest.raises(ValueError):
            channel.snr(0.0, channel.states[0])
        with pytest.raises(ValueError):
            channel.required_tx_power(0.0, channel.states[0])
        with pytest.raises(ValueError):
            FiniteStateChannel(states=[])
