"""Tests for the sink and the end-to-end Fig.1(a) pipeline."""

import math

import pytest

from repro.streams import (
    BernoulliModel,
    CBRSource,
    Channel,
    GilbertElliottModel,
    MpegSource,
    Sink,
    StreamPipeline,
)


def cbr_pipeline(bandwidth=1e6, error_model=None, max_retries=0,
                 rate=50.0, startup=0.0, rx_size=32):
    return StreamPipeline(
        source=CBRSource(rate_hz=rate, packet_bits=8_000.0, seed=1),
        channel=Channel(bandwidth=bandwidth, error_model=error_model,
                        max_retries=max_retries, seed=2),
        sink=Sink(display_rate_hz=rate, startup_delay=startup),
        rx_buffer_size=rx_size,
    )


class TestSink:
    def test_validation(self):
        with pytest.raises(ValueError):
            Sink(display_rate_hz=0.0)
        with pytest.raises(ValueError):
            Sink(display_rate_hz=1.0, startup_delay=-1.0)

    def test_underrun_rate_empty(self):
        sink = Sink(display_rate_hz=10.0)
        assert math.isnan(sink.underrun_rate)

    def test_throughput_requires_positive_horizon(self):
        sink = Sink(display_rate_hz=10.0)
        with pytest.raises(ValueError):
            sink.throughput(0.0)


class TestStreamPipeline:
    def test_lossless_cbr_delivers(self):
        report = cbr_pipeline().run(horizon=10.0)
        assert report.loss_rate == 0.0
        assert report.displayed >= report.emitted - 2
        assert report.throughput == pytest.approx(50.0, rel=0.05)

    def test_latency_includes_serialization(self):
        report = cbr_pipeline(bandwidth=100_000.0).run(horizon=10.0)
        # 8000 bits at 100 kbit/s = 80 ms serialization minimum
        assert report.mean_latency >= 0.08

    def test_slow_channel_fills_tx_buffer_and_drops(self):
        # offered 400 kbit/s into a 100 kbit/s channel
        report = cbr_pipeline(bandwidth=100_000.0, rx_size=4).run(
            horizon=30.0
        )
        assert report.tx_drops > 0
        assert report.loss_rate > 0.5

    def test_lossy_channel_causes_underruns(self):
        lossless = cbr_pipeline().run(horizon=20.0)
        lossy = cbr_pipeline(
            error_model=BernoulliModel(p_loss=0.3)
        ).run(horizon=20.0)
        assert lossy.underrun_rate > lossless.underrun_rate
        assert lossy.loss_rate == pytest.approx(0.3, abs=0.05)

    def test_arq_trades_latency_for_loss(self):
        no_arq = cbr_pipeline(
            error_model=BernoulliModel(p_loss=0.3)
        ).run(horizon=20.0)
        with_arq = cbr_pipeline(
            error_model=BernoulliModel(p_loss=0.3), max_retries=5
        ).run(horizon=20.0)
        assert with_arq.loss_rate < no_arq.loss_rate
        assert with_arq.channel.retransmissions > 0

    def test_startup_delay_reduces_underruns_on_bursty_channel(self):
        def run(startup):
            pipe = StreamPipeline(
                source=MpegSource(fps=25.0, i_frame_bits=100_000.0,
                                  seed=5),
                channel=Channel(
                    bandwidth=3e6,
                    error_model=GilbertElliottModel(
                        loss_bad=0.0, error_bad=0.0,
                    ),
                    seed=6,
                ),
                sink=Sink(display_rate_hz=25.0, startup_delay=startup),
                rx_buffer_size=64,
            )
            return pipe.run(horizon=30.0)

        eager = run(0.0)
        buffered = run(1.0)
        assert buffered.underrun_rate <= eager.underrun_rate
        assert buffered.mean_latency > eager.mean_latency

    def test_goodput_ratio_bounded(self):
        report = cbr_pipeline(
            error_model=BernoulliModel(p_error=0.2)
        ).run(horizon=10.0)
        assert 0.0 <= report.goodput_ratio <= 1.0
        assert report.corruption_rate == pytest.approx(0.2, abs=0.06)

    def test_buffer_occupancy_reported(self):
        report = cbr_pipeline(bandwidth=150_000.0).run(horizon=20.0)
        assert report.tx_buffer_mean > 0.5  # congested Tx side

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamPipeline(
                source=CBRSource(1.0, 1.0),
                channel=Channel(bandwidth=1.0),
                sink=Sink(display_rate_hz=1.0),
                tx_buffer_size=0,
            )
        with pytest.raises(ValueError):
            cbr_pipeline().run(horizon=0.0)

    def test_no_horizon_is_an_error(self):
        with pytest.raises(TypeError, match="horizon"):
            cbr_pipeline().run()
