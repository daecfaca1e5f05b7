"""Tests for the Fig.1(b) MPEG-2 decoder model."""

import pytest

from repro.streams import (
    Mpeg2Workload,
    build_mpeg2_application,
    simulate_mpeg2_decoder,
)


class TestMpeg2Application:
    def test_fig1b_topology(self):
        app = build_mpeg2_application()
        assert app.successors("vld") == ["idct", "mv"]
        assert set(app.predecessors("display")) == {"idct", "mv"}
        assert [p.name for p in app.sources()] == ["receive"]
        assert [p.name for p in app.sinks()] == ["display"]
        app.validate()

    def test_buffer_capacities_forwarded(self):
        app = build_mpeg2_application(b3_capacity=7, b4_capacity=3)
        assert app.channel("vld", "idct").buffer_capacity == 7
        assert app.channel("vld", "mv").buffer_capacity == 3

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            Mpeg2Workload(fps=0.0)


class TestMpeg2Simulation:
    def test_fast_cpu_keeps_realtime(self):
        report = simulate_mpeg2_decoder(
            cpu_frequency=400e6, horizon=10.0, warmup=1.0
        )
        assert report.realtime
        assert report.throughput_fps == pytest.approx(25.0, rel=0.1)

    def test_slow_cpu_loses_frames(self):
        # total demand ~2.8 Mcycles/frame * 25 fps = 70 Mcycles/s
        report = simulate_mpeg2_decoder(
            cpu_frequency=40e6, horizon=15.0, warmup=2.0
        )
        assert not report.realtime
        assert report.cpu_utilization > 0.9

    def test_pressure_raises_buffer_occupancy(self):
        relaxed = simulate_mpeg2_decoder(
            cpu_frequency=400e6, horizon=10.0, warmup=1.0
        )
        loaded = simulate_mpeg2_decoder(
            cpu_frequency=75e6, horizon=10.0, warmup=1.0
        )
        assert loaded.b3_mean_occupancy >= relaxed.b3_mean_occupancy

    def test_deterministic(self):
        a = simulate_mpeg2_decoder(horizon=5.0, seed=4)
        b = simulate_mpeg2_decoder(horizon=5.0, seed=4)
        assert a.throughput_fps == b.throughput_fps
        assert a.mean_latency == b.mean_latency
