"""Fault injectors: models, windows, reproducibility."""

import pytest

from repro.des import Environment
from repro.resilience import (
    FailureModel,
    FaultEvent,
    FaultInjector,
    all_down_intervals,
    session_fault_plan,
)
from repro.utils.rng import spawn_rng


class Recorder:
    """A breakable target that logs the cause of every fault."""

    def __init__(self):
        self.causes = []

    def fail(self, cause=None):
        self.causes.append(cause)

    def repair(self):
        pass


class TestFailureModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            FailureModel(mtbf=0.0)
        with pytest.raises(ValueError):
            FailureModel(mtbf=1.0, mttr=-1.0)
        with pytest.raises(ValueError):
            FailureModel(mtbf=1.0, shape=0.0)

    def test_steady_availability(self):
        model = FailureModel.exponential(mtbf=9.0, mttr=1.0)
        assert model.steady_availability() == pytest.approx(0.9)
        assert FailureModel.crash(mtbf=5.0).steady_availability() == 0.0

    def test_crash_is_permanent(self):
        assert FailureModel.crash(mtbf=1.0).permanent
        assert not FailureModel.exponential(1.0, mttr=1.0).permanent

    def test_transient_rate(self):
        model = FailureModel.transient(rate=4.0)
        assert model.mtbf == pytest.approx(0.25)
        assert model.mttr == 0.0

    def test_weibull_mean_matches_mtbf(self):
        model = FailureModel.weibull(mtbf=3.0, shape=2.0)
        rng = spawn_rng(0, "weibull-mean")
        samples = [model.sample_ttf(rng) for _ in range(20_000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(3.0, rel=0.05)

    def test_permanent_repair_sampling_rejected(self):
        with pytest.raises(RuntimeError):
            FailureModel.crash(1.0).sample_ttr(spawn_rng(0, "x"))


class TestFaultInjector:
    def test_windows_alternate_and_close(self):
        env = Environment()
        injector = FaultInjector(
            env, None, FailureModel.exponential(mtbf=1.0, mttr=0.5),
            seed=1,
        )
        env.run(until=50.0)
        assert injector.n_failures > 5
        for down_at, up_at in injector.windows[:-1]:
            assert up_at is not None and up_at >= down_at
        # Availability consistent with the windows.
        measured = injector.availability(50.0)
        assert 0.0 < measured < 1.0
        assert measured == pytest.approx(
            1.0 - injector.downtime(50.0) / 50.0
        )

    def test_permanent_fault_fires_once(self):
        env = Environment()
        target = Recorder()
        injector = FaultInjector(env, target, FailureModel.crash(2.0),
                                 seed=3)
        env.run(until=100.0)
        log = target.causes
        assert injector.n_failures == 1
        assert len(log) == 1
        assert isinstance(log[0], FaultEvent)
        assert log[0].permanent
        assert injector.down

    def test_reproducible_schedules(self):
        def windows(seed):
            env = Environment()
            injector = FaultInjector(
                env, None,
                FailureModel.exponential(mtbf=2.0, mttr=1.0), seed=seed,
            )
            env.run(until=200.0)
            return injector.windows

        assert windows(7) == windows(7)
        assert windows(7) != windows(8)

    def test_start_delay_defers_first_fault(self):
        env = Environment()
        injector = FaultInjector(
            env, None, FailureModel.exponential(mtbf=0.1, mttr=0.1),
            seed=0, start_delay=10.0,
        )
        env.run(until=10.0)
        assert injector.n_failures == 0

    def test_stop_retires_injector(self):
        env = Environment()
        target = Recorder()
        hits = target.causes
        injector = FaultInjector(
            env, target, FailureModel.exponential(mtbf=1.0, mttr=0.1),
            seed=0,
        )
        env.run(until=5.0)
        injector.stop()
        count = len(hits)
        env.run(until=50.0)
        assert len(hits) == count


class TestWindowAlgebra:
    def test_all_down_intervals_intersection(self):
        windows = [
            [(0.0, 4.0), (8.0, None)],
            [(2.0, 6.0), (7.0, 9.0)],
        ]
        assert all_down_intervals(windows, 10.0) == [
            (2.0, 4.0), (8.0, 9.0),
        ]

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            all_down_intervals([[]], 0.0)


class TestSessionFaultPlan:
    def test_plan_alternates_fail_repair(self):
        plan = session_fault_plan(
            5, 500, FailureModel.exponential(mtbf=50.0, mttr=20.0),
            seed=4,
        )
        per_node: dict[int, list[str]] = {}
        for session in sorted(plan):
            for node, action in plan[session]:
                per_node.setdefault(node, []).append(action)
        assert per_node  # something happened in 500 sessions
        for actions in per_node.values():
            # Strictly alternating, starting with a failure.
            assert actions[0] == "fail"
            for a, b in zip(actions, actions[1:]):
                assert a != b

    def test_permanent_plan_fails_each_node_once(self):
        plan = session_fault_plan(
            8, 10_000, FailureModel.crash(mtbf=100.0), seed=0,
        )
        all_events = [e for events in plan.values() for e in events]
        assert all(action == "fail" for _, action in all_events)
        assert len({node for node, _ in all_events}) == len(all_events)

    def test_reproducible(self):
        model = FailureModel.exponential(mtbf=30.0, mttr=10.0)
        assert session_fault_plan(4, 300, model, seed=1) == \
            session_fault_plan(4, 300, model, seed=1)
