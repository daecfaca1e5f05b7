"""Tests for the simulation environment and run loop."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import NORMAL, URGENT, EmptySchedule, Environment


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_timeout_advances_clock(self):
        env = Environment()
        def proc(env):
            yield env.timeout(3.5)
        env.process(proc(env))
        env.run()
        assert env.now == 3.5

    def test_run_until_time_sets_clock(self):
        env = Environment()
        env.run(until=100.0)
        assert env.now == 100.0

    def test_run_until_past_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(ValueError):
            env.run(until=5.0)

    def test_peek_empty_is_inf(self):
        assert Environment().peek() == math.inf

    def test_step_empty_raises(self):
        with pytest.raises(EmptySchedule):
            Environment().step()


class TestRunUntilEvent:
    def test_returns_event_value(self):
        env = Environment()
        def proc(env):
            yield env.timeout(2)
            return "done"
        p = env.process(proc(env))
        assert env.run(until=p) == "done"
        assert env.now == 2.0

    def test_already_processed_event(self):
        env = Environment()
        def proc(env):
            yield env.timeout(1)
            return 42
        p = env.process(proc(env))
        env.run()
        assert env.run(until=p) == 42

    def test_unreachable_event_raises(self):
        env = Environment()
        ev = env.event()  # never triggered
        with pytest.raises(EmptySchedule):
            env.run(until=ev)


class TestOrdering:
    def test_fifo_at_equal_times(self):
        env = Environment()
        log = []
        def proc(env, name):
            yield env.timeout(1)
            log.append(name)
        for name in "abc":
            env.process(proc(env, name))
        env.run()
        assert log == ["a", "b", "c"]

    def test_urgent_before_normal(self):
        env = Environment()
        log = []
        normal = env.event()
        urgent = env.event()
        normal.callbacks.append(lambda e: log.append("normal"))
        urgent.callbacks.append(lambda e: log.append("urgent"))
        normal._ok = True
        normal._value = None
        urgent._ok = True
        urgent._value = None
        env.schedule(normal)
        env.schedule(urgent, priority=URGENT)
        env.run()
        assert log == ["urgent", "normal"]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.schedule(env.event(), delay=-1)

    @given(st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0.0, 1.5, 10.0]),
                      st.floats(min_value=0, max_value=100,
                                allow_nan=False)),
            st.sampled_from([URGENT, NORMAL]),
            st.one_of(st.none(), st.sampled_from([0.0, 1.5]),
                      st.floats(min_value=0, max_value=10,
                                allow_nan=False))),
        min_size=1, max_size=30))
    def test_events_processed_in_time_order(self, entries):
        # Each entry is (delay, priority, follow-up delay or None); a
        # follow-up is a timeout scheduled while the run is under way.
        env = Environment()
        fired = []

        def fire(label, follow_up):
            def callback(event):
                fired.append((env.now, label))
                if follow_up is not None:
                    env.timeout(follow_up).callbacks.append(
                        fire(label + "'", None))
            return callback

        for seq, (delay, priority, follow_up) in enumerate(entries):
            event = env.event()
            event._ok = True
            event._value = None
            event.callbacks.append(fire(str(seq), follow_up))
            env.schedule(event, delay, priority)
        env.run()

        # Reference: repeatedly take the minimum (time, priority,
        # insertion) entry of a sorted list.
        pending = [(delay, priority, seq, str(seq), follow_up)
                   for seq, (delay, priority, follow_up)
                   in enumerate(entries)]
        expected = []
        seq = len(pending)
        while pending:
            pending.sort(key=lambda entry: entry[:3])
            time, _, _, label, follow_up = pending.pop(0)
            expected.append((time, label))
            if follow_up is not None:
                pending.append((time + follow_up, NORMAL, seq,
                                label + "'", None))
                seq += 1
        assert fired == expected
        times = [time for time, _ in fired]
        assert times == sorted(times)
        assert len(fired) == len(entries) + sum(
            follow_up is not None for _, _, follow_up in entries)

    def test_step_runs_one_of_two_simultaneous_events(self):
        env = Environment()
        log = []
        for name in "ab":
            env.timeout(1.0).callbacks.append(
                lambda event, name=name: log.append(name))
        env.step()
        assert log == ["a"]
        assert env.now == 1.0
        assert env.peek() == 1.0
        env.step()
        assert log == ["a", "b"]
        with pytest.raises(EmptySchedule):
            env.step()


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def build_and_run():
            env = Environment()
            trace = []
            def ping(env, period, name):
                while env.now < 10:
                    yield env.timeout(period)
                    trace.append((env.now, name))
            env.process(ping(env, 1.0, "a"))
            env.process(ping(env, 1.5, "b"))
            env.run(until=20)
            return trace
        assert build_and_run() == build_and_run()
