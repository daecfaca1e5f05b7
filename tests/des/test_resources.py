"""Tests for resources."""

import gc

import pytest

from repro.des import Environment, Interrupt, Resource
from repro.obs import MetricRegistry


def make_job(env, resource, log, name, hold):
    def job():
        with resource.request() as req:
            yield req
            start = env.now
            yield env.timeout(hold)
            log.append((name, start, env.now))
    return env.process(job())


class TestResource:
    def test_capacity_one_serializes(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        log = []
        make_job(env, cpu, log, "a", 2)
        make_job(env, cpu, log, "b", 2)
        env.run()
        assert log == [("a", 0.0, 2.0), ("b", 2.0, 4.0)]

    def test_capacity_two_overlaps(self):
        env = Environment()
        cpu = Resource(env, capacity=2)
        log = []
        for name in "abc":
            make_job(env, cpu, log, name, 2)
        env.run()
        # a and b run together; c starts when the first finishes
        assert log[0][:2] == ("a", 0.0)
        assert log[1][:2] == ("b", 0.0)
        assert log[2][1] == 2.0

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_count_reflects_users(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        log = []
        make_job(env, cpu, log, "a", 5)
        env.run(until=1)
        assert cpu.count == 1
        env.run(until=10)
        assert cpu.count == 0

    def test_release_waiting_request_cancels_it(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        holder = cpu.request()
        waiter = cpu.request()
        assert waiter in cpu.queue
        cpu.release(waiter)
        assert waiter not in cpu.queue
        cpu.release(holder)
        assert cpu.count == 0

    def test_double_release_is_noop(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        req = cpu.request()
        cpu.release(req)
        cpu.release(req)  # must not raise
        assert cpu.count == 0

    def test_interrupted_waiter_leaves_cleanly(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        log = []

        def holder(env):
            with cpu.request() as req:
                yield req
                yield env.timeout(10)

        def impatient(env):
            with cpu.request() as req:
                try:
                    yield req
                    log.append("granted")
                except Interrupt:
                    log.append("gave-up")

        def interrupter(env, victim):
            yield env.timeout(1)
            victim.interrupt()

        env.process(holder(env))
        victim = env.process(impatient(env))
        env.process(interrupter(env, victim))
        env.run()
        assert log == ["gave-up"]
        assert len(cpu.queue) == 0


    def test_collected_simulation_grants_nothing(self):
        # Collecting an abandoned simulation closes its suspended
        # processes; the holder's with-block must not hand the
        # resource on, or the grant lands in a live run's metrics at
        # a moment chosen by the garbage collector.
        registry = MetricRegistry()
        env = Environment(metrics=registry)
        cpu = Resource(env, capacity=1)
        for _ in range(3):
            make_job(env, cpu, [], "job", hold=10)
        env.run(until=1)
        grants = registry.counter("resource_grants", resource="resource")
        assert grants.value == 1
        del env, cpu
        gc.collect()
        assert grants.value == 1

