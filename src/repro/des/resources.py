"""Shared, limited-capacity resources (servers, CPUs, links).

A :class:`Resource` is what a scheduler process contends for: requests are
granted in FIFO order up to the resource capacity, and the
request object doubles as a context manager so model code reads:

>>> from repro.des import Environment, Resource
>>> env = Environment()
>>> cpu = Resource(env, capacity=1)
>>> def job(env, cpu, log, name):
...     with cpu.request() as req:
...         yield req
...         yield env.timeout(2)
...         log.append((name, env.now))
>>> log = []
>>> _ = env.process(job(env, cpu, log, 'a'))
>>> _ = env.process(job(env, cpu, log, 'b'))
>>> env.run()
>>> log
[('a', 2.0), ('b', 4.0)]
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.des.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.des.environment import Environment
    from repro.obs.metrics import MetricRegistry

__all__ = ["Request", "Resource"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`."""

    # _requested_at is only assigned (and only read) when the owning
    # resource has a wait-time metric; the slot simply reserves it.
    __slots__ = ("resource", "_requested_at")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        if resource._m_wait is not None:
            self._requested_at = resource.env.now
        resource._enqueue(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        # GeneratorExit means the process's generator is being closed,
        # in practice by the garbage collector finalizing an abandoned
        # simulation; granting to its waiters then would tick metrics
        # at moments chosen by the collector, not by the model.
        if exc_type is not GeneratorExit:
            self.resource.release(self)
        return False


class Resource:
    """A FIFO resource with integer capacity.

    Attributes
    ----------
    users:
        Requests currently holding the resource.
    queue:
        Requests waiting to be granted.
    """

    def __init__(self, env: "Environment", capacity: int = 1, *,
                 name: str | None = None,
                 metrics: "MetricRegistry | None" = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self.name = name
        self.users: list[Request] = []
        self.queue: list[Request] = []
        # Metric handles, resolved once; anonymous resources share the
        # label "resource" (their wait times aggregate).
        registry = metrics if metrics is not None \
            else getattr(env, "metrics", None)
        if registry is not None:
            label = name or "resource"
            self._m_wait = registry.histogram(
                "resource_wait_time", resource=label)
            self._m_queue = registry.gauge(
                "resource_queue_len", resource=label)
            self._m_grants = registry.counter(
                "resource_grants", resource=label)
        else:
            self._m_wait = None
            self._m_queue = None
            self._m_grants = None

    @property
    def count(self) -> int:
        """Number of requests currently holding the resource."""
        return len(self.users)

    def request(self) -> Request:
        """Return a request event; yield it to wait for the grant."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Give the resource back (or cancel a waiting request)."""
        if request in self.users:
            self.users.remove(request)
            self._grant_next()
        elif request in self.queue:
            self.queue.remove(request)
        # Releasing an already-released request is a no-op so that the
        # with-statement exit stays safe after interrupts.

    def _enqueue(self, request: Request) -> None:
        self.queue.append(request)
        self._grant_next()

    def _note_grant(self, request: Request, pending: int) -> None:
        """Record wait time and queue length for a fresh grant."""
        now = self.env.now
        self._m_wait.observe(now - request._requested_at)
        self._m_grants.inc()
        self._m_queue.set(pending, now)

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.pop(0)
            self.users.append(request)
            request.succeed()
            if self._m_wait is not None:
                self._note_grant(request, len(self.queue))
