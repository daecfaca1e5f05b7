"""In-simulation fault injectors.

A :class:`FaultInjector` is a DES process that repeatedly samples a
time-to-failure from a :class:`FailureModel`, breaks its target, then
(unless the failure is permanent) samples a time-to-repair and mends
it.  Targets are *breakables*: anything exposing ``fail(cause)`` and
``repair()``, such as a stream
:class:`~repro.streams.channel.Channel`, or ``None`` to record the
outage windows alone.

Everything is seeded through :func:`repro.utils.rng.spawn_rng`, so a
fault-injected run is exactly as reproducible as a fault-free one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.des.events import Interrupt
from repro.utils.rng import spawn_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.des.environment import Environment

__all__ = [
    "FailureModel",
    "FaultEvent",
    "FaultInjector",
    "session_fault_plan",
    "all_down_intervals",
]


@dataclass(frozen=True)
class FailureModel:
    """Fail/repair dynamics of one component.

    Parameters
    ----------
    mtbf:
        Mean time between failures (model time units).
    mttr:
        Mean time to repair; ``None`` = permanent failure (crash),
        ``0`` = transient glitch (fail and repair at the same instant,
        e.g. a dropped packet or a bit flip).
    shape:
        Weibull shape parameter for the time-to-failure; ``1.0`` is the
        exponential (memoryless) special case, ``>1`` models wear-out,
        ``<1`` infant mortality.  Repairs are always exponential.
    """

    mtbf: float
    mttr: float | None = None
    shape: float = 1.0

    def __post_init__(self) -> None:
        if self.mtbf <= 0:
            raise ValueError("mtbf must be positive")
        if self.mttr is not None and self.mttr < 0:
            raise ValueError("mttr must be non-negative when given")
        if self.shape <= 0:
            raise ValueError("shape must be positive")

    @classmethod
    def exponential(cls, mtbf: float,
                    mttr: float | None = None) -> "FailureModel":
        """Memoryless fail/repair — the classical availability model."""
        return cls(mtbf=mtbf, mttr=mttr, shape=1.0)

    @classmethod
    def weibull(cls, mtbf: float, shape: float,
                mttr: float | None = None) -> "FailureModel":
        """Weibull time-to-failure with the given *mean* and shape."""
        return cls(mtbf=mtbf, mttr=mttr, shape=shape)

    @classmethod
    def crash(cls, mtbf: float) -> "FailureModel":
        """One permanent failure, exponentially distributed."""
        return cls(mtbf=mtbf, mttr=None, shape=1.0)

    @classmethod
    def transient(cls, rate: float) -> "FailureModel":
        """Instantaneous glitches at ``rate`` per time unit."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        return cls(mtbf=1.0 / rate, mttr=0.0, shape=1.0)

    @property
    def permanent(self) -> bool:
        """True when failures are never repaired."""
        return self.mttr is None

    def steady_availability(self) -> float:
        """Long-run availability MTBF/(MTBF+MTTR); 0 if permanent."""
        if self.mttr is None:
            return 0.0
        return self.mtbf / (self.mtbf + self.mttr)

    def sample_ttf(self, rng) -> float:
        """Draw one time-to-failure."""
        if self.shape == 1.0:
            return float(rng.exponential(self.mtbf))
        # Weibull with mean mtbf: scale = mtbf / Gamma(1 + 1/shape).
        scale = self.mtbf / math.gamma(1.0 + 1.0 / self.shape)
        return float(scale * rng.weibull(self.shape))

    def sample_ttr(self, rng) -> float:
        """Draw one time-to-repair (0 for transient glitches)."""
        if self.mttr is None:
            raise RuntimeError("permanent failures are never repaired")
        if self.mttr == 0:
            return 0.0
        return float(rng.exponential(self.mttr))


class FaultEvent:
    """The cause object delivered with an injected fault.

    Passed to the target's ``fail``; a stream channel forwards it as
    the :class:`~repro.des.events.Interrupt` cause to its relay, so
    handlers can distinguish injected faults from other interrupts.
    """

    def __init__(self, injector: str, index: int, time: float,
                 permanent: bool = False):
        self.injector = injector
        self.index = index
        self.time = time
        self.permanent = permanent

    def __repr__(self) -> str:
        kind = "permanent" if self.permanent else "recoverable"
        return (f"FaultEvent({self.injector!r} #{self.index} "
                f"at t={self.time:g}, {kind})")


class FaultInjector:
    """A DES process breaking and repairing one target.

    Parameters
    ----------
    env:
        Simulation environment.
    target:
        Any breakable (``fail(cause)``/``repair()``); ``None`` records
        fault windows without touching anything (useful when the
        windows themselves are the model, as in the ambient studies).
    model:
        Fail/repair dynamics.
    seed, name:
        Reproducible RNG stream identity; two injectors with distinct
        names draw independent streams from the same master seed.
    start_delay:
        Grace period before the first time-to-failure is sampled.

    Attributes
    ----------
    windows:
        ``(down_at, up_at)`` pairs per completed outage; ``up_at`` is
        ``None`` for a permanent failure.
    n_failures:
        Number of faults injected so far.
    """

    def __init__(
        self,
        env: "Environment",
        target,
        model: FailureModel,
        seed: int = 0,
        name: str = "fault",
        start_delay: float = 0.0,
    ):
        if start_delay < 0:
            raise ValueError("start_delay must be non-negative")
        self.env = env
        self.target = target
        self.model = model
        self.name = name
        self.start_delay = start_delay
        self.windows: list[tuple[float, float | None]] = []
        self.n_failures = 0
        self._rng = spawn_rng(seed, f"fault-injector:{name}")
        self.process = env.process(self._run())

    @property
    def down(self) -> bool:
        """True while the target is inside an outage window."""
        return bool(self.windows) and self.windows[-1][1] is None

    def downtime(self, horizon: float) -> float:
        """Total outage time within ``[0, horizon]``."""
        total = 0.0
        for down_at, up_at in self.windows:
            if down_at >= horizon:
                break
            total += min(up_at if up_at is not None else horizon,
                         horizon) - down_at
        return total

    def availability(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` the target was in service."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return 1.0 - self.downtime(horizon) / horizon

    def _run(self):
        try:
            if self.start_delay:
                yield self.env.timeout(self.start_delay)
            while True:
                yield self.env.timeout(
                    self.model.sample_ttf(self._rng)
                )
                self.n_failures += 1
                down_at = self.env.now
                cause = FaultEvent(self.name, self.n_failures, down_at,
                                   permanent=self.model.permanent)
                self.windows.append((down_at, None))
                if self.target is not None:
                    self.target.fail(cause)
                if self.model.permanent:
                    return
                ttr = self.model.sample_ttr(self._rng)
                if ttr > 0:
                    yield self.env.timeout(ttr)
                self.windows[-1] = (down_at, self.env.now)
                if self.target is not None:
                    self.target.repair()
        except Interrupt:
            return  # stop(): retire quietly, target left as-is

    def stop(self) -> None:
        """Retire the injector (leaves the target as-is)."""
        if self.process.is_alive:
            self.process.interrupt("injector-stopped")

    def __repr__(self) -> str:
        return (f"FaultInjector({self.name!r}, failures="
                f"{self.n_failures})")


def all_down_intervals(
    down_windows: list[list[tuple[float, float | None]]],
    horizon: float,
) -> list[tuple[float, float]]:
    """Maximal sub-intervals of ``[0, horizon]`` during which *every*
    replica was simultaneously down.

    ``down_windows[i]`` is replica *i*'s outage list in
    :attr:`FaultInjector.windows` form (``up_at`` of ``None`` = still
    down).  Used by the live ambient study to turn per-node injector
    records into zone outage intervals.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not down_windows:
        return []
    # Sweep: +1 when a replica goes down, -1 when it comes back; ties
    # sort repairs first, so zero-length overlaps never appear.
    edges: list[tuple[float, int]] = []
    for windows in down_windows:
        for down_at, up_at in windows:
            start = min(down_at, horizon)
            end = min(up_at if up_at is not None else horizon, horizon)
            if end > start:
                edges.append((start, +1))
                edges.append((end, -1))
    edges.sort()
    n_replicas = len(down_windows)
    intervals: list[tuple[float, float]] = []
    down_count = 0
    all_down_since = 0.0
    for time, delta in edges:
        if down_count == n_replicas and time > all_down_since:
            intervals.append((all_down_since, time))
        down_count += delta
        if down_count == n_replicas:
            all_down_since = time
    if down_count == n_replicas and horizon > all_down_since:
        intervals.append((all_down_since, horizon))  # pragma: no cover
    return intervals


def session_fault_plan(
    n_nodes: int,
    n_sessions: int,
    model: FailureModel,
    seed: int = 0,
) -> dict[int, list[tuple[int, str]]]:
    """Session-indexed fault schedule for discrete-round simulations.

    The MANET lifetime experiment advances in *sessions* rather than
    continuous time; this samples each node's fail/repair trajectory in
    session units and returns ``{session: [(node_id, "fail"|"repair"),
    ...]}`` to be applied at the top of each round.
    """
    if n_nodes < 1 or n_sessions < 1:
        raise ValueError("need at least one node and session")
    plan: dict[int, list[tuple[int, str]]] = {}
    for node in range(n_nodes):
        rng = spawn_rng(seed, f"session-faults:{node}")
        t = 0.0
        while True:
            t += model.sample_ttf(rng)
            session = int(math.ceil(t))
            if session > n_sessions:
                break
            plan.setdefault(session, []).append((node, "fail"))
            if model.permanent:
                break
            t += model.sample_ttr(rng)
            session = int(math.ceil(t))
            if session > n_sessions:
                break
            plan.setdefault(session, []).append((node, "repair"))
    return plan
