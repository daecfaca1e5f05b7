"""Spans and counts around ``repro``'s public entry points.

A :class:`Ledger` wraps functions and methods in place for one traced
run and restores the originals afterwards.  Each wrapped entry point is
recorded in one of four ways:

* ``span`` — one record per call (name, start, end, parent span, run
  id); for entry points called a handful of times per run;
* ``timed`` — call count plus summed inclusive and self seconds, with
  no per-call record; for hot entry points;
* ``count`` — call count only;
* ``iter`` — for generator functions: call count, items yielded, and
  the seconds spent producing them.

Self time is a call's duration minus the time of the traced calls made
inside it, whatever their kind, so per-name self times add up without
double counting.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

_clock = time.perf_counter

#: Modules searched for aliases of a wrapped function (``from x import
#: f`` copies it into the importing module's namespace).
_ALIAS_PREFIXES = ("repro", "networkx")


class Ledger:
    """Per-run record of spans, call counts and self times."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        # Open frames: [start, child_seconds, enclosing span id].
        self._stack: list[list] = [[0.0, 0.0, None]]
        self._patches: list[tuple[Any, str, Any]] = []

    # -- frames ----------------------------------------------------------
    def _leave(self, name: str, frame: list) -> float:
        end = _clock()
        self._stack.pop()
        duration = end - frame[0]
        self._stack[-1][1] += duration
        self.inclusive[name] += duration
        self.self_time[name] += duration - frame[1]
        return end

    def _span(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1][2]
            record = {"run": self.run_id, "id": span_id, "name": name,
                      "parent": parent}
            self.spans.append(record)
            self.calls[name] += 1
            frame = [_clock(), 0.0, span_id]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                record["end"] = self._leave(name, frame)
                record["start"] = frame[0]
                record["self"] = record["end"] - frame[0] - frame[1]
        return wrapper

    def _timed(self, name: str, fn: Callable,
               tally: Callable[[Any], str | None] | None) -> Callable:
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            frame = [_clock(), 0.0, self._stack[-1][2]]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, frame)
            if tally is not None:
                key = tally(result)
                if key is not None:
                    self.calls[key] += 1
            return result
        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _iter(self, name: str, fn: Callable) -> Callable:
        ledger = self

        class TimedIterator:
            def __init__(self, inner):
                self._inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                frame = [_clock(), 0.0, ledger._stack[-1][2]]
                ledger._stack.append(frame)
                try:
                    item = next(self._inner)
                finally:
                    ledger._leave(name, frame)
                ledger.calls[name + ".items"] += 1
                return item

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return TimedIterator(fn(*args, **kwargs))
        return wrapper

    # -- installing ------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str, kind: str = "span",
             tally: Callable[[Any], str | None] | None = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        For a module-level function every alias of it in ``repro`` and
        ``networkx`` modules is replaced too, so calls through the
        package namespace and the defining module are both seen.
        """
        original = vars(owner)[attr]
        if kind == "span":
            wrapper = self._span(name, original)
        elif kind == "timed":
            wrapper = self._timed(name, original, tally)
        elif kind == "count":
            wrapper = self._count(name, original)
        elif kind == "iter":
            wrapper = self._iter(name, original)
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        owners = [owner]
        if not isinstance(owner, type):
            owners = [
                module for key, module in list(sys.modules.items())
                if key.split(".")[0] in _ALIAS_PREFIXES
                and vars(module).get(attr) is original
            ]
        for target in owners:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first, and check it."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)
            if vars(target)[attr] is not original:
                raise RuntimeError(f"could not restore {target}.{attr}")

    # -- reading ---------------------------------------------------------
    def seconds(self, *names: str) -> float:
        """Summed self seconds of the named entries."""
        return sum(self.self_time.get(name, 0.0) for name in names)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)

    def write(self, path: Path, **extra: Any) -> None:
        """Write spans and per-name totals as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "run": self.run_id,
            "spans": self.spans,
            "calls": dict(sorted(self.calls.items())),
            "inclusive_s": dict(sorted(self.inclusive.items())),
            "self_s": dict(sorted(self.self_time.items())),
            **extra,
        }
        path.write_text(json.dumps(document, indent=1, sort_keys=True))
