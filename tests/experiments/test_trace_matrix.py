"""Smoke matrix: every registered experiment must run under tracing,
and repeat for its seed.

``repro.experiments.run(id, trace=...)`` across ALL registered ids has
to complete, leave a non-trivial trace for every experiment that
touches the DES kernel, and export that trace as loadable JSONL.  A
capped tracer bounds memory (some experiments emit millions of
events); the cap must not affect completion.  The same id rerun
untraced with the same seed must give a byte-equal ``strip_timings()``
payload apart from the trace summary itself: the determinism contract,
checked on the whole registry.
"""

from __future__ import annotations

import json

import pytest

from repro import experiments
from repro.obs import Tracer

#: Events kept per experiment; enough for spans/timelines, small
#: enough that the densest experiments stay cheap.
MAX_EVENTS = 20_000


def _payload(result) -> str:
    stripped = result.strip_timings()
    stripped["report"].pop("trace", None)
    return json.dumps(stripped, sort_keys=True)


@pytest.mark.parametrize("exp_id", experiments.ids())
def test_run_with_tracing_emits_loadable_jsonl(exp_id, tmp_path):
    tracer = Tracer(max_events=MAX_EVENTS)
    result = experiments.run(exp_id, seed=0, trace=tracer)
    assert result.metrics, f"{exp_id} returned no KPIs under tracing"
    assert _payload(experiments.run(exp_id, seed=0)) == _payload(result), (
        f"{exp_id}: two same-seed runs disagree")

    path = tmp_path / f"{exp_id}.jsonl"
    n_written = tracer.to_jsonl(path)
    assert n_written == len(tracer.events) <= MAX_EVENTS

    loaded = Tracer.from_jsonl(path)
    assert len(loaded) == n_written
    for line in path.read_text(encoding="utf-8").splitlines():
        json.loads(line)  # every line is a standalone JSON object

    if n_written:  # kernel-backed experiments leave kernel events
        kinds = set(loaded.counts())
        assert kinds & {"schedule", "step", "process-start"}, (
            f"{exp_id} traced {n_written} events but none from the "
            f"kernel: {sorted(kinds)}"
        )


def test_matrix_covers_all_registered_ids():
    ids = experiments.ids()
    assert len(ids) == len(set(ids)) >= 20


def test_tracer_instance_is_used_verbatim():
    tracer = Tracer(max_events=10)
    result = experiments.run("e16", seed=0, trace=tracer)
    assert result is not None
    assert len(tracer.events) == 10
    assert tracer.n_dropped > 0


def test_default_trace_inherits_ambient_tracer():
    # Profiling a whole experiments.run() call must see its processes:
    # trace=False inherits the ambient tracer instead of shadowing it.
    from repro.obs import instrument

    ambient = Tracer(max_events=1000)
    with instrument(tracer=ambient):
        result = experiments.run("e16", seed=0)
    assert result.tracer is ambient
    assert len(ambient.events) > 0
    # Outside any ambient block the default still records nothing.
    assert experiments.run("e16", seed=0).tracer is None
