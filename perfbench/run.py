"""The repository benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is one cold run of the workload in a fresh interpreter
started by ``worker.py``.  ``--seed`` draws input seeds, so one
invocation measures the workload on several inputs besides the
published seed 0, and the same ``--seed`` always gives the same
inputs.  Samples run back to back, one at a time, for about
``--seconds`` seconds.

``--trace 0`` times the published seed 0, then drawn inputs, then seed
0 again, and reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``) as medians over all of them.  ``--trace 1`` runs
untraced/traced pairs: first on seed 0, then on drawn inputs, and
reports the per-layer metrics of the traced runs on drawn inputs plus
the tracing overhead.

A sample fails if its worker exits abnormally, if its science digest
differs from another sample of the same input seed, or if it runs the
published seed and a paper claim fails there.  Claims that fail on a
drawn input are listed but are not failures: the claim conditions
were set on seed 0 and several of them do not hold on every seed.

A human-readable summary precedes the last stdout line, which is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import UNITS as LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The seed of the published tables, on which the paper claims hold.
PUBLISHED_SEED = 0
#: No worker is started after this many seconds and a running one is
#: killed (and failed) then, so one invocation ends within 3 minutes.
DEADLINE_S = 160.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Spans of traced samples are written here, inside the checkout.
SPANS_DIR = ROOT / ".perfbench"


def input_seeds(seed: int):
    """The input seeds an invocation draws from ``--seed``."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2**31)


class Sampler:
    """Starts one worker at a time and keeps the samples it returns."""

    def __init__(self, workload: str, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.started = time.perf_counter()
        self.samples: list[dict] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def room_for(self, more: int) -> bool:
        """Whether ``more`` samples of the average length so far still
        end within ``--seconds``."""
        average = self.elapsed() / max(len(self.samples), 1)
        return self.elapsed() + more * average <= self.seconds

    def run(self, seed: int, traced: bool = False) -> None:
        """Run one sample in a fresh single-threaded interpreter."""
        command = [sys.executable, str(HERE / "worker.py"),
                   "--workload", self.workload, "--seed", str(seed)]
        if traced:
            spans = (SPANS_DIR /
                     f"spans-{self.workload}-{seed}-{len(self.samples)}.json")
            command += ["--spans", str(spans)]
        env = dict(os.environ, OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        timeout = max(DEADLINE_S - self.elapsed(), 1.0)
        try:
            proc = subprocess.run(command, cwd=ROOT, env=env,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            out = {"error": f"worker exceeded {timeout:.0f} s"}
        else:
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 0 and lines:
                out = json.loads(lines[-1])
            else:
                tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
                out = {"error": f"worker exit {proc.returncode}: {tail[0]}"}
        out.update(seed=seed, traced=traced)
        self.samples.append(out)

    def open(self) -> bool:
        return self.elapsed() < DEADLINE_S


def sample_untraced(sampler: Sampler, seed: int) -> None:
    """The published seed, drawn inputs while two more samples fit (at
    least one), then the published seed again, so its digest is
    compared across interpreters and its claims are checked twice."""
    seeds = input_seeds(seed)
    sampler.run(PUBLISHED_SEED)
    sampler.run(next(seeds))
    while sampler.open() and sampler.room_for(2):
        sampler.run(next(seeds))
    sampler.run(PUBLISHED_SEED)


def sample_traced(sampler: Sampler, seed: int) -> None:
    """Untraced/traced pairs: the published seed, then drawn inputs
    while another pair fits (at least one)."""
    seeds = input_seeds(seed)
    for pair_seed in (PUBLISHED_SEED, next(seeds)):
        sampler.run(pair_seed)
        sampler.run(pair_seed, traced=True)
    while sampler.open() and sampler.room_for(2):
        pair_seed = next(seeds)
        sampler.run(pair_seed)
        sampler.run(pair_seed, traced=True)


def mark_failures(samples: list[dict]) -> list[str]:
    """Set ``error`` on every failed sample; return the claim misses on
    drawn inputs, which are reported but are not failures."""
    by_seed = defaultdict(list)
    for s in samples:
        if "error" not in s:
            by_seed[s["seed"]].append(s)
    for seed, group in by_seed.items():
        majority, _ = Counter(s["digest"] for s in group).most_common(1)[0]
        for s in group:
            if s["digest"] != majority:
                s["error"] = (f"seed {seed}: digest {s['digest'][:12]}"
                              f" differs from {majority[:12]}")
    misses = []
    for s in samples:
        if "claim_miss" in s and "error" not in s:
            if s["seed"] == PUBLISHED_SEED:
                s["error"] = f"seed {s['seed']}: {s['claim_miss']}"
            else:
                misses.append(f"seed {s['seed']}: {s['claim_miss']}")
    return sorted(set(misses))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sampler = Sampler(args.workload, args.seconds)
    if args.trace:
        sample_traced(sampler, args.seed)
    else:
        sample_untraced(sampler, args.seed)
    samples = sampler.samples
    misses = mark_failures(samples)
    failed = [s for s in samples if "error" in s]
    good = [s for s in samples if "error" not in s]
    plain = [s for s in good if not s["traced"]]
    untraced_wall = {s["seed"]: s["wall_s"] for s in plain}
    # Per-layer metrics and overhead come from drawn inputs only.
    traced = [s for s in good if s["traced"] and s["seed"] != PUBLISHED_SEED
              and s["seed"] in untraced_wall]
    if not plain or (args.trace and not traced):
        for s in failed:
            print(f"failed: {s['error']}", file=sys.stderr)
        print(f"{args.workload}: no usable sample", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  samples {len(samples)}"
          f"  inputs {sorted({s['seed'] for s in samples})}")
    for s in samples:
        line = (f"  sample seed {s['seed']}{' traced' if s['traced'] else ''}:"
                f" wall {s.get('wall_s', 0):.4f} s, set-up"
                f" {s.get('setup_s', 0):.4f} s, digest {s.get('digest', '-')[:16]}")
        print(line + (f"  FAILED {s['error']}" if "error" in s else ""))
    for miss in misses:
        print(f"  claim not reproduced on drawn input {miss}")
    print(f"  {'fail_ratio':28s} {len(failed) / len(samples):.4f} ratio"
          f"  ({len(failed)}/{len(samples)})")
    if args.trace:
        metrics = {
            name: (statistics.median(s["layers"][name] for s in traced), unit)
            for name, unit in LAYER_UNITS.items()
        }
        overheads = [(s["wall_s"], untraced_wall[s["seed"]])
                     for s in traced]
        metrics["trace.wall_s"] = (
            statistics.median(s["wall_s"] for s in traced), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(t - u for t, u in overheads), "s")
        metrics["trace.overhead_ratio"] = (
            statistics.median(t / u - 1 for t, u in overheads), "ratio")
        print(f"  traced runs on drawn inputs: {len(traced)};"
              f" spans in {SPANS_DIR.name}/")
        for name, (value, unit) in metrics.items():
            print(f"  {name:28s} {value:.6g} {unit}")
    else:
        metrics = {}
        for name, unit in END_TO_END_UNITS.items():
            values = [s[name] for s in plain]
            q1, median, q3 = quartiles(values)
            metrics[name] = (median, unit)
            print(f"  {name:28s} {median:.6g} {unit}  median of"
                  f" n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
