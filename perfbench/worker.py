"""One cold sample of one workload, in the interpreter that runs it.

    python3 perfbench/worker.py --workload NAME --seed N [--spans PATH]

Times the set-up (``import repro`` until the registry and the
workload's layers are loaded), then one full run of the workload, then
digests the run's science and checks its paper claims.  With
``--spans`` the run is traced: the ledger's wrappers are installed
after set-up, removed when the run ends, and the spans are written to
PATH.  Prints one JSON object as its last line.  ``run.py`` starts one
worker per sample so that every sample starts cold.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, ClaimFailed, digest, load_layers  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]

    start = time.perf_counter()
    load_layers(workload)
    out: dict = {"setup_s": time.perf_counter() - start}

    from repro.des import kernel_counters

    ledger = None
    if args.spans is not None:
        import layers
        from ledger import Ledger

        ledger = Ledger(f"{args.workload}/seed={args.seed}")
        layers.install(ledger)
    kernel_counters().reset()
    try:
        start = time.perf_counter()
        outputs = workload.run(args.seed)
        out["wall_s"] = time.perf_counter() - start
    finally:
        if ledger is not None:
            ledger.restore()
    kernel = kernel_counters().snapshot()
    out["digest"] = digest(workload.science(outputs))
    try:
        workload.check(outputs)
    except ClaimFailed as exc:
        out["claim_miss"] = str(exc)
    if ledger is not None:
        out["layers"] = layers.metrics(ledger, kernel)
        ledger.write(args.spans, kernel=kernel, layers=out["layers"])
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
