#!/usr/bin/env python3
"""Pipeline benchmark for wwspot.

Run from the root of a source checkout:

    python3 pipebench/run.py --workload train --seed 0 --seconds 20 --trace 0
    python3 pipebench/run.py --workload all

``--trace 0`` prints the end-to-end metrics (setup_s, peak_mb, pass_s;
the two times scaled to a reference kernel's speed, see ``harness.py``)
plus the unscaled wall times and each workload's own rates; ``--trace 1``
prints the per-layer metrics from a traced run and the tracing overhead. Report lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A result file with the
environment record goes to ``pipebench/results/``. The code under test
is always the checkout's own ``src/wwspot``; without it the benchmark
exits with status 2. BLAS is pinned to one thread.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "pipebench", "results")
WORK = os.path.join(ROOT, "pipebench", ".work")
WORKLOAD_NAMES = ("train", "decode", "prep")


def _print_report(result) -> None:
    print(f"pipebench workload={result.workload} trace={int(result.trace)}")
    print("env " + json.dumps(result.env, sort_keys=True))
    for name, (value, unit) in result.report.items():
        print(f"metric {name} {value:.6g} {unit}")
    if result.trace:
        for name, (value, unit) in result.metrics.items():
            print(f"layer {name} {value:.6g} {unit}")
    for failure in result.failures:
        print(f"check FAILED {failure.splitlines()[-1] if failure else failure}")
    print(f"checks {result.attempted - result.failed}/{result.attempted} operations passed")


def _save(result, seed: int) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{result.workload}_seed{seed}_trace{int(result.trace)}"
    record = {
        "env": result.env,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        "report": {k: {"value": v, "unit": u} for k, (v, u) in result.report.items()},
        "pass_times_s": result.pass_times,
    }
    with open(os.path.join(RESULTS, f"BENCH_{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if result.spans:
        with open(os.path.join(RESULTS, f"spans_{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "size"], "spans": result.spans}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "wwspot", "__init__.py")):
        print(f"pipebench: no wwspot sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # the checkout's sources, never an installed copy, and this package
    sys.path[0:1] = [SRC, ROOT]
    import wwspot

    if not os.path.abspath(wwspot.__file__).startswith(SRC + os.sep):
        print(f"pipebench: imported wwspot from {wwspot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from pipebench.harness import run_workload

    seed = args.seed % 2**63
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
        result = run_workload(name, seed, args.seconds, bool(args.trace), workdir)
        _save(result, args.seed)
        _print_report(result)
        print(result.line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
