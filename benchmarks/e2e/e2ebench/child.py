"""One workload run in a fresh process: ``python -m e2ebench.child``.

Started by ``benchmarks/e2e/run.py`` with ``src`` and ``benchmarks/e2e``
on ``PYTHONPATH`` and the checkout root as working directory.  Prints the
workload's outcome as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import analysis_runs, ci_edits
from .common import load_params
from .tracing import Tracer

WORKLOADS = ("sweep", "certified", "ci_edits")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="e2ebench.child")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", type=Path, required=True,
                    help="fresh scratch directory for caches and "
                         "manifests")
    ap.add_argument("--out", type=Path, default=None,
                    help="write the traced run's spans here (JSON lines)")
    args = ap.parse_args(argv)

    # One core for the workload and the set-up processes it starts, so
    # that the reference loop times the core the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    params = load_params(args.workload)
    tracer = Tracer() if args.trace else None
    if args.workload == "ci_edits":
        # A traced run reports no set-up time, so it sets up once.
        repeats = 1 if args.trace else params["setup_repeats"]
        result = ci_edits.run(params, args.seed, args.seconds, tracer,
                              repeats, args.tmp)
    else:
        result = analysis_runs.run(args.workload, params, args.seed,
                                   args.seconds, tracer)
    if tracer is not None and args.out is not None:
        tracer.write(args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
