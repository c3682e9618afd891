#!/usr/bin/env python3
"""Differential fuzzing campaign driver.

Runs ``repro.fuzz.run_campaign``: random well-typed programs through the
oracle matrix (interpreter vs wp, brute-force vs solver, incremental vs
naive, cached vs uncached, parallel vs serial, parse/pretty round-trip),
with solver certificate validation on throughout.  Minimized
reproducers for any finding are written into ``tests/corpus/`` where
the pytest collector replays them forever.

Usage::

    python tools/fuzz.py --seed 0 --iterations 300
    python tools/fuzz.py --iterations 60 --no-emit      # CI smoke
Exit status 0 iff the campaign found no oracle disagreement and no
certificate rejection.  See ``docs/testing.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fuzz import run_campaign  # noqa: E402

DEFAULT_CORPUS = Path(__file__).resolve().parent.parent / "tests" / "corpus"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="fuzz", description="differential fuzzing campaign")
    ap.add_argument("--seed", type=int, default=0,
                    help="campaign seed (default 0)")
    ap.add_argument("--iterations", type=int, default=300,
                    help="campaign iterations (default 300)")
    ap.add_argument("--corpus", default=str(DEFAULT_CORPUS), metavar="DIR",
                    help="where minimized reproducers are written "
                         "(default tests/corpus)")
    ap.add_argument("--no-emit", action="store_true",
                    help="report findings without writing corpus files")
    ap.add_argument("--jobs-every", type=int, default=50, metavar="N",
                    help="run the worker-pool oracle every N iterations "
                         "(0 disables; default 50)")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress progress lines")
    ap.add_argument("--only", default=None, metavar="ORACLE",
                    help="focus every iteration on one named oracle "
                         "(e.g. theory_justifications)")
    args = ap.parse_args(argv)

    progress = None if args.quiet else (lambda msg: print(msg, flush=True))
    result = run_campaign(
        seed=args.seed, iterations=args.iterations,
        corpus_dir=None if args.no_emit else args.corpus,
        jobs_every=args.jobs_every, progress=progress, only=args.only)

    print(f"campaign seed={result.seed} iterations={result.iterations}")
    for oracle in sorted(result.executed):
        print(f"  {oracle}: {result.executed[oracle]} runs")
    slowest = result.slowest()
    if slowest is not None:
        i, oracle, seconds = slowest
        print(f"slowest iteration: {i} ({oracle}), {seconds:.1f} s")
    for case in result.disagreements:
        print(f"DISAGREEMENT [{case.oracle}] iteration {case.iteration}: "
              f"{case.detail}" +
              (f"\n  reproducer: {case.path}" if case.path else ""))
    for case in result.certificate_failures:
        print(f"CERTIFICATE FAILURE [{case.oracle}] iteration "
              f"{case.iteration}: {case.detail}" +
              (f"\n  reproducer: {case.path}" if case.path else ""))
    if result.ok:
        print("OK: no oracle disagreements, no certificate rejections")
        return 0
    print(f"FAIL: {len(result.disagreements)} disagreement(s), "
          f"{len(result.certificate_failures)} certificate failure(s)")
    return 1


if __name__ == "__main__":
    sys.exit(main())
