#!/usr/bin/env python3
"""Per-bug-class confidence x FP-rate report (the scenario subsystem's
Figure-7-style experiment).

Sweeps the five per-class scenario suites
(`repro.scenarios.generators`) through Conc/A0/A1/A2 plus the Cons
baseline, classifies every labeled assertion against its
construction-known ground truth, and prints the per-class table.

``--self-check`` certificate-checks every solver answer of the sweep
(exit 3 on any rejected certificate).  The CI ``scenario-smoke`` job
runs ``--scale 0.5 --self-check``.

Acceptance bars (exit 1 when violated):

* every suite ran all five configurations with zero timeouts;
* on the four *new* assertion families the Cons baseline matches
  ground truth exactly (the generators are built that way — drift
  means the lowering or a generator changed semantics).

Usage::

    python tools/scenario_report.py [--scale 1.0] [--timeout 10]
                                    [--self-check]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scenarios.classes import NULL_DEREF            # noqa: E402
from repro.scenarios.report import (SWEEP_CONFIGS,        # noqa: E402
                                    classification_sweep, scenario_table)
from repro.smt.api import CertificateError                # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=1.0,
                    help="pattern-count multiplier (default 1.0; CI "
                         "smoke uses 0.5)")
    ap.add_argument("--timeout", type=float, default=10.0,
                    help="per-procedure timeout in seconds (default 10)")
    ap.add_argument("--self-check", action="store_true",
                    help="certificate-check every solver answer")
    args = ap.parse_args(argv)

    try:
        sweep = classification_sweep(scale=args.scale, timeout=args.timeout,
                                     self_check=args.self_check)
    except CertificateError as exc:
        print(f"certificate rejected: {exc}", file=sys.stderr)
        return 3

    print(scenario_table(sweep))
    ok = True
    for name, entry in sweep.items():
        missing = [c for c in (*SWEEP_CONFIGS, "Cons")
                   if c not in entry["configs"]]
        if missing:
            print(f"FAIL {name}: missing configs {missing}")
            ok = False
            continue
        timeouts = sum(c["timeouts"] for c in entry["configs"].values())
        if timeouts:
            print(f"FAIL {name}: {timeouts} timeouts")
            ok = False
        cons = entry["configs"]["Cons"]
        if entry["bug_class"] != NULL_DEREF and \
                (cons["false_positives"] or cons["false_negatives"]):
            print(f"FAIL {name}: Cons drifted from ground truth "
                  f"(FP={cons['false_positives']}, "
                  f"FN={cons['false_negatives']})")
            ok = False

    if not ok:
        return 1
    print("scenario_report: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
