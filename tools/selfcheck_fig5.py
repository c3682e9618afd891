#!/usr/bin/env python3
"""Self-checking sweep over the fig5-small benchmark suites.

Runs every small suite through ``analyze_program`` and
``conservative_program`` with ``self_check=True``: each unsat answer
must carry a DRUP-style proof accepted by the standalone checker
(``repro.smt.proofcheck``), each sat answer a model under which every
asserted formula evaluates true.  Any rejected certificate raises
``CertificateError`` and fails the run (exit 3); a run that somehow
produced zero checked certificates also fails (exit 1) — it would mean
validation silently did not happen.

Theory lemmas inside the proofs are certificate-checked too (the
``checked_theory_lemmas`` regime, default-on): the sweep totals
``lemmas_checked`` / ``lemmas_trusted`` / ``check_wall`` and fails
(exit 1) if any lemma was admitted on trust or none was checked.

Every sat model should come straight from the solver's final theory
state; ``model_fallbacks`` counts the ones that needed the slower value
search (``repro.smt.model.search_model``), and a nonzero total fails the
run (exit 1).

``--compare-trusted`` alternates checked sweeps with sweeps under
``tuning(checked_theory_lemmas=False)``, three of each in this process,
and compares the median checking wall of each side; the acceptance bar
is a checked/trusted overhead ratio of at most 2x.  Every sweep starts
from an empty Dead/Fail baseline memo, so all of them do the same
solver work, and every checked sweep keeps the exit rules above.

Usage::

    python tools/selfcheck_fig5.py [--scale 1.0] [--timeout 30]
                                   [--compare-trusted]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import small_suites                      # noqa: E402
from repro.core import analyze_program, conservative_program  # noqa: E402
from repro.core.deadfail import clear_baseline_cache      # noqa: E402
from repro.frontend import compile_c                      # noqa: E402
from repro.smt.api import CertificateError                # noqa: E402
from repro.smt.tuning import tuning                       # noqa: E402

_CERT_KEYS = ("sat_checked", "unsat_checked", "proof_steps",
              "lemmas_checked", "lemmas_trusted", "model_fallbacks",
              "check_wall")

#: Checked and trusted sweeps per side under ``--compare-trusted``.
COMPARE_ROUNDS = 3


def _sweep(scale: float, timeout: float) -> dict:
    """One full sweep; returns certificate totals (raises on rejection)."""
    totals: dict = {k: 0 for k in _CERT_KEYS}
    totals["check_wall"] = 0.0
    for suite in small_suites(scale=scale):
        program = compile_c(suite.c_source)
        report = analyze_program(program, timeout=timeout, self_check=True)
        conservative_program(program, timeout=timeout, self_check=True)
        counts = {k: 0 for k in _CERT_KEYS}
        counts["check_wall"] = 0.0
        for r in report.reports:
            for key in _CERT_KEYS:
                counts[key] += r.certificates.get(key, 0)
        for key in _CERT_KEYS:
            totals[key] += counts[key]
        print(f"{suite.name}: {len(report.reports)} procedures, "
              f"{report.n_timeouts} timeouts, "
              f"sat_checked={counts['sat_checked']} "
              f"unsat_checked={counts['unsat_checked']} "
              f"proof_steps={counts['proof_steps']} "
              f"lemmas_checked={counts['lemmas_checked']} "
              f"lemmas_trusted={counts['lemmas_trusted']} "
              f"model_fallbacks={counts['model_fallbacks']}")
    return totals


def _failure(totals: dict) -> str | None:
    """Why a checked sweep's totals fail the run, or ``None``."""
    if totals["sat_checked"] + totals["unsat_checked"] == 0:
        return ("no certificates were checked — self-check did not take "
                "effect")
    if totals["lemmas_trusted"] > 0:
        return (f"{totals['lemmas_trusted']} theory lemma(s) admitted on "
                "trust — checked_theory_lemmas did not take effect")
    if totals["model_fallbacks"] > 0:
        return (f"{totals['model_fallbacks']} sat model(s) needed the "
                "value-search fallback")
    if totals["lemmas_checked"] == 0:
        return ("no theory lemma was checked — the sweep exercised no "
                "theory reasoning")
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="selfcheck_fig5",
        description="certificate-check every solver answer over the "
                    "fig5-small suites")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="suite scale factor (default 1.0)")
    ap.add_argument("--timeout", type=float, default=30.0,
                    help="per-procedure timeout in seconds (default 30)")
    ap.add_argument("--compare-trusted", action="store_true",
                    help="alternate checked sweeps with sweeps with "
                         "checked_theory_lemmas off, three each, and "
                         "compare their median checking walls")
    args = ap.parse_args(argv)

    checked_walls: list = []
    trusted_walls: list = []
    for _ in range(COMPARE_ROUNDS if args.compare_trusted else 1):
        clear_baseline_cache()
        t0 = time.monotonic()
        try:
            totals = _sweep(args.scale, args.timeout)
        except CertificateError as exc:
            print(f"CERTIFICATE REJECTED: {exc}", file=sys.stderr)
            return 3
        elapsed = time.monotonic() - t0
        print(f"total: sat_checked={totals['sat_checked']} "
              f"unsat_checked={totals['unsat_checked']} "
              f"proof_steps={totals['proof_steps']} "
              f"lemmas_checked={totals['lemmas_checked']} "
              f"lemmas_trusted={totals['lemmas_trusted']} "
              f"model_fallbacks={totals['model_fallbacks']} "
              f"check_wall={totals['check_wall']:.3f}s in {elapsed:.1f}s")
        failure = _failure(totals)
        if failure is not None:
            print(f"error: {failure}", file=sys.stderr)
            return 1
        checked_walls.append(totals["check_wall"])
        if not args.compare_trusted:
            continue
        clear_baseline_cache()
        t1 = time.monotonic()
        try:
            with tuning(checked_theory_lemmas=False):
                trusted = _sweep(args.scale, args.timeout)
        except CertificateError as exc:
            print(f"CERTIFICATE REJECTED (trusted re-run): {exc}",
                  file=sys.stderr)
            return 3
        print(f"trusted-lemma re-run: lemmas_trusted="
              f"{trusted['lemmas_trusted']} "
              f"check_wall={trusted['check_wall']:.3f}s in "
              f"{time.monotonic() - t1:.1f}s")
        trusted_walls.append(trusted["check_wall"])

    if args.compare_trusted:
        checked_wall = statistics.median(checked_walls)
        trusted_wall = statistics.median(trusted_walls)
        ratio = (checked_wall / trusted_wall) if trusted_wall > 0 \
            else float("inf")
        print(f"checking-wall ratio (checked/trusted, medians of "
              f"{COMPARE_ROUNDS} sweeps each: {checked_wall:.3f}s / "
              f"{trusted_wall:.3f}s): {ratio:.2f}x")
        if ratio > 2.0:
            print(f"error: checked-lemma checking wall is {ratio:.2f}x the "
                  "trusted-lemma wall (bar: 2x)", file=sys.stderr)
            return 1

    print("OK: every answer carried an accepted certificate, every "
          "theory lemma was checked and no model needed the fallback")
    return 0


if __name__ == "__main__":
    sys.exit(main())
