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

``--compare-trusted`` re-runs the sweep with
``tuning(checked_theory_lemmas=False)`` and prints both checking walls
and their ratio; the acceptance bar is a checked/trusted overhead ratio
of at most 2x.

Usage::

    python tools/selfcheck_fig5.py [--scale 1.0] [--timeout 30]
                                   [--compare-trusted]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import small_suites                      # noqa: E402
from repro.core import analyze_program, conservative_program  # noqa: E402
from repro.frontend import compile_c                      # noqa: E402
from repro.smt.api import CertificateError                # noqa: E402

_CERT_KEYS = ("sat_checked", "unsat_checked", "proof_steps",
              "lemmas_checked", "lemmas_trusted", "check_wall")


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
              f"lemmas_trusted={counts['lemmas_trusted']}")
    return totals


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
                    help="re-run with checked_theory_lemmas off and "
                         "compare the two checking walls")
    args = ap.parse_args(argv)

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
          f"check_wall={totals['check_wall']:.3f}s in {elapsed:.1f}s")
    if totals["sat_checked"] + totals["unsat_checked"] == 0:
        print("error: no certificates were checked — self-check did not "
              "take effect", file=sys.stderr)
        return 1
    if totals["lemmas_trusted"] > 0:
        print(f"error: {totals['lemmas_trusted']} theory lemma(s) admitted "
              "on trust — checked_theory_lemmas did not take effect",
              file=sys.stderr)
        return 1
    if totals["lemmas_checked"] == 0:
        print("error: no theory lemma was checked — the sweep exercised "
              "no theory reasoning", file=sys.stderr)
        return 1

    if args.compare_trusted:
        from repro.smt.tuning import tuning
        t1 = time.monotonic()
        try:
            with tuning(checked_theory_lemmas=False):
                trusted = _sweep(args.scale, args.timeout)
        except CertificateError as exc:
            print(f"CERTIFICATE REJECTED (trusted re-run): {exc}",
                  file=sys.stderr)
            return 3
        trusted_elapsed = time.monotonic() - t1
        checked_wall = totals["check_wall"]
        trusted_wall = trusted["check_wall"]
        ratio = (checked_wall / trusted_wall) if trusted_wall > 0 \
            else float("inf")
        print(f"trusted-lemma re-run: lemmas_trusted="
              f"{trusted['lemmas_trusted']} "
              f"check_wall={trusted_wall:.3f}s in {trusted_elapsed:.1f}s")
        print(f"checking-wall ratio (checked/trusted): {ratio:.2f}x")
        if ratio > 2.0:
            print(f"error: checked-lemma checking wall is {ratio:.2f}x the "
                  "trusted-lemma wall (bar: 2x)", file=sys.stderr)
            return 1

    print("OK: every answer carried an accepted certificate and every "
          "theory lemma was checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
