"""Shared helpers for the figure benchmarks."""

import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Paper-vs-us scale factor for suite sizes; raise for a longer, closer-to-
# paper-sized run: REPRO_BENCH_SCALE=3 pytest benchmarks/ --benchmark-only
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

# Per-procedure timeout, like the paper's 10s
TIMEOUT = float(os.environ.get("REPRO_BENCH_TIMEOUT", "10.0"))

# REPRO_BENCH_SELF_CHECK=1 certificate-checks every solver answer during
# the sweep (CI perf-smoke runs with this on, so the sweep also witnesses
# that reduction/lemma-cache proofs still certify).
SELF_CHECK = os.environ.get("REPRO_BENCH_SELF_CHECK", "") not in ("", "0")


def emit(name: str, table: str) -> None:
    """Print a rendered table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(table + "\n")
    print(f"\n=== {name} (also written to {path}) ===")
    print(table)
