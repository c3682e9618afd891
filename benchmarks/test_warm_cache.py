"""Warm-start sweeps through the persistent analysis cache.

Runs a small-suite and a large-suite sweep twice against one cache
directory: the *cold* pass populates the cache, the *warm* pass must be
served almost entirely from disk.  Each pass starts from an empty
in-process memo, as a new process does, so the warm pass reads the
records.  The acceptance bar is that the warm pass performs >= 80%
fewer oracle solver queries than the cold pass, with per-procedure
reports equal to the cold pass's on every verdict field.  A report
served from the memo or from a record counts no queries, so the totals
below are the queries each pass asked.
"""

import sys
import time

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from _util import SCALE, TIMEOUT, emit

from repro.bench import make_suite, render_table
from repro.bench.runner import compile_suite
from repro.core import A1, A2, CONC, analyze_program
from repro.core.deadfail import clear_baseline_cache

SUITES = ["moufilter", "Drv3"]
CONFIGS = [CONC, A1, A2]


def _sweep(programs, cache_dir):
    """One full sweep from an empty memo; returns ({(suite, config):
    ProgramReport}, seconds)."""
    clear_baseline_cache()
    out = {}
    t0 = time.monotonic()
    for name, (suite, program) in programs.items():
        proc_names = [f.name for f in suite.functions]
        for config in CONFIGS:
            out[(name, config.name)] = analyze_program(
                program, config=config, timeout=TIMEOUT,
                proc_names=proc_names, cache_dir=str(cache_dir))
    return out, time.monotonic() - t0


def _verdicts(report) -> list:
    return [(r.proc_name, r.config_name, r.timed_out, r.status, r.warnings,
             r.conservative_warnings, r.bug_classes, r.specs, r.n_preds,
             r.n_cover_clauses) for r in report.reports]


def test_warm_cache_sweep(benchmark, tmp_path):
    cache_dir = tmp_path / "cache"
    programs = {name: (suite, compile_suite(suite))
                for name, suite in
                ((n, make_suite(n, scale=SCALE)) for n in SUITES)}
    state = {}

    def run():
        cold, cold_secs = _sweep(programs, cache_dir)
        warm, warm_secs = _sweep(programs, cache_dir)
        state.update(cold=cold, warm=warm,
                     cold_secs=cold_secs, warm_secs=warm_secs)
        return state

    benchmark.pedantic(run, rounds=1, iterations=1)
    cold, warm = state["cold"], state["warm"]

    rows = []
    totals = {"cold_q": 0, "warm_q": 0, "hits": 0, "misses": 0}
    for key in cold:
        c, w = cold[key], warm[key]
        # a warm hit carries the recorded verdict under this call's names
        assert _verdicts(w) == _verdicts(c), key
        cq, wq = c.total("queries"), w.total("queries")
        totals["cold_q"] += cq
        totals["warm_q"] += wq
        for k in ("hits", "misses"):
            totals[k] += w.cache_stats.get(k, 0)
        rows.append([key[0], key[1], cq, wq,
                     w.cache_stats.get("hits", 0)])

    reduction = 1.0 - (totals["warm_q"] / totals["cold_q"]
                       if totals["cold_q"] else 0.0)
    table = render_table(
        ["Suite", "Config", "Cold queries", "Warm queries", "Warm hits"],
        rows)
    table += (f"\n\ncold {state['cold_secs']:.2f}s -> "
              f"warm {state['warm_secs']:.2f}s; "
              f"query reduction {reduction:.1%}")
    emit("warm_cache", table)

    # the acceptance bar: >= 80% fewer oracle queries when warm
    assert totals["warm_q"] <= 0.2 * totals["cold_q"], totals
    assert totals["hits"] > 0 and totals["misses"] == 0, totals
