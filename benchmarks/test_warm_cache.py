"""Warm-start sweeps through the persistent analysis cache.

Runs a small-suite and a large-suite sweep twice against one cache
directory: the *cold* pass populates the cache, the *warm* pass must be
served almost entirely from disk.  The acceptance bar (ISSUE: warm fig9
sweep) is that the warm pass performs >= 80% fewer oracle solver
queries than the cold pass, with bit-identical per-procedure reports.
"""

import sys
import time

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from _util import SCALE, TIMEOUT, emit

from repro.bench import make_suite, render_table
from repro.bench.runner import compile_suite
from repro.core import A1, A2, CONC, analyze_program

SUITES = ["moufilter", "Drv3"]
CONFIGS = [CONC, A1, A2]


def _sweep(programs, cache_dir):
    """One full sweep; returns ({(suite, config): ProgramReport}, seconds)."""
    out = {}
    t0 = time.monotonic()
    for name, (suite, program) in programs.items():
        proc_names = [f.name for f in suite.functions]
        for config in CONFIGS:
            out[(name, config.name)] = analyze_program(
                program, config=config, timeout=TIMEOUT,
                proc_names=proc_names, cache_dir=str(cache_dir))
    return out, time.monotonic() - t0


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
        # bit-identical: a warm hit returns the stored report verbatim
        assert w.reports == c.reports, key
        # hit reports replay the cold run's query counters; the queries
        # actually *performed* warm are the total minus the replayed ones
        cq = c.total("queries") - c.cache_stats.get("queries_served", 0)
        wq = w.total("queries") - w.cache_stats.get("queries_served", 0)
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
