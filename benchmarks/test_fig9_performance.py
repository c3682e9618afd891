"""Figure 9 — performance on the large benchmarks, as per-procedure
averages: P (mined predicates), C (cover clauses), T (seconds).

Shapes from the paper:

* "As expected, A1 and A2 collect fewer predicates than Conc";
* the number of cover clauses is comparatively stable across
  configurations;
* Conc runs noticeably slower than the abstract domains.
"""

import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from _util import SCALE, TIMEOUT, emit

from repro.bench import LARGE_SUITE_RECIPES, fig9_table, make_suite, run_suite
from repro.bench.runner import compile_suite
from repro.core import A1, A2, CONC
from repro.core.deadfail import clear_baseline_cache


def test_fig9_per_procedure_averages(benchmark):
    def run():
        data = {}
        for name in LARGE_SUITE_RECIPES:
            suite = make_suite(name, scale=SCALE)
            program = compile_suite(suite)
            cells = {}
            for config in (CONC, A1, A2):
                # T is the cost of analyzing under one abstraction: do
                # not serve A1 or A2 from an earlier configuration's
                # memo entries
                clear_baseline_cache()
                r = run_suite(suite, config, timeout=TIMEOUT,
                              program=program)
                cells[config.name] = (r.avg_preds, r.avg_clauses,
                                      r.avg_seconds)
            data[name] = cells
        return data

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("fig9_performance", fig9_table(data))

    n = len(data)
    avg_p = {c: sum(cells[c][0] for cells in data.values()) / n
             for c in ("Conc", "A1", "A2")}
    avg_t = {c: sum(cells[c][2] for cells in data.values()) / n
             for c in ("Conc", "A1", "A2")}
    # abstractions shrink the vocabulary
    assert avg_p["A1"] <= avg_p["Conc"]
    assert avg_p["A2"] <= avg_p["A1"]
    # and the concrete domain is the slowest (allow a little noise)
    assert avg_t["Conc"] >= avg_t["A2"] * 0.8
