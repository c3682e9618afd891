"""Figure 8 — the abstract configurations on the large benchmarks.

The large driver/kernel suites are dominated by well-tested, mostly-safe
code with defensive patterns.  The paper observes:

* Conc reports a tiny number of warnings (all of which turned out to be
  the defensive-macro / SL_ASSERT false-positive patterns);
* A1 a few more, A2 noticeably more (the conservative-modifies pattern);
* the abstract configurations provide "a knob through which gradually
  more errors can be viewed";
* Cons reports more warnings than any user would examine.
"""

import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from _util import SCALE, TIMEOUT, emit

from repro.bench import (LARGE_SUITE_RECIPES, fig8_table, make_suite,
                         run_conservative, run_suite, suite_statistics)
from repro.bench.runner import compile_suite
from repro.core import A1, A2, CONC


def test_fig8_large_benchmarks(benchmark):
    def run():
        data = {}
        for name in LARGE_SUITE_RECIPES:
            suite = make_suite(name, scale=SCALE)
            program = compile_suite(suite)
            cells = {"Procs": suite.n_functions,
                     "Asrt": suite.n_labeled_asserts}
            excluded = set()
            runs = {}
            for config in (CONC, A1, A2):
                r = run_suite(suite, config, timeout=TIMEOUT,
                              program=program)
                runs[config.name] = r
                excluded.update(r.timed_out)
            cons = run_conservative(suite, timeout=TIMEOUT, program=program)
            excluded.update(cons.timed_out)
            for cname, r in runs.items():
                cells[cname] = r.n_warnings_excluding(excluded)
            cells["Cons"] = cons.n_warnings_excluding(excluded)
            cells["TO"] = len(excluded)
            data[name] = cells
        return data

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("fig8_large", fig8_table(data))

    def total(key):
        return sum(cells.get(key, 0) for cells in data.values())

    # the knob: Conc <= A1 <= A2, all well below Cons
    assert total("Conc") <= total("A1") <= total("A2")
    assert total("A2") * 2 <= total("Cons")
    # Conc reports only a handful on well-tested code
    assert total("Conc") <= total("Cons") // 5
