"""Figure 6 — warning reduction on the small benchmarks.

For each small suite, the number of warnings reported by the Conc, A1 and
A2 configurations — with no clause pruning and with k-clause pruning for
k = 3, 2, 1 — next to the conservative verifier's count.  Procedures that
time out in any configuration are excluded from every count, as in the
paper.

Shapes that must hold (§5.1.1):

* every abstract configuration reports far fewer warnings than Cons
  (the paper observes at least 2x on almost all benchmarks);
* warning counts grow monotonically as the pruning bound k decreases.
"""

import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from _util import SCALE, SELF_CHECK, TIMEOUT, emit

from repro.bench import (SMALL_SUITE_RECIPES, fig6_table, make_suite,
                         run_conservative, run_suite)
from repro.bench.runner import compile_suite
from repro.core import A1, A2, CONC

KS = [None, 3, 2, 1]
CONFIGS = [CONC, A1, A2]


def test_fig6_warning_reduction(benchmark):
    def run():
        data = {}
        for name in SMALL_SUITE_RECIPES:
            suite = make_suite(name, scale=SCALE)
            program = compile_suite(suite)
            runs = {}
            for config in CONFIGS:
                for k in KS:
                    runs[(config.name, k)] = run_suite(
                        suite, config, prune_k=k, timeout=TIMEOUT,
                        program=program, self_check=SELF_CHECK)
            cons = run_conservative(suite, timeout=TIMEOUT, program=program,
                                    self_check=SELF_CHECK)
            # exclude procedures that timed out in any configuration
            excluded = set(cons.timed_out)
            for r in runs.values():
                excluded.update(r.timed_out)
            cells = {key: r.n_warnings_excluding(excluded)
                     for key, r in runs.items()}
            cells["Cons"] = cons.n_warnings_excluding(excluded)
            cells["TO"] = len(excluded)
            data[name] = cells
        return data

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("fig6_warnings", fig6_table(data))

    totals = {key: sum(cells.get(key, 0) for cells in data.values())
              for key in
              [(c.name, k) for c in CONFIGS for k in KS] + ["Cons"]}
    # abstract configurations beat the conservative verifier soundly
    for config in CONFIGS:
        assert totals[(config.name, None)] * 2 <= totals["Cons"], (
            config.name, totals)
    # pruning monotonicity: smaller k can only reveal more warnings
    for config in CONFIGS:
        seq = [totals[(config.name, k)] for k in (None, 3, 2, 1)]
        assert seq == sorted(seq), (config.name, seq)
