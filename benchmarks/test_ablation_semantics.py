"""Ablations — design choices DESIGN.md calls out.

1. **Dead() reachability semantics.**  Our reconstruction argues the
   paper's implementation lets reachability pass *through* assertion
   failures (otherwise its §5.1.3 defensive-macro observation could not
   occur).  This ablation runs both semantics on the defensive-macro
   pattern and on the core examples: the through-failures semantics
   reproduces the paper's Conc behaviour; the strict semantics silently
   loses those SIBs (Figure 1 is unaffected — its dead code does not sit
   behind a failing assertion).  The same reading costs one false
   positive: on the suites' ``double_unlock`` pattern it also reports
   the first ``lock()``, which the labels call safe; the strict
   semantics reports the second ``unlock()`` alone.

2. **Normalize + semantic simplification.**  §4.3's Boolean
   simplification plus our solver-backed cleanup shrink the displayed
   specifications; this measures by how much.

3. **Interprocedural contracts (§7).**  The future-work extension turns
   intraprocedurally-invisible callee bugs into call-site warnings; this
   counts the newly revealed warnings on a caller/callee workload.
"""

import random
import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from _util import emit

from repro import compile_c
from repro.bench.suites import pat_double_unlock
from repro.core import CONC, analyze_program_interprocedural
from repro.core.acspec import find_almost_correct_specs
from repro.core.clauses import normalize
from repro.core.cover import predicate_cover
from repro.core.deadfail import DeadFailOracle
from repro.core.predicates import mine_predicates
from repro.lang.transform import prepare_procedure
from repro.vc.encode import EncodedProcedure

DEFENSIVE = """
struct node { int val; struct node *next; };
void f(struct node *x) {
  int y;
  y = x->val;
  if (x != NULL && x->val == 3) { x->val = y + 1; }
  else { y = 0; }
}
"""

DOUBLE_UNLOCK = pat_double_unlock(random.Random(0), "g").code

FIG1 = """
void Foo(int *c, char *buf, int cmd) {
  if (nondet()) { free(c); free(buf); return; }
  if (cmd == 0) { if (nondet()) { free(c); free(buf); } }
  free(c); free(buf); return;
}
"""


def _run(src, name, through_failures):
    program = compile_c(src)
    prepared = prepare_procedure(program, program.proc(name))
    enc = EncodedProcedure(program, prepared)
    preds = mine_predicates(program, prepared)
    oracle = DeadFailOracle(enc, preds,
                            dead_through_failures=through_failures)
    cover = predicate_cover(oracle)
    res = find_almost_correct_specs(oracle, cover)
    return oracle.labels_of(res.warnings), res.has_abstract_sib


def test_ablation_dead_semantics(benchmark):
    def run():
        rows = []
        for label, src, name in (("defensive-macro", DEFENSIVE, "f"),
                                 ("figure-1", FIG1, "Foo"),
                                 ("double-unlock", DOUBLE_UNLOCK, "g")):
            w_through, sib_through = _run(src, name, True)
            w_strict, sib_strict = _run(src, name, False)
            rows.append((label, sib_through, w_through, sib_strict,
                         w_strict))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'case':17} {'through-failures':>30} {'strict':>24}"]
    for label, sib_t, w_t, sib_s, w_s in rows:
        lines.append(f"{label:17} SIB={sib_t!s:5} {','.join(w_t):>18}   "
                     f"SIB={sib_s!s:5} {','.join(w_s) or '-':>12}")
    emit("ablation_dead_semantics", "\n".join(lines))

    by = {r[0]: r for r in rows}
    # the defensive-macro FP exists only under through-failures semantics
    assert by["defensive-macro"][1] is True
    assert by["defensive-macro"][3] is False
    # Figure 1 behaves identically under both
    assert by["figure-1"][2] == by["figure-1"][4] == ["free$5"]
    # the price of through-failures: lock$1, labelled safe, is reported
    # because the mode branch is reachable only through its failure
    assert by["double-unlock"][2] == ["lock$1", "unlock$2"]
    assert by["double-unlock"][4] == ["unlock$2"]


def test_ablation_spec_simplification(benchmark):
    def run():
        program = compile_c(FIG1)
        prepared = prepare_procedure(program, program.proc("Foo"))
        enc = EncodedProcedure(program, prepared)
        preds = mine_predicates(program, prepared)
        oracle = DeadFailOracle(enc, preds)
        cover = predicate_cover(oracle)
        res = find_almost_correct_specs(oracle, cover)
        raw = res.raw_specs[0]
        normalized = normalize(raw)
        simplified = oracle.simplify_clauses(normalized)
        return {"raw": raw, "normalized": normalized,
                "simplified": simplified}

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    sizes = {k: (len(v), sum(len(c) for c in v)) for k, v in out.items()}
    lines = [f"{k:11}: {n} clauses, {lits} literals"
             for k, (n, lits) in sizes.items()]
    emit("ablation_simplification", "\n".join(lines))
    # each stage only shrinks, and the final form is the paper's 3 units
    assert sizes["raw"][0] >= sizes["normalized"][0] >= sizes["simplified"][0]
    assert sizes["simplified"] == (3, 3)


INTERPROC = """
void writeval(int *p) { *p = 7; }
void zero_all(int *a, int n) {
  int i;
  for (i = 0; i < n; i++) { a[i] = 0; }
}
void good_caller(int *q) {
  if (q != NULL) { writeval(q); }
}
void bad_caller(void) {
  int *r = (int *)malloc(8);
  writeval(r);
  if (r != NULL) { *r = 9; }
}
void another_bad(int *s) {
  writeval(s);
  if (s != NULL) { writeval(s); }
}
"""


def test_ablation_interprocedural(benchmark):
    def run():
        return analyze_program_interprocedural(compile_c(INTERPROC),
                                               config=CONC)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    before = sum(len(r.warnings) for r in res.intra.reports)
    after = sum(len(r.warnings) for r in res.inter.reports)
    lines = [f"contracts inferred: {res.contracts}",
             f"warnings intraprocedural: {before}",
             f"warnings with call-site contracts: {after}",
             f"newly revealed: {res.new_warnings}"]
    emit("ablation_interproc", "\n".join(lines))
    assert "writeval" in res.contracts
    assert after > before
    assert "bad_caller" in res.new_warnings
    assert "good_caller" not in res.new_warnings
