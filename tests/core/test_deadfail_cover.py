"""Dead/Fail oracle and predicate-cover tests."""

import pytest

from repro.core import A1, CONC, find_abstract_sibs
from repro.core.clauses import all_maximal_clauses
from repro.core.cover import predicate_cover
from repro.core.deadfail import AnalysisTimeout, Budget, DeadFailOracle
from repro.core.predicates import mine_predicates
from repro.lang.ast import TRUE, AndExpr, IntLit, NotExpr, OrExpr, \
    RelExpr, VarExpr
from repro.lang.parser import parse_program
from repro.lang.pretty import pp_formula
from repro.lang.transform import prepare_procedure
from repro.lang.typecheck import typecheck
from repro.vc.encode import EncodedProcedure


def setup(src: str, name: str | None = None, preds=None, **mine_kw):
    prog = typecheck(parse_program(src))
    pname = name or next(n for n, p in prog.procedures.items()
                         if p.body is not None)
    proc = prepare_procedure(prog, prog.proc(pname))
    enc = EncodedProcedure(prog, proc)
    if preds is None:
        preds = mine_predicates(prog, proc, **mine_kw)
    return DeadFailOracle(enc, preds)


class TestConservative:
    def test_fail_true_reports_unprovable(self):
        oracle = setup("""
            procedure P(x: int) {
              A1: assert x != 0;
              if (x != 0) { A2: assert x != 0; }
            }
        """)
        labels = oracle.labels_of(oracle.conservative_fail())
        assert labels == ["A1"]

    def test_verified_procedure_empty(self):
        oracle = setup("""
            procedure P(x: int) {
              assume x > 0;
              A: assert x > 0;
            }
        """)
        assert oracle.conservative_fail() == frozenset()


class TestDeadSets:
    def test_baseline_dead_removed(self):
        # the then-branch is dead already under true; it must not appear
        # in any dead set and must be recorded as baseline-dead
        oracle = setup("""
            procedure P(x: int) {
              assume x > 0;
              if (x < 0) { skip; } else { skip; }
            }
        """)
        assert oracle.baseline_dead
        assert oracle.dead_set(frozenset()) == frozenset()

    def test_spec_induced_dead(self):
        oracle = setup("""
            procedure P(x: int) {
              A: assert x != 0;
              if (x == 0) { skip; } else { skip; }
            }
        """)
        # under the clause {x == 0 is false} the then branch dies
        clause = frozenset({-1})  # preds[0] is canon '0 == x'
        assert oracle.dead_set(frozenset({clause}))
        assert not oracle.dead_set(frozenset())

    def test_cache_consistency(self):
        oracle = setup("procedure P(x: int) { A: assert x != 0; }")
        a = oracle.fail_set(frozenset())
        b = oracle.fail_set(frozenset())
        assert a is b  # cached object


class TestFormulaQueries:
    def test_fail_formula_vs_clause(self):
        oracle = setup("procedure P(x: int) { A: assert x != 0; }")
        spec = RelExpr("!=", VarExpr("x"), IntLit(0))
        assert oracle.fail_set_formula(spec) == frozenset()
        assert oracle.fail_set_formula(TRUE) != frozenset()

    def test_dead_formula(self):
        oracle = setup("""
            procedure P(x: int) {
              if (x == 0) { skip; } else { skip; }
            }
        """)
        spec = RelExpr("!=", VarExpr("x"), IntLit(0))
        assert oracle.dead_set_formula(spec)
        assert oracle.dead_set_formula(TRUE) == frozenset()


class TestBudget:
    def test_expired_budget_raises(self):
        oracle = setup("procedure P(x: int) { A: assert x != 0; }")
        oracle.budget = Budget(0.0)
        import time
        time.sleep(0.01)
        with pytest.raises(AnalysisTimeout):
            oracle.fail_set(frozenset({frozenset({1})}))

    def test_none_budget_never_raises(self):
        b = Budget(None)
        b.check()


class TestPredicateCover:
    def test_cover_excludes_failing_cubes(self):
        oracle = setup("""
            procedure P(x: int) {
              A: assert x != 0;
            }
        """)
        cover = predicate_cover(oracle)
        # Q = {0 == x}; the cube (0 == x) fails -> cover = {clause !(0==x)}
        assert cover == frozenset({frozenset({-1})})

    def test_cover_fail_is_empty(self):
        oracle = setup("""
            procedure P(x: int, y: int) {
              A1: assert x != 0;
              if (y == 0) { A2: assert y == 0; }
            }
        """)
        cover = predicate_cover(oracle)
        assert oracle.fail_set(cover) == frozenset()

    def test_verified_procedure_full_true_cover(self):
        oracle = setup("""
            procedure P(x: int) {
              assume x > 0;
              A: assert x > 0;
            }
        """)
        cover = predicate_cover(oracle)
        assert cover == frozenset()  # nothing fails: beta_Q = true

    def test_cover_clauses_are_maximal(self):
        oracle = setup("""
            procedure P(x: int, y: int) {
              A1: assert x != 0;
              A2: assert y != 0;
            }
        """)
        cover = predicate_cover(oracle)
        nq = len(oracle.preds)
        assert nq == 2
        for clause in cover:
            assert len(clause) == nq
            assert clause in set(all_maximal_clauses(nq))

    def test_solver_reusable_after_cover(self):
        # blocking clauses must be confined behind the guard
        oracle = setup("procedure P(x: int) { A: assert x != 0; }")
        before = oracle.fail_set_formula(TRUE)
        predicate_cover(oracle)
        oracle._fail_cache.clear()
        after = oracle.fail_set_formula(TRUE)
        assert before == after


BARE = """
function ok(int): int;
procedure f(p: int) { assert ok(p); }
procedure g(p: int) { if (ok(p)) { assert p > 0; } else { assert p < 0; } }
"""
EXPLICIT = """
function ok(int): int;
procedure f(p: int) { assert ok(p) != 0; }
procedure g(p: int) {
  if (ok(p) != 0) { assert p > 0; } else { assert p < 0; }
}
"""


def spec_clauses(fm) -> set:
    """A spec formula as a set of clauses of (atom, polarity) literals,
    with ``ok(p) == 0`` read as the negation of the bare ``ok(p)``."""
    out = set()
    for clause in fm.args if isinstance(fm, AndExpr) else (fm,):
        lits = set()
        for lit in clause.args if isinstance(clause, OrExpr) else (clause,):
            positive = True
            while isinstance(lit, NotExpr):
                lit, positive = lit.arg, not positive
            atom = pp_formula(lit)
            if atom == "ok(p) == 0":
                atom, positive = "ok(p)", not positive
            lits.add((atom, positive))
        out.add(frozenset(lits))
    return out


@pytest.mark.parametrize("config", [CONC, A1], ids=lambda c: c.name)
@pytest.mark.parametrize("proc", ["f", "g"])
def test_bare_application_covers_like_its_comparison(proc, config):
    """``assert ok(p)`` encodes as ``ok(p) != 0``, whose literal is the
    negation of an equality's, so a negative predicate literal must
    project to the predicate's own value, as the comparison's does."""
    bare, explicit = (
        find_abstract_sibs(typecheck(parse_program(src)), proc,
                           config=config)
        for src in (BARE, EXPLICIT))
    assert bare.status == explicit.status
    assert bare.warnings == explicit.warnings
    assert bare.conservative_warnings == explicit.conservative_warnings
    assert [spec_clauses(fm) for fm in bare.spec_formulas] == \
        [spec_clauses(fm) for fm in explicit.spec_formulas]
