"""DPLL(T) combination tests: EUF+LIA exchange, boolean structure over
theory atoms, incremental behaviour with theories, and linearization."""

import pytest

from repro.smt.api import Solver
from repro.smt.dpllt import linearize
from repro.smt.terms import TermFactory


@pytest.fixture()
def f():
    return TermFactory()


class TestLinearize:
    def test_constants_fold(self, f):
        coeffs, const, keys = linearize(
            f.add(f.intconst(2), f.intconst(3)))
        assert coeffs == {} and const == 5

    def test_linear_combination(self, f):
        x, y = f.int_var("x"), f.int_var("y")
        t = f.sub(f.add(x, f.mul(f.intconst(3), y)), x)
        coeffs, const, keys = linearize(t)
        assert coeffs == {y.tid: 3}
        assert const == 0

    def test_neg(self, f):
        x = f.int_var("x")
        coeffs, const, _ = linearize(f.neg(f.add(x, f.intconst(1))))
        assert coeffs == {x.tid: -1} and const == -1

    def test_nonlinear_is_opaque(self, f):
        x, y = f.int_var("x"), f.int_var("y")
        t = f.mul(x, y)
        coeffs, const, keys = linearize(t)
        assert coeffs == {t.tid: 1}
        assert t.tid in keys

    def test_select_is_opaque(self, f):
        m, x = f.map_var("M"), f.int_var("x")
        sel = f.select(m, x)
        coeffs, _, keys = linearize(f.add(sel, f.intconst(1)))
        assert coeffs == {sel.tid: 1}


class TestCombination:
    def test_euf_feeds_lia(self, f):
        # x = y (EUF), x <= 3, y >= 4  -> unsat via the equality
        x, y = f.int_var("x"), f.int_var("y")
        s = Solver(f)
        s.add(f.eq(x, y), f.le(x, f.intconst(3)), f.ge(y, f.intconst(4)))
        assert s.check() == "unsat"

    def test_lia_feeds_euf(self, f):
        x, y = f.int_var("x"), f.int_var("y")
        s = Solver(f)
        s.add(f.le(x, y), f.le(y, x),
              f.ne(f.apply("g", [x]), f.apply("g", [y])))
        assert s.check() == "unsat"

    def test_lia_feeds_euf_via_constants(self, f):
        x, y = f.int_var("x"), f.int_var("y")
        s = Solver(f)
        s.add(f.eq(x, f.intconst(2)), f.eq(y, f.intconst(2)),
              f.ne(f.apply("g", [x]), f.apply("g", [y])))
        assert s.check() == "unsat"

    def test_function_over_arithmetic_argument(self, f):
        x = f.int_var("x")
        gx1 = f.apply("g", [f.add(x, f.intconst(1))])
        s = Solver(f)
        s.add(f.eq(x, f.intconst(1)),
              f.ne(gx1, f.apply("g", [f.intconst(2)])))
        assert s.check() == "unsat"

    def test_sat_when_equality_not_forced(self, f):
        x, y = f.int_var("x"), f.int_var("y")
        s = Solver(f)
        s.add(f.le(x, y), f.ne(f.apply("g", [x]), f.apply("g", [y])))
        assert s.check() == "sat"

    def test_disequality_split(self, f):
        # 0 <= x <= 1, x != 0, x != 1 -> unsat over integers
        x = f.int_var("x")
        s = Solver(f)
        s.add(f.le(f.intconst(0), x), f.le(x, f.intconst(1)),
              f.ne(x, f.intconst(0)), f.ne(x, f.intconst(1)))
        assert s.check() == "unsat"

    def test_boolean_structure_over_atoms(self, f):
        x, y = f.int_var("x"), f.int_var("y")
        s = Solver(f)
        s.add(f.or_(f.lt(x, y), f.lt(y, x)), f.eq(x, y))
        assert s.check() == "unsat"

    def test_implication_triggers_theory(self, f):
        x = f.int_var("x")
        p = f.bool_var("p")
        s = Solver(f)
        s.add(f.implies(p, f.le(x, f.intconst(0))),
              f.implies(f.not_(p), f.le(x, f.intconst(0))),
              f.ge(x, f.intconst(1)))
        assert s.check() == "unsat"

    def test_uninterpreted_predicate_congruence(self, f):
        # predicates encode as apply(...) != 0
        x, y = f.int_var("x"), f.int_var("y")
        px = f.ne(f.apply("p", [x]), f.intconst(0))
        py = f.ne(f.apply("p", [y]), f.intconst(0))
        s = Solver(f)
        s.add(f.eq(x, y), px, f.not_(py))
        assert s.check() == "unsat"


class TestIncrementalWithTheories:
    def test_assumption_isolation(self, f):
        x, y = f.int_var("x"), f.int_var("y")
        s = Solver(f)
        i1 = s.new_indicator()
        i2 = s.new_indicator()
        s.add_guarded(i1, f.lt(x, y))
        s.add_guarded(i2, f.lt(y, x))
        assert s.check([i1]) == "sat"
        assert s.check([i2]) == "sat"
        assert s.check([i1, i2]) == "unsat"
        assert s.check([i1]) == "sat"  # recovers after conflict
        assert s.check([]) == "sat"

    def test_many_sequential_queries(self, f):
        x = f.int_var("x")
        s = Solver(f)
        inds = []
        for k in range(8):
            ind = s.new_indicator()
            s.add_guarded(ind, f.eq(x, f.intconst(k)))
            inds.append(ind)
        for a in inds:
            assert s.check([a]) == "sat"
        assert s.check(inds[:2]) == "unsat"

    def test_theory_lemmas_persist_safely(self, f):
        # a theory conflict learned under one assumption set must not
        # poison a different one
        x, y = f.int_var("x"), f.int_var("y")
        gx, gy = f.apply("g", [x]), f.apply("g", [y])
        s = Solver(f)
        i1 = s.new_indicator()
        s.add_guarded(i1, f.and_(f.le(x, y), f.le(y, x), f.ne(gx, gy)))
        assert s.check([i1]) == "unsat"
        assert s.check([]) == "sat"
        assert s.check([-i1]) == "sat"
