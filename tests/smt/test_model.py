"""Model extraction tests: hand cases plus the closing of the random-
testing loop — every 'sat' answer on random formulas is certified by a
concrete, independently evaluated model."""

from hypothesis import given, settings, strategies as st

from repro.bench import compile_suite, make_suite
from repro.core import A2, CONC, analyze_program
from repro.core.deadfail import clear_baseline_cache
from repro.smt import Solver, TermFactory
from repro.smt.model import Model, extract_model, search_model


class TestHandCases:
    def test_lia_bounds(self):
        f = TermFactory()
        x, y = f.int_var("x"), f.int_var("y")
        s = Solver(f)
        s.add(f.lt(x, y), f.le(y, f.intconst(3)), f.ge(x, f.intconst(1)))
        assert s.check() == "sat"
        m = extract_model(s)
        assert m is not None
        assert 1 <= m.var_values["x"] < m.var_values["y"] <= 3

    def test_equalities_respected(self):
        f = TermFactory()
        x, y = f.int_var("x"), f.int_var("y")
        s = Solver(f)
        s.add(f.eq(x, y), f.eq(y, f.intconst(7)))
        assert s.check() == "sat"
        m = extract_model(s)
        assert m.var_values["x"] == m.var_values["y"] == 7

    def test_disequalities_respected(self):
        f = TermFactory()
        x, y = f.int_var("x"), f.int_var("y")
        s = Solver(f)
        s.add(f.ne(x, y), f.le(f.intconst(0), x), f.le(x, f.intconst(1)),
              f.le(f.intconst(0), y), f.le(y, f.intconst(1)))
        assert s.check() == "sat"
        m = extract_model(s)
        assert m.var_values["x"] != m.var_values["y"]
        assert {m.var_values["x"], m.var_values["y"]} == {0, 1}

    def test_map_cells(self):
        f = TermFactory()
        m_, x, y = f.map_var("M"), f.int_var("x"), f.int_var("y")
        s = Solver(f)
        s.add(f.eq(f.select(m_, x), f.intconst(5)),
              f.ne(f.select(m_, y), f.intconst(5)))
        assert s.check() == "sat"
        m = extract_model(s)
        assert m is not None
        entries, default = m.map_values["M"]
        xv, yv = m.var_values["x"], m.var_values["y"]
        assert entries.get(xv, default) == 5
        assert entries.get(yv, default) != 5

    def test_function_table_congruent(self):
        f = TermFactory()
        x, y = f.int_var("x"), f.int_var("y")
        s = Solver(f)
        s.add(f.eq(x, y),
              f.eq(f.apply("g", [x]), f.intconst(2)))
        assert s.check() == "sat"
        m = extract_model(s)
        assert m.fun_tables[("g", (m.var_values["x"],))] == 2

    def test_store_chain_evaluation(self):
        f = TermFactory()
        m_, x = f.map_var("M"), f.int_var("x")
        s = Solver(f)
        s.add(f.eq(x, f.intconst(4)))
        assert s.check() == "sat"
        m = extract_model(s)
        t = f.select(f.store(m_, x, f.intconst(9)), f.intconst(4))
        assert m.eval_int(t) == 9

    def test_bool_vars(self):
        f = TermFactory()
        p, q = f.bool_var("p"), f.bool_var("q")
        s = Solver(f)
        s.add(f.or_(p, q), f.not_(p))
        assert s.check() == "sat"
        m = extract_model(s)
        assert m.eval_bool(q) and not m.eval_bool(p)

    def test_ite_evaluation(self):
        m = Model({"x": 3, "c": 1}, {}, {})
        f = TermFactory()
        t = f.ite(f.bool_var("c"), f.int_var("x"), f.intconst(0))
        assert m.eval_int(t) == 3


class TestStateBuilder:
    """Models read off the final theory state, with no value search."""

    @staticmethod
    def _model(f, *formulas):
        s = Solver(f, validate=True)
        s.add(*formulas)
        assert s.check() == "sat"
        assert s.certificates["model_fallbacks"] == 0
        return s.last_model

    def test_one_sided_elimination(self):
        # eliminating x drops the only row that mentions y
        f = TermFactory()
        x, y = f.int_var("x"), f.int_var("y")
        m = self._model(f, f.le(x, y))
        assert m.var_values["x"] <= m.var_values["y"]

    def test_reverse_substitution(self):
        f = TermFactory()
        x, y, z = f.int_var("x"), f.int_var("y"), f.int_var("z")
        m = self._model(f, f.eq(x, f.add(y, f.intconst(1))),
                        f.eq(y, f.add(z, f.intconst(1))),
                        f.ge(z, f.intconst(5)))
        z_value = m.var_values["z"]
        assert z_value >= 5
        assert m.var_values["y"] == z_value + 1
        assert m.var_values["x"] == z_value + 2

    def test_trail_disequality(self):
        f = TermFactory()
        x, y = f.int_var("x"), f.int_var("y")
        zero, one = f.intconst(0), f.intconst(1)
        m = self._model(f, f.ne(x, y), f.le(zero, x), f.le(x, one),
                        f.le(zero, y), f.le(y, one))
        assert {m.var_values["x"], m.var_values["y"]} == {0, 1}

    def test_select_and_function_over_one_index(self):
        f = TermFactory()
        m_, i = f.map_var("M"), f.int_var("i")
        cell, row = f.select(m_, i), f.apply("g", [i])
        m = self._model(f, f.eq(cell, f.intconst(5)),
                        f.eq(row, f.add(cell, f.intconst(1))))
        assert m.eval_int(cell) == 5
        assert m.eval_int(row) == 6

    def test_select_cell_collision_falls_back_to_search(self):
        # Gaussian elimination solves for x = M[M[M[M[x]]]] + M[M[x]];
        # the free keys take distinct values, but the derived x lands on
        # M[M[x]]'s value, so the cells M[x] and M[M[M[x]]] collide
        f = TermFactory()
        m_, x = f.map_var("M"), f.int_var("x")
        m1 = f.select(m_, x)
        m2 = f.select(m_, m1)
        m4 = f.select(m_, f.select(m_, m2))
        formula = f.eq(m4, f.sub(x, m2))
        s = Solver(f, validate=True)
        s.add(formula)
        assert s.check() == "sat"
        assert s.certificates["model_fallbacks"] == 1
        assert s.last_model.eval_bool(formula) is True


def test_fig5_small_suite_needs_no_fallback():
    program = compile_suite(make_suite("CWE690", scale=0.5))
    clear_baseline_cache()  # a memo hit would answer without the solver
    totals = {"sat_checked": 0, "model_fallbacks": 0}
    for config in (CONC, A2):
        report = analyze_program(program, config=config, self_check=True)
        for r in report.reports:
            for key in totals:
                totals[key] += r.certificates[key]
    assert totals["sat_checked"] > 0
    assert totals["model_fallbacks"] == 0


# ----------------------------------------------------------------------
# close the loop on the random solver tests
# ----------------------------------------------------------------------

from .test_api_random import formulas  # noqa: E402


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_every_sat_answer_has_a_genuine_model(data):
    factory = TermFactory()
    formula = data.draw(formulas(factory))
    s = Solver(factory)
    s.add(formula)
    if s.check() != "sat":
        return
    model = extract_model(s)
    # extraction is best-effort, but in the VC fragment (what `formulas`
    # generates) it must succeed
    assert model is not None
    assert model.eval_bool(formula) is True
    # the value search is only a fallback the VC corpus no longer
    # reaches, so exercise it on the same solver state
    searched = search_model(s)
    assert searched is not None
    assert searched.eval_bool(formula) is True
