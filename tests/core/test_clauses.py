"""Clause-set machinery tests: formulas, normalization (§4.3 rules),
pruning, and maximal-clause helpers."""

from repro.core.clauses import (all_maximal_clauses, clause_formula,
                                clause_set_formula, is_tautology,
                                maximal_clause_from_model, normalize,
                                prune_clauses)
from repro.lang.ast import BoolLit, IntLit, NotExpr, OrExpr, RelExpr, VarExpr
from repro.lang.pretty import pp_formula

P = [RelExpr("==", VarExpr("x"), IntLit(0)),
     RelExpr("==", VarExpr("y"), IntLit(0)),
     RelExpr("<", VarExpr("x"), VarExpr("y"))]


class TestFormulas:
    def test_singleton_positive(self):
        assert pp_formula(clause_formula(frozenset({1}), P)) == "x == 0"

    def test_singleton_negative(self):
        assert pp_formula(clause_formula(frozenset({-1}), P)) == "!(x == 0)"

    def test_disjunction_ordered(self):
        f = clause_formula(frozenset({2, -1}), P)
        assert isinstance(f, OrExpr)

    def test_empty_clause_set_is_true(self):
        assert clause_set_formula(frozenset(), P) == BoolLit(True)

    def test_conjunction_of_clauses(self):
        cs = frozenset({frozenset({1}), frozenset({2})})
        out = pp_formula(clause_set_formula(cs, P))
        assert "x == 0" in out and "y == 0" in out


class TestModelNegation:
    def test_negates_assignment(self):
        # model: p1=True, p2=False -> clause (!p1 | p2)
        clause = maximal_clause_from_model((True, False))
        assert clause == frozenset({-1, 2})


class TestNormalize:
    def test_paper_example_resolution(self):
        # (a | b) & (a | !b) simplifies to (a)  — §4.3's motivating case
        cs = frozenset({frozenset({1, 2}), frozenset({1, -2})})
        assert normalize(cs) == frozenset({frozenset({1})})

    def test_subsumption(self):
        cs = frozenset({frozenset({1}), frozenset({1, 2})})
        assert normalize(cs) == frozenset({frozenset({1})})

    def test_tautology_removed(self):
        cs = frozenset({frozenset({1, -1, 2}), frozenset({2})})
        assert normalize(cs) == frozenset({frozenset({2})})

    def test_full_maximal_cover_collapses_to_false(self):
        # all four maximal clauses over {p1, p2} denote false; resolution
        # derives the empty clause and subsumption leaves exactly it
        cs = frozenset(all_maximal_clauses(2))
        assert normalize(cs) == frozenset({frozenset()})

    def test_empty_input(self):
        assert normalize(frozenset()) == frozenset()

    def test_idempotent(self):
        cs = frozenset({frozenset({1, 2}), frozenset({1, -2}),
                        frozenset({3, 1})})
        once = normalize(cs)
        assert normalize(once) == once

    def test_three_predicate_chain(self):
        # (a|c) & (b|!c) & (a|b) : resolution of first two gives (a|b),
        # already present
        cs = frozenset({frozenset({1, 3}), frozenset({2, -3}),
                        frozenset({1, 2})})
        out = normalize(cs)
        assert frozenset({1, 2}) in out


class TestPrune:
    def test_none_disables(self):
        cs = frozenset({frozenset({1, 2, 3})})
        assert prune_clauses(cs, None) == cs

    def test_k1_keeps_units_only(self):
        cs = frozenset({frozenset({1}), frozenset({1, 2}),
                        frozenset({1, 2, 3})})
        assert prune_clauses(cs, 1) == frozenset({frozenset({1})})

    def test_k2(self):
        cs = frozenset({frozenset({1}), frozenset({1, 2}),
                        frozenset({1, 2, 3})})
        assert prune_clauses(cs, 2) == frozenset({frozenset({1}),
                                                  frozenset({1, 2})})

    def test_pruning_weakens_to_true(self):
        cs = frozenset({frozenset({1, 2})})
        assert prune_clauses(cs, 1) == frozenset()


class TestMaximalClauses:
    def test_count(self):
        assert len(list(all_maximal_clauses(3))) == 8

    def test_zero_preds(self):
        assert list(all_maximal_clauses(0)) == [frozenset()]

    def test_tautology_detection(self):
        assert is_tautology(frozenset({1, -1}))
        assert not is_tautology(frozenset({1, -2}))
