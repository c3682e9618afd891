"""Linear integer arithmetic solver tests: feasibility, explanations,
integer tightening, disequalities, entailment, and a hypothesis
cross-check against brute-force integer enumeration."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.theories.lia import LiaBudgetExceeded, LiaSolver, _tighten


def C(coeffs, const, *prem):
    return (dict(coeffs), const, frozenset(prem))


@pytest.fixture()
def lia():
    return LiaSolver()


class TestFeasibility:
    def test_empty_feasible(self, lia):
        assert lia.check([], [], []) is None

    def test_single_bound_feasible(self, lia):
        assert lia.check([], [C({"x": 1}, -5)], []) is None  # x <= 5

    def test_contradictory_bounds(self, lia):
        # x <= 2 and x >= 3  (i.e. -x + 3 <= 0)
        core = lia.check([], [C({"x": 1}, -2, "a"), C({"x": -1}, 3, "b")], [])
        assert core == {"a", "b"}

    def test_transitive_chain_unsat(self, lia):
        # x < y, y < z, z < x  over ints: x - y + 1 <= 0 etc.
        cs = [C({"x": 1, "y": -1}, 1, "a"),
              C({"y": 1, "z": -1}, 1, "b"),
              C({"z": 1, "x": -1}, 1, "c")]
        assert lia.check([], cs, []) == {"a", "b", "c"}

    def test_explanation_excludes_irrelevant(self, lia):
        cs = [C({"x": 1}, -2, "a"), C({"x": -1}, 3, "b"),
              C({"w": 1}, -100, "junk")]
        core = lia.check([], cs, [])
        assert core == {"a", "b"}

    def test_equation_infeasible_constant(self, lia):
        assert lia.check([C({}, 1, "e")], [], []) == {"e"}

    def test_equations_substitute(self, lia):
        # x = y, x <= 0, y >= 1
        core = lia.check([C({"x": 1, "y": -1}, 0, "e")],
                         [C({"x": 1}, 0, "a"), C({"y": -1}, 1, "b")], [])
        assert core == {"e", "a", "b"}

    def test_gcd_infeasible_equation(self, lia):
        # 2x + 4y = 1 has no integer solution
        assert lia.check([C({"x": 2, "y": 4}, -1, "e")], [], []) == {"e"}

    def test_integer_tightening_catches_gap(self, lia):
        # 1 <= 2x <= 1 over integers is infeasible (x = 1/2)
        cs = [C({"x": 2}, -1, "a"),   # 2x <= 1
              C({"x": -2}, 1, "b")]   # 2x >= 1
        assert lia.check([], cs, []) == {"a", "b"}

    def test_rational_relaxation_feasible_case(self, lia):
        cs = [C({"x": 2}, -4, "a"), C({"x": -2}, 2, "b")]  # 1 <= x <= 2
        assert lia.check([], cs, []) is None


class TestDisequalities:
    def test_diseq_forced_equal_conflicts(self, lia):
        # x <= y, y <= x, x != y
        core = lia.check([], [C({"x": 1, "y": -1}, 0, "a"),
                              C({"y": 1, "x": -1}, 0, "b")],
                         [C({"x": 1, "y": -1}, 0, "d")])
        assert core == {"a", "b", "d"}

    def test_diseq_with_room_feasible(self, lia):
        assert lia.check([], [C({"x": 1, "y": -1}, 0, "a")],
                         [C({"x": 1, "y": -1}, 0, "d")]) is None

    def test_diseq_constant(self, lia):
        # x = 5 (as equation), x != 5
        core = lia.check([C({"x": 1}, -5, "e")], [],
                         [C({"x": 1}, -5, "d")])
        assert core == {"e", "d"}

    def test_multiple_diseqs_ok(self, lia):
        assert lia.check([], [],
                         [C({"x": 1, "y": -1}, 0, "d1"),
                          C({"x": 1, "z": -1}, 0, "d2")]) is None


class TestEntailsEq:
    """Entailment as the DPLL(T) interface propagation asks it: push the
    facts onto the trail, then probe ``context().entails_eq``."""

    @staticmethod
    def entails(lia, eqs, ineqs, coeffs, const):
        for kind, facts in (("eq", eqs), ("le", ineqs)):
            for c, k, p in facts:
                assert lia.push(kind, c, k, p) is None
        return lia.context().entails_eq(coeffs, const)

    def test_entailed_equality(self, lia):
        ineqs = [C({"x": 1, "y": -1}, 0, "a"), C({"y": 1, "x": -1}, 0, "b")]
        prem = self.entails(lia, [], ineqs, {"x": 1, "y": -1}, 0)
        assert prem == {"a", "b"}

    def test_not_entailed(self, lia):
        ineqs = [C({"x": 1, "y": -1}, 0, "a")]
        assert self.entails(lia, [], ineqs, {"x": 1, "y": -1}, 0) is None

    def test_entailed_via_constants(self, lia):
        eqs = [C({"x": 1}, -3, "e1"), C({"y": 1}, -3, "e2")]
        prem = self.entails(lia, eqs, [], {"x": 1, "y": -1}, 0)
        assert prem == {"e1", "e2"}


class TestTighten:
    def test_divides_by_gcd_and_floors(self):
        coeffs, const = _tighten({"x": 2}, -3)  # 2x <= 3
        assert coeffs == {"x": 1}
        assert const == -1  # x <= 1
        # -2x + 4y <= -3  ->  -x + 2y <= floor(-3/2) = -2: the bound
        # rounds toward -inf, not toward 0
        assert _tighten({"x": -2, "y": 4}, 3) == ({"x": -1, "y": 2}, 2)

    def test_empty_passthrough(self):
        coeffs, const = _tighten({}, 5)
        assert coeffs == {} and const == 5


class TestBudget:
    def test_budget_exceeded_raises(self):
        lia = LiaSolver(budget=3)
        n = 6
        cs = []
        for i in range(n):
            cs.append(C({f"x{i}": 1, f"x{(i+1) % n}": -1}, 0, f"a{i}"))
            cs.append(C({f"x{i}": -1, f"x{(i+1) % n}": 1}, -1, f"b{i}"))
        with pytest.raises(LiaBudgetExceeded):
            lia.check([], cs * 3, [])


def brute_force_feasible(ineqs, eqs, bound=4):
    vars_ = sorted({v for cs in (ineqs + eqs) for v in cs[0]})
    for vals in itertools.product(range(-bound, bound + 1), repeat=len(vars_)):
        env = dict(zip(vars_, vals))
        ok = True
        for coeffs, const, _ in ineqs:
            if sum(env[v] * c for v, c in coeffs.items()) + const > 0:
                ok = False
                break
        if ok:
            for coeffs, const, _ in eqs:
                if sum(env[v] * c for v, c in coeffs.items()) + const != 0:
                    ok = False
                    break
        if ok:
            return True
    return False


@st.composite
def lia_instances(draw):
    nvars = draw(st.integers(1, 3))
    vars_ = [f"x{i}" for i in range(nvars)]
    n_ineq = draw(st.integers(0, 5))
    n_eq = draw(st.integers(0, 2))

    def constraint(tag, idx):
        coeffs = {}
        for v in vars_:
            # 2 and 3 together make lossy pivots (no coefficient
            # divides the others)
            c = draw(st.integers(-2, 3))
            if c:
                coeffs[v] = c
        const = draw(st.integers(-4, 4))
        return (coeffs, const, frozenset({f"{tag}{idx}"}))

    ineqs = [constraint("i", k) for k in range(n_ineq)]
    eqs = [constraint("e", k) for k in range(n_eq)]
    return eqs, ineqs


class TestAgainstBruteForce:
    @given(lia_instances())
    @settings(max_examples=200, deadline=None)
    def test_infeasibility_sound(self, inst):
        """If the solver says infeasible, brute force must agree; if brute
        force finds a small solution, the solver must say feasible.  (The
        solver may be feasible with only large-magnitude solutions, which
        the bounded brute force cannot see — so only one direction of the
        small-model check applies.)"""
        eqs, ineqs = inst
        lia = LiaSolver()
        core = lia.check(eqs, ineqs, [])
        if core is not None:
            assert not brute_force_feasible(ineqs, eqs, bound=6)
            # the core alone must also be infeasible
            core_ineqs = [c for c in ineqs if c[2] <= core]
            core_eqs = [c for c in eqs if c[2] <= core]
            assert lia.check(core_eqs, core_ineqs, []) is not None
        elif brute_force_feasible(ineqs, eqs, bound=4):
            assert core is None
