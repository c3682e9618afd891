"""The LIA trail API (push / pop_to / context): verdict equivalence with
the stateless ``check``, push-time bound-propagation conflicts, and
snapshot restoration under pops."""

from __future__ import annotations

import random

import pytest

from repro.smt.theories.lia import LiaSolver


def F(coeffs, const):
    return dict(coeffs), const


def prem(i):
    return frozenset({("lit", i)})


def trail_verdict(lia: LiaSolver):
    """The DPLL(T) view of the trail: FM feasibility first, then the
    both-sides-refuted disequality sweep."""
    ctx = lia.context()
    return ctx.feasible() or ctx.diseq_conflict()


def stateless_verdict(facts):
    eqs, ineqs, diseqs = [], [], []
    bucket = {"eq": eqs, "le": ineqs, "ne": diseqs}
    for i, (kind, coeffs, const) in enumerate(facts):
        c, k = F(coeffs, const)
        bucket[kind].append((c, k, prem(i)))
    return LiaSolver().check(eqs, ineqs, diseqs)


def push_all(lia: LiaSolver, facts):
    last = None
    for i, (kind, coeffs, const) in enumerate(facts):
        c, k = F(coeffs, const)
        last = lia.push(kind, c, k, prem(i))
    return last


def random_facts(rng: random.Random, n: int):
    names = "xyz"
    facts = []
    for _ in range(n):
        nvars = rng.randint(1, 2)
        coeffs = {v: rng.choice([-2, -1, 1, 2, 3])
                  for v in rng.sample(names, nvars)}
        const = rng.randint(-4, 4)
        kind = rng.choice(["eq", "le", "le", "ne"])
        facts.append((kind, coeffs, const))
    return facts


class TestTrailMatchesStateless:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_systems_same_verdict(self, seed):
        rng = random.Random(seed)
        facts = random_facts(rng, rng.randint(1, 8))
        lia = LiaSolver()
        push_all(lia, facts)
        incremental = trail_verdict(lia)
        stateless = stateless_verdict(facts)
        assert (incremental is None) == (stateless is None), facts
        if incremental is not None:
            # the core names pushed facts only
            assert incremental <= {("lit", i) for i in range(len(facts))}

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: a lossy pivot (no coefficient divides the others) "
        "eliminates rationally and forgets that its variable is an "
        "integer, so the trail (push order) and the stateless check (last "
        "equation first) can disagree on integer infeasibility; no "
        "benchmark workload takes a lossy pivot"))
    @pytest.mark.parametrize("facts", [
        # the trail's gcd test refutes -2y + 2z + 1 = 0 when it is
        # pushed; the stateless check first eliminates z through
        # -2z + 3y - 4 = 0, which leaves the satisfiable 2y - 6 = 0
        [("ne", {"y": -2}, 3), ("le", {"y": -2}, -2),
         ("ne", {"y": 3, "x": -1}, -3), ("eq", {"y": -2, "z": 2}, 1),
         ("ne", {"z": -2, "y": -1}, 2), ("eq", {"z": -2, "y": 3}, -4)],
        # the other way round: z = 3 makes 2y + 3z = 0 infeasible, but
        # the trail has already eliminated y through it
        [("eq", {"y": 2, "z": 3}, 0), ("le", {"x": -2, "y": 2}, 4),
         ("eq", {"z": -1}, 3)],
    ])
    def test_lossy_pivot_verdict_is_order_independent(self, facts):
        lia = LiaSolver()
        push_all(lia, facts)
        assert (trail_verdict(lia) is None) == \
            (stateless_verdict(facts) is None)

    def test_push_conflict_implies_stateless_conflict(self):
        # a conflict reported at push time must be a real infeasibility
        for seed in range(40):
            rng = random.Random(1000 + seed)
            facts = random_facts(rng, rng.randint(2, 7))
            lia = LiaSolver()
            if push_all(lia, facts) is not None:
                assert stateless_verdict(facts) is not None, facts


class TestBoundPropagation:
    def test_contradictory_bounds_conflict_at_push(self):
        lia = LiaSolver()
        # x <= 2, then x >= 3: the single-variable bound store must catch
        # this at push time, without running Fourier-Motzkin
        assert lia.push("le", *F({"x": 1}, -2), prem(1)) is None
        conflict = lia.push("le", *F({"x": -1}, 3), prem(2))
        assert conflict == {("lit", 1), ("lit", 2)}

    def test_eq_against_bound_conflicts(self):
        lia = LiaSolver()
        assert lia.push("le", *F({"x": 1}, -2), prem(1)) is None  # x <= 2
        conflict = lia.push("eq", *F({"x": 1}, -5), prem(2))      # x = 5
        assert conflict is not None
        assert ("lit", 2) in conflict

    def test_poisoned_trail_reports_same_conflict_until_popped(self):
        lia = LiaSolver()
        lia.push("le", *F({"x": 1}, -2), prem(1))
        mark = lia.trail_mark()
        first = lia.push("le", *F({"x": -1}, 3), prem(2))
        assert first is not None
        # later pushes and contexts keep reporting a conflict
        assert lia.push("le", *F({"y": 1}, 0), prem(3)) is not None
        assert trail_verdict(lia) is not None
        lia.pop_to(mark)
        assert trail_verdict(lia) is None


class TestPopRestores:
    @pytest.mark.parametrize("seed", range(15))
    def test_pop_then_repush_matches_fresh(self, seed):
        rng = random.Random(2000 + seed)
        base = random_facts(rng, 3)
        detour = random_facts(rng, 4)
        tail = random_facts(rng, 3)

        lia = LiaSolver()
        push_all(lia, base)
        mark = lia.trail_mark()
        push_all(lia, detour)
        lia.pop_to(mark)
        push_all(lia, tail)
        incremental = trail_verdict(lia)

        stateless = stateless_verdict(base + tail)
        assert (incremental is None) == (stateless is None), (base, tail)

    def test_pop_to_zero_resets(self):
        lia = LiaSolver()
        assert lia.push("eq", *F({"x": 1, "y": -1}, 0), prem(1)) is None
        assert lia.push("le", *F({"x": 1}, -1), prem(2)) is None
        lia.pop_to(0)
        assert lia.trail_mark() == 0
        assert not lia._subs and not lia._rows and not lia._dis
        assert not lia._bounds and lia._conflict is None
        assert trail_verdict(lia) is None


class TestContextExtras:
    def test_euf_equations_compose_without_mutating_trail(self):
        lia = LiaSolver()
        lia.push("le", *F({"x": 1}, -2), prem(1))   # x <= 2
        lia.push("le", *F({"y": -1}, 3), prem(2))   # y >= 3
        rows_before = lia._rows
        extra = [F({"x": 1, "y": -1}, 0) + (frozenset({("eq", "xy")}),)]
        ctx = lia.context(extra)                    # x = y: now infeasible
        conflict = ctx.feasible()
        assert conflict is not None
        assert ("eq", "xy") in conflict
        assert lia._rows is rows_before             # side eqs left no trace
        assert trail_verdict(lia) is None
