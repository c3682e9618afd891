"""Learnt-clause DB reduction: deletion proofs, answer invariance between
forced-early reduction and the default interval, and the decision-heap
compaction bound."""

from __future__ import annotations

import itertools
import random

from repro.smt.proofcheck import check_proof
from repro.smt.sat.solver import SatSolver


def make_solver(nvars: int) -> SatSolver:
    s = SatSolver()
    for _ in range(nvars):
        s.new_var()
    return s


def pigeonhole(s: SatSolver, pigeons: int, holes: int) -> None:
    """PHP(pigeons, holes) over vars ``holes*(p-1)+h``; unsat when
    pigeons > holes, and famously conflict-heavy for CDCL."""

    def v(p: int, h: int) -> int:
        return holes * (p - 1) + h

    for p in range(1, pigeons + 1):
        s.add_clause([v(p, h) for h in range(1, holes + 1)])
    for h in range(1, holes + 1):
        for p1, p2 in itertools.combinations(range(1, pigeons + 1), 2):
            s.add_clause([-v(p1, h), -v(p2, h)])


def random_3cnf(rng: random.Random, nvars: int, nclauses: int) -> list:
    clauses = []
    for _ in range(nclauses):
        lits = rng.sample(range(1, nvars + 1), 3)
        clauses.append([l if rng.random() < 0.5 else -l for l in lits])
    return clauses


def force_early_reduction(s: SatSolver) -> None:
    """Drop the reduction thresholds so small test instances exercise the
    reduce path (the production interval of 128 conflicts would never
    fire on them)."""
    s._reduce_interval = 4
    s._next_reduce = 4


class TestReductionProofs:
    def test_reduction_emits_checkable_deletions(self):
        s = make_solver(30)
        s.enable_proof()
        pigeonhole(s, 6, 5)
        force_early_reduction(s)
        assert s.solve() is False
        assert s.reduced_clauses > 0
        tags = [tag for tag, _ in s.proof.steps]
        assert tags.count("d") == s.reduced_clauses
        # the full log, deletions included, still replays from scratch
        assert check_proof(s.proof.steps, require_unsat=True) >= 1

    def test_glue_binary_and_locked_clauses_survive(self):
        s = make_solver(30)
        pigeonhole(s, 6, 5)
        force_early_reduction(s)
        assert s.solve() is False
        for cl in s._learnts:
            assert cl.lbd >= 1  # scored at learn time, before backjump


class TestReductionInvariance:
    def test_answers_match_with_and_without_reduction(self):
        # near the 3-SAT threshold, instances of this size take tens of
        # conflicts: enough for forced-early reduction to fire in a few
        # rounds, too few for the default interval (first reduction
        # after 128 conflicts), which is the no-reduction side
        rng = random.Random(7)
        reduced = 0
        for round_ in range(25):
            nvars = rng.randint(45, 55)
            clauses = random_3cnf(rng, nvars, int(nvars * 4.26))
            forced, default = make_solver(nvars), make_solver(nvars)
            for s in (forced, default):
                for cl in clauses:
                    s.add_clause(list(cl))
            force_early_reduction(forced)
            assert forced.solve() == default.solve(), \
                f"round {round_}: {clauses}"
            assert default.reduced_clauses == 0
            reduced += forced.reduced_clauses
        assert reduced > 0, "forced reduction never fired"


class TestHeapBound:
    def test_restart_heavy_run_keeps_heap_bounded(self):
        # Restarts rebuild the trail wholesale and every unassignment
        # pushes a fresh heap entry, so a conflict-heavy run is exactly
        # the workload that used to leak stale entries without bound.
        s = make_solver(35)
        pigeonhole(s, 7, 5)
        assert s.solve() is False
        assert s.restarts > 0, "instance too easy to exercise restarts"
        assert s.conflicts > 100
        assert len(s._order) <= 2 * s.nvars + 16

    def test_compaction_preserves_completeness(self):
        # After a manual compaction mid-search state (all vars unassigned)
        # every variable must still be branchable: a full solve on a sat
        # instance must find a model.
        rng = random.Random(3)
        s = make_solver(12)
        for cl in random_3cnf(rng, 12, 30):
            s.add_clause(cl)
        # grow the heap artificially, then compact
        for v in range(1, 13):
            s._bump(v)
            s._bump(v)
        s._compact_order()
        assert len(s._order) <= s.nvars
        res = s.solve()
        if res:  # model must cover every variable
            assert all(s.value(v) is not None for v in range(1, 13))
