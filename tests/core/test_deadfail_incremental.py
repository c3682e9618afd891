"""The monotonicity-aware oracle fast paths, the display cleanup's cube
sets (and the Budget helpers).

The semantics guarantee, for clause sets ``c2 ⊆ c1`` over the same
vocabulary, ``Fail(c1) ⊆ Fail(c2)`` and ``Dead(c2) ⊆ Dead(c1)``.  The
optimized oracle exploits that through explicit parent hints
(``superset_of`` / ``subset_of``), cache-derived bounds, and a bounded
fail enumeration for Algorithm 2's ``|Fail| > MinFail`` pruning.  Every
fast path must be invisible in the results — property-tested here against
a hint-free oracle and against a reference (seed) implementation of the
Algorithm-2 search.  The cleanup's cube sets are property-tested against
an oracle that asks the solver every entailment question.
"""

import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.acspec import (SearchBudgetExceeded, _spec_key,
                               find_almost_correct_specs)
from repro.core.clauses import clause_set_formula, normalize, prune_clauses
from repro.core.cover import predicate_cover
from repro.core.deadfail import (_LISTED_PREDS, AnalysisTimeout, Budget,
                                 DeadFailOracle)
from repro.core.predicates import mine_predicates
from repro.lang import parse_program, typecheck
from repro.lang.ast import (AssertStmt, AssumeStmt, IfStmt, IntLit,
                            PredAppExpr, Procedure, Program, RelExpr,
                            SkipStmt, Type, VarExpr, seq)
from repro.lang.pretty import pp_formula
from repro.lang.transform import instrument, prepare_procedure
from repro.vc.encode import EncodedProcedure

VARS = ["x", "y"]


@st.composite
def small_procs(draw):
    """Random tiny procedures with branching and 1-4 assertions."""
    n_stmts = draw(st.integers(1, 3))
    label = [0]

    def cond():
        v = VarExpr(draw(st.sampled_from(VARS)))
        if draw(st.integers(0, 4)) == 0:
            # a bare predicate application: its SAT literal is negative
            return PredAppExpr("ok", (v,))
        op = draw(st.sampled_from(["==", "!=", "<", "<="]))
        return RelExpr(op, v, IntLit(draw(st.integers(-1, 1))))

    def leaf():
        kind = draw(st.integers(0, 2))
        if kind == 0:
            label[0] += 1
            return AssertStmt(cond(), label=f"A{label[0]}")
        if kind == 1:
            return AssumeStmt(cond())
        return SkipStmt()

    def stmt(d):
        if d == 0 or draw(st.booleans()):
            return leaf()
        nondet = draw(st.booleans())
        return IfStmt(None if nondet else cond(), stmt(d - 1), stmt(d - 1))

    body = seq(*[stmt(draw(st.integers(0, 2))) for _ in range(n_stmts)])
    label[0] += 1
    body = seq(body, AssertStmt(cond(), label=f"A{label[0]}"))
    return instrument(body)


def make_oracle(body, max_preds=4, oracle_class=DeadFailOracle):
    var_types = {v: Type.INT for v in VARS}
    proc = Procedure(name="P", params=tuple(VARS), returns=(),
                     var_types=var_types, body=body)
    prog = Program(functions={"ok": 1}, procedures={"P": proc})
    enc = EncodedProcedure(prog, proc)
    preds = mine_predicates(prog, proc, max_preds=max_preds)
    return oracle_class(enc, preds)


# ----------------------------------------------------------------------
# hinted fast paths vs. plain queries
# ----------------------------------------------------------------------


@given(small_procs())
@settings(max_examples=40, deadline=None)
def test_hinted_results_equal_unhinted(body):
    plain = make_oracle(body)
    hinted = make_oracle(body)
    cover = predicate_cover(plain)
    predicate_cover(hinted)  # same vocabulary, same solver state shape
    clauses = sorted(cover, key=lambda c: sorted(c, key=abs))
    # walk a weakening chain c1 ⊃ c2 ⊃ ... computing parents first, so
    # every hinted call gets a genuine parent result
    chain = [frozenset(clauses[i:]) for i in range(len(clauses) + 1)]
    for c1, c2 in zip(chain, chain[1:]):
        fail1 = hinted.fail_set(c1)
        dead1 = hinted.dead_set(c1)
        assert hinted.fail_set(c2, superset_of=fail1) == plain.fail_set(c2)
        assert hinted.dead_set(c2, subset_of=dead1) == plain.dead_set(c2)


@given(small_procs(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_bounded_fail_agrees_with_full(body, limit):
    plain = make_oracle(body)
    bounded = make_oracle(body)
    cover = predicate_cover(plain)
    predicate_cover(bounded)
    for drop in sorted(cover, key=lambda c: sorted(c, key=abs)):
        sub = cover - {drop}
        full = plain.fail_set(sub)
        got = bounded.fail_set(sub, limit=limit)
        if len(full) <= limit:
            assert got == full
        else:
            assert got is None
    # an unexceeded bounded call must have cached the exact set
    full = plain.fail_set(cover)
    assert bounded.fail_set(cover, limit=len(full)) == full
    assert bounded.cached_fail(cover) == full


# ----------------------------------------------------------------------
# the optimized search vs. a reference (seed) Algorithm 2
# ----------------------------------------------------------------------


def reference_find_acs(oracle, cover, prune_k=None, max_nodes=20000):
    """The seed implementation: full fail sets, no hints, no bounds."""
    raw_specs, min_fail, has_sib = [cover], 0, False
    dead0 = oracle.dead_set(cover)
    if dead0:
        has_sib = True
        frontier, visited, outputs = [cover], {cover}, set()
        min_fail = len(oracle.enc.assert_events)
        nodes = 0
        while frontier:
            c1 = frontier.pop()
            for clause in sorted(c1, key=lambda c: sorted(c, key=abs)):
                c2 = c1 - {clause}
                if c2 in visited:
                    continue
                visited.add(c2)
                nodes += 1
                assert nodes <= max_nodes
                n_fail = len(oracle.fail_set(c2))
                if n_fail > min_fail:
                    continue
                if oracle.dead_set(c2):
                    frontier.append(c2)
                elif n_fail == min_fail:
                    outputs.add(c2)
                else:
                    min_fail = n_fail
                    outputs = {c2}
        outputs = {c for c in outputs if not any(c < d for d in outputs)}
        raw_specs = sorted(outputs, key=_spec_key)
    post, seen = [], set()
    for spec in raw_specs:
        processed = prune_clauses(normalize(spec), prune_k)
        if processed not in seen:
            seen.add(processed)
            post.append(processed)
    warnings = frozenset()
    for spec in post:
        warnings |= oracle.fail_set(spec)
    return raw_specs, post, warnings, (min_fail if has_sib else 0), has_sib


@given(small_procs(), st.sampled_from([None, 2, 1]))
@settings(max_examples=40, deadline=None)
def test_search_equals_seed_reference(body, prune_k):
    ref_oracle = make_oracle(body)
    opt_oracle = make_oracle(body)
    cover = predicate_cover(ref_oracle)
    predicate_cover(opt_oracle)
    raw, post, warnings, min_fail, has_sib = reference_find_acs(
        ref_oracle, cover, prune_k=prune_k)
    res = find_almost_correct_specs(opt_oracle, cover, prune_k=prune_k)
    assert res.has_abstract_sib == has_sib
    assert res.min_fail == min_fail
    assert res.raw_specs == raw
    assert res.specs == post
    assert res.warnings == warnings
    # Query *counts* are deliberately not compared per-example: bounded
    # enumeration trades cache completeness for early exit and witness
    # harvesting is model-dependent, so tiny adversarial programs can tip
    # either way.  The aggregate saving is what matters and is measured
    # on the real suites (``core.deadfail.queries_saved`` in a
    # ``benchmarks/e2e/run.py --trace`` run).


# ----------------------------------------------------------------------
# the display cleanup vs. one solver check per question
# ----------------------------------------------------------------------


class CheckEveryQuestion(DeadFailOracle):
    """The display cleanup without the cube sets: every entailment
    question is one solver check, memoized per question."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.answers = {}

    def _entails(self, clauses, sub_clause):
        key = (frozenset(clauses), frozenset(sub_clause))
        if key not in self.answers:
            assumptions = [self.clause_ind(c) for c in clauses]
            for lit in sub_clause:
                p = self.pred_lits()[abs(lit) - 1]
                assumptions.append(-p if lit > 0 else p)
            self.budget.check()
            self.queries += 1
            self.answers[key] = \
                self.enc.solver.check(assumptions) == "unsat"
        return self.answers[key]


def cleaned(oracle, specs):
    """``simplify_clauses`` of each spec, and the solver checks the
    cleanup asked."""
    before = oracle.queries
    out = [oracle.simplify_clauses(spec) for spec in specs]
    return out, oracle.queries - before


def analysed(oracle):
    """The cover and the specs Algorithm 2 finds, as `repro.core.sib`
    computes them before the cleanup."""
    cover = predicate_cover(oracle)
    found = find_almost_correct_specs(oracle, cover)
    return [cover, *found.raw_specs, *found.specs]


@given(small_procs())
@settings(max_examples=40, deadline=None)
def test_cleanup_equals_one_check_per_question(body):
    new = make_oracle(body)
    ref = make_oracle(body, oracle_class=CheckEveryQuestion)
    specs = analysed(new)
    assert analysed(ref) == specs
    got, asked = cleaned(new, specs)
    want, ref_asked = cleaned(ref, specs)
    assert got == want
    assert asked <= ref_asked
    # each cube the sets hold is realizable iff it is in ``seen``
    lits = new.pred_lits()
    for cube in new.seen | new.empty:
        assumptions = [lit if cube >> i & 1 else -lit
                       for i, lit in enumerate(lits)]
        assert (new.enc.solver.check(assumptions) == "sat") == \
            (cube in new.seen)


def cleanups(src: str, name: str, **mine_kw):
    """The display cleanup of ``name``'s specs with the cube sets and
    with a solver check per question: (oracle, specs, checks) each."""
    prog = typecheck(parse_program(src))
    proc = prepare_procedure(prog, prog.proc(name))
    preds = mine_predicates(prog, proc, **mine_kw)
    runs = []
    for oracle_class in (DeadFailOracle, CheckEveryQuestion):
        oracle = oracle_class(EncodedProcedure(prog, proc), preds)
        cover = predicate_cover(oracle)
        specs = find_almost_correct_specs(oracle, cover).specs
        runs.append((oracle, *cleaned(oracle, specs)))
    return runs


FIGURE1 = Path(__file__).resolve().parents[2] / "examples" / "figure1.bpl"


def test_figure1_cleanup_prints_three_conjuncts_with_fewer_checks():
    (new, got, asked), (_, want, ref_asked) = \
        cleanups(FIGURE1.read_text(), "Foo")
    assert got == want
    assert [pp_formula(clause_set_formula(spec, new.preds))
            for spec in got] == \
        ["(!(buf == c) && 0 == Freed[buf] && 0 == Freed[c])"]
    assert asked < ref_asked


def test_wide_vocabulary_lists_at_most_2_to_the_12_cubes_a_question():
    """Above the default ``max_preds`` a cleanup question can leave more
    than 12 predicates free.  It goes to the solver unlisted: listing
    grows as 2**|Q| and checks no budget (with 23 predicates, minimizing
    ``x != 5``'s cover took 10 s against 0.2 s)."""
    src = "procedure P(x: int) returns (y: int) {\n  A1: assert x != 5;\n"
    src += "".join(f"  if (x == {k}) {{ y := {k}; }}\n"
                   for k in range(16) if k != 5) + "}\n"
    (new, got, asked), (_, want, ref_asked) = \
        cleanups(src, "P", max_preds=30)
    assert len(new.preds) == 16
    assert got == want
    assert [pp_formula(clause_set_formula(spec, new.preds))
            for spec in got] == ["!(5 == x)"]
    assert asked <= ref_asked
    # listing every question would put 2**15 - 1 cubes in ``empty``
    assert len(new.empty) < 2 ** (_LISTED_PREDS + 1)


# ----------------------------------------------------------------------
# budget semantics (satellite)
# ----------------------------------------------------------------------


class TestBudget:
    def test_none_is_unbounded(self):
        b = Budget(None)
        b.check()
        assert b.remaining() is None

    def test_zero_seconds_already_expired(self):
        b = Budget(0.0)
        with pytest.raises(AnalysisTimeout):
            b.check()
        assert b.remaining() == 0.0

    def test_negative_seconds_already_expired(self):
        b = Budget(-5.0)
        with pytest.raises(AnalysisTimeout):
            b.check()
        assert b.remaining() == 0.0

    def test_positive_budget_counts_down(self):
        b = Budget(60.0)
        b.check()
        r = b.remaining()
        assert 0.0 < r <= 60.0
        time.sleep(0.01)
        assert b.remaining() < r

    def test_expiry_by_clock(self):
        b = Budget(0.01)
        time.sleep(0.03)
        with pytest.raises(AnalysisTimeout):
            b.check()
        assert b.remaining() == 0.0


def test_search_budget_exceeded_is_public_with_alias():
    assert issubclass(SearchBudgetExceeded, Exception)
