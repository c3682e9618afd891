"""Checked theory lemmas: the independent checker must accept exactly
the justifications that establish T-validity — hand-crafted adversarial
certificates (wrong Farkas coefficients, broken congruence chains,
justifications for a different lemma, truncated derivations, ...) must
all be rejected, and the end-to-end solver must never fall back to
trusting a lemma while ``checked_theory_lemmas`` is on.

The justification formats are documented in
``docs/smt_architecture.md`` ("Theory certificates")."""

from __future__ import annotations

import pytest

from repro.smt.api import CertificateError, Solver
from repro.smt.proofcheck import (DrupChecker, ProofError, check_proof,
                                  verify_justification)
from repro.smt.terms import TermFactory
from repro.smt.theories import lia as lia_mod
from repro.smt.tuning import tuning

# ----------------------------------------------------------------------
# hand-built s-expressions (the checker's term language)
# ----------------------------------------------------------------------

X = ("var", "x", "Int")
A = ("var", "a", "U")
B = ("var", "b", "U")
FA = ("apply", "f", A)
FB = ("apply", "f", B)
GB = ("apply", "g", B)


def _euf_just():
    """a = b  ∧  f(a) ≠ f(b) is EUF-unsat; lemma is (¬1 ∨ 2)."""
    premises = ((1, ("=", A, B)), (-2, ("=", FA, FB)))
    steps = (("prem", 0), ("cong", FA, FB))
    return ("euf", premises, steps, ("ne", 1))


def _lia_just():
    """x ≤ 0  ∧  1 ≤ x is LIA-unsat; lemma is (¬1 ∨ ¬2)."""
    premises = ((1, ("<=", X, ("int", 0))),
                (2, ("<=", ("int", 1), X)))
    script = (("comb", "le", ((1, 1, 0), (1, 1, 1))),)
    return ("lia", premises, script)


# ----------------------------------------------------------------------
# valid justifications are accepted
# ----------------------------------------------------------------------

def test_valid_euf_chain_accepted():
    verify_justification((-1, 2), _euf_just())


def test_valid_farkas_combination_accepted():
    verify_justification((-1, -2), _lia_just())


def test_valid_eq_gcd_refutation_accepted():
    # 2x = 1 has no integer solution: the gcd test refutes it alone.
    two_x = ("*", ("int", 2), X)
    just = ("lia", ((1, ("=", two_x, ("int", 1))),),
            (("comb", "eq", ((1, 1, 0),)),))
    verify_justification((-1,), just)


def test_valid_disequality_split_accepted():
    # x ≠ 0 ∧ x ≤ 0 ∧ 0 ≤ x: both branches of the split refute.
    premises = ((-1, ("=", X, ("int", 0))),
                (2, ("<=", X, ("int", 0))),
                (3, ("<=", ("int", 0), X)))
    script = (("split", 0,
               (("comb", "le", ((1, 1, 3), (1, 1, 2))),),
               (("comb", "le", ((1, 1, 3), (1, 1, 1))),)),)
    verify_justification((1, -2, -3), ("lia", premises, script))


# ----------------------------------------------------------------------
# adversarial justifications are rejected
# ----------------------------------------------------------------------

def test_wrong_farkas_coefficients_rejected():
    # Coefficients (1, 2) cancel nothing: the combination is a valid row
    # but not a contradiction, so the certificate proves nothing.
    premises = ((1, ("<=", X, ("int", 0))),
                (2, ("<=", ("int", 1), X)))
    script = (("comb", "le", ((1, 1, 0), (2, 1, 1))),)
    with pytest.raises(ProofError, match="does not refute"):
        verify_justification((-1, -2), ("lia", premises, script))


def test_negative_farkas_coefficient_rejected():
    premises = ((1, ("<=", X, ("int", 0))),
                (2, ("<=", ("int", 1), X)))
    script = (("comb", "le", ((-1, 1, 0), (1, 1, 1))),)
    with pytest.raises(ProofError, match="negative Farkas coefficient"):
        verify_justification((-1, -2), ("lia", premises, script))


def test_non_integer_combination_rejected():
    # 2x = 2 has the integer solution x = 1: a certificate claiming the
    # gcd test refutes it must be rejected (the combination survives as
    # a row and the script ends without a contradiction).
    two_x = ("*", ("int", 2), X)
    just = ("lia", ((1, ("=", two_x, ("int", 2))),),
            (("comb", "eq", ((1, 2, 0),)),))
    with pytest.raises(ProofError, match="does not refute"):
        verify_justification((-1,), just)


def test_eq_combination_over_inequality_rejected():
    premises = ((1, ("<=", X, ("int", 0))),)
    script = (("comb", "eq", ((1, 1, 0),)),)
    with pytest.raises(ProofError, match="inequality row"):
        verify_justification((-1,), ("lia", premises, script))


def test_combination_over_disequality_row_rejected():
    premises = ((-1, ("=", X, ("int", 0))),)
    script = (("comb", "le", ((1, 1, 0),)),)
    with pytest.raises(ProofError, match="disequality row"):
        verify_justification((1,), ("lia", premises, script))


def test_broken_congruence_chain_rejected():
    # The cong step equates f(a) with g(b): different function symbols.
    premises = ((1, ("=", A, B)), (-2, ("=", FA, GB)))
    steps = (("prem", 0), ("cong", FA, GB))
    with pytest.raises(ProofError):
        verify_justification((-1, 2), ("euf", premises, steps, ("ne", 1)))


def test_truncated_congruence_chain_rejected():
    # Without the cong step the chain never reaches f(a) = f(b).
    premises = ((1, ("=", A, B)), (-2, ("=", FA, FB)))
    steps = (("prem", 0),)
    with pytest.raises(ProofError, match="does not contradict"):
        verify_justification((-1, 2), ("euf", premises, steps, ("ne", 1)))


def test_truncated_lia_script_rejected():
    premises = ((1, ("<=", X, ("int", 0))),
                (2, ("<=", ("int", 1), X)))
    with pytest.raises(ProofError, match="does not refute"):
        verify_justification((-1, -2), ("lia", premises, ()))


def test_split_with_non_refuting_branch_rejected():
    premises = ((-1, ("=", X, ("int", 0))),
                (2, ("<=", X, ("int", 0))),
                (3, ("<=", ("int", 0), X)))
    script = (("split", 0,
               (),  # lower branch proves nothing
               (("comb", "le", ((1, 1, 3), (1, 1, 1))),)),)
    with pytest.raises(ProofError, match="lower branch does not refute"):
        verify_justification((1, -2, -3), ("lia", premises, script))


def test_justification_for_a_different_lemma_rejected():
    # A perfectly valid EUF chain attached to a clause that does not
    # negate its premises certifies nothing about that clause.
    with pytest.raises(ProofError, match="not negated in the lemma"):
        verify_justification((-1, 5), _euf_just())
    with pytest.raises(ProofError, match="not negated in the lemma"):
        verify_justification((-1, 5), _lia_just())


def test_chain_merging_disequality_premise_rejected():
    # Citing a disequality premise as an equality step is unsound.
    premises = ((1, ("=", A, B)), (-2, ("=", FA, FB)))
    steps = (("prem", 1),)
    with pytest.raises(ProofError, match="disequality premise"):
        verify_justification((-1, 2), ("euf", premises, steps, ("ne", 1)))


def test_malformed_garbage_justification_rejected():
    for junk in (("euf",), ("lia", 3, None), ("euf", ((1,),), (), ("ne", 0)),
                 ("nonsense", (), ()), ("lia", ((1, ("<=", X)),), ())):
        with pytest.raises(ProofError):
            verify_justification((-1,), junk)


# ----------------------------------------------------------------------
# checker policy: no trusted fallback, no un-audited sharing
# ----------------------------------------------------------------------

def test_unjustified_lemma_rejected_when_required():
    checker = DrupChecker(require_justified=True)
    with pytest.raises(ProofError, match="unjustified theory lemma"):
        checker.step("t", (-1, -2))


def test_shared_justification_needs_parallel_context():
    checker = DrupChecker(require_justified=True)
    with pytest.raises(ProofError,
                       match="unknown justification kind 'shared'"):
        checker.step("t", (-1, -2), ("shared", (-2, -1)))


def test_variable_cannot_claim_two_atoms():
    checker = DrupChecker(require_justified=True)
    checker.step("t", (-1, -2), _lia_just())
    other = ("lia", ((1, ("<=", X, ("int", 5))),), (("comb", "le", ((1, 1, 0),)),))
    with pytest.raises(ProofError, match="two different theory atoms"):
        checker.step("t", (-1, 7), other)


def test_deferred_flush_catches_invalid_justification():
    checker = DrupChecker(require_justified=True, defer=True)
    premises = ((1, ("<=", X, ("int", 0))),
                (2, ("<=", ("int", 1), X)))
    bad = ("lia", premises, (("comb", "le", ((1, 1, 0), (2, 1, 1))),))
    checker.step("t", (-1, -2), bad)  # inline checks pass; math deferred
    with pytest.raises(ProofError, match="theory lemma at step 1"):
        checker.flush()


def test_check_proof_end_to_end_with_justifications():
    steps = [("i", (1,)), ("i", (2,)),
             ("t", (-1, -2), _lia_just()),
             ("f", ())]
    assert check_proof(steps, require_unsat=True, require_justified=True) >= 1
    checker = DrupChecker(require_justified=True, defer=True)
    for step in steps:
        checker.step(step[0], step[1], step[2] if len(step) > 2 else None)
    checker.flush()
    assert checker.theory_checked == 1
    assert checker.theory_trusted == 0


# ----------------------------------------------------------------------
# mutation-style soundness: the PR 3 pivot-integrality bug
# ----------------------------------------------------------------------

def _pivot_bug_query():
    f = TermFactory()
    x, y = f.int_var("x"), f.int_var("y")
    s = Solver(f, validate=True)
    s.add(f.eq(f.add(f.mul(f.intconst(2), x), y), f.intconst(0)))
    s.add(f.le(x, f.intconst(-1)))
    s.add(f.le(y, f.intconst(1)))
    return s


def test_pr3_pivot_bug_caught_by_checked_lemmas():
    """Re-introducing the PR 3 lossless-pivot bug makes the LIA solver
    derive a lemma that is not T-valid.  The sat-model check never sees
    it (the final answer is unsat either way); only the checked-lemma
    pass refuses to certify it."""
    s = _pivot_bug_query()
    assert s.check() == "unsat"
    assert s.certificates["lemmas_checked"] >= 1
    assert s.certificates["lemmas_trusted"] == 0

    lia_mod.PR3_PIVOT_BUG = True
    try:
        with pytest.raises(CertificateError, match="theory lemma"):
            _pivot_bug_query().check()
        # With the knob off, the unsound derivation sails through as a
        # trusted lemma — exactly the trust gap checked lemmas close.
        with tuning(checked_theory_lemmas=False):
            s2 = _pivot_bug_query()
        assert s2.check() == "unsat"
        assert s2.certificates["lemmas_trusted"] >= 1
        assert s2.certificates["lemmas_checked"] == 0
    finally:
        lia_mod.PR3_PIVOT_BUG = False


# ----------------------------------------------------------------------
# end-to-end: counters and the compat knob
# ----------------------------------------------------------------------

def test_unsat_answers_check_all_lemmas():
    f = TermFactory()
    x, y, z = (f.int_var(v) for v in "xyz")
    s = Solver(f, validate=True)
    s.add(f.lt(x, y), f.lt(y, z), f.lt(z, x))
    assert s.check() == "unsat"
    assert s.certificates["lemmas_checked"] >= 1
    assert s.certificates["lemmas_trusted"] == 0
    assert s.certificates["check_wall"] > 0.0


def test_euf_lemmas_are_checked():
    f = TermFactory()
    a, b = f.int_var("a"), f.int_var("b")
    s = Solver(f, validate=True)
    s.add(f.eq(a, b),
          f.not_(f.eq(f.apply("g", [a]), f.apply("g", [b]))))
    assert s.check() == "unsat"
    assert s.certificates["lemmas_checked"] >= 1
    assert s.certificates["lemmas_trusted"] == 0


def test_knob_off_restores_trusted_lemmas():
    f = TermFactory()
    x, y, z = (f.int_var(v) for v in "xyz")
    with tuning(checked_theory_lemmas=False):
        s = Solver(f, validate=True)
    s.add(f.lt(x, y), f.lt(y, z), f.lt(z, x))
    assert s.check() == "unsat"
    assert s.certificates["lemmas_checked"] == 0
    assert s.certificates["lemmas_trusted"] >= 1
