"""Validate-mode (``validate=True``) end-to-end flows: every answer must
carry an accepted certificate, tampering must be caught, counters must
reflect what was checked."""

from __future__ import annotations

import pytest

from repro.smt.api import CertificateError, Solver, solve_formula
from repro.smt.terms import TermFactory


def test_sat_answer_carries_checked_model():
    f = TermFactory()
    x, y = f.int_var("x"), f.int_var("y")
    s = Solver(f, validate=True)
    s.add(f.lt(x, y), f.le(f.intconst(0), x))
    assert s.check() == "sat"
    assert s.certificates["sat_checked"] == 1
    assert s.last_model is not None
    assert s.last_model.eval_bool(f.lt(x, y))


def test_unsat_answer_carries_checked_proof():
    f = TermFactory()
    x, y, z = (f.int_var(v) for v in "xyz")
    s = Solver(f, validate=True)
    s.add(f.lt(x, y), f.lt(y, z), f.lt(z, x))
    assert s.check() == "unsat"
    assert s.certificates["unsat_checked"] == 1
    assert s.certificates["proof_steps"] > 0


def test_guarded_formulas_certified_when_enabled():
    f = TermFactory()
    x = f.int_var("x")
    s = Solver(f, validate=True)
    ind = s.new_indicator()
    s.add_guarded(ind, f.eq(x, f.intconst(3)))
    assert s.check([ind]) == "sat"
    assert s.last_model.eval_bool(f.eq(x, f.intconst(3)))
    # With the guard disabled the model need not (and does not have to)
    # satisfy the guarded formula; certification must still accept it.
    s.add(f.eq(x, f.intconst(5)))
    assert s.check() == "sat"
    assert s.certificates["sat_checked"] == 2


def test_incremental_checks_accumulate():
    f = TermFactory()
    x = f.int_var("x")
    s = Solver(f, validate=True)
    s.add(f.le(f.intconst(0), x))
    assert s.check() == "sat"
    s.add(f.lt(x, f.intconst(0)))
    assert s.check() == "unsat"
    assert s.certificates["sat_checked"] == 1
    assert s.certificates["unsat_checked"] == 1


def test_tampered_proof_log_rejected():
    f = TermFactory()
    x = f.int_var("x")
    s = Solver(f, validate=True)
    s.add(f.le(f.intconst(0), x))
    assert s.check() == "sat"
    # Inject a derivation the checker cannot reproduce: the replay of the
    # next check() must reject it.
    s.sat.proof.steps.append(("a", (987654,)))
    with pytest.raises(CertificateError, match="proof step"):
        s.check()


def test_validate_off_tracks_nothing():
    f = TermFactory()
    x = f.int_var("x")
    s = Solver(f)
    s.add(f.lt(x, x))
    assert s.check() == "unsat"
    assert s.certificates == {"sat_checked": 0, "unsat_checked": 0,
                              "proof_steps": 0, "lemmas_checked": 0,
                              "lemmas_trusted": 0, "model_fallbacks": 0,
                              "check_wall": 0.0}


def test_solve_formula_validate_flag():
    f = TermFactory()
    x = f.int_var("x")
    assert solve_formula(f, f.lt(x, x), validate=True) == "unsat"
    assert solve_formula(f, f.le(x, x), validate=True) == "sat"
