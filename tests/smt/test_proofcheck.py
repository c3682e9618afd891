"""The standalone DRUP checker: hand-crafted valid and invalid proofs,
the textual format, and end-to-end checking of solver-produced logs."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.smt.api import Solver
from repro.smt.proofcheck import (
    DrupChecker, ProofError, check_proof, check_proof_text, format_proof,
    parse_proof,
)
from repro.smt.terms import TermFactory

# ----------------------------------------------------------------------
# valid proofs
# ----------------------------------------------------------------------


def test_valid_resolution_chain():
    # {1,2} and {-1,2} propositionally imply 2 (RUP), then {−2} refutes.
    n = check_proof_text("""
        i 1 2 0
        i -1 2 0
        a 2 0
        i -2 0
        f 0
    """, require_unsat=True)
    assert n == 2  # the addition and the final clause


def test_valid_derivation_without_final():
    n = check_proof_text("i 1 2 0\ni -1 2 0\na 2 0\n")
    assert n == 1
    with pytest.raises(ProofError, match="no final"):
        check_proof_text("i 1 2 0\ni -1 2 0\na 2 0\n", require_unsat=True)


def test_nonempty_final_is_an_unsat_core():
    # Under assumptions {1, 2} the database {−1 ∨ −2} is unsat; the final
    # clause {−1, −2} certifies exactly that and is not added.
    n = check_proof_text("i -1 -2 0\nf -1 -2 0\n", require_unsat=True)
    assert n == 1


def test_theory_lemma_is_trusted():
    # 't' steps are admitted unchecked (T-valid by construction).
    n = check_proof_text("t 1 0\nt -1 0\nf 0\n", require_unsat=True)
    assert n == 1


def test_empty_input_clause_makes_everything_rup():
    assert check_proof_text("i 0\na 7 0\nf 0\n") == 2


# ----------------------------------------------------------------------
# invalid proofs
# ----------------------------------------------------------------------


def test_bogus_derivation_rejected():
    with pytest.raises(ProofError, match="not RUP"):
        check_proof_text("i 1 2 0\na 3 0\n")


def test_final_that_is_not_rup_rejected():
    with pytest.raises(ProofError, match="not RUP"):
        check_proof_text("i 1 2 0\nf 0\n")


def test_deleted_clause_breaks_dependent_derivation():
    # Once {1,2} is gone, 2 is no longer RUP from {−1,2} alone.
    with pytest.raises(ProofError, match="not RUP"):
        check_proof_text("i 1 2 0\ni -1 2 0\nd 1 2 0\na 2 0\n")
    # ... but the same derivation before the deletion is fine.
    assert check_proof_text("i 1 2 0\ni -1 2 0\na 2 0\nd 1 2 0\n") == 1


def test_deleting_absent_clause_rejected():
    with pytest.raises(ProofError, match="absent"):
        check_proof_text("i 1 2 0\nd 1 3 0\n")


def test_delete_then_final_needing_it_rejected():
    # The assumption-core final clause {-1,-2} is RUP only through the
    # input clause it restates; deleting that clause first must be
    # rejected.  (Unit deletions would not do here: propagated root units
    # are deliberately never retracted, and a root-unsat database makes
    # every later step vacuously RUP.)
    with pytest.raises(ProofError, match="not RUP"):
        check_proof_text("i -1 -2 0\nd -1 -2 0\nf -1 -2 0\n",
                         require_unsat=True)
    # the same certificate with the deletion after the final step is fine
    assert check_proof_text("i -1 -2 0\nf -1 -2 0\nd -1 -2 0\n",
                            require_unsat=True) == 1


def test_interleaved_deletions_valid():
    # Derive 2, use it, retire the originals, then finish from what's left.
    n = check_proof_text("""
        i 1 2 0
        i -1 2 0
        a 2 0
        d 1 2 0
        d -1 2 0
        i -2 0
        f 0
    """, require_unsat=True)
    assert n == 2


def test_step_errors_carry_the_step_index():
    with pytest.raises(ProofError, match="step 1"):
        check_proof([("i", (1, 2)), ("a", (3,))])


# ----------------------------------------------------------------------
# textual format
# ----------------------------------------------------------------------


def test_truncated_step_rejected():
    with pytest.raises(ProofError, match="truncated"):
        parse_proof("a 1 2\n")


def test_unknown_tag_rejected():
    with pytest.raises(ProofError, match="unknown tag"):
        parse_proof("x 1 0\n")


def test_literal_zero_inside_clause_rejected():
    with pytest.raises(ProofError, match="literal 0"):
        parse_proof("i 1 0 2 0\n")


def test_comments_and_blank_lines_ignored():
    assert parse_proof("# header\n\ni 1 0  # trailing\n") == [("i", (1,))]


def test_format_parse_roundtrip():
    steps = [("i", (1, 2)), ("t", (-2, 3)), ("a", (1, 3)), ("d", (1, 2)),
             ("f", ())]
    assert parse_proof(format_proof(steps)) == \
        [(tag, tuple(lits)) for tag, lits in steps]


# ----------------------------------------------------------------------
# solver-produced proofs
# ----------------------------------------------------------------------


def test_solver_log_checks_independently():
    f = TermFactory()
    x, y, z = (f.int_var(v) for v in "xyz")
    s = Solver(f, validate=True)
    s.add(f.lt(x, y), f.lt(y, z), f.lt(z, x))
    assert s.check() == "unsat"
    # The embedded replay already ran; re-check the same log from scratch
    # with a fresh checker to make sure the log is self-contained.
    assert check_proof(s.sat.proof.steps, require_unsat=True) >= 1


def test_solver_log_with_db_reduction_checks_independently():
    # Force the learnt-DB reduction to fire during a validated solve: the
    # log then interleaves 'd' steps with derivations and must still both
    # replay inside the solver (validate=True) and re-check from scratch.
    f = TermFactory()
    xs = [f.int_var(f"x{i}") for i in range(7)]
    s = Solver(f, validate=True)
    s.sat._reduce_interval = 4
    s.sat._next_reduce = 4
    # an odd cycle of strict orders plus pairwise diseq pressure: plenty
    # of conflicts, unsat overall
    for a, b in zip(xs, xs[1:]):
        s.add(f.lt(a, b))
    s.add(f.lt(xs[-1], xs[0]))
    assert s.check() == "unsat"
    assert check_proof(s.sat.proof.steps, require_unsat=True) >= 1


# ----------------------------------------------------------------------
# checking inside a daemonic worker
# ----------------------------------------------------------------------

#: Lemmas per flush.  Any batch of 96 or more once made flush() start a
#: process pool, and a daemonic process (a ``repro serve`` pool worker)
#: may not start children.
DAEMON_BATCH = 128


def _fresh_lemma(k: int, corrupt: bool) -> tuple:
    """Lemma ``¬l1 ∨ ¬l2`` over a fresh ``x_k``: ``x_k ≤ 0 ∧ 1 ≤ x_k`` is
    LIA-unsat.  The corrupt script doubles the second row, which leaves
    ``2 - x_k ≤ 0``, no contradiction."""
    x = ("var", f"x{k}", "Int")
    premises = ((2 * k + 1, ("<=", x, ("int", 0))),
                (2 * k + 2, ("<=", ("int", 1), x)))
    second = (2, 1, 1) if corrupt else (1, 1, 1)
    return ("lia", premises, (("comb", "le", ((1, 1, 0), second)),))


def _flush_in_daemon(conn, corrupt_at) -> None:
    """Child body: step every lemma into a deferred checker, flush once,
    and send back ``("ok", lemmas checked)`` or ``("raised", exc)``."""
    try:
        checker = DrupChecker(require_justified=True, defer=True)
        for k in range(DAEMON_BATCH):
            checker.step("t", (-(2 * k + 1), -(2 * k + 2)),
                         _fresh_lemma(k, corrupt=k == corrupt_at))
        checker.flush()
        conn.send(("ok", checker.theory_checked))
    except Exception as exc:  # noqa: BLE001 — reported to the parent
        conn.send(("raised", exc))
    finally:
        conn.close()


def _check_in_daemon(corrupt_at: int | None = None) -> int:
    """Run :func:`_flush_in_daemon` in a daemonic ``spawn`` process, as a
    ``repro serve`` pool worker runs; re-raise whatever the child raised."""
    ctx = multiprocessing.get_context("spawn")
    recv_end, send_end = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_flush_in_daemon, args=(send_end, corrupt_at),
                       daemon=True)
    proc.start()
    send_end.close()
    try:
        if not recv_end.poll(120):
            pytest.fail("daemonic checker sent no verdict within 120 s")
        tag, value = recv_end.recv()
    finally:
        proc.join(30)
        if proc.is_alive():
            proc.kill()
            proc.join(30)
    assert not proc.is_alive()
    if tag == "raised":
        raise value
    return value


def test_flush_in_daemonic_worker_accepts_large_batch():
    assert _check_in_daemon() == DAEMON_BATCH


def test_flush_in_daemonic_worker_rejects_corrupt_lemma():
    bad = DAEMON_BATCH // 2
    # steps are numbered from 1, so lemma k is step k + 1
    with pytest.raises(ProofError, match=f"theory lemma at step {bad + 1}:"):
        _check_in_daemon(corrupt_at=bad)
