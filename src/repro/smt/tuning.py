"""Process-wide solver performance knobs.

The PR-4 solver optimizations (learnt-clause database reduction,
incremental LIA, the cross-query theory-lemma cache) are all
*verdict-preserving*: turning any of them off changes wall-clock and
search-order counters but never a sat/unsat answer, and therefore never
a ``ProcedureReport``.  That property is load-bearing — the differential
fuzz oracles and ``tests/core/test_solver_tuning_determinism.py`` check
it — so the knobs live here, in one place, where a test or oracle can
flip them for the *reference* side of a comparison.

``TUNING`` is read once per solver construction (``SatSolver`` /
``TheoryCore``), so the context manager must wrap solver creation, not
just the query::

    from repro.smt.tuning import tuning

    with tuning(reduce_learnts=False):
        report_off = analyze_procedure(program, name)

The knobs are deliberately *not* environment variables: they exist for
differential testing, and an env knob silently left on would make every
"on vs off" comparison vacuous.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SolverTuning:
    #: LBD-scored learnt-clause database reduction in the CDCL core.
    reduce_learnts: bool = True
    #: Trail-aligned incremental LIA (parse memo, incremental Gaussian
    #: elimination, bound propagation) instead of re-solving from the
    #: full fact list at every theory check.
    lia_incremental: bool = True
    #: Cross-query memo of theory-check verdicts keyed by the asserted
    #: theory-atom literal set (the Nelson-Oppen exchange cache).
    theory_lemma_cache: bool = True
    #: Theory lemmas carry checkable justifications (EUF congruence
    #: chains, LIA Farkas/tightening scripts) that the standalone proof
    #: checker replays; off = the pre-PR-8 behaviour where ``"t"`` proof
    #: steps are admitted as trusted axioms.  Verdict-preserving: only
    #: the certificate layer changes.  Exists for bisection and for the
    #: trusted-vs-checked wall comparison in tools/selfcheck_fig5.py.
    checked_theory_lemmas: bool = True


#: The process-wide default read at solver construction time.
TUNING = SolverTuning()


@contextmanager
def tuning(**overrides: bool):
    """Temporarily override :data:`TUNING` fields (keyword = field name).

    Restores the previous values on exit, including on exceptions."""
    saved = {k: getattr(TUNING, k) for k in overrides}
    for k, v in overrides.items():
        if not hasattr(TUNING, k):
            raise TypeError(f"unknown tuning knob {k!r}")
        setattr(TUNING, k, v)
    try:
        yield TUNING
    finally:
        for k, v in saved.items():
            setattr(TUNING, k, v)
