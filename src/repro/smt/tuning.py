"""The one process-wide solver setting.

``checked_theory_lemmas`` decides whether a self-checked run's theory
lemmas carry checkable justifications (EUF congruence chains, LIA
Farkas/tightening scripts) that the standalone proof checker replays, or
enter the proof as trusted axioms.  It is verdict-preserving: only the
certificate layer changes.  It is the trusted side of the checked-vs-
trusted wall comparison in ``tools/selfcheck_fig5.py --compare-trusted``
and of the ``theory_justifications`` fuzz oracle.

The solver's search mechanisms (learnt-clause reduction, the incremental
LIA trail, the cross-query theory-lemma cache) have no switch: under
``self_check`` the independent checker decides every answer, so a second
search to compare against would check nothing more.

``TUNING`` is read once per solver construction, so the context manager
must wrap solver creation, not just the query::

    from repro.smt.tuning import tuning

    with tuning(checked_theory_lemmas=False):
        report_trusted = analyze_procedure(program, name, self_check=True)

The setting is deliberately *not* an environment variable: it exists for
differential checks, and an env setting silently left on would make
every checked-vs-trusted comparison vacuous.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SolverTuning:
    #: Theory lemmas carry checkable justifications that the standalone
    #: proof checker replays; off = ``"t"`` proof steps are admitted as
    #: trusted axioms.
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
