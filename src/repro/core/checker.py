"""The conservative modular verifier baseline ("Cons" in §5).

A sound and precise modular checker assumes the most demonic environment
allowed by the (absent) specifications: it reports every assertion that
can fail from *some* input state — ``Fail(true)`` — which is exactly what
Boogie would report for these procedures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..lang.ast import Procedure, Program
from ..lang.transform import prepare_procedure
from ..vc.encode import EncodedProcedure, procedure_fingerprint
from .deadfail import Budget, DeadFailOracle, memo_get, memo_key, memo_store


@dataclass
class CheckResult:
    proc_name: str
    warnings: list = field(default_factory=list)
    n_asserts: int = 0

    @property
    def verified(self) -> bool:
        return not self.warnings


def check_procedure(program: Program, proc: Procedure | str,
                    budget: Budget | None = None,
                    unroll_depth: int = 2,
                    lia_budget: int = 20000,
                    cache=None,
                    self_check: bool = False) -> CheckResult:
    """Run the conservative verifier on one procedure.

    ``self_check`` makes every solver answer certificate-checked
    (:class:`repro.smt.api.CertificateError` on rejection).
    Without ``self_check``, ``Fail(true)`` of a prepared procedure found
    earlier in this process, by a Cons run or by any completed unchecked
    analysis under the same solver settings, is answered from the memo
    (`repro.core.deadfail`) without encoding or solving; with ``cache``
    (an `repro.core.cache.AnalysisCache`), so is one recorded on disk by
    an earlier Cons run, and a result this call finds is recorded.
    """
    if isinstance(proc, str):
        proc = program.proc(proc)
    prepared = prepare_procedure(program, proc, unroll_depth=unroll_depth)
    fingerprint = None
    if not self_check:
        fingerprint = procedure_fingerprint(program, prepared)
        recorded = memo_get(memo_key("cons", fingerprint, self_check), cache)
        if recorded is not None:
            return _detached(recorded, proc.name)
    enc = EncodedProcedure(program, prepared, lia_budget=lia_budget,
                           self_check=self_check, fingerprint=fingerprint)
    oracle = DeadFailOracle(enc, [], budget=budget)
    return conservative_result(proc.name, oracle, oracle.conservative_fail(),
                               cache)


def conservative_result(proc_name: str, oracle: DeadFailOracle,
                        fails: frozenset, cache=None) -> CheckResult:
    """The Cons result for ``fails``, the ``Fail(true)`` that ``oracle``
    found.  Unless the run was self-checked, a copy goes into the memo
    for every later Cons run on the same prepared procedure under the
    same solver settings, and into ``cache`` when one is given."""
    enc = oracle.enc
    result = CheckResult(proc_name=proc_name,
                         warnings=oracle.labels_of(fails),
                         n_asserts=len(enc.assert_events))
    if not enc.self_check:
        memo_store(memo_key("cons", enc.fingerprint(), enc.self_check),
                   _detached(result, proc_name), cache)
    return result


def _detached(res: CheckResult, proc_name: str) -> CheckResult:
    """A copy of ``res`` under ``proc_name`` that shares no list with
    it, so no caller can mutate a memo entry."""
    return replace(res, proc_name=proc_name, warnings=list(res.warnings))
