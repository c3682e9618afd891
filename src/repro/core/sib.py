"""Algorithm 1: ``FindAbstractSIBs`` — the per-procedure analysis.

Given a procedure and an abstract configuration (Figure 4), this module
runs the whole pipeline of the paper:

1. lower the procedure (call elaboration under the configuration's
   havoc-returns knob, loop unrolling, return elimination,
   instrumentation);
2. mine the predicate vocabulary Q (ignore-conditionals knob); a
   (prepared procedure, Q) pair analyzed before in this process, or
   recorded in the persistent cache, is answered here;
3. build the incremental path encoding and the Dead/Fail oracle;
4. compute the predicate cover ``β_Q(wp(pr, true))``;
5. classify: abstract SIB if the cover creates dead code, else MAYBUG
   (low confidence);
6. run the Algorithm-2 weakening search and collect the failures induced
   by the almost-correct specifications.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, replace

from ..lang.ast import Formula, Procedure, Program
from ..lang.pretty import pp_formula
from ..lang.transform import prepare_procedure
from ..vc.encode import EncodedProcedure, procedure_fingerprint
from .acspec import AcspecResult, find_almost_correct_specs
from .checker import conservative_result
from .clauses import clause_set_formula
from .config import AbstractionConfig, CONC
from .cover import predicate_cover
from .deadfail import Budget, DeadFailOracle, memo_get, memo_key, memo_store
from .predicates import mine_predicates


class SibStatus:
    SIB = "SIB"          # abstract semantic inconsistency bug
    MAYBUG = "MAYBUG"    # no abstract SIB: low-confidence warnings only
    CORRECT = "CORRECT"  # conservative verifier already proves it


@dataclass
class SibResult:
    proc_name: str
    config: AbstractionConfig
    status: str
    # mined vocabulary and cover statistics (Figure 9's P and C columns)
    preds: list = field(default_factory=list)
    n_cover_clauses: int = 0
    # the conservative verifier's warnings: Fail(true) labels
    conservative_warnings: list = field(default_factory=list)
    # high-confidence warnings: failures under the almost-correct specs
    warnings: list = field(default_factory=list)
    # pretty-printed almost-correct specifications
    specs: list = field(default_factory=list)
    # the same specifications as entry-state formulas (for programmatic
    # use, e.g. the interprocedural extension)
    spec_formulas: list = field(default_factory=list)
    min_fail: int = 0
    queries: int = 0
    # observability: oracle cache behaviour, SAT-core counters, and a
    # per-phase wall-time breakdown (seconds)
    cache_hits: int = 0
    queries_saved: int = 0
    oracle_stats: dict = field(default_factory=dict)
    solver_stats: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def n_warnings(self) -> int:
        return len(self.warnings)


def find_abstract_sibs(program: Program, proc: Procedure | str,
                       config: AbstractionConfig = CONC,
                       prune_k: int | None = None,
                       budget: Budget | None = None,
                       unroll_depth: int = 2,
                       max_preds: int = 12,
                       lia_budget: int = 20000,
                       cache=None,
                       self_check: bool = False) -> SibResult:
    """Run Algorithm 1 for one procedure under one configuration.

    ``prune_k`` is the §4.3 clause-pruning bound (None = no pruning).
    ``max_preds`` caps |Q| (the cover enumeration is exponential in |Q|).
    ``self_check`` certificate-checks every solver answer
    (:class:`repro.smt.api.CertificateError` on rejection).
    Budget exhaustion raises :class:`repro.core.deadfail.AnalysisTimeout`.

    The result is a function of the prepared procedure, Q, ``prune_k``
    and the solver settings (Def. 3), so a completed unchecked run is
    memoized under them (`repro.core.deadfail`), and with ``cache`` (an
    `repro.core.cache.AnalysisCache`) recorded on disk under the same
    key.  The memo is looked up first, then the disk.  A hit from either
    returns the recorded verdict under this call's procedure and
    configuration, and reports no solver work: its query counters and
    ``solver_stats`` read 0.  A self-checked run always solves, so that
    its ``certificates`` are those of its own answers.
    """
    if isinstance(proc, str):
        proc = program.proc(proc)
    timings: dict[str, float] = {}
    t0 = time.monotonic()

    def mark(phase: str) -> None:
        nonlocal t0
        now = time.monotonic()
        timings[phase] = timings.get(phase, 0.0) + (now - t0)
        t0 = now

    prepared = prepare_procedure(program, proc,
                                 havoc_returns=config.havoc_returns,
                                 unroll_depth=unroll_depth)
    mark("lower")
    preds = mine_predicates(program, prepared,
                            ignore_conditionals=config.ignore_conditionals,
                            max_preds=max_preds)
    mark("mine")
    key = fingerprint = None
    if not self_check:
        fingerprint = procedure_fingerprint(program, prepared)
        # the oracle below keeps the default Dead() semantics
        key = memo_key("analysis", fingerprint, self_check, True, prune_k,
                       tuple(preds))
        recorded = memo_get(key, cache)
        if recorded is not None:
            return _detached(recorded, proc_name=proc.name, config=config,
                             queries=0, cache_hits=0, queries_saved=0,
                             oracle_stats=_zeroed(recorded.oracle_stats),
                             solver_stats=_zeroed(recorded.solver_stats),
                             timings=timings)
    enc = EncodedProcedure(program, prepared, lia_budget=lia_budget,
                           self_check=self_check, fingerprint=fingerprint)
    mark("encode")
    oracle = DeadFailOracle(enc, preds, budget=budget)
    conservative = oracle.conservative_fail()
    mark("baseline")
    result = SibResult(proc_name=proc.name, config=config,
                       status=SibStatus.CORRECT, preds=list(preds))
    result.conservative_warnings = oracle.labels_of(conservative)
    # a display cleanup cut short (e.g. by the budget) is not recorded
    complete = True

    def finish() -> SibResult:
        result.queries = oracle.queries
        result.cache_hits = oracle.cache_hits
        result.queries_saved = oracle.queries_saved
        result.oracle_stats = oracle.stats()
        result.solver_stats = enc.solver.stats()
        result.timings = timings
        if complete and key is not None:
            memo_store(key, _detached(result), cache)
        conservative_result(proc.name, oracle, conservative)
        return result

    if not conservative:
        # Nothing fails even demonically: nothing to rank.
        return finish()
    cover = predicate_cover(oracle)
    result.n_cover_clauses = len(cover)
    mark("cover")
    acs = find_almost_correct_specs(oracle, cover, prune_k=prune_k)
    mark("search")
    result.status = SibStatus.SIB if acs.has_abstract_sib else SibStatus.MAYBUG
    result.warnings = oracle.labels_of(acs.warnings)
    result.min_fail = acs.min_fail
    # Displayed specs get an extra semantics-preserving cleanup (drop
    # clauses whose redundancy is a theory fact); the warning computation
    # above used the faithful §4.3 pipeline.
    display = []
    formulas = []
    for spec in acs.specs:
        try:
            spec = oracle.simplify_clauses(spec)
        except Exception:
            complete = False  # display aid only — never fail the analysis
        fm = clause_set_formula(spec, preds)
        formulas.append(fm)
        display.append(pp_formula(fm))
    result.specs = display
    result.spec_formulas = formulas
    mark("post")
    return finish()


def _zeroed(stats: dict) -> dict:
    """``stats`` with every counter, nested ones too, set to 0."""
    return {k: _zeroed(v) if isinstance(v, dict) else type(v)()
            for k, v in stats.items()}


#: How to copy each list or dict field of a :class:`SibResult`; formulas,
#: frozensets and the configuration are immutable and stay shared.
_COPIES = {"preds": list, "conservative_warnings": list, "warnings": list,
           "specs": list, "spec_formulas": list, "solver_stats": dict,
           "timings": dict, "oracle_stats": copy.deepcopy}


def _detached(res: SibResult, **changes) -> SibResult:
    """A copy of ``res`` with ``changes`` that shares no list or dict with
    it, so no caller can mutate a memo entry."""
    for name, copy_of in _COPIES.items():
        if name not in changes:
            changes[name] = copy_of(getattr(res, name))
    return replace(res, **changes)
