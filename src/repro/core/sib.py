"""Algorithm 1: ``FindAbstractSIBs`` — the per-procedure analysis.

Given a procedure and an abstract configuration (Figure 4), this module
runs the whole pipeline of the paper:

1. lower the procedure (call elaboration under the configuration's
   havoc-returns knob, loop unrolling, return elimination,
   instrumentation);
2. build the incremental path encoding and the Dead/Fail oracle;
3. mine the predicate vocabulary Q (ignore-conditionals knob);
4. compute the predicate cover ``β_Q(wp(pr, true))``;
5. classify: abstract SIB if the cover creates dead code, else MAYBUG
   (low confidence);
6. run the Algorithm-2 weakening search and collect the failures induced
   by the almost-correct specifications.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..lang.ast import Formula, Procedure, Program
from ..lang.pretty import pp_formula
from ..lang.transform import prepare_procedure
from ..vc.encode import EncodedProcedure
from .acspec import AcspecResult, find_almost_correct_specs
from .clauses import clause_set_formula
from .config import AbstractionConfig, CONC
from .cover import predicate_cover
from .deadfail import Budget, DeadFailOracle
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
    # content-addressing ingredients the persistent analysis cache
    # records next to the report (see repro.core.cache): the encoding
    # summary, the raw predicate cover, and the vocabulary-independent
    # baseline sets
    enc_summary: dict = field(default_factory=dict)
    cover: frozenset = frozenset()
    dead_through_failures: bool = True
    baseline_live: frozenset = frozenset()
    baseline_fail_true: frozenset = frozenset()

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
                       prepared: Procedure | None = None,
                       self_check: bool = False) -> SibResult:
    """Run Algorithm 1 for one procedure under one configuration.

    ``prune_k`` is the §4.3 clause-pruning bound (None = no pruning).
    ``max_preds`` caps |Q| (the cover enumeration is exponential in |Q|).
    ``prepared`` may carry the already-lowered procedure (the analysis
    cache lowers first to compute the content hash); it must equal
    ``prepare_procedure(program, proc, config.havoc_returns,
    unroll_depth)``.
    ``self_check`` certificate-checks every solver answer
    (:class:`repro.smt.api.CertificateError` on rejection).
    Budget exhaustion raises :class:`repro.core.deadfail.AnalysisTimeout`.
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

    if prepared is None:
        prepared = prepare_procedure(program, proc,
                                     havoc_returns=config.havoc_returns,
                                     unroll_depth=unroll_depth)
    mark("lower")
    enc = EncodedProcedure(program, prepared, lia_budget=lia_budget,
                           self_check=self_check)
    mark("encode")
    preds = mine_predicates(program, prepared,
                            ignore_conditionals=config.ignore_conditionals,
                            max_preds=max_preds)
    mark("mine")
    oracle = DeadFailOracle(enc, preds, budget=budget)
    conservative = oracle.conservative_fail()
    mark("baseline")
    result = SibResult(proc_name=proc.name, config=config,
                       status=SibStatus.CORRECT, preds=list(preds))
    result.conservative_warnings = oracle.labels_of(conservative)

    def finish() -> SibResult:
        result.queries = oracle.queries
        result.cache_hits = oracle.cache_hits
        result.queries_saved = oracle.queries_saved
        result.oracle_stats = oracle.stats()
        result.solver_stats = enc.solver.stats()
        result.timings = timings
        result.enc_summary = enc.summary()
        result.dead_through_failures = oracle.dead_through_failures
        result.baseline_live = oracle.live_locs
        result.baseline_fail_true = conservative
        return result

    if not conservative:
        # Nothing fails even demonically: nothing to rank.
        return finish()
    cover = predicate_cover(oracle)
    result.n_cover_clauses = len(cover)
    result.cover = cover
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
            pass  # display aid only — never fail the analysis over it
        fm = clause_set_formula(spec, preds)
        formulas.append(fm)
        display.append(pp_formula(fm))
    result.specs = display
    result.spec_formulas = formulas
    mark("post")
    return finish()
