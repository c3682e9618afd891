"""High-level driver: the public face of ACSpec.

``analyze_procedure`` runs one procedure under one configuration with
timeout accounting; ``analyze_program`` sweeps every procedure of a
program and aggregates the per-benchmark numbers the paper's tables use
(warning counts, timeouts, predicates/clauses/time per procedure).

Procedures are analyzed independently (each builds its own encoding and
solver), so ``analyze_program`` and ``conservative_program`` accept
``jobs``: with ``jobs > 1`` the sweep fans out across a
``ProcessPoolExecutor``.  The default ``jobs=1`` keeps the serial,
deterministic path; results are identical either way (modulo wall-clock
fields), which is property-tested.  Both sweeps hand each procedure to
a worker as a `repro.core.tasks.AnalysisTask` — the same unit of work
the analysis server (`repro.serve`) streams to its persistent pool —
and a procedure whose analysis *raises* becomes a structured failure
entry in the report (``ProcedureReport.failed`` + ``.failure``) instead
of aborting the whole sweep.  The one exception is a rejected solver
certificate under ``self_check``: that is re-raised, because a
certificate failure means the toolchain itself is wrong.

Both sweeps, and ``analyze_procedure`` itself, take the persistent
content-addressed cache (`repro.core.cache`) as the analysis memo's disk
tier when given one: a (prepared procedure, Q) pair recorded there by
an earlier run is answered as a memo hit is, with the recorded verdict
and zero solver work.  Under ``jobs > 1`` every worker opens the same
cache directory — records are written atomically, so sharing is safe —
and the per-worker hit/miss/store counters are merged into
``ProgramReport.cache_stats``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..lang.ast import Program
# kept for the e2e benchmark's tracer, which wraps this name
from ..lang.transform import prepare_procedure  # noqa: F401
from ..scenarios.classes import bug_class_counts
from ..smt.allsat import AllSatBudgetExceeded
from ..smt.theories.lia import LiaBudgetExceeded
from .acspec import SearchBudgetExceeded
from .cache import AnalysisCache, merge_cache_stats
from .config import AbstractionConfig, CONC
from .deadfail import AnalysisTimeout, Budget
from .sib import SibStatus, find_abstract_sibs

_BUDGET_ERRORS = (AnalysisTimeout, LiaBudgetExceeded, AllSatBudgetExceeded,
                  SearchBudgetExceeded, RecursionError)


@dataclass
class ProcedureReport:
    proc_name: str
    config_name: str
    timed_out: bool = False
    # analysis blew up (bug, resource limit, dead worker): the sweep
    # carries on and this entry records what happened instead of the
    # whole program analysis aborting.  ``failure`` holds
    # {"type": exception-or-infrastructure code, "message": str}.
    failed: bool = False
    failure: dict = field(default_factory=dict)
    status: str = SibStatus.CORRECT
    warnings: list = field(default_factory=list)
    conservative_warnings: list = field(default_factory=list)
    # per-bug-class counts over ``warnings`` (label-prefix derived, see
    # repro.scenarios.classes.bug_class_of), sorted by class name
    bug_classes: dict = field(default_factory=dict)
    specs: list = field(default_factory=list)
    n_preds: int = 0
    n_cover_clauses: int = 0
    seconds: float = 0.0
    # observability (see DeadFailOracle.stats / SatSolver.stats)
    queries: int = 0
    cache_hits: int = 0
    queries_saved: int = 0
    solver_stats: dict = field(default_factory=dict)
    # certificate counters when the run was self-checking (sat answers
    # model-validated / unsat answers proof-checked); empty otherwise
    certificates: dict = field(default_factory=dict)
    # per-phase wall-time breakdown plus the budget left at the end
    phases: dict = field(default_factory=dict)
    budget_remaining: float | None = None


@dataclass
class ProgramReport:
    config_name: str
    prune_k: int | None
    reports: list = field(default_factory=list)
    # persistent-cache counters summed over the sweep (empty when the
    # sweep ran without a cache): hits/misses/stores/invalidations
    cache_stats: dict = field(default_factory=dict)

    @property
    def n_warnings(self) -> int:
        return sum(len(r.warnings) for r in self.reports if not r.timed_out)

    @property
    def n_conservative(self) -> int:
        return sum(len(r.conservative_warnings) for r in self.reports
                   if not r.timed_out)

    @property
    def n_timeouts(self) -> int:
        return sum(1 for r in self.reports if r.timed_out)

    @property
    def n_failures(self) -> int:
        return sum(1 for r in self.reports if r.failed)

    @property
    def failed_procs(self) -> list[str]:
        return [r.proc_name for r in self.reports if r.failed]

    @property
    def warned_procs(self) -> list[str]:
        return [r.proc_name for r in self.reports if r.warnings]

    def bug_class_totals(self) -> dict:
        """Per-bug-class warning counts summed over the sweep (timed-out
        procedures excluded, like ``n_warnings``), sorted by class."""
        totals: dict = {}
        for r in self.reports:
            if r.timed_out:
                continue
            for cls, n in r.bug_classes.items():
                totals[cls] = totals.get(cls, 0) + n
        return {cls: totals[cls] for cls in sorted(totals)}

    def avg(self, attr: str) -> float:
        vals = [getattr(r, attr) for r in self.reports
                if not r.timed_out and not r.failed]
        return sum(vals) / len(vals) if vals else 0.0

    def total(self, attr: str) -> int:
        return sum(getattr(r, attr) for r in self.reports)


def analyze_procedure(program: Program, proc_name: str,
                      config: AbstractionConfig = CONC,
                      prune_k: int | None = None,
                      timeout: float | None = 10.0,
                      unroll_depth: int = 2,
                      max_preds: int = 12,
                      lia_budget: int = 20000,
                      cache: AnalysisCache | str | None = None,
                      self_check: bool = False
                      ) -> ProcedureReport:
    """Analyze one procedure; budget exhaustion yields ``timed_out``.

    ``cache`` (an :class:`AnalysisCache` or a directory path) gives the
    analysis memo its disk tier (see :func:`find_abstract_sibs`): a
    (prepared procedure, Q) pair recorded there is answered as a memo
    hit is — the recorded verdict under this call's names, zero query
    and solver counters, and ``seconds`` and ``phases`` of this call —
    and a completed analysis is recorded for next time.  Timed-out
    analyses are never recorded (they depend on the budget, which is
    outside the key).

    ``self_check`` runs the solver in certificate-validating mode: a
    rejected certificate raises :class:`repro.smt.api.CertificateError`
    (it is deliberately *not* absorbed as a timeout).  A self-checked
    report carries the certificates of its own answers, so it neither
    reads nor writes a cache record and always solves.
    """
    start = time.monotonic()
    report = ProcedureReport(proc_name=proc_name, config_name=config.name)
    budget = Budget(timeout)
    try:
        res = find_abstract_sibs(
            program, proc_name, config=config, prune_k=prune_k,
            budget=budget, unroll_depth=unroll_depth, max_preds=max_preds,
            lia_budget=lia_budget, cache=AnalysisCache.open(cache),
            self_check=self_check)
        report.status = res.status
        report.warnings = res.warnings
        report.conservative_warnings = res.conservative_warnings
        report.bug_classes = bug_class_counts(res.warnings)
        report.specs = res.specs
        report.n_preds = len(res.preds)
        report.n_cover_clauses = res.n_cover_clauses
        report.queries = res.queries
        report.cache_hits = res.cache_hits
        report.queries_saved = res.queries_saved
        report.solver_stats = res.solver_stats
        report.certificates = res.oracle_stats.get("certificates", {})
        report.phases = res.timings
    except _BUDGET_ERRORS:
        report.timed_out = True
    report.seconds = time.monotonic() - start
    report.budget_remaining = budget.remaining()
    return report


def _proc_names(program: Program, proc_names: list[str] | None) -> list[str]:
    if proc_names is not None:
        return proc_names
    return [name for name, p in program.procedures.items()
            if p.body is not None]


def _reraise_certificate(failure: dict) -> None:
    """A rejected certificate is a toolchain bug, not a per-procedure
    hiccup: restore the batch paths' historical behavior of raising
    (the CLI maps it to exit 3)."""
    if failure.get("type") == "CertificateError":
        from ..smt.api import CertificateError
        raise CertificateError(failure.get("message", ""))


def failure_report(proc_name: str, config_name: str,
                   failure: dict) -> ProcedureReport:
    """The structured per-procedure failure entry shared by the batch
    sweeps and the server's error path."""
    return ProcedureReport(proc_name=proc_name, config_name=config_name,
                           failed=True, failure=dict(failure))


def run_tasks(tasks: list, jobs: int = 1) -> list:
    """Run :class:`~repro.core.tasks.AnalysisTask` items, serially or
    over a ``ProcessPoolExecutor``; one :class:`TaskResult` per task,
    in task order.  ``run_task`` never raises, so one broken procedure
    cannot abort the sweep."""
    from .tasks import run_task
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(run_task, tasks))
    return [run_task(t) for t in tasks]


def analyze_program(program: Program,
                    config: AbstractionConfig = CONC,
                    prune_k: int | None = None,
                    timeout: float | None = 10.0,
                    unroll_depth: int = 2,
                    max_preds: int = 12,
                    lia_budget: int = 20000,
                    proc_names: list[str] | None = None,
                    jobs: int = 1,
                    cache_dir: str | None = None,
                    self_check: bool = False) -> ProgramReport:
    """Analyze every procedure with a body.

    ``jobs > 1`` distributes procedures over that many worker processes;
    report order always follows ``proc_names`` order.  ``cache_dir``
    points every worker at one shared persistent analysis cache
    (`repro.core.cache`); per-worker counters are merged into
    ``ProgramReport.cache_stats``.  A procedure whose analysis raises
    becomes a :func:`failure_report` entry; a ``CertificateError`` is
    re-raised after the sweep result is known.
    """
    from .tasks import AnalysisTask
    out = ProgramReport(config_name=config.name, prune_k=prune_k)
    names = _proc_names(program, proc_names)
    cache_dir = str(cache_dir) if cache_dir is not None else None
    tasks = [AnalysisTask(kind="analyze", proc_name=name, program=program,
                          config_name=config.name, prune_k=prune_k,
                          timeout=timeout, unroll_depth=unroll_depth,
                          max_preds=max_preds, lia_budget=lia_budget,
                          cache_dir=cache_dir, self_check=self_check)
             for name in names]
    results = run_tasks(tasks, jobs=jobs)
    for res in results:
        if res.failure is not None:
            _reraise_certificate(res.failure)
            out.reports.append(failure_report(res.proc_name, config.name,
                                              res.failure))
        else:
            out.reports.append(res.report)
    out.cache_stats = merge_cache_stats(r.cache_stats for r in results)
    return out


def conservative_program(program: Program, timeout: float | None = 10.0,
                         unroll_depth: int = 2,
                         lia_budget: int = 20000,
                         proc_names: list[str] | None = None,
                         jobs: int = 1,
                         cache_dir: str | None = None,
                         cache_stats_out: dict | None = None,
                         self_check: bool = False,
                         failures_out: dict | None = None,
                         timeouts_out: list | None = None):
    """The Cons baseline over a program: (per-proc warning lists, timeouts).

    ``cache_dir`` enables the shared persistent cache as in
    :func:`analyze_program`; because the return shape is fixed, the
    merged cache counters are delivered by mutating ``cache_stats_out``
    (when a dict is passed) instead of being returned.  A procedure
    whose check raises is reported with an empty warning list; pass
    ``failures_out`` (a dict) to collect the structured
    ``{proc_name: {"type", "message"}}`` failure entries, and
    ``timeouts_out`` (a list) to collect the names of the procedures
    that timed out, in ``proc_names`` order.
    """
    from .tasks import AnalysisTask
    names = _proc_names(program, proc_names)
    cache_dir = str(cache_dir) if cache_dir is not None else None
    tasks = [AnalysisTask(kind="cons", proc_name=name, program=program,
                          timeout=timeout, unroll_depth=unroll_depth,
                          lia_budget=lia_budget, cache_dir=cache_dir,
                          self_check=self_check)
             for name in names]
    results = run_tasks(tasks, jobs=jobs)
    warnings: dict[str, list] = {}
    timeouts = 0
    for res in results:
        if res.failure is not None:
            _reraise_certificate(res.failure)
            warnings[res.proc_name] = []
            if failures_out is not None:
                failures_out[res.proc_name] = dict(res.failure)
            continue
        warnings[res.proc_name] = res.cons_warnings
        if res.cons_timed_out:
            timeouts += 1
            if timeouts_out is not None:
                timeouts_out.append(res.proc_name)
    if cache_stats_out is not None:
        cache_stats_out.update(
            merge_cache_stats(r.cache_stats for r in results))
    return warnings, timeouts


# ----------------------------------------------------------------------
# wire format: the JSON shape the analysis server ships reports in
# ----------------------------------------------------------------------

def program_report_to_json(report: ProgramReport) -> dict:
    """A JSON-safe dict carrying a ``ProgramReport`` verbatim: every
    ``ProcedureReport`` field is a JSON value, so its
    ``dataclasses.asdict`` form round-trips bit-exactly."""
    from dataclasses import asdict
    return {
        "config_name": report.config_name,
        "prune_k": report.prune_k,
        "cache_stats": dict(report.cache_stats),
        "reports": [asdict(r) for r in report.reports],
    }


def program_report_from_json(data: dict) -> ProgramReport:
    """Inverse of :func:`program_report_to_json` (strict: unknown
    report fields are an error)."""
    field_names = {f.name for f in
                   ProcedureReport.__dataclass_fields__.values()}
    reports = []
    for rd in data["reports"]:
        unknown = set(rd) - field_names
        if unknown:
            raise ValueError(f"unknown report fields {unknown}")
        reports.append(ProcedureReport(**rd))
    out = ProgramReport(config_name=data["config_name"],
                        prune_k=data["prune_k"])
    out.reports = reports
    out.cache_stats = dict(data.get("cache_stats") or {})
    return out
