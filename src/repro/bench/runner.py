"""Benchmark runner: sweeps suites through configurations and aggregates
the statistics the paper's tables report."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.analysis import analyze_program, conservative_program
from ..core.config import AbstractionConfig
from ..frontend.lower import compile_c
from ..lang.ast import Program
from ..lang.pretty import pp_program
from .suites import Suite


@dataclass
class SuiteRun:
    suite_name: str
    config_name: str
    prune_k: int | None
    # function name -> sorted list of warning labels
    warnings: dict = field(default_factory=dict)
    timed_out: list = field(default_factory=list)
    n_procs: int = 0
    avg_preds: float = 0.0
    avg_clauses: float = 0.0
    avg_seconds: float = 0.0

    @property
    def n_warnings(self) -> int:
        return sum(len(w) for w in self.warnings.values())

    @property
    def n_timeouts(self) -> int:
        return len(self.timed_out)

    def n_warnings_excluding(self, excluded: set[str]) -> int:
        return sum(len(w) for f, w in self.warnings.items()
                   if f not in excluded)


def compile_suite(suite: Suite) -> Program:
    return compile_c(suite.c_source, bug_classes=suite.bug_classes)


def run_suite(suite: Suite, config: AbstractionConfig,
              prune_k: int | None = None, timeout: float | None = 10.0,
              program: Program | None = None,
              max_preds: int = 10, jobs: int = 1,
              self_check: bool = False) -> SuiteRun:
    """Analyze every generated function of a suite under one configuration.

    ``self_check`` certificate-checks every solver answer of the sweep
    (CertificateError on any rejection).
    """
    prog = program if program is not None else compile_suite(suite)
    names = [f.name for f in suite.functions]
    report = analyze_program(prog, config=config, prune_k=prune_k,
                             timeout=timeout, proc_names=names,
                             max_preds=max_preds, jobs=jobs,
                             self_check=self_check)
    run = SuiteRun(suite_name=suite.name, config_name=config.name,
                   prune_k=prune_k, n_procs=len(names))
    for r in report.reports:
        if r.timed_out:
            run.timed_out.append(r.proc_name)
        elif r.warnings:
            run.warnings[r.proc_name] = sorted(r.warnings)
    run.avg_preds = report.avg("n_preds")
    run.avg_clauses = report.avg("n_cover_clauses")
    run.avg_seconds = report.avg("seconds")
    return run


def run_conservative(suite: Suite, timeout: float | None = 10.0,
                     program: Program | None = None,
                     self_check: bool = False) -> SuiteRun:
    """The Cons baseline over a suite."""
    prog = program if program is not None else compile_suite(suite)
    names = [f.name for f in suite.functions]
    run = SuiteRun(suite_name=suite.name, config_name="Cons", prune_k=None,
                   n_procs=len(names))
    warnings, _ = conservative_program(prog, timeout=timeout,
                                       proc_names=names,
                                       self_check=self_check,
                                       timeouts_out=run.timed_out)
    run.warnings = {f: sorted(w) for f, w in warnings.items() if w}
    return run


@dataclass
class Classification:
    correct: int = 0
    false_positives: int = 0
    false_negatives: int = 0

    @property
    def total(self) -> int:
        return self.correct + self.false_positives + self.false_negatives


def classify(suite: Suite, run: SuiteRun) -> Classification:
    """Figure 7's C/FP/FN classification against the suite's ground truth.

    Timed-out procedures are excluded (as in the paper's tables).
    """
    out = Classification()
    skipped = set(run.timed_out)
    for (func, label), buggy in sorted(suite.labels.items()):
        if func in skipped:
            continue
        reported = label in run.warnings.get(func, [])
        if reported == buggy:
            out.correct += 1
        elif reported:
            out.false_positives += 1
        else:
            out.false_negatives += 1
    return out


def suite_statistics(suite: Suite) -> dict:
    """Figure 5's row for one suite: LOC (C), LOC (IL), procedures,
    assertions."""
    prog = compile_suite(suite)
    il_text = pp_program(prog)
    from ..lang.ast import asserts_in
    from ..lang.transform import prepare_procedure
    n_asserts = 0
    for f in suite.functions:
        prepared = prepare_procedure(prog, prog.proc(f.name))
        labels = {a.label for a in asserts_in(prepared.body)}
        n_asserts += len(labels)
    return {
        "bench": suite.name,
        "loc_c": suite.loc_c,
        "loc_il": len([l for l in il_text.splitlines() if l.strip()]),
        "procs": suite.n_functions,
        "asserts": n_asserts,
    }
