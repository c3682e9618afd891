"""The ``sweep`` and ``certified`` workloads: batch analyses in-process.

A *unit* is one ``repro.core.tasks.run_task`` call — one procedure under
one configuration (``Cons`` is the conservative verifier) — run serially
with no persistent cache, exactly as a ``--jobs 1`` sweep does.

The seed fixes one corpus.  A run repeats it in *rounds*, always in sweep
order, until the window has passed (and at least ``MIN_ROUNDS`` times),
timing every unit in every round on the reference clock.  Each round
starts with an empty Dead/Fail baseline memo, the state a fresh sweep
process has, so every round does the same work and a unit's timings
differ only by machine noise; :func:`e2ebench.metrics.timing_metrics`
takes each unit's median.
Label accuracy and the golden comparison are taken over round 0; every
later round must compute exactly what round 0 did (:func:`work_of`).
"""

from __future__ import annotations

import json
import statistics
import time

from repro.bench.runner import compile_suite
from repro.core.deadfail import clear_baseline_cache
from repro.core.tasks import AnalysisTask, run_task

from .checks import LabelScore, verdict
from .common import (ROOT, ReferenceClock, import_setup_s, measuring_rounds,
                     outcome)
from .inputs import FIG5_SMALL, SWEEP_SUITES, tagged_suite
from .metrics import LayerCounters, peak_rss_mb, timing_metrics
from .tracing import unit_span

GOLDEN = ROOT / "benchmarks" / "e2e" / "expected" / "sweep_seed0.json"

SUITE_SETS = {"sweep": SWEEP_SUITES, "fig5_small": FIG5_SMALL}


def corpus_units(params: dict, seed: int):
    """The corpus: ``(suite, program, config, function, pattern)`` in
    sweep order (suite by suite, configuration by configuration, like
    ``repro.bench.runner.run_suite``), minus ``skip_patterns``."""
    skip = set(params.get("skip_patterns", ()))
    for name in SUITE_SETS[params["suites"]]:
        tagged = tagged_suite(name, params["scale"], seed)
        program = compile_suite(tagged.suite)
        for config in params["configs"]:
            for fn in tagged.suite.functions:
                pattern = tagged.patterns[fn.name]
                if pattern not in skip:
                    yield name, program, config, fn, pattern


def make_task(program, config: str, proc_name: str,
              self_check: bool) -> AnalysisTask:
    if config == "Cons":
        return AnalysisTask(kind="cons", proc_name=proc_name,
                            program=program, self_check=self_check)
    return AnalysisTask(kind="analyze", proc_name=proc_name, program=program,
                        config_name=config, self_check=self_check)


def warnings_of(result) -> list:
    return sorted(result.cons_warnings if result.kind == "cons"
                  else result.report.warnings)


#: ``ProcedureReport.solver_stats`` counts that measure the search done.
_SEARCH_COUNTS = ("decisions", "conflicts", "propagations")


def work_of(result) -> tuple | None:
    """What a unit computed, or ``None`` when it failed or timed out: its
    warnings and, for an analysis, the Dead/Fail queries asked and
    answered from the memo and the solver's search counts.  All of it
    must repeat exactly in every round.  Work carried over from an
    earlier round by a process-wide cache would change the counts, and
    the unit's later rounds would then time only its warm state."""
    if result.failure is not None:
        return None
    report = result.report
    if report is None:
        return (warnings_of(result),)
    if report.timed_out:
        return None
    return (warnings_of(result), report.queries, report.cache_hits,
            *(report.solver_stats.get(key, 0) for key in _SEARCH_COUNTS))


def run(workload: str, params: dict, seed: int, seconds: float,
        tracer) -> dict:
    # Set-up is timed once before every round: samples spread over the
    # window, so that one burst of interference cannot reach their median.
    setups: list = []
    golden = (json.loads(GOLDEN.read_text())["warnings"]
              if workload == "sweep" and seed == 0 else None)
    units = list(corpus_units(params, seed))
    self_check = params["self_check"]
    checks = {"labels": 0, "rounds": 0}
    if golden is not None:
        checks["golden"] = 0
    if self_check:
        checks["trusted"] = 0
    every_unit, round0 = LabelScore(), LabelScore()
    counters = LayerCounters()
    rounds: list = []
    first_work: list = []
    certified: list = []
    failed = 0

    clock = ReferenceClock()
    if tracer is not None:
        tracer.install()
    try:
        for round_no in measuring_rounds(seconds):
            clock.add(import_setup_s())
            setups += clock.take()
            first = round_no == 0
            clear_baseline_cache()
            for i, (suite, program, config, fn, pattern) in enumerate(units):
                task = make_task(program, config, fn.name, self_check)
                t0 = time.perf_counter()
                with unit_span(tracer, round_no * len(units) + i):
                    result = run_task(task)
                clock.add(time.perf_counter() - t0)
                work = work_of(result)
                warned = None if work is None else work[0]
                if work is None:
                    failed += 1
                else:
                    every_unit.add(config, pattern, fn.labels, warned)
                    if result.report is not None:
                        counters.add_report(result.report)
                if first:
                    first_work.append(work)
                    if work is not None:
                        round0.add(config, pattern, fn.labels, warned)
                    if golden is not None and \
                            golden[suite][config].get(fn.name, []) != warned:
                        checks["golden"] += 1
                    if self_check and result.report is not None:
                        certified.append((task, result.report))
                elif work != first_work[i]:
                    checks["rounds"] += 1
            rounds.append(clock.take())
    finally:
        if tracer is not None:
            tracer.restore()
    rss = peak_rss_mb()

    checks["labels"] = len(every_unit.unexpected)
    # Certificate checking must not change a verdict: re-run every
    # certified analysis of round 0 on the trusted path and compare.
    for task, report in certified:
        trusted = run_task(make_task(task.program, task.config_name,
                                     task.proc_name, self_check=False))
        if trusted.report is None or verdict(trusted.report) != \
                verdict(report):
            checks["trusted"] += 1

    n = len(rounds) * len(units)
    e2e = {"setup_s": statistics.median(setups),
           **timing_metrics(rounds, params["tail_pct"]),
           "peak_rss_mb": rss, "label_accuracy": round0.accuracy}
    layers = None
    if tracer is not None:
        counters.add_spans(tracer)
        counters.add("bench.error_share", failed / n)
        counters.add("bench.slowdown", clock.slowdown())
        layers = counters.metrics(n)
    return outcome(attempted=n, failed=failed, checks=checks, e2e=e2e,
                   layers=layers, rounds=len(rounds))
