"""One worker-task representation shared by the batch sweeps, ``repro
ci`` and the analysis server.

Each of them runs the same unit of work — "analyze this one procedure
under these knobs" — in this process or, shipped over a pipe, on a
`repro.serve.pool` worker:

* :class:`AnalysisTask` — the picklable description of one unit of
  work (an ``analyze`` or ``cons`` run of one procedure, plus a few
  control kinds the tests use to exercise the pool's crash and
  deadline paths);
* :class:`TaskResult` — the structured outcome.  A task that raises
  does **not** propagate: the exception is folded into
  ``TaskResult.failure`` (``{"type", "message"}``) so one broken
  procedure can never abort a whole sweep or wedge a server worker.
  The same shape is used by the pool for infrastructure failures
  (``worker_crash``, ``deadline``);
* :func:`run_task` — the single dispatch point executed for every
  task, in this process and in every pool worker alike;
* :func:`coalesce_key` — the content address the server coalesces
  identical in-flight submissions on: a digest of the task's kind,
  configuration, knobs and budgets and of its prepared procedure's
  fingerprint.

Importing this module loads the whole analysis stack, because it lives
in `repro.core`, whose package imports every layer; a spawned pool
worker has therefore paid the import cost before its ready handshake.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

#: Control task kinds (beyond "analyze"/"cons"): they exist for the
#: pool's failure-path tests.
CONTROL_KINDS = ("echo", "sleep", "crash")


@dataclass(frozen=True)
class AnalysisTask:
    """One picklable unit of analysis work.

    ``kind`` is ``"analyze"`` (the full ACSpec pipeline), ``"cons"``
    (the conservative baseline), or one of :data:`CONTROL_KINDS`.
    ``program`` may be ``None`` for control kinds only.
    """
    kind: str
    proc_name: str = ""
    program: Any = None  # repro.lang.ast.Program (picklable)
    config_name: str = "Conc"
    prune_k: int | None = None
    timeout: float | None = 10.0
    unroll_depth: int = 2
    max_preds: int = 12
    lia_budget: int = 20000
    cache_dir: str | None = None
    self_check: bool = False
    payload: Any = None  # control-kind argument (echo value, sleep secs)


@dataclass
class TaskResult:
    """The structured outcome of one :class:`AnalysisTask`.

    Exactly one of the result slots is populated:

    * ``report`` — the ``ProcedureReport`` of an ``analyze`` task;
    * ``cons_warnings``/``cons_timed_out`` — a ``cons`` task's outcome;
    * ``value`` — a control task's echo;
    * ``failure`` — ``{"type": <exception or infrastructure code>,
      "message": str}`` when the task raised, its worker crashed, or
      its deadline expired.  ``type`` is an exception class name
      (``"CertificateError"``, ``"ZeroDivisionError"``, ...) or one of
      the pool's infrastructure codes ``"worker_crash"`` /
      ``"deadline"``.
    """
    kind: str
    proc_name: str = ""
    report: Any = None
    cons_warnings: list | None = None
    cons_timed_out: bool = False
    value: Any = None
    cache_stats: dict | None = None
    failure: dict | None = None


def failure_result(task: AnalysisTask, type_: str, message: str,
                   cache_stats: dict | None = None) -> TaskResult:
    """A :class:`TaskResult` describing a failed task — the one error
    shape shared by in-task exceptions, worker crashes and deadline
    expiries."""
    return TaskResult(kind=task.kind, proc_name=task.proc_name,
                      cache_stats=cache_stats,
                      failure={"type": type_, "message": message})


def run_task(task: AnalysisTask) -> TaskResult:
    """Execute one task; never raises (exceptions become
    ``TaskResult.failure``).  This is what :func:`repro.core.analysis.
    run_tasks` runs in this process and every `repro.serve.pool`
    worker runs for each task it receives."""
    try:
        return _dispatch(task)
    except Exception as exc:  # noqa: BLE001 — fold into the report
        return failure_result(task, type(exc).__name__, str(exc))


def _dispatch(task: AnalysisTask) -> TaskResult:
    if task.kind in CONTROL_KINDS:
        return _run_control(task)
    from .analysis import analyze_procedure
    from .cache import AnalysisCache
    cache = AnalysisCache(task.cache_dir) if task.cache_dir else None
    if task.kind == "analyze":
        from .config import BY_NAME
        report = analyze_procedure(
            task.program, task.proc_name, config=BY_NAME[task.config_name],
            prune_k=task.prune_k, timeout=task.timeout,
            unroll_depth=task.unroll_depth, max_preds=task.max_preds,
            lia_budget=task.lia_budget, cache=cache,
            self_check=task.self_check)
        return TaskResult(kind="analyze", proc_name=task.proc_name,
                          report=report,
                          cache_stats=cache.stats() if cache else None)
    if task.kind == "cons":
        return _run_cons(task, cache)
    raise ValueError(f"unknown task kind {task.kind!r}")


def _run_cons(task: AnalysisTask, cache) -> TaskResult:
    from .analysis import _BUDGET_ERRORS
    from .checker import check_procedure
    from .deadfail import Budget
    try:
        res = check_procedure(task.program, task.proc_name,
                              budget=Budget(task.timeout),
                              unroll_depth=task.unroll_depth,
                              lia_budget=task.lia_budget, cache=cache,
                              self_check=task.self_check)
    except _BUDGET_ERRORS:
        return TaskResult(kind="cons", proc_name=task.proc_name,
                          cons_warnings=[], cons_timed_out=True,
                          cache_stats=cache.stats() if cache else None)
    return TaskResult(kind="cons", proc_name=task.proc_name,
                      cons_warnings=res.warnings,
                      cache_stats=cache.stats() if cache else None)


def _run_control(task: AnalysisTask) -> TaskResult:
    if task.kind == "echo":
        return TaskResult(kind="echo", proc_name=task.proc_name,
                          value=task.payload)
    if task.kind == "sleep":
        import time
        time.sleep(float(task.payload or 0.0))
        return TaskResult(kind="sleep", proc_name=task.proc_name,
                          value=task.payload)
    if task.kind == "crash":
        import os
        os._exit(17)  # simulate a hard worker death (no cleanup, no excuse)
    raise ValueError(f"unknown control kind {task.kind!r}")


def coalesce_key(task: AnalysisTask) -> str:
    """The content address identical concurrent submissions share.

    Two tasks with equal keys are guaranteed to produce bit-identical
    results, so the server runs one and hands the result to both.  The
    key digests the task's kind, its configuration's name, ``prune_k``
    and ``max_preds`` (``analyze`` tasks only: a Cons result depends on
    none of them), ``unroll_depth``, the budgets, ``self_check``,
    whether a cache directory is attached, and the fingerprint of the
    procedure as the task prepares it.  The name stands for the
    configuration, as a report carries it; the budgets are in
    because a request with a different timeout may legitimately time
    out differently, so it must not coalesce with a longer-budget twin.
    Control kinds have no content address and get a key that never
    coalesces.
    """
    from ..lang.transform import prepare_procedure
    from ..vc.encode import procedure_fingerprint
    from .config import BY_NAME
    if task.kind in CONTROL_KINDS:
        return f"control:{task.kind}:{id(task)}"  # never coalesced
    if task.kind == "analyze":
        havoc_returns = BY_NAME[task.config_name].havoc_returns
        analysis = (f"config={task.config_name}", f"prune_k={task.prune_k}",
                    f"max_preds={task.max_preds}")
    elif task.kind == "cons":
        havoc_returns, analysis = False, ()
    else:
        raise ValueError(f"unknown task kind {task.kind!r}")
    prepared = prepare_procedure(task.program,
                                 task.program.proc(task.proc_name),
                                 havoc_returns=havoc_returns,
                                 unroll_depth=task.unroll_depth)
    parts = (f"kind={task.kind}", *analysis,
             f"unroll_depth={task.unroll_depth}", f"timeout={task.timeout}",
             f"lia_budget={task.lia_budget}", f"self_check={task.self_check}",
             f"cache={'on' if task.cache_dir else 'off'}",
             procedure_fingerprint(task.program, prepared))
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()
