"""Persistent multiprocess worker pool with crash recovery.

The batch sweeps build a ``ProcessPoolExecutor`` per call: every worker
cold-imports the solver stack, analyzes its share, and is thrown away.
This pool is the long-lived alternative the analysis server runs on:

* **Warm workers.**  Each worker is spawned once (``spawn`` start
  method — no inherited locks from the threaded parent), imports the
  analysis stack once (eagerly, via a ``warm`` control task), and then
  keeps all process-level warm state — the Dead/Fail baseline memo,
  its persistent-cache handle — across every request it serves.

* **Crash containment.**  A worker dying mid-task (segfault, OOM kill,
  ``SIGKILL``) is detected by its pipe going EOF.  The dispatcher
  restarts the worker and retries the task with capped exponential
  backoff; after ``max_retries`` the caller gets a structured
  ``worker_crash`` failure (never an exception, never a wedged pool).

* **Deadlines.**  Every task may carry an absolute deadline.  A task
  still queued at its deadline is failed without occupying a worker; a
  task *running* at its deadline has its worker SIGKILLed (the only
  reliable way to cancel native solving work) and the slot restarts
  fresh.  Deadline kills are not retried and are counted separately
  from crashes.

* **Graceful drain.**  :meth:`WorkerPool.drain` stops new submissions
  and blocks until everything already accepted has finished — the
  building block for the server's SIGTERM handling.

* **Priorities.**  :meth:`WorkerPool.submit` takes an integer
  ``priority`` (lower runs first; default 0).  Equal priorities keep
  strict FIFO order, so existing callers see the exact old behavior.
  This is the scheduling hook the incremental CI driver
  (`repro.core.incremental`) uses to run changed procedures before
  dependency-dirtied ones, slowest-first within each class.

Threading model: one dispatcher thread per worker slot, all pulling
from one priority heap under a condition variable.  Results are
delivered through ``concurrent.futures.Future`` (always ``set_result``
with a :class:`~repro.core.tasks.TaskResult`; infrastructure failures
use the same ``failure`` shape as in-task exceptions).
"""

from __future__ import annotations

import collections
import heapq
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from ..core.tasks import AnalysisTask, TaskResult, failure_result

_MP = multiprocessing.get_context("spawn")


class PoolClosedError(RuntimeError):
    """submit() after close()/drain() began."""


def _worker_main(conn) -> None:
    """Body of one worker process: handshake, then a task loop.  Runs
    until the parent sends ``None`` or the pipe dies."""
    from repro.core.tasks import run_task  # absolute: spawn re-imports
    conn.send(("ready", os.getpid()))
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if task is None:
            break
        try:
            result = run_task(task)
        except BaseException as exc:  # run_task never raises; belt+braces
            result = failure_result(task, type(exc).__name__, str(exc))
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            break
    conn.close()


@dataclass
class _Item:
    task: AnalysisTask
    future: Future
    deadline: float | None  # absolute time.monotonic(), None = unbounded
    priority: int = 0       # lower runs first; ties keep FIFO order
    seq: int = 0            # submission counter, the FIFO tie-breaker
    enqueued: float = field(default_factory=time.monotonic)
    attempts: int = 0

    def heap_key(self) -> tuple[int, int]:
        return (self.priority, self.seq)


class _Slot:
    """One worker seat: the live process + pipe, owned by one
    dispatcher thread (only shutdown reads it from outside, under the
    pool lock)."""

    def __init__(self, index: int):
        self.index = index
        self.proc = None
        self.conn = None
        self.pid: int | None = None
        self.started = 0  # how many processes this seat has ever run


class WorkerPool:
    """See module docstring.  Construct, :meth:`start`, submit tasks,
    then :meth:`drain`/:meth:`close` (or use as a context manager)."""

    def __init__(self, workers: int = 2, *, max_retries: int = 2,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0,
                 poll_interval: float = 0.02, start_timeout: float = 120.0,
                 metrics=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.size = workers
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.poll_interval = poll_interval
        self.start_timeout = start_timeout
        self.metrics = metrics  # optional ServerMetrics
        self._cv = threading.Condition()
        # min-heap of (priority, seq, item): pops the lowest priority
        # number first, FIFO within a priority level
        self._items: list[tuple[int, int, _Item]] = []
        self._seq = 0
        self._busy = 0
        self._closed = False     # no new submits
        self._stopping = False   # dispatcher threads should exit
        self._slots = [_Slot(i) for i in range(workers)]
        self._threads: list[threading.Thread] = []
        self._counters = collections.Counter()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, warm: bool = True) -> None:
        """Spawn the workers (optionally pre-importing the analysis
        stack in each) and start the dispatcher threads."""
        for slot in self._slots:
            self._spawn(slot)
        if warm:
            warm_task = AnalysisTask(kind="warm")
            for slot in self._slots:
                slot.conn.send(warm_task)
            for slot in self._slots:
                if not slot.conn.poll(self.start_timeout):
                    raise TimeoutError(
                        f"worker {slot.index} did not finish warm-up")
                slot.conn.recv()
        for slot in self._slots:
            t = threading.Thread(target=self._dispatch_loop, args=(slot,),
                                 name=f"pool-dispatch-{slot.index}",
                                 daemon=True)
            t.start()
            self._threads.append(t)

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def submit(self, task: AnalysisTask,
               deadline_seconds: float | None = None,
               priority: int = 0) -> Future:
        """Enqueue one task; the Future always resolves to a
        :class:`TaskResult` (failures are structured, not raised).
        ``deadline_seconds`` is relative to now.  ``priority`` orders
        the queue: lower numbers dispatch first, equal numbers keep
        FIFO submission order."""
        deadline = (time.monotonic() + deadline_seconds
                    if deadline_seconds is not None else None)
        with self._cv:
            if self._closed:
                raise PoolClosedError("pool is closed to new work")
            self._seq += 1
            item = _Item(task=task, future=Future(), deadline=deadline,
                         priority=priority, seq=self._seq)
            heapq.heappush(self._items, (*item.heap_key(), item))
            self._cv.notify()
        return item.future

    def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting work and wait until everything accepted has
        finished.  Returns False if ``timeout`` elapsed first (the pool
        stays closed either way)."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        with self._cv:
            self._closed = True
            self._cv.notify_all()
            while self._items or self._busy:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._cv.wait(remaining if remaining is not None else 1.0)
        return True

    def close(self, timeout: float = 10.0) -> None:
        """Stop everything: fail queued tasks as ``shutdown``, stop the
        dispatchers, terminate the workers.  Call :meth:`drain` first
        for a graceful exit."""
        with self._cv:
            self._closed = True
            self._stopping = True
            pending = [entry[2] for entry in self._items]
            self._items.clear()
            self._cv.notify_all()
        for item in pending:
            self._finish(item, failure_result(item.task, "shutdown",
                                              "pool closed before the task "
                                              "was executed"))
        for t in self._threads:
            t.join(timeout)
        with self._cv:
            slots = list(self._slots)
        for slot in slots:
            self._stop_worker(slot)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        with self._cv:
            return len(self._items)

    def in_flight(self) -> int:
        with self._cv:
            return self._busy

    def worker_pids(self) -> list[int]:
        with self._cv:
            return [slot.pid for slot in self._slots if slot.pid is not None]

    def counters(self) -> dict:
        """restarts / retries / deadline_kills / crash_failures /
        completed — the pool slice of the ``metrics`` verb."""
        with self._cv:
            out = dict(self._counters)
        out.setdefault("restarts", 0)
        out.setdefault("retries", 0)
        out.setdefault("deadline_kills", 0)
        out.setdefault("crash_failures", 0)
        out.setdefault("completed", 0)
        return out

    # ------------------------------------------------------------------
    # worker process management
    # ------------------------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        parent_conn, child_conn = _MP.Pipe(duplex=True)
        proc = _MP.Process(target=_worker_main, args=(child_conn,),
                           name=f"repro-serve-worker-{slot.index}",
                           daemon=True)
        proc.start()
        child_conn.close()  # parent must see EOF when the child dies
        if not parent_conn.poll(self.start_timeout):
            proc.kill()
            raise TimeoutError(f"worker {slot.index} never became ready")
        tag, pid = parent_conn.recv()
        assert tag == "ready"
        with self._cv:
            slot.proc, slot.conn, slot.pid = proc, parent_conn, pid
            slot.started += 1
            if slot.started > 1:
                self._counters["restarts"] += 1

    def _stop_worker(self, slot: _Slot) -> None:
        proc, conn = slot.proc, slot.conn
        slot.proc = slot.conn = slot.pid = None
        if conn is not None:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        if proc is not None:
            proc.join(2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(2.0)
        if conn is not None:
            conn.close()

    def _kill_worker(self, slot: _Slot) -> None:
        proc, conn = slot.proc, slot.conn
        with self._cv:
            slot.proc = slot.conn = slot.pid = None
        if proc is not None:
            proc.kill()
            proc.join(5.0)
        if conn is not None:
            conn.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _take(self) -> _Item | None:
        """Next runnable item (marking this slot busy), or None when
        the pool is stopping.  Cancelled items are discarded here
        without occupying a worker."""
        with self._cv:
            while True:
                while self._items:
                    item = heapq.heappop(self._items)[2]
                    if item.future.cancelled():
                        self._cv.notify_all()
                        continue
                    self._busy += 1
                    return item
                if self._stopping:
                    return None
                # The timeout backstops a missed notify; shutdown and
                # new work both notify, so this is rarely hit.
                self._cv.wait(0.1)

    def _finish(self, item: _Item, result: TaskResult,
                was_busy: bool = False) -> None:
        if was_busy:
            with self._cv:
                self._busy -= 1
                self._counters["completed"] += 1
                self._cv.notify_all()
        if not item.future.cancelled():
            item.future.set_result(result)

    def _dispatch_loop(self, slot: _Slot) -> None:
        while True:
            item = self._take()
            if item is None:
                return
            if (item.deadline is not None
                    and time.monotonic() >= item.deadline):
                with self._cv:
                    self._counters["deadline_kills"] += 1
                self._finish(item, failure_result(
                    item.task, "deadline",
                    "request deadline expired before the task started"),
                    was_busy=True)
                continue
            if self.metrics is not None:
                self.metrics.task_wait.observe(time.monotonic()
                                               - item.enqueued)
            started = time.monotonic()
            result = self._run_item(slot, item)
            if self.metrics is not None:
                self.metrics.task_run.observe(time.monotonic() - started)
            self._finish(item, result, was_busy=True)

    def _run_item(self, slot: _Slot, item: _Item) -> TaskResult:
        """Run one task on this slot's worker, restarting/retrying on
        crashes and killing on deadline expiry.  Always returns a
        TaskResult."""
        while True:
            if self._stopping:
                return failure_result(item.task, "shutdown",
                                      "pool closed while the task was "
                                      "being retried")
            # (Re)start the worker if the seat is empty.
            if slot.proc is None or not slot.proc.is_alive():
                try:
                    self._spawn(slot)
                except Exception as exc:  # spawn/handshake failure
                    if not self._note_crash(item):
                        return failure_result(
                            item.task, "worker_crash",
                            f"worker failed to start: {exc}")
                    continue
            try:
                slot.conn.send(item.task)
            except (BrokenPipeError, OSError):
                self._kill_worker(slot)
                if not self._note_crash(item):
                    return failure_result(item.task, "worker_crash",
                                          "worker pipe broke on send")
                continue
            outcome = self._await_result(slot, item)
            if outcome[0] == "ok":
                return outcome[1]
            if outcome[0] == "deadline":
                with self._cv:
                    self._counters["deadline_kills"] += 1
                return failure_result(
                    item.task, "deadline",
                    "request deadline expired mid-run; worker was killed "
                    "and restarted")
            # crashed
            if not self._note_crash(item):
                return failure_result(
                    item.task, "worker_crash",
                    f"worker died {item.attempts} time(s) running this "
                    f"task (retries exhausted)")

    def _await_result(self, slot: _Slot, item: _Item):
        """("ok", TaskResult) | ("deadline", None) | ("crashed", None)."""
        conn = slot.conn
        while True:
            remaining = (None if item.deadline is None
                         else item.deadline - time.monotonic())
            if remaining is not None and remaining <= 0:
                self._kill_worker(slot)
                return ("deadline", None)
            wait = (self.poll_interval if remaining is None
                    else min(self.poll_interval, remaining))
            try:
                if conn.poll(wait):
                    return ("ok", conn.recv())
            except (EOFError, OSError):
                self._kill_worker(slot)
                return ("crashed", None)
            if slot.proc is None or not slot.proc.is_alive():
                # Final poll: the result may already be in the pipe.
                try:
                    if conn.poll(0):
                        return ("ok", conn.recv())
                except (EOFError, OSError):
                    pass
                self._kill_worker(slot)
                return ("crashed", None)

    def _note_crash(self, item: _Item) -> bool:
        """Account one crash against ``item``; True if it should be
        retried (after a capped exponential backoff that still honors
        the deadline)."""
        item.attempts += 1
        if item.attempts > self.max_retries:
            with self._cv:
                self._counters["crash_failures"] += 1
            return False
        with self._cv:
            self._counters["retries"] += 1
        delay = min(self.backoff_cap,
                    self.backoff_base * (2 ** (item.attempts - 1)))
        if item.deadline is not None:
            delay = min(delay, max(0.0, item.deadline - time.monotonic()))
        time.sleep(delay)
        return True
