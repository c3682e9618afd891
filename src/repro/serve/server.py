"""The analysis daemon: an asyncio frontend over the warm worker pool.

One :class:`AnalysisServer` owns one :class:`~repro.serve.pool.WorkerPool`
and speaks the JSON-lines protocol (`repro.serve.protocol`) on a Unix or
TCP socket.  What the frontend adds over the bare pool:

* **Bounded admission.**  ``submit`` is rejected with ``overloaded`` +
  ``retry_after`` once the number of distinct in-flight computations
  reaches ``queue_limit`` — explicit backpressure instead of an
  unbounded queue.

* **Request coalescing.**  Every per-procedure task is content-addressed
  (`repro.core.tasks.coalesce_key`: post-elaboration AST fingerprint +
  configuration fingerprint + budget knobs).  A submission whose key is
  already being computed attaches to that computation instead of
  re-running it; both requests then get bit-identical results.  A
  later resubmission runs on a worker again; it needs no solver work
  when that worker's analysis memo holds the pair or the daemon has a
  cache directory that does (``docs/serving.md``).

* **Deadlines.**  A request-level deadline rides every task into the
  pool: expired-while-queued tasks never occupy a worker, and a task
  running past its deadline has its worker killed and restarted.  The
  affected procedures come back as structured ``deadline`` failure
  entries in the report.

* **Lifecycle.**  ``drain`` (verb or SIGTERM) stops admission, finishes
  every accepted request, shuts the pool down, and exits — no orphaned
  worker processes, ever.

All server state is mutated on the event loop; the only cross-thread
traffic is pool futures (bridged with ``asyncio.wrap_future``) and the
thread-safe :class:`~repro.serve.metrics.ServerMetrics`.
"""

from __future__ import annotations

import asyncio
import collections
import os
import signal
import threading
import time

from ..core.analysis import failure_report, program_report_to_json
from ..core.config import BY_NAME
from ..core.tasks import AnalysisTask, coalesce_key
from .metrics import ServerMetrics
from .pool import PoolClosedError, WorkerPool
from .protocol import MAX_LINE, ProtocolError, decode, encode, error, ok
from .protocol import parse_address

#: Completed requests kept for late ``status``/``result`` readers.
MAX_FINISHED_REQUESTS = 4096


class _Flight:
    """One in-flight computation plus everyone waiting on it."""

    __slots__ = ("waiters",)

    def __init__(self):
        self.waiters: list[tuple[_Request, int]] = []


class _Request:
    """Server-side state of one accepted submission."""

    def __init__(self, req_id: str, kind: str, config_name: str,
                 prune_k, proc_names: list[str], deadline: float | None):
        self.id = req_id
        self.kind = kind
        self.config_name = config_name
        self.prune_k = prune_k
        self.proc_names = proc_names
        self.deadline = deadline
        self.slots: list = [None] * len(proc_names)
        self.done = 0
        self.state = "queued"  # queued -> running -> done
        self.accepted_at = time.monotonic()
        self.event = asyncio.Event()
        self.report_json: dict | None = None
        self.n_failures = 0
        self.coalesced = 0


class AnalysisServer:
    """See module docstring."""

    def __init__(self, address: str, *, pool_size: int = 2,
                 queue_limit: int = 64, cache_dir: str | None = None,
                 default_deadline: float | None = None,
                 coalesce: bool = True, pool: WorkerPool | None = None):
        self.address = parse_address(address)
        self.address_spec = address
        self.queue_limit = queue_limit
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.default_deadline = default_deadline
        self.coalesce = coalesce
        self.metrics = ServerMetrics()
        self.pool = pool or WorkerPool(pool_size, metrics=self.metrics)
        self._owns_pool = pool is None
        self._inflight: dict[str, _Flight] = {}
        self._requests: collections.OrderedDict[str, _Request] = \
            collections.OrderedDict()
        self._next_id = 0
        self._accepting = False
        self._server: asyncio.AbstractServer | None = None
        self._closed = asyncio.Event()
        self._draining = False
        self._loop: asyncio.AbstractEventLoop | None = None
        # strong refs to fire-and-forget flight tasks: the event loop
        # only holds weak ones, and a GC'd flight strands its waiters
        self._flight_tasks: set[asyncio.Task] = set()

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.ensure_future(coro)
        self._flight_tasks.add(task)
        task.add_done_callback(self._flight_tasks.discard)
        return task

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        if self._owns_pool:
            await asyncio.to_thread(self.pool.start)
        if self.address[0] == "unix":
            path = self.address[1]
            if os.path.exists(path):
                os.unlink(path)  # stale socket from a previous run
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=path, limit=MAX_LINE)
        else:
            _, host, port = self.address
            self._server = await asyncio.start_server(
                self._handle_conn, host=host, port=port, limit=MAX_LINE)
        self._accepting = True

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain-then-exit."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.shutdown()))

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def shutdown(self) -> None:
        """Drain: refuse new work, finish everything accepted, stop the
        pool, close the socket."""
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        self._accepting = False
        pending = [r for r in self._requests.values() if r.state != "done"]
        for req in pending:
            await req.event.wait()
        if self._owns_pool:
            await asyncio.to_thread(self.pool.drain, 60.0)
            await asyncio.to_thread(self.pool.close)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.address[0] == "unix":
            try:
                os.unlink(self.address[1])
            except OSError:
                pass
        self._closed.set()

    def request_shutdown_threadsafe(self) -> None:
        """Trigger :meth:`shutdown` from any thread (tests, embedders)."""
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.shutdown()))
        except RuntimeError:
            pass  # loop already closed (e.g. a drain verb beat us to it)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode(error(
                        "too_large", f"frame exceeds {MAX_LINE} bytes")))
                    await writer.drain()
                    break
                if not line:
                    break
                t0 = time.monotonic()
                verb = "?"
                try:
                    msg = decode(line)
                    verb = str(msg.get("op", "?"))
                    resp = await self._dispatch(verb, msg)
                except ProtocolError as exc:
                    resp = error("bad_request", str(exc))
                except Exception as exc:  # noqa: BLE001 — keep serving
                    resp = error("internal", f"{type(exc).__name__}: {exc}")
                self.metrics.observe_verb(verb, time.monotonic() - t0)
                writer.write(encode(resp))
                await writer.drain()
                if verb == "drain" and resp.get("ok"):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, verb: str, msg: dict) -> dict:
        if verb == "ping":
            return ok(pong=True, draining=self._draining)
        if verb == "submit":
            return await self._op_submit(msg)
        if verb == "status":
            return self._op_status(msg)
        if verb == "result":
            return await self._op_result(msg)
        if verb == "metrics":
            return ok(metrics=self.snapshot())
        if verb == "drain":
            return await self._op_drain()
        return error("bad_request", f"unknown verb {verb!r}")

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------

    async def _op_submit(self, msg: dict) -> dict:
        if not self._accepting:
            self.metrics.inc("requests_rejected")
            return error("draining", "server is draining; resubmit elsewhere")
        if len(self._inflight) >= self.queue_limit:
            self.metrics.inc("requests_rejected")
            retry_after = round(
                min(2.0, 0.05 * max(1, self.pool.queue_depth())), 3)
            return error("overloaded",
                         f"{len(self._inflight)} computations in flight "
                         f"(limit {self.queue_limit})",
                         retry_after=retry_after)

        kind = msg.get("kind", "analyze")
        if kind not in ("analyze", "cons"):
            return error("bad_request", f"unknown kind {kind!r}")
        config_name = msg.get("config", "Conc")
        if config_name not in BY_NAME:
            return error("bad_request", f"unknown config {config_name!r}")
        source = msg.get("source")
        if not isinstance(source, str):
            return error("bad_request", "submit needs a string 'source'")
        lang = msg.get("lang", "boogie")
        unroll = int(msg.get("unroll", 2))
        try:
            program = await asyncio.to_thread(_parse, source, lang, unroll)
        except (SyntaxError, TypeError, ValueError) as exc:
            return error("bad_request", f"parse failed: {exc}")

        proc_names = msg.get("procs")
        if proc_names is None:
            proc_names = [n for n, p in program.procedures.items()
                          if p.body is not None]
        else:
            missing = [n for n in proc_names
                       if n not in program.procedures]
            if missing:
                return error("bad_request", f"no such procedures: {missing}")
        deadline = msg.get("deadline", self.default_deadline)
        deadline = float(deadline) if deadline is not None else None

        self._next_id += 1
        req = _Request(f"q{self._next_id}", kind, config_name,
                       msg.get("prune_k"), list(proc_names), deadline)
        tasks = [AnalysisTask(
            kind=kind, proc_name=name, program=program,
            config_name=config_name, prune_k=req.prune_k,
            timeout=msg.get("timeout", 10.0),
            unroll_depth=unroll, max_preds=int(msg.get("max_preds", 12)),
            lia_budget=int(msg.get("lia_budget", 20000)),
            cache_dir=self.cache_dir,
            self_check=bool(msg.get("self_check", False)))
            for name in proc_names]

        self._requests[req.id] = req
        while len(self._requests) > MAX_FINISHED_REQUESTS:
            oldest = next(iter(self._requests))
            if self._requests[oldest].state != "done":
                break  # never evict live requests
            self._requests.pop(oldest)

        for idx, task in enumerate(tasks):
            key = await asyncio.to_thread(_safe_key, task)
            flight = self._inflight.get(key) if self.coalesce else None
            if flight is not None:
                flight.waiters.append((req, idx))
                req.coalesced += 1
                self.metrics.inc("coalesced_tasks")
                continue
            flight = _Flight()
            flight.waiters.append((req, idx))
            self._inflight[key] = flight
            self._spawn(self._run_flight(key, flight, task, deadline))
        if not tasks:
            self._finalize(req)  # nothing to wait for
        elif req.done < len(tasks):
            req.state = "running"
        self.metrics.inc("requests_accepted")
        self.metrics.inc("procs_submitted", len(tasks))
        return ok(id=req.id, procs=list(proc_names),
                  coalesced=req.coalesced)

    def _op_status(self, msg: dict) -> dict:
        req = self._requests.get(str(msg.get("id")))
        if req is None:
            return error("unknown_request", f"no request {msg.get('id')!r}")
        return ok(id=req.id, state=req.state, done=req.done,
                  total=len(req.proc_names))

    async def _op_result(self, msg: dict) -> dict:
        req = self._requests.get(str(msg.get("id")))
        if req is None:
            return error("unknown_request", f"no request {msg.get('id')!r}")
        if msg.get("wait", True) and req.state != "done":
            timeout = msg.get("timeout")
            try:
                await asyncio.wait_for(
                    req.event.wait(),
                    float(timeout) if timeout is not None else None)
            except asyncio.TimeoutError:
                return error("pending", "request still running",
                             id=req.id, done=req.done,
                             total=len(req.proc_names))
        if req.state != "done":
            return error("pending", "request still running", id=req.id,
                         done=req.done, total=len(req.proc_names))
        return ok(id=req.id, kind=req.kind, report=req.report_json,
                  failures=req.n_failures)

    async def _op_drain(self) -> dict:
        await self.shutdown()
        counters = self.metrics.snapshot().get("counters", {})
        return ok(drained=True,
                  completed=counters.get("requests_completed", 0))

    # ------------------------------------------------------------------
    # completion plumbing
    # ------------------------------------------------------------------

    async def _run_flight(self, key: str, flight: _Flight,
                          task: AnalysisTask,
                          deadline: float | None) -> None:
        """Produce one result for ``key`` on the worker pool and deliver
        it to every coalesced waiter."""
        try:
            future = self.pool.submit(task, deadline_seconds=deadline)
        except PoolClosedError:
            result = _pool_closed_result(task)
        else:
            result = await asyncio.wrap_future(future)
        self._inflight.pop(key, None)
        for req, idx in flight.waiters:
            self._deliver(req, idx, result)

    def _deliver(self, req: _Request, idx: int, result) -> None:
        if req.slots[idx] is not None:
            return
        # Content addresses are procedure-name-independent, so a result
        # may arrive under another name: a coalesced twin of a
        # same-content procedure.  Rewrite on a copy — the original
        # object may be shared with other waiters expecting their own
        # names.
        expected = req.proc_names[idx]
        if result.failure is None and result.proc_name != expected:
            from dataclasses import replace as _dc_replace
            result = _dc_replace(result, proc_name=expected)
            if result.report is not None:
                result.report = _dc_replace(result.report,
                                            proc_name=expected)
        req.slots[idx] = result
        req.done += 1
        if result.cache_stats:
            self.metrics.merge_cache_stats(result.cache_stats)
        if result.failure is not None:
            self.metrics.inc("proc_failures")
            if result.failure.get("type") == "deadline":
                self.metrics.inc("deadline_expired")
        if req.done == len(req.proc_names):
            self._finalize(req)

    def _finalize(self, req: _Request) -> None:
        req.report_json = _assemble_report(req)
        req.n_failures = sum(1 for r in req.slots if r.failure is not None)
        req.state = "done"
        self.metrics.inc("requests_completed")
        self.metrics.request_latency.observe(
            time.monotonic() - req.accepted_at)
        req.event.set()

    def snapshot(self) -> dict:
        return self.metrics.snapshot(
            queue_depth=self.pool.queue_depth(),
            in_flight=len(self._inflight),
            pool=self.pool.counters(),
            workers=len(self.pool.worker_pids()),
            worker_pids=self.pool.worker_pids(),
            draining=self._draining,
            queue_limit=self.queue_limit,
            coalesce=self.coalesce,
            cache_dir=self.cache_dir)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _parse(source: str, lang: str, unroll: int):
    if lang == "c":
        from ..frontend import compile_c
        return compile_c(source, unroll_depth=unroll)
    if lang == "boogie":
        from ..lang import parse_program, typecheck
        return typecheck(parse_program(source))
    raise ValueError(f"unknown lang {lang!r} (expected 'boogie' or 'c')")


def _safe_key(task: AnalysisTask) -> str:
    """The task's coalesce key, degrading to a never-coalescing unique
    key if the fingerprint computation itself fails (the worker will
    then report the real error as a structured failure)."""
    try:
        return coalesce_key(task)
    except Exception:  # noqa: BLE001
        return f"nocoalesce:{id(task)}:{time.monotonic_ns()}"


def _pool_closed_result(task: AnalysisTask):
    from ..core.tasks import failure_result
    return failure_result(task, "shutdown", "pool closed during submit")


def _assemble_report(req: _Request) -> dict:
    """The wire report: for ``analyze``, exactly the JSON shape of a
    batch ``ProgramReport`` (failure entries included, via the shared
    :func:`repro.core.analysis.failure_report`); for ``cons``, the
    warning/timeout/failure maps."""
    from ..core.analysis import ProgramReport
    from ..core.cache import merge_cache_stats
    if req.kind == "analyze":
        report = ProgramReport(config_name=req.config_name,
                               prune_k=req.prune_k)
        for name, res in zip(req.proc_names, req.slots):
            if res.failure is not None:
                report.reports.append(
                    failure_report(name, req.config_name, res.failure))
            else:
                report.reports.append(res.report)
        report.cache_stats = merge_cache_stats(
            r.cache_stats for r in req.slots)
        return program_report_to_json(report)
    warnings: dict[str, list] = {}
    failures: dict[str, dict] = {}
    timeouts = 0
    for name, res in zip(req.proc_names, req.slots):
        if res.failure is not None:
            warnings[name] = []
            failures[name] = dict(res.failure)
            continue
        warnings[name] = res.cons_warnings
        if res.cons_timed_out:
            timeouts += 1
    return {"kind": "cons", "warnings": warnings, "timeouts": timeouts,
            "failures": failures,
            "cache_stats": merge_cache_stats(
                r.cache_stats for r in req.slots)}


# ----------------------------------------------------------------------
# embedding helpers
# ----------------------------------------------------------------------

async def _amain(server: AnalysisServer, ready: threading.Event | None,
                 signals: bool) -> None:
    await server.start()
    if signals:
        server.install_signal_handlers()
    if ready is not None:
        ready.set()
    await server.wait_closed()


def run_server(address: str, **kwargs) -> None:
    """Blocking entry point for ``repro serve``: serve until a ``drain``
    verb or SIGTERM/SIGINT, then exit cleanly."""
    server = AnalysisServer(address, **kwargs)
    asyncio.run(_amain(server, None, signals=True))


class ServerThread:
    """An in-process daemon for tests and benchmarks: runs the asyncio
    server on a background thread, exposes the server object, and stops
    it on :meth:`stop` (or context-manager exit)."""

    def __init__(self, address: str, **kwargs):
        self.server = AnalysisServer(address, **kwargs)
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(
                _amain(self.server, self._ready, signals=False)),
            name="serve-thread", daemon=True)

    def start(self, timeout: float = 180.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("server thread did not become ready")
        return self

    def stop(self, timeout: float = 60.0) -> None:
        self.server.request_shutdown_threadsafe()
        self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
