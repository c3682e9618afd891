"""The fleet router: consistent-hash sharding over analysis replicas.

One :class:`RouterServer` speaks the same JSON-lines protocol as an
:class:`~repro.serve.server.AnalysisServer` — ``ping`` / ``submit`` /
``status`` / ``result`` / ``metrics`` / ``drain`` (plus ``topology``)
— so every existing client, including ``repro submit`` and
:class:`~repro.serve.client.ServeClient`, talks to a fleet unchanged.
Behind the socket it owns no worker pool; it owns a
:class:`~repro.serve.hashring.HashRing` over N replica addresses and
does four things (full design in ``docs/fleet.md``):

* **Shard placement.**  Each submission is parsed once and split into
  per-procedure tasks; each task's coalesce key
  (`repro.core.tasks.coalesce_key`) is hashed onto the ring, and the
  tasks are regrouped into one sub-submission per owning replica.  Twin
  requests from *different clients* therefore land on the same shard,
  where the replica's in-flight coalescing and hot tier deduplicate
  them — fleet-wide coalescing without any shared state.

* **Scatter/gather.**  Sub-submissions run concurrently; the router
  reassembles the per-replica reports into one wire report in the
  original procedure order, with cache counters merged — byte-identical
  to what a single server (or the batch CLI) would produce.

* **Failover.**  A replica that cannot be reached — connection refused,
  reset, or EOF mid-``result`` (the replica process died) — is removed
  from the ring, and every procedure that was in flight there is
  re-hashed over the survivors and resubmitted.  This generalizes the
  worker pool's EOF-crash retry from process loss to *replica* loss.
  Only with zero live replicas do the affected procedures come back as
  structured ``replica_lost`` failures.

* **Backpressure relay.**  A replica's ``overloaded`` rejection is
  retried by the router with the same capped-exponential,
  deterministically-jittered backoff the client library uses
  (:func:`repro.serve.client.retry_delay`); the router's own admission
  is bounded by ``queue_limit`` live requests.

The router adds no trust: replicas run ``--self-check`` certificate
validation exactly as a standalone server would, and a failed-over
procedure is *recomputed* (or served from the disk/hot tier) by its new
owner — never patched together from a dead replica's partial state.
"""

from __future__ import annotations

import asyncio
import collections
import os
import signal
import threading
import time

from ..core.analysis import failure_report
from ..core.config import BY_NAME
from ..core.tasks import AnalysisTask
from .client import request_token, retry_delay
from .hashring import DEFAULT_VNODES, HashRing
from .metrics import ServerMetrics
from .protocol import MAX_LINE, ProtocolError, decode, encode, error, ok
from .protocol import parse_address
from .server import MAX_FINISHED_REQUESTS, _parse, _safe_keys

#: Submission fields forwarded verbatim to the owning replicas (the
#: router adds its own ``procs`` subset per shard).
_FORWARD_FIELDS = ("source", "lang", "kind", "config", "prune_k", "timeout",
                   "unroll", "max_preds", "lia_budget", "self_check",
                   "deadline")


class ReplicaDeadError(RuntimeError):
    """A replica could not be reached or died mid-conversation."""


class _RouterRequest:
    """Router-side state of one accepted submission."""

    def __init__(self, req_id: str, kind: str, config_name: str,
                 prune_k, proc_names: list[str], keys: list[str]):
        self.id = req_id
        self.kind = kind
        self.config_name = config_name
        self.prune_k = prune_k
        self.proc_names = proc_names
        self.keys = keys  # per-proc coalesce keys, for failover re-hash
        self.slots: list = [None] * len(proc_names)
        self.done = 0
        self.state = "queued"  # queued -> running -> done
        self.accepted_at = time.monotonic()
        self.event = asyncio.Event()
        self.report_json: dict | None = None
        self.n_failures = 0
        self.cons_timeouts = 0
        self.cache_stats: list[dict] = []
        self.shards_used: set[str] = set()
        self.failovers = 0


class RouterServer:
    """See module docstring."""

    def __init__(self, address: str, replicas: list[str], *,
                 queue_limit: int = 128, default_deadline: float | None = None,
                 cache_dir: str | None = None, vnodes: int = DEFAULT_VNODES,
                 submit_attempts: int = 40, backoff_cap: float = 5.0,
                 submit_timeout: float = 300.0,
                 drain_replicas: bool = False):
        if not replicas:
            raise ValueError("a fleet needs at least one replica")
        self.address = parse_address(address)
        self.address_spec = address
        self.queue_limit = queue_limit
        self.default_deadline = default_deadline
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.submit_attempts = submit_attempts
        self.backoff_cap = backoff_cap
        self.submit_timeout = submit_timeout
        self.drain_replicas = drain_replicas
        self.ring = HashRing(replicas, vnodes=vnodes)
        self.replicas = list(replicas)
        self.metrics = ServerMetrics()
        self._dead: dict[str, str] = {}  # address -> reason
        self._requests: collections.OrderedDict[str, _RouterRequest] = \
            collections.OrderedDict()
        self._next_id = 0
        self._live = 0  # requests not yet done (admission gauge)
        self._accepting = False
        self._server: asyncio.AbstractServer | None = None
        self._closed = asyncio.Event()
        self._draining = False
        self._loop: asyncio.AbstractEventLoop | None = None
        # strong refs to fire-and-forget group tasks: the event loop only
        # holds weak ones, and a GC'd task silently strands its request
        self._group_tasks: set[asyncio.Task] = set()

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.ensure_future(coro)
        self._group_tasks.add(task)
        task.add_done_callback(self._group_tasks.discard)
        return task

    # ------------------------------------------------------------------
    # lifecycle (mirrors AnalysisServer)
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        if self.address[0] == "unix":
            path = self.address[1]
            if os.path.exists(path):
                os.unlink(path)
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=path, limit=MAX_LINE)
        else:
            _, host, port = self.address
            self._server = await asyncio.start_server(
                self._handle_conn, host=host, port=port, limit=MAX_LINE)
        self._accepting = True

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.shutdown()))

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def shutdown(self) -> None:
        """Drain: refuse new work, finish every accepted request, then
        (with ``drain_replicas``) drain the whole fleet."""
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        self._accepting = False
        for req in [r for r in self._requests.values() if r.state != "done"]:
            await req.event.wait()
        if self.drain_replicas:
            for spec in self.ring.shards():
                try:
                    await self._replica_call(spec, {"op": "drain"},
                                             timeout=600.0)
                except ReplicaDeadError:
                    pass  # already gone is drained enough
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
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.shutdown()))
        except RuntimeError:
            pass

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
            return ok(pong=True, draining=self._draining, role="router",
                      replicas=len(self.ring))
        if verb == "submit":
            return await self._op_submit(msg)
        if verb == "status":
            return self._op_status(msg)
        if verb == "result":
            return await self._op_result(msg)
        if verb == "metrics":
            return await self._op_metrics()
        if verb == "topology":
            return self._op_topology()
        if verb == "drain":
            return await self._op_drain()
        return error("bad_request", f"unknown verb {verb!r}")

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------

    async def _op_submit(self, msg: dict) -> dict:
        if not self._accepting:
            self.metrics.inc("requests_rejected")
            return error("draining", "router is draining; resubmit elsewhere")
        if self._live >= self.queue_limit:
            self.metrics.inc("requests_rejected")
            return error("overloaded",
                         f"{self._live} requests in flight "
                         f"(limit {self.queue_limit})",
                         retry_after=0.25)
        if not self.ring:
            self.metrics.inc("requests_rejected")
            return error("no_replicas", "every replica is dead")

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
            missing = [n for n in proc_names if n not in program.procedures]
            if missing:
                return error("bad_request", f"no such procedures: {missing}")
        deadline = msg.get("deadline", self.default_deadline)
        deadline = float(deadline) if deadline is not None else None

        prune_k = msg.get("prune_k")
        tasks = [AnalysisTask(
            kind=kind, proc_name=name, program=program,
            config_name=config_name, prune_k=prune_k,
            timeout=msg.get("timeout", 10.0), unroll_depth=unroll,
            max_preds=int(msg.get("max_preds", 12)),
            lia_budget=int(msg.get("lia_budget", 20000)),
            cache_dir=self.cache_dir,
            self_check=bool(msg.get("self_check", False)))
            for name in proc_names]
        keys = await asyncio.to_thread(
            lambda: [_safe_keys(t)[0] for t in tasks])

        self._next_id += 1
        req = _RouterRequest(f"r{self._next_id}", kind, config_name,
                             prune_k, list(proc_names), keys)
        self._requests[req.id] = req
        self._live += 1
        while len(self._requests) > MAX_FINISHED_REQUESTS:
            oldest = next(iter(self._requests))
            if self._requests[oldest].state != "done":
                break  # never evict live requests
            self._requests.pop(oldest)

        fields = {k: msg[k] for k in _FORWARD_FIELDS if k in msg}
        if deadline is not None:
            fields["deadline"] = deadline
        groups: dict[str, list[int]] = {}
        for idx, key in enumerate(keys):
            groups.setdefault(self.ring.owner(key), []).append(idx)
        for shard, idxs in groups.items():
            self._spawn(self._run_group(req, shard, idxs, fields))
        if tasks:
            req.state = "running"
        else:
            self._finalize(req)  # zero procedures: an empty report
        self.metrics.inc("requests_accepted")
        self.metrics.inc("procs_submitted", len(tasks))
        self.metrics.inc("shard_submissions", len(groups))
        return ok(id=req.id, procs=list(proc_names), shards=len(groups))

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
                  failures=req.n_failures, shards=sorted(req.shards_used),
                  failovers=req.failovers)

    async def _op_metrics(self) -> dict:
        shards: dict[str, dict | None] = {}
        for spec in self.ring.shards():
            try:
                resp = await self._replica_call(spec, {"op": "metrics"},
                                                timeout=10.0)
                shards[spec] = resp.get("metrics") if resp.get("ok") else None
            except ReplicaDeadError:
                shards[spec] = None
        snap = self.snapshot()
        snap["shards"] = shards
        return ok(metrics=snap)

    def _op_topology(self) -> dict:
        return ok(role="router", vnodes=self.ring.vnodes,
                  alive=self.ring.shards(), dead=dict(self._dead))

    async def _op_drain(self) -> dict:
        await self.shutdown()
        counters = self.metrics.snapshot().get("counters", {})
        return ok(drained=True,
                  completed=counters.get("requests_completed", 0))

    # ------------------------------------------------------------------
    # scatter / gather / failover
    # ------------------------------------------------------------------

    async def _run_group(self, req: _RouterRequest, shard: str,
                         idxs: list[int], fields: dict) -> None:
        """Run one shard's share of a request: submit, await the
        report, deliver the per-procedure entries — or fail over."""
        procs = [req.proc_names[i] for i in idxs]
        sub = dict(fields)
        sub["procs"] = procs
        try:
            acc = await self._submit_to_replica(shard, sub)
            res = await self._replica_call(
                shard, {"op": "result", "id": acc["id"], "wait": True},
                timeout=None)
            if not res.get("ok"):
                raise ReplicaDeadError(
                    f"replica {shard} result error: {res.get('error')}")
        except ReplicaDeadError as exc:
            self._fail_over(req, shard, idxs, fields, exc)
            return
        req.shards_used.add(shard)
        report = res.get("report") or {}
        stats = report.get("cache_stats")
        if stats:
            req.cache_stats.append(stats)
        if req.kind == "analyze":
            by_name = {r.get("proc_name"): r
                       for r in report.get("reports", [])}
            for i in idxs:
                name = req.proc_names[i]
                entry = by_name.get(name)
                if entry is None:
                    entry = _failure_entry(
                        name, req.config_name, "router",
                        f"replica {shard} returned no report for {name!r}")
                self._deliver(req, i, entry)
        else:
            warnings = report.get("warnings", {})
            failures = report.get("failures", {})
            req.cons_timeouts += int(report.get("timeouts", 0))
            for i in idxs:
                name = req.proc_names[i]
                self._deliver(req, i, {"warnings": warnings.get(name, []),
                                       "failure": failures.get(name)})

    def _fail_over(self, req: _RouterRequest, shard: str, idxs: list[int],
                   fields: dict, exc: ReplicaDeadError) -> None:
        """The whole-replica generalization of the pool's crash retry:
        drop the dead shard from the ring, re-hash its share of the
        request over the survivors, resubmit."""
        self._mark_dead(shard, str(exc))
        if not self.ring:
            for i in idxs:
                name = req.proc_names[i]
                if req.kind == "analyze":
                    entry = _failure_entry(name, req.config_name,
                                           "replica_lost", str(exc))
                else:
                    entry = {"warnings": [],
                             "failure": {"type": "replica_lost",
                                         "message": str(exc)}}
                self._deliver(req, i, entry)
            return
        req.failovers += len(idxs)
        self.metrics.inc("failover_resubmits", len(idxs))
        regroup: dict[str, list[int]] = {}
        for i in idxs:
            regroup.setdefault(self.ring.owner(req.keys[i]), []).append(i)
        for new_shard, sub_idxs in regroup.items():
            self._spawn(self._run_group(req, new_shard, sub_idxs, fields))

    def _mark_dead(self, shard: str, reason: str) -> None:
        if shard not in self.ring:
            return  # another group already buried it
        self.ring.remove(shard)
        self._dead[shard] = reason
        self.metrics.inc("replica_failures")

    def _deliver(self, req: _RouterRequest, idx: int, entry) -> None:
        if req.slots[idx] is not None:
            return
        req.slots[idx] = entry
        req.done += 1
        if req.done == len(req.proc_names):
            self._finalize(req)

    def _finalize(self, req: _RouterRequest) -> None:
        from ..core.cache import merge_cache_stats
        if req.kind == "analyze":
            req.n_failures = sum(1 for e in req.slots if e.get("failed"))
            req.report_json = {
                "config_name": req.config_name,
                "prune_k": req.prune_k,
                "cache_stats": merge_cache_stats(req.cache_stats),
                "reports": list(req.slots),
            }
        else:
            warnings: dict[str, list] = {}
            failures: dict[str, dict] = {}
            for name, entry in zip(req.proc_names, req.slots):
                warnings[name] = entry["warnings"]
                if entry.get("failure"):
                    failures[name] = dict(entry["failure"])
            req.n_failures = len(failures)
            req.report_json = {
                "kind": "cons", "warnings": warnings,
                "timeouts": req.cons_timeouts, "failures": failures,
                "cache_stats": merge_cache_stats(req.cache_stats),
            }
        req.state = "done"
        self._live -= 1
        self.metrics.inc("requests_completed")
        self.metrics.request_latency.observe(
            time.monotonic() - req.accepted_at)
        req.event.set()

    # ------------------------------------------------------------------
    # replica RPC
    # ------------------------------------------------------------------

    async def _submit_to_replica(self, shard: str, msg: dict) -> dict:
        """Submit to one replica, absorbing ``overloaded`` backpressure
        with the shared capped-exponential deterministic-jitter
        backoff.  Any other rejection is treated as replica loss (the
        router validated the request already, so a healthy replica
        cannot legitimately refuse it)."""
        token = request_token(msg)
        for attempt in range(self.submit_attempts):
            resp = await self._replica_call(
                shard, {"op": "submit", **msg}, timeout=self.submit_timeout)
            if resp.get("ok"):
                return resp
            code = resp.get("error")
            if code != "overloaded":
                raise ReplicaDeadError(
                    f"replica {shard} rejected submit: {code}: "
                    f"{resp.get('message', '')}")
            hint = float(resp.get("retry_after", 0.1))
            self.metrics.inc("shard_backpressure")
            await asyncio.sleep(retry_delay(token, attempt, hint,
                                            self.backoff_cap))
        raise ReplicaDeadError(
            f"replica {shard} still overloaded after "
            f"{self.submit_attempts} attempts")

    async def _replica_call(self, shard: str, msg: dict,
                            timeout: float | None) -> dict:
        """One connection-per-call round trip to a replica.  Every
        transport failure — connect, send, EOF, timeout — raises
        :class:`ReplicaDeadError`; the caller decides whether that
        means failover."""
        addr = parse_address(shard)
        try:
            if addr[0] == "unix":
                reader, writer = await asyncio.open_unix_connection(
                    addr[1], limit=MAX_LINE)
            else:
                reader, writer = await asyncio.open_connection(
                    addr[1], addr[2], limit=MAX_LINE)
        except OSError as exc:
            raise ReplicaDeadError(f"connect {shard}: {exc}") from exc
        try:
            writer.write(encode(msg))
            await writer.drain()
            if timeout is not None:
                line = await asyncio.wait_for(reader.readline(), timeout)
            else:
                line = await reader.readline()
        except (OSError, ConnectionResetError, asyncio.TimeoutError) as exc:
            raise ReplicaDeadError(f"talk {shard}: {exc}") from exc
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionResetError):
                pass
        if not line:
            raise ReplicaDeadError(f"replica {shard} closed the connection")
        try:
            return decode(line)
        except ProtocolError as exc:
            raise ReplicaDeadError(f"garbage from {shard}: {exc}") from exc

    def snapshot(self) -> dict:
        return self.metrics.snapshot(
            role="router",
            in_flight=self._live,
            queue_limit=self.queue_limit,
            draining=self._draining,
            replicas_alive=self.ring.shards(),
            replicas_dead=sorted(self._dead))


def _failure_entry(name: str, config_name: str, type_: str,
                   message: str) -> dict:
    """A wire-shaped failed ``ProcedureReport`` entry, matching what a
    replica would produce for an infrastructure failure."""
    from dataclasses import asdict
    return asdict(failure_report(name, config_name,
                                 {"type": type_, "message": message}))


# ----------------------------------------------------------------------
# embedding helpers (mirror server.run_server / ServerThread)
# ----------------------------------------------------------------------

async def _amain(router: RouterServer, ready: threading.Event | None,
                 signals: bool) -> None:
    await router.start()
    if signals:
        router.install_signal_handlers()
    if ready is not None:
        ready.set()
    await router.wait_closed()


def run_router(address: str, replicas: list[str], **kwargs) -> None:
    """Blocking entry point: route until a ``drain`` verb or
    SIGTERM/SIGINT, then exit cleanly."""
    router = RouterServer(address, replicas, **kwargs)
    asyncio.run(_amain(router, None, signals=True))


class RouterThread:
    """An in-process router for tests and benchmarks (the fleet twin of
    :class:`~repro.serve.server.ServerThread`)."""

    def __init__(self, address: str, replicas: list[str], **kwargs):
        self.router = RouterServer(address, replicas, **kwargs)
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(
                _amain(self.router, self._ready, signals=False)),
            name="router-thread", daemon=True)

    def start(self, timeout: float = 60.0) -> "RouterThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("router thread did not become ready")
        return self

    def stop(self, timeout: float = 120.0) -> None:
        self.router.request_shutdown_threadsafe()
        self._thread.join(timeout)

    def __enter__(self) -> "RouterThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
