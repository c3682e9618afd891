"""Synchronous client for the analysis service.

One :class:`ServeClient` holds one socket connection and speaks the
JSON-lines protocol strictly request/response, so it is trivially
correct to reason about; open one client per thread for concurrency
(the built-in lock only protects against accidental sharing).

The client owns the retry side of the backpressure contract: a
``submit`` rejected with ``overloaded`` is retried with **capped
exponential backoff seeded by the server's ``retry_after`` hint**, plus
a deterministic per-request jitter (:func:`retry_delay`).  A fixed
delay would synchronize many rejected clients into retrying at
the same instant — a thundering herd against a recovering daemon;
jittering off the request's own content spreads them out while staying
reproducible (the same request retries on the same schedule every
run).  Callers see either an accepted request id or a
:class:`ServeError`.

``analyze()`` is the high-level entry point: submit + wait + rebuild a
real :class:`~repro.core.analysis.ProgramReport`, bit-identical to what
the batch ``analyze_program`` returns for the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time

from ..core.analysis import ProgramReport, program_report_from_json
from .protocol import MAX_LINE, decode, encode, parse_address

#: Upper bound on one backoff sleep, pre-jitter (seconds).
BACKOFF_CAP = 5.0


def retry_delay(token: str, attempt: int, hint: float,
                cap: float = BACKOFF_CAP) -> float:
    """One backoff sleep: capped exponential growth over the server's
    ``retry_after`` hint, scaled by a deterministic per-request jitter.

    ``attempt`` counts from 0; the exponential doubles the hint each
    attempt up to ``cap``.  The jitter multiplies by a factor in
    ``[0.5, 1.0)`` derived from SHA-256 of ``token:attempt`` — no
    global randomness, so one request's schedule is reproducible, while
    different requests (different tokens) land at different offsets
    instead of stampeding a recovering server in lockstep.
    """
    base = min(cap, max(1e-3, hint) * (2 ** attempt))
    digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
    frac = int.from_bytes(digest[:8], "big") / 2 ** 64
    return base * (0.5 + 0.5 * frac)


def request_token(fields: dict) -> str:
    """The jitter token of one submission: a digest of its content, so
    twin requests from *different* clients still jitter identically
    (they would coalesce anyway) while distinct requests spread out."""
    try:
        blob = json.dumps(fields, sort_keys=True, default=repr)
    except (TypeError, ValueError):
        blob = repr(sorted(fields.items(), key=lambda kv: kv[0]))
    return hashlib.sha256(blob.encode()).hexdigest()


class ServeError(RuntimeError):
    """A protocol-level error response (or transport failure)."""

    def __init__(self, code: str, message: str = "", response: dict | None
                 = None):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code
        self.response = response or {}


class ServeClient:
    """See module docstring."""

    def __init__(self, address: str, *, connect_timeout: float = 30.0,
                 submit_attempts: int = 40, backoff_cap: float = BACKOFF_CAP):
        self.address = parse_address(address)
        self.connect_timeout = connect_timeout
        self.submit_attempts = submit_attempts
        self.backoff_cap = backoff_cap
        self._sock: socket.socket | None = None
        self._file = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _connect(self) -> None:
        if self.address[0] == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.connect_timeout)
            sock.connect(self.address[1])
        else:
            _, host, port = self.address
            sock = socket.create_connection((host, port),
                                            timeout=self.connect_timeout)
        sock.settimeout(None)  # ops block until the server replies
        self._sock = sock
        self._file = sock.makefile("rb")

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
            if self._sock is not None:
                self._sock.close()
                self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, op: str, **fields) -> dict:
        """One raw protocol round-trip; raises :class:`ServeError` on a
        ``{"ok": false}`` response or a dead connection."""
        msg = {"op": op}
        msg.update(fields)
        with self._lock:
            if self._sock is None:
                self._connect()
            try:
                self._sock.sendall(encode(msg))
                line = self._file.readline(MAX_LINE)
            except (BrokenPipeError, ConnectionResetError, OSError) as exc:
                self.close()
                raise ServeError("connection", str(exc)) from exc
        if not line:
            self.close()
            raise ServeError("connection", "server closed the connection")
        resp = decode(line)
        if not resp.get("ok"):
            raise ServeError(resp.get("error", "unknown"),
                             resp.get("message", ""), resp)
        return resp

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def wait_ready(self, timeout: float = 60.0,
                   interval: float = 0.05) -> None:
        """Poll until the server accepts connections (daemon startup)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.ping()
                return
            except (ServeError, OSError):
                self.close()
                if time.monotonic() >= deadline:
                    raise
                time.sleep(interval)

    def submit(self, source: str, *, lang: str = "boogie",
               kind: str = "analyze", config: str = "Conc",
               procs: list[str] | None = None, prune_k: int | None = None,
               timeout: float | None = 10.0, unroll: int = 2,
               max_preds: int = 12, lia_budget: int = 20000,
               self_check: bool = False,
               deadline: float | None = None) -> dict:
        """Submit one program; honors ``overloaded`` backpressure with
        capped exponential backoff over the server's ``retry_after``
        hint, jittered deterministically per request
        (:func:`retry_delay`), up to ``submit_attempts`` times."""
        fields = dict(source=source, lang=lang, kind=kind, config=config,
                      prune_k=prune_k, timeout=timeout, unroll=unroll,
                      max_preds=max_preds, lia_budget=lia_budget,
                      self_check=self_check)
        if procs is not None:
            fields["procs"] = procs
        if deadline is not None:
            fields["deadline"] = deadline
        token = request_token(fields)
        last: ServeError | None = None
        for attempt in range(self.submit_attempts):
            try:
                return self.request("submit", **fields)
            except ServeError as exc:
                if exc.code != "overloaded":
                    raise
                last = exc
                hint = float(exc.response.get("retry_after", 0.1))
                time.sleep(retry_delay(token, attempt, hint,
                                       self.backoff_cap))
        raise last if last is not None else ServeError("overloaded")

    def status(self, request_id: str) -> dict:
        return self.request("status", id=request_id)

    def result(self, request_id: str, wait: bool = True,
               timeout: float | None = None) -> dict:
        fields: dict = {"id": request_id, "wait": wait}
        if timeout is not None:
            fields["timeout"] = timeout
        return self.request("result", **fields)

    def metrics(self) -> dict:
        return self.request("metrics")["metrics"]

    def drain(self) -> dict:
        """Ask the server to finish everything accepted and exit."""
        return self.request("drain")

    # ------------------------------------------------------------------
    # high level
    # ------------------------------------------------------------------

    def analyze(self, source: str, **submit_kwargs) -> ProgramReport:
        """Submit + wait + rebuild the :class:`ProgramReport` — the
        serving twin of ``analyze_program``."""
        acc = self.submit(source, kind="analyze", **submit_kwargs)
        resp = self.result(acc["id"])
        return program_report_from_json(resp["report"])

    def conservative(self, source: str, **submit_kwargs) -> dict:
        """Submit + wait for a ``cons`` run; returns the wire dict
        (``warnings`` / ``timeouts`` / ``failures``)."""
        acc = self.submit(source, kind="cons", **submit_kwargs)
        return self.result(acc["id"])["report"]
