"""Wire protocol of the analysis service: JSON lines over a socket.

One request or response per line, each a single JSON object, UTF-8,
newline-terminated.  The framing is deliberately primitive — any
language (or ``nc``) can speak it — and every response carries ``ok``:

* ``{"ok": true, ...verb-specific fields...}``
* ``{"ok": false, "error": "<code>", "message": "...", ...}``

Verbs (client → server), documented in full in ``docs/serving.md``:

========  ==========================================================
verb      meaning
========  ==========================================================
submit    enqueue one program analysis; replies with a request id
status    queued/running/done progress of a request id
result    the finished ``ProgramReport`` (optionally waiting for it)
metrics   queue depth, in-flight count, latency histograms, counters
drain     stop accepting, finish everything accepted, then shut down
ping      liveness probe (also used by clients to wait for startup)
========  ==========================================================

Error codes a client must expect: ``overloaded`` (bounded queue full —
carries ``retry_after`` seconds), ``draining`` (server is shutting
down), ``bad_request``, ``unknown_request``, ``pending`` (result asked
without wait before completion) and ``too_large`` (line over
:data:`MAX_LINE`).

Addresses are a single string: a path (anything containing ``/`` or
ending in ``.sock``) selects a Unix domain socket, ``host:port``
selects TCP.
"""

from __future__ import annotations

import json

#: Upper bound on one frame.  Submissions carry whole program sources,
#: so this is generous; it exists to bound a malicious/buggy client's
#: memory impact, not to be reached in practice.
MAX_LINE = 32 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed frame (bad JSON, not an object, missing verb)."""


def encode(msg: dict) -> bytes:
    """One JSON-lines frame (newline-terminated bytes)."""
    return (json.dumps(msg, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict:
    """Parse one frame; raises :class:`ProtocolError` on garbage."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        msg = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"bad JSON frame: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProtocolError("frame is not a JSON object")
    return msg


def error(code: str, message: str = "", **extra) -> dict:
    out = {"ok": False, "error": code}
    if message:
        out["message"] = message
    out.update(extra)
    return out


def ok(**fields) -> dict:
    out = {"ok": True}
    out.update(fields)
    return out


def parse_address(spec: str) -> tuple:
    """``("unix", path)`` or ``("tcp", host, port)``.

    A spec containing ``/`` or ending in ``.sock`` is a filesystem
    path; otherwise it must be ``host:port``.
    """
    if not spec:
        raise ValueError("empty serve address")
    if "/" in spec or spec.endswith(".sock"):
        return ("unix", spec)
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"serve address {spec!r} is neither a socket path nor host:port")
    return ("tcp", host or "127.0.0.1", int(port))
