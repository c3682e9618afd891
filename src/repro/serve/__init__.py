"""The serving layer: a persistent analysis daemon over warm workers.

``repro serve`` keeps the expensive engine resident — workers that
imported the solver once, hold the Dead/Fail baseline memo, and share
the persistent content-addressed cache — and streams per-procedure
analysis tasks to it over a JSON-lines socket protocol with bounded
admission, request coalescing, deadlines and crash recovery.

Public surface:

* :class:`~repro.serve.server.AnalysisServer` / ``run_server`` /
  ``ServerThread`` — the daemon;
* :class:`~repro.serve.client.ServeClient` — the client library
  (``repro submit`` is a thin wrapper over it);
* :class:`~repro.serve.pool.WorkerPool` — the warm pool, usable on its
  own for embedders;
* :class:`~repro.serve.hotcache.HotCache` — the daemon's in-memory hot
  tier;
* `repro.serve.protocol` — the wire format.

See ``docs/serving.md`` for the protocol, lifecycle, hot tier and
metrics glossary.
"""

from .client import ServeClient, ServeError, retry_delay
from .hotcache import HotCache
from .pool import PoolClosedError, WorkerPool
from .protocol import parse_address
from .server import AnalysisServer, ServerThread, run_server

__all__ = [
    "AnalysisServer", "ServerThread", "run_server",
    "ServeClient", "ServeError", "retry_delay",
    "WorkerPool", "PoolClosedError",
    "HotCache",
    "parse_address",
]
