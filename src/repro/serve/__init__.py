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
* :class:`~repro.serve.pool.WorkerPool` — the warm pool, which the
  batch sweeps and ``repro ci`` also run ``jobs > 1`` on, usable on its
  own for embedders;
* `repro.serve.protocol` — the wire format.

See ``docs/serving.md`` for the protocol, lifecycle, cache tiers and
metrics glossary.
"""

from .client import ServeClient, ServeError, retry_delay
from .pool import PoolClosedError, WorkerPool
from .protocol import parse_address
from .server import AnalysisServer, ServerThread, run_server

__all__ = [
    "AnalysisServer", "ServerThread", "run_server",
    "ServeClient", "ServeError", "retry_delay",
    "WorkerPool", "PoolClosedError",
    "parse_address",
]
