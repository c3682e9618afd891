"""In-memory hot tier in front of the on-disk analysis cache.

The persistent cache (`repro.core.cache`) makes re-analysis of an
unchanged procedure a disk read; this module makes a *recently served*
procedure a dict lookup in the server process — no worker round-trip,
no JSON file, no pipe.  Together they form the daemon's tiered cache
(``docs/serving.md``):

1. **hot tier** (here): in the server process, keyed on the full
   coalesce key (`repro.core.tasks.coalesce_key` — content address
   *plus* budget knobs), LRU-evicted under a byte budget;
2. **disk tier** (`core/cache.py`): shared, content-addressed,
   budget-insensitive, consulted inside the workers.

Entries are stored as JSON-shaped *records*, not live result objects,
so the byte budget measures a real size (``len(json.dumps)``).

Only *completed* results are stored — a timed-out or failed task
depends on wall-clock luck, and caching it would freeze a transient
outcome.  ``cache_stats`` are stripped at store time: a hot hit did no
disk-cache work, and replaying the original run's counters would
double-count them in the server metrics.

Thread-safe; every operation is O(1) amortized (one OrderedDict move
plus eviction amortized over stores).
"""

from __future__ import annotations

import collections
import json
import threading

from ..core.tasks import TaskResult

#: Default hot-tier byte budget for the CLI daemon (64 MiB).
DEFAULT_HOT_BYTES = 64 * 1024 * 1024


# ----------------------------------------------------------------------
# TaskResult <-> record codecs
# ----------------------------------------------------------------------

def result_to_record(result: TaskResult) -> dict | None:
    """The JSON-shaped hot-tier record for a completed result, or
    ``None`` when the result must not be cached (failed, timed out, or
    a control kind)."""
    if result.failure is not None:
        return None
    if result.kind == "analyze":
        from dataclasses import asdict
        if result.report is None or result.report.timed_out:
            return None
        return {"kind": "analyze", "proc": result.proc_name,
                "report": asdict(result.report)}
    if result.kind == "cons":
        if result.cons_warnings is None or result.cons_timed_out:
            return None
        return {"kind": "cons", "proc": result.proc_name,
                "warnings": list(result.cons_warnings)}
    return None


def record_to_result(record: dict) -> TaskResult:
    """Rebuild a :class:`TaskResult` from a hot-tier record.  Strict —
    unknown report fields raise (mirroring the disk-cache loader), so a
    stale record from an older schema degrades to a miss at the caller
    rather than a malformed report downstream."""
    kind = record.get("kind")
    if kind == "analyze":
        from ..core.analysis import ProcedureReport
        report_dict = dict(record["report"])
        field_names = {f.name for f in
                       ProcedureReport.__dataclass_fields__.values()}
        unknown = set(report_dict) - field_names
        if unknown:
            raise ValueError(f"unknown report fields {unknown}")
        return TaskResult(kind="analyze", proc_name=str(record["proc"]),
                          report=ProcedureReport(**report_dict))
    if kind == "cons":
        return TaskResult(kind="cons", proc_name=str(record["proc"]),
                          cons_warnings=[str(w) for w in record["warnings"]])
    raise ValueError(f"unknown hot-tier record kind {kind!r}")


# ----------------------------------------------------------------------
# the LRU tier
# ----------------------------------------------------------------------

class HotCache:
    """Byte-bounded LRU map of coalesce key -> hot-tier record."""

    def __init__(self, max_bytes: int = DEFAULT_HOT_BYTES):
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: collections.OrderedDict[str, tuple[dict, int]] = \
            collections.OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.oversize = 0

    def get(self, key: str) -> dict | None:
        """The record for ``key`` (promoted to most recently used), or
        ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: str, record: dict) -> bool:
        """Store ``record`` (idempotent per key — a re-store refreshes
        recency).  Returns False when the record alone exceeds the byte
        budget and was rejected."""
        try:
            size = len(json.dumps(record, separators=(",", ":")))
        except (TypeError, ValueError):
            return False
        if size > self.max_bytes:
            with self._lock:
                self.oversize += 1
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (record, size)
            self._bytes += size
            self.stores += 1
            while self._bytes > self.max_bytes and self._entries:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._bytes -= evicted_size
                self.evictions += 1
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def stats(self) -> dict:
        """Counters + gauges for the ``metrics`` verb
        (``docs/serving.md`` glossary: ``hot.*``)."""
        with self._lock:
            return {"entries": len(self._entries), "bytes": self._bytes,
                    "max_bytes": self.max_bytes, "hits": self.hits,
                    "misses": self.misses, "stores": self.stores,
                    "evictions": self.evictions, "oversize": self.oversize}
