"""Serving-side observability: latency histograms and counters.

Everything here is deliberately dependency-free and cheap to update —
one dict lookup and an integer increment per observation — because it
sits on the request hot path.  The ``metrics`` protocol verb returns
:meth:`ServerMetrics.snapshot` (see the metrics glossary in
``docs/serving.md``).
"""

from __future__ import annotations

import threading

#: Histogram bucket upper bounds in milliseconds (log-ish scale, wide
#: enough for both sub-ms control verbs and multi-second analyses).
BUCKET_BOUNDS_MS = (1, 2, 5, 10, 20, 50, 100, 200, 500,
                    1000, 2000, 5000, 10000, 30000, float("inf"))


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile estimates.

    Quantiles are read from bucket upper bounds, so they are exact to
    one bucket's resolution — plenty for capacity planning, and it
    keeps observation O(1) with no per-sample storage.
    """

    __slots__ = ("counts", "count", "sum_ms", "max_ms")

    def __init__(self):
        self.counts = [0] * len(BUCKET_BOUNDS_MS)
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        ms = seconds * 1000.0
        for i, bound in enumerate(BUCKET_BOUNDS_MS):
            if ms <= bound:
                self.counts[i] += 1
                break
        self.count += 1
        self.sum_ms += ms
        if ms > self.max_ms:
            self.max_ms = ms

    def quantile_ms(self, q: float) -> float:
        """Upper bound of the bucket containing the ``q`` quantile
        (0 when empty; the observed max for the overflow bucket)."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, bound in enumerate(BUCKET_BOUNDS_MS):
            seen += self.counts[i]
            if seen >= target:
                return self.max_ms if bound == float("inf") else float(bound)
        return self.max_ms

    def to_json(self) -> dict:
        mean = self.sum_ms / self.count if self.count else 0.0
        return {
            "count": self.count,
            "mean_ms": round(mean, 3),
            "max_ms": round(self.max_ms, 3),
            "p50_ms": self.quantile_ms(0.50),
            "p90_ms": self.quantile_ms(0.90),
            "p95_ms": self.quantile_ms(0.95),
            "p99_ms": self.quantile_ms(0.99),
        }


class ServerMetrics:
    """All counters and histograms of one server instance.

    Thread-safe: the asyncio frontend and the pool's dispatcher threads
    both record into it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._verbs: dict[str, LatencyHistogram] = {}
        #: queue-wait and run-time of pool tasks, end-to-end request
        #: latency as the client experiences it
        self.task_wait = LatencyHistogram()
        self.task_run = LatencyHistogram()
        self.request_latency = LatencyHistogram()

    def inc(self, counter: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + delta

    def observe_verb(self, verb: str, seconds: float) -> None:
        with self._lock:
            hist = self._verbs.get(verb)
            if hist is None:
                hist = self._verbs[verb] = LatencyHistogram()
        hist.observe(seconds)

    def merge_cache_stats(self, stats: dict | None) -> None:
        if not stats:
            return
        for key, val in stats.items():
            self.inc(f"pcache_{key}", val)

    def snapshot(self, **gauges) -> dict:
        """One JSON-safe snapshot; ``gauges`` carries instantaneous
        values (queue depth, in-flight, workers) the caller owns."""
        with self._lock:
            counters = dict(self._counters)
            verbs = {v: h.to_json() for v, h in self._verbs.items()}
        out = {
            "counters": counters,
            "verb_latency": verbs,
            "task_wait": self.task_wait.to_json(),
            "task_run": self.task_run.to_json(),
            "request_latency": self.request_latency.to_json(),
        }
        out.update(gauges)
        return out
