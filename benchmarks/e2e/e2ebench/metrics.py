"""Metric names, units, and the reductions every workload shares.

The names and units here must match ``BENCHMARK.json`` at the repository
root (the smoke test checks it).  End-to-end metrics come from untraced
runs; per-layer metrics from a separate traced run.  Per-layer counts and
self times are normalised per *unit* — one analysis (``sweep``,
``certified``) or one CI run (``ci_edits``) — so runs that complete
different numbers of units stay comparable.
"""

from __future__ import annotations

import math
import resource
import statistics

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "units/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "label_accuracy": "fraction",
}

#: span name -> (calls metric or None, self-seconds metric)
SPAN_METRICS = {
    "frontend.compile": (None, "frontend.compile_s"),
    "frontend.ingest": (None, "frontend.ingest_s"),
    "lang.parse": (None, "lang.parse_s"),
    "lang.typecheck": (None, "lang.typecheck_s"),
    "lang.prepare": ("lang.prepare_calls", "lang.prepare_s"),
    "vc.encode": ("vc.encode_calls", "vc.encode_s"),
    "vc.fingerprint": ("vc.fingerprint_calls", "vc.fingerprint_s"),
    "core.predicates": (None, "core.predicates.mine_s"),
    "core.deadfail.baseline": (None, "core.deadfail.baseline_s"),
    "core.cover": ("core.cover.calls", "core.cover.s"),
    "core.acspec": (None, "core.acspec.search_s"),
    "smt.check": ("smt.checks", "smt.check_s"),
    "core.cache.load": (None, "core.cache.load_s"),
    "core.cache.store": (None, "core.cache.store_s"),
    "core.incremental.plan": (None, "core.incremental.plan_s"),
    "core.incremental.manifest": (None, "core.incremental.manifest_s"),
}

#: Every per-layer metric with its unit, grouped by layer.  A unit
#: ending in ``/unit`` marks a run total divided by the units completed.
LAYER_UNITS = {
    "frontend.compile_s": "s/unit",
    "frontend.ingest_s": "s/unit",
    "lang.parse_s": "s/unit",
    "lang.typecheck_s": "s/unit",
    "lang.prepare_calls": "count/unit",
    "lang.prepare_s": "s/unit",
    "vc.encode_calls": "count/unit",
    "vc.encode_s": "s/unit",
    "vc.fingerprint_calls": "count/unit",
    "vc.fingerprint_s": "s/unit",
    "core.predicates.mine_s": "s/unit",
    "core.predicates.preds_per_proc": "count/proc",
    "core.deadfail.queries": "count/unit",
    "core.deadfail.cache_hits": "count/unit",
    "core.deadfail.hit_ratio": "fraction",
    "core.deadfail.queries_saved": "count/unit",
    "core.deadfail.baseline_s": "s/unit",
    "core.cover.calls": "count/unit",
    "core.cover.s": "s/unit",
    "core.cover.clauses": "count/unit",
    "core.acspec.search_s": "s/unit",
    "smt.checks": "count/unit",
    "smt.check_s": "s/unit",
    "smt.decisions": "count/unit",
    "smt.conflicts": "count/unit",
    "smt.propagations": "count/unit",
    "smt.time_euf_s": "s/unit",
    "smt.time_lia_s": "s/unit",
    "smt.time_interface_s": "s/unit",
    "smt.lemmas_replayed": "count/unit",
    "smt.reduced_clauses": "count/unit",
    "smt.proofcheck.certificates": "count/unit",
    "smt.proofcheck.lemmas_checked": "count/unit",
    "smt.proofcheck.lemmas_trusted": "count/unit",
    "smt.proofcheck.check_s": "s/unit",
    "core.cache.hits": "count/unit",
    "core.cache.misses": "count/unit",
    "core.cache.stores": "count/unit",
    "core.cache.hit_ratio": "fraction",
    "core.cache.load_s": "s/unit",
    "core.cache.store_s": "s/unit",
    "core.incremental.plan_s": "s/unit",
    "core.incremental.analyzed_per_run": "count/unit",
    "core.incremental.queries_per_run": "count/unit",
    "core.incremental.fingerprints_skipped": "count/unit",
    "core.incremental.manifest_s": "s/unit",
    "bench.error_share": "fraction",
    "bench.slowdown": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: ProcedureReport.solver_stats key -> per-layer metric
_SOLVER_KEYS = {
    "decisions": "smt.decisions", "conflicts": "smt.conflicts",
    "propagations": "smt.propagations",
    "theory_lemmas_replayed": "smt.lemmas_replayed",
    "reduced_clauses": "smt.reduced_clauses",
    "time_euf": "smt.time_euf_s", "time_lia": "smt.time_lia_s",
    "time_interface": "smt.time_interface_s",
}
#: ProcedureReport.certificates key -> per-layer metric
_CERT_KEYS = {
    "sat_checked": "smt.proofcheck.certificates",
    "unsat_checked": "smt.proofcheck.certificates",
    "lemmas_checked": "smt.proofcheck.lemmas_checked",
    "lemmas_trusted": "smt.proofcheck.lemmas_trusted",
    "check_wall": "smt.proofcheck.check_s",
}


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (NumPy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timing_metrics(rounds: list, tail_pct: float) -> dict:
    """``throughput_per_s``, ``latency_p50_ms`` and ``latency_tail_ms``
    from ``rounds[r][u]``, the reference seconds unit ``u`` took in round
    ``r`` (:class:`e2ebench.common.ReferenceClock`).

    Every round runs the same units from the same state, so a unit's time
    is its median over the rounds, which a burst of interference in one
    round does not reach.  Throughput is units per second of those times
    summed.  The tail percentile must leave at least 10 units beyond it."""
    typical = [statistics.median(times) for times in zip(*rounds)]
    if len(typical) * (100.0 - tail_pct) / 100.0 < 10:
        raise ValueError(f"p{tail_pct} of {len(typical)} units leaves fewer "
                         f"than 10 beyond it")
    ms = [x * 1000.0 for x in typical]
    return {"throughput_per_s": len(typical) / sum(typical),
            "latency_p50_ms": percentile(ms, 50),
            "latency_tail_ms": percentile(ms, tail_pct)}


class LayerCounters:
    """Per-layer totals accumulated over a run, reduced per unit by
    :meth:`metrics`."""

    def __init__(self):
        self.totals = {name: 0.0 for name in LAYER_UNITS}
        self.analyses = 0

    def add(self, name: str, value: float) -> None:
        self.totals[name] += value

    def add_report(self, report) -> None:
        """Counters of one ``ProcedureReport`` (an ``analyze`` run)."""
        self.analyses += 1
        t = self.totals
        t["core.deadfail.queries"] += report.queries
        t["core.deadfail.cache_hits"] += report.cache_hits
        t["core.deadfail.queries_saved"] += report.queries_saved
        t["core.predicates.preds_per_proc"] += report.n_preds
        t["core.cover.clauses"] += report.n_cover_clauses
        for key, name in _SOLVER_KEYS.items():
            t[name] += report.solver_stats.get(key, 0)
        for key, name in _CERT_KEYS.items():
            t[name] += report.certificates.get(key, 0)

    def add_cache_stats(self, stats: dict | None) -> None:
        for key in ("hits", "misses", "stores"):
            self.totals[f"core.cache.{key}"] += (stats or {}).get(key, 0)

    def add_spans(self, tracer) -> None:
        calls, self_s = tracer.totals()
        for span, (calls_name, seconds_name) in SPAN_METRICS.items():
            if calls_name is not None:
                self.totals[calls_name] += calls.get(span, 0)
            self.totals[seconds_name] += self_s.get(span, 0.0)

    def metrics(self, units: int) -> dict:
        """Every per-layer metric; counts and seconds per unit, ratios
        from their totals, and the remaining values as accumulated."""
        t = self.totals
        out = {name: t[name] / units if unit.endswith("/unit") else t[name]
               for name, unit in LAYER_UNITS.items()}
        out["core.predicates.preds_per_proc"] = (
            t["core.predicates.preds_per_proc"] / self.analyses
            if self.analyses else 0.0)
        out["core.deadfail.hit_ratio"] = _ratio(
            t["core.deadfail.cache_hits"],
            t["core.deadfail.cache_hits"] + t["core.deadfail.queries"])
        out["core.cache.hit_ratio"] = _ratio(
            t["core.cache.hits"], t["core.cache.hits"] + t["core.cache.misses"])
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
