"""Persistent, content-addressed analysis cache (warm-start sweeps).

Every ``acspec`` invocation used to start cold, re-deriving encodings,
predicate covers, Dead/Fail baselines and reports that are identical run
to run.  This module keys all of that on a *content address*: a SHA-256
digest of the post-elaboration procedure AST (via
:func:`repro.vc.encode.procedure_fingerprint`) combined with the
budget-insensitive analysis fingerprint — the vocabulary-abstraction
knobs, the §4.3 pruning bound, the unroll depth, ``max_preds``, the
Dead() semantics knob, and the record schema version.  Wall-clock and
solver budgets (``timeout``, ``lia_budget``) are deliberately **not**
part of the key: only analyses that ran to completion are stored, and a
completed analysis is a pure function of the fingerprinted inputs.
Neither is the procedure's *name*: a fingerprint-identical procedure
that reappears under a new name (file rename, procedure move) hits the
record it earned under the old one, with the name rewritten on load.

On-disk layout (see ``docs/caching.md`` for the full format):

* one JSON record per key at ``<cache-dir>/<digest>.json``;
* records are written atomically (temp file in the same directory, then
  ``os.replace``), so concurrent ``--jobs`` workers sharing a cache
  directory can only ever observe complete records;
* a record that is unreadable, truncated, of the wrong schema version,
  or otherwise malformed is **treated as a miss** (counted as an
  invalidation) and silently overwritten — a bad cache can cost time,
  never correctness, and never a crash.

Two record kinds exist: ``analysis`` (the full per-procedure
:class:`~repro.core.analysis.ProcedureReport` plus the encoding summary,
predicate cover and baseline Dead/Fail sets) and ``cons`` (the
conservative verifier's warnings).  Loading either kind also pre-seeds
the in-process baseline memo (:func:`repro.core.deadfail.seed_baselines`)
so that even a *partial* hit — same procedure, different configuration —
skips the vocabulary-independent baseline queries.

A third kind, ``parse``, lives in a second instance rooted at
``<cache-dir>/parse``: one source file's frontend output, keyed by the
file's bytes (see :meth:`AnalysisCache.parse_key` and
`repro.frontend.ingest`).  A fourth, ``decls``, lives in a third
instance rooted at ``<cache-dir>/decls`` under the same key: what the
rest of a repository needs from that file (its globals, functions and
body-less procedure stubs, plus each procedure's callees), so a warm CI
run can stand in for an unchanged file without decoding its bodies.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from ..lang.ast import Procedure, Program
from ..lang.codec import LAYOUT_DIGEST, decode, decode_program, encode
from ..vc.encode import procedure_fingerprint
from .config import AbstractionConfig
from .cover import cover_to_json
from .deadfail import seed_baselines

#: Version of the on-disk record format.  Bump it whenever the meaning
#: or shape of a record changes (new ``ProcedureReport`` fields, changed
#: id assignment, changed semantics); old records then hash to different
#: keys and simply stop being found — no migration, no mixed reads.
#: v3: the content address no longer covers the procedure *name* (a
#: renamed/moved procedure keeps its entry) and records carry a
#: top-level ``wall`` so schedulers can read historical cost without
#: reconstructing the report.
#: v4: ``ProcedureReport`` gained ``bug_classes`` (per-warning-class
#: counts derived from label prefixes); v3 records lack the field and
#: must miss cleanly.
#: Parse records are keyed by source bytes, not by what the frontend
#: makes of them, so a change to what the parser or the ``.c`` lowering
#: emits for the same bytes is a bump too.  (A changed AST *layout*
#: needs none: ``LAYOUT_DIGEST`` is in the parse key.)
SCHEMA_VERSION = 4


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    h.update(f"acspec-cache:{SCHEMA_VERSION}".encode())
    for part in parts:
        h.update(b"\x00")
        h.update(part.encode())
    return h.hexdigest()


def analysis_cache_key(program: Program, prepared: Procedure, *,
                       config: AbstractionConfig, prune_k: int | None,
                       unroll_depth: int, max_preds: int,
                       dead_through_failures: bool = True) -> str:
    """The content address of one ``analyze_procedure`` outcome.

    ``prepared`` must be the post-elaboration procedure (it already
    reflects ``havoc_returns`` and ``unroll_depth``; both are still
    mixed in explicitly so the key derivation needs no knowledge of
    which knobs the lowering absorbed).  Module-level so the serving
    layer can coalesce identical in-flight requests on the same
    address without opening a cache.
    """
    return _digest(
        "analysis",
        f"ignore_conditionals={config.ignore_conditionals}",
        f"havoc_returns={config.havoc_returns}",
        f"prune_k={prune_k}",
        f"unroll_depth={unroll_depth}",
        f"max_preds={max_preds}",
        f"dead_through_failures={dead_through_failures}",
        procedure_fingerprint(program, prepared))


def cons_cache_key(program: Program, prepared: Procedure, *,
                   unroll_depth: int) -> str:
    """The content address of one conservative-verifier outcome."""
    return _digest("cons", f"unroll_depth={unroll_depth}",
                   procedure_fingerprint(program, prepared))


class AnalysisCache:
    """A content-addressed store of completed analysis results.

    Construction is cheap and idempotent (the directory is created on
    demand), so ``--jobs`` workers each open their own instance over the
    same directory.  All methods are crash-tolerant: I/O or decode
    errors degrade to cache misses, never exceptions.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidations = 0
        # solver queries *replayed* from disk instead of executed: hit
        # reports carry the original run's counters verbatim, so
        # "queries actually performed" = total queries - queries_served
        self.queries_served = 0

    @classmethod
    def open(cls, cache: "AnalysisCache | str | os.PathLike | None"
             ) -> "AnalysisCache | None":
        """Coerce a ``--cache-dir`` style argument: ``None`` stays
        ``None``, an existing instance passes through, a path opens."""
        if cache is None or isinstance(cache, AnalysisCache):
            return cache
        return cls(cache)

    def stats(self) -> dict:
        """Counters for the observability layer (summed per sweep into
        ``ProgramReport.cache_stats`` and ``CiResult.stats["cache"]``)."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "invalidations": self.invalidations,
                "queries_served": self.queries_served}

    # ------------------------------------------------------------------
    # content addresses
    # ------------------------------------------------------------------

    def analysis_key(self, program: Program, prepared: Procedure, *,
                     config: AbstractionConfig, prune_k: int | None,
                     unroll_depth: int, max_preds: int,
                     dead_through_failures: bool = True) -> str:
        """See :func:`analysis_cache_key` (kept as a method for callers
        that already hold a cache)."""
        return analysis_cache_key(
            program, prepared, config=config, prune_k=prune_k,
            unroll_depth=unroll_depth, max_preds=max_preds,
            dead_through_failures=dead_through_failures)

    def cons_key(self, program: Program, prepared: Procedure, *,
                 unroll_depth: int) -> str:
        """See :func:`cons_cache_key`."""
        return cons_cache_key(program, prepared, unroll_depth=unroll_depth)

    def parse_key(self, source_digest: str, frontend: str,
                  **inputs) -> str:
        """The content address of one source file's frontend output:
        the sha256 of its bytes, the frontend that reads them (its
        suffix, ``.bpl`` or ``.c``), the other ``inputs`` that frontend
        takes (the ``.c`` lowering's ``unroll_depth`` and
        ``bug_classes``) and the AST layout the record is encoded
        against."""
        return _digest("parse", f"frontend={frontend}",
                       *(f"{k}={inputs[k]}" for k in sorted(inputs)),
                       f"ast={LAYOUT_DIGEST}", source_digest)

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def has_record(self, key: str) -> bool:
        """Whether a record file exists under ``key`` (not whether it
        is usable; no counting)."""
        return self._path(key).is_file()

    def _read(self, key: str, kind: str) -> dict | None:
        """Load and structurally validate a record; any failure beyond
        plain absence counts as an invalidation.  Returns the record
        dict or ``None`` (callers count the hit once their own
        reconstruction succeeded)."""
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            rec = json.loads(raw)
            if not isinstance(rec, dict) or rec.get("kind") != kind \
                    or rec.get("schema") != SCHEMA_VERSION:
                raise ValueError("schema/kind mismatch")
            return rec
        except Exception:
            self.invalidations += 1
            return None

    def peek(self, key: str) -> dict | None:
        """The raw on-disk record for ``key``, or ``None`` — **no side
        effects**: no hit/miss counting, no baseline seeding, no report
        reconstruction.  :meth:`wall_of` reads through it, so asking
        for a record's cost does not count as a cache hit or miss."""
        path = self._path(key)
        try:
            rec = json.loads(path.read_bytes())
        except (OSError, ValueError):
            return None
        if not isinstance(rec, dict) or rec.get("schema") != SCHEMA_VERSION \
                or rec.get("kind") not in ("analysis", "cons"):
            return None
        return rec

    def _write(self, key: str, rec: dict) -> None:
        """Atomic write-then-rename, so readers (including concurrent
        ``--jobs`` workers on the same directory) never observe a
        partial record.  Write failures are swallowed: the cache is an
        accelerator, not a dependency."""
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-",
                                       suffix=".json")
        except OSError:
            return
        try:
            # json.dumps, not json.dump: the same bytes, but dump runs
            # the pure-Python encoder, about 10x slower on parse records
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(rec, sort_keys=True))
            os.replace(tmp, self._path(key))
        except (OSError, TypeError, ValueError):
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self.stores += 1

    # ------------------------------------------------------------------
    # analysis records
    # ------------------------------------------------------------------

    def load_analysis(self, key: str, proc_name: str | None = None):
        """The cached :class:`~repro.core.analysis.ProcedureReport` for
        ``key``, or ``None``.  A hit also seeds the in-process baseline
        memo from the record's Dead/Fail baseline sets.

        ``proc_name`` rewrites the loaded report's procedure name: the
        content address is name-independent (a renamed or moved
        procedure hits the record it earned under its old name), so the
        stored name may be stale for this caller."""
        from .analysis import ProcedureReport
        rec = self._read(key, "analysis")
        if rec is None:
            return None
        try:
            report_dict = dict(rec["report"])
            field_names = {f.name for f in
                           ProcedureReport.__dataclass_fields__.values()}
            unknown = set(report_dict) - field_names
            if unknown:
                raise ValueError(f"unknown report fields {unknown}")
            report = ProcedureReport(**report_dict)
            base = rec["baseline"]
            seed_baselines(rec["encoding"]["fingerprint"],
                           bool(base["dead_through_failures"]),
                           live_locs=base["live_locs"],
                           fail_true=base["fail_true"])
        except Exception:
            self.invalidations += 1
            return None
        if proc_name is not None:
            report.proc_name = proc_name
        self.hits += 1
        self.queries_served += report.queries
        return report

    def wall_of(self, key: str) -> float | None:
        """The wall seconds the result under ``key`` originally cost to
        *compute*, or ``None``.  Read from the record's top-level
        ``wall`` field without reconstructing the report — the
        incremental driver's "historically slow first" ordering
        (`repro.core.incremental`) reads this for procedures it is
        about to re-serve.  No hit/miss counting (like :meth:`peek`)."""
        rec = self.peek(key)
        if rec is None:
            return None
        wall = rec.get("wall")
        return float(wall) if isinstance(wall, (int, float)) else None

    def store_analysis(self, key: str, report, res) -> None:
        """Persist a *completed* analysis: the report verbatim plus the
        content-addressing ingredients from the :class:`SibResult`
        (encoding summary, predicate cover, baseline sets).  Timed-out
        reports must not be stored — they depend on the budget, which is
        outside the key."""
        from dataclasses import asdict
        if report.timed_out or report.failed:
            return
        self._write(key, {
            "schema": SCHEMA_VERSION,
            "kind": "analysis",
            "proc": report.proc_name,
            "config": report.config_name,
            # compute cost, surfaced without report reconstruction so
            # re-run schedulers can order "historically slow first"
            "wall": report.seconds,
            "encoding": res.enc_summary,
            "cover": cover_to_json(res.cover),
            "baseline": {
                "dead_through_failures": res.dead_through_failures,
                "live_locs": sorted(res.baseline_live),
                "fail_true": sorted(res.baseline_fail_true),
            },
            "report": asdict(report),
        })

    # ------------------------------------------------------------------
    # conservative-verifier records
    # ------------------------------------------------------------------

    def load_cons(self, key: str) -> list | None:
        """The cached conservative warning labels for ``key``, or
        ``None``; also seeds the baseline memo."""
        rec = self._read(key, "cons")
        if rec is None:
            return None
        try:
            warnings = [str(w) for w in rec["warnings"]]
            base = rec["baseline"]
            seed_baselines(rec["encoding"]["fingerprint"],
                           bool(base["dead_through_failures"]),
                           live_locs=base["live_locs"],
                           fail_true=base["fail_true"])
        except Exception:
            self.invalidations += 1
            return None
        self.hits += 1
        return warnings

    def store_cons(self, key: str, result, wall: float = 0.0) -> None:
        """Persist a completed conservative check (a
        :class:`~repro.core.checker.CheckResult` carrying its encoding
        summary and baseline sets).  ``wall`` is the compute cost in
        seconds, kept for the same scheduling heuristic as analysis
        records."""
        self._write(key, {
            "schema": SCHEMA_VERSION,
            "kind": "cons",
            "proc": result.proc_name,
            "wall": wall,
            "encoding": result.enc_summary,
            "baseline": {
                "dead_through_failures": True,
                "live_locs": sorted(result.live_locs),
                "fail_true": sorted(result.fail_aids),
            },
            "warnings": list(result.warnings),
        })

    # ------------------------------------------------------------------
    # parse records
    # ------------------------------------------------------------------

    def load_program(self, key: str) -> Program | None:
        """The ``Program`` stored under ``key`` (one file's frontend
        output, before merge and typecheck), or ``None``."""
        rec = self._read(key, "parse")
        if rec is None:
            return None
        try:
            program = decode_program(rec["program"])
        except (KeyError, TypeError, ValueError, RecursionError):
            self.invalidations += 1
            return None
        self.hits += 1
        return program

    def store_program(self, key: str, program: Program) -> None:
        """Persist one file's frontend output under ``key``."""
        try:
            body = encode(program)
        except TypeError:
            return  # not representable: stays uncached, like a failed write
        self._write(key, {"schema": SCHEMA_VERSION, "kind": "parse",
                          "program": body})


    # ------------------------------------------------------------------
    # declaration records
    # ------------------------------------------------------------------

    def load_decls(self, key: str) -> tuple[Program, dict] | None:
        """The declaration record under ``key`` (see
        :func:`repro.frontend.ingest.declarations`): a ``Program`` whose
        procedures are all body-less stubs, and ``procedure -> sorted
        callees`` for those that have a body.  ``None`` when absent or
        malformed (the latter counted as an invalidation)."""
        rec = self._read(key, "decls")
        if rec is None:
            return None
        try:
            program = decode_program(rec["program"])
            callees = decode(rec["callees"])
            if not all(type(part) is dict for part in (
                    program.globals, program.functions, program.procedures,
                    callees)):
                raise ValueError("declaration tables are not dicts")
            if any(type(proc) is not Procedure or proc.body is not None
                   for proc in program.procedures.values()):
                raise ValueError("a declaration is not a body-less stub")
            if any(name not in program.procedures or type(names) is not tuple
                   or not all(type(n) is str for n in names)
                   for name, names in callees.items()):
                raise ValueError("malformed callee lists")
        except (KeyError, TypeError, ValueError, RecursionError):
            self.invalidations += 1
            return None
        self.hits += 1
        return program, callees

    def store_decls(self, key: str, stubs: Program, callees: dict) -> None:
        """Persist one file's declarations under ``key``."""
        try:
            rec = {"schema": SCHEMA_VERSION, "kind": "decls",
                   "program": encode(stubs), "callees": encode(callees)}
        except TypeError:
            return
        self._write(key, rec)


def merge_cache_stats(stats_list) -> dict:
    """Element-wise sum of per-worker cache counters; ``{}`` when no
    worker had a cache attached."""
    out: dict = {}
    for stats in stats_list:
        if not stats:
            continue
        for k, v in stats.items():
            out[k] = out.get(k, 0) + v
    return out
