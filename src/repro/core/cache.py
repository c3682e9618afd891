"""Persistent, content-addressed analysis cache: the disk tier of the
analysis memo, and the parse and declaration records of CI mode.

A completed unchecked analysis or Cons result lives in the in-process
memo of `repro.core.deadfail` under its memo key
(:func:`repro.core.deadfail.memo_key`): the prepared procedure's
:func:`repro.vc.encode.procedure_fingerprint` (the post-elaboration AST,
which reflects ``havoc_returns`` and ``unroll_depth``), the solver
settings, the Dead() semantics and, for an analysis, ``prune_k`` and
the mined vocabulary Q in order.  This module keeps the same entries on
disk, one record per key, named by a digest of the key
(:meth:`AnalysisCache.entry_key`), so that a later process finds what
an earlier one computed.  Wall-clock and solver budgets (``timeout``,
``lia_budget``) are not part of the key: only results that ran to
completion are recorded, and a completed result is a function of the
key.  Neither is the configuration's name nor the procedure's: a Conc
record serves A1 whenever their Q coincide, and a renamed or moved
procedure finds the record it earned under its old name.  A hit from
disk returns as a memo hit does, under the caller's names with zeroed
counters.

On-disk layout (see ``docs/caching.md`` for the full format):

* one JSON record per key at ``<cache-dir>/<digest>.json``;
* records are written atomically (temp file in the same directory, then
  ``os.replace``), so concurrent ``--jobs`` workers sharing a cache
  directory can only ever observe complete records;
* a record that is unreadable, truncated, of the wrong schema version,
  or otherwise malformed is **treated as a miss** (counted as an
  invalidation) and silently overwritten — a bad cache can cost time,
  never correctness, and never a crash.

Two record kinds hold memo entries: ``analysis`` (a completed
:class:`~repro.core.sib.SibResult`) and ``cons`` (a
:class:`~repro.core.checker.CheckResult`).

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
from dataclasses import asdict, fields
from pathlib import Path

from ..lang.ast import Procedure, Program
from ..lang.codec import LAYOUT_DIGEST, decode, decode_program, encode
# kept for the e2e benchmark's tracer, which wraps this name
from ..vc.encode import procedure_fingerprint  # noqa: F401
from .config import AbstractionConfig

#: Version of the on-disk record format.  Bump it whenever the meaning
#: or shape of a record changes (new fields of a recorded result, changed
#: id assignment, changed semantics); old records then hash to different
#: keys and simply stop being found — no migration, no mixed reads.
#: v3: the content address no longer covers the procedure *name* (a
#: renamed/moved procedure keeps its entry).
#: v4: ``ProcedureReport`` gained ``bug_classes`` (per-warning-class
#: counts derived from label prefixes); v3 records lack the field and
#: must miss cleanly.
#: v5: analysis and Cons records are memo entries named by a digest of
#: the memo key (prepared procedure, solver settings, Dead() semantics,
#: ``prune_k`` and Q), no longer reports keyed by configuration knobs.
#: Parse records are keyed by source bytes, not by what the frontend
#: makes of them, so a change to what the parser or the ``.c`` lowering
#: emits for the same bytes is a bump too.  (A changed AST *layout*
#: needs none: ``LAYOUT_DIGEST`` is in the parse key.)
SCHEMA_VERSION = 5

#: Memo-entry fields that hold AST formulas, recorded through
#: `repro.lang.codec`.
_FORMULA_FIELDS = ("preds", "spec_formulas")

#: The JSON type a recorded field must have, by its annotation.
_JSON_TYPES = {"str": str, "int": int, "list": list, "dict": dict}


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    h.update(f"acspec-cache:{SCHEMA_VERSION}".encode())
    for part in parts:
        h.update(b"\x00")
        h.update(part.encode())
    return h.hexdigest()


def _entry_to_json(entry) -> dict:
    """The JSON form of a memo entry: its dataclass fields, with the
    configuration as a dict and formulas encoded."""
    out = {}
    for f in fields(entry):
        value = getattr(entry, f.name)
        if f.name == "config":
            value = asdict(value)
        elif f.name in _FORMULA_FIELDS:
            value = encode(tuple(value))
        out[f.name] = value
    return out


def _entry_from_json(kind: str, data: dict):
    """Inverse of :func:`_entry_to_json` for a memo entry of ``kind``;
    raises on a field set other than the entry class's, or a field of
    another JSON type than its annotation."""
    from .checker import CheckResult
    from .sib import SibResult
    cls = {"analysis": SibResult, "cons": CheckResult}[kind]
    if set(data) != {f.name for f in fields(cls)}:
        raise ValueError("record fields differ from the entry's")
    for f in fields(cls):
        expected = _JSON_TYPES.get(f.type)
        if expected is not None and type(data[f.name]) is not expected:
            raise ValueError(f"record field {f.name} is not a {f.type}")
    values = dict(data)
    if "config" in values:
        values["config"] = AbstractionConfig(**values["config"])
    for name in _FORMULA_FIELDS:
        if name in values:
            values[name] = list(decode(values[name]))
    return cls(**values)


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
                "stores": self.stores, "invalidations": self.invalidations}

    # ------------------------------------------------------------------
    # content addresses
    # ------------------------------------------------------------------

    def entry_key(self, key: tuple) -> str:
        """The content address of the record that keeps the memo entry
        under ``key`` (:func:`repro.core.deadfail.memo_key`): a digest
        of its ``repr``, which is the same in every process because the
        key holds only strings, numbers, booleans, ``None`` and AST
        formulas."""
        return _digest("memo", repr(key))

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
    # memo entries (analysis and cons records)
    # ------------------------------------------------------------------

    def load_analysis(self, key: tuple):
        """The memo entry recorded under ``key``, or ``None``: a
        completed :class:`~repro.core.sib.SibResult` for the
        ``analysis`` kind, a :class:`~repro.core.checker.CheckResult`
        for ``cons``."""
        rec = self._read(self.entry_key(key), key[0])
        if rec is None:
            return None
        try:
            entry = _entry_from_json(key[0], rec["entry"])
        except (KeyError, TypeError, ValueError, RecursionError):
            self.invalidations += 1
            return None
        self.hits += 1
        return entry

    def store_analysis(self, key: tuple, entry) -> None:
        """Record the memo entry ``entry`` under ``key``.  Callers store
        completed results only: a timed-out one depends on the budget,
        which is outside the key."""
        self._write(self.entry_key(key), {"schema": SCHEMA_VERSION,
                                          "kind": key[0],
                                          "entry": _entry_to_json(entry)})

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
