"""Multi-file ingest: a directory (or file list) to one ``Program``.

The batch CLI analyzes one file; the incremental CI driver
(`repro.core.incremental`) analyzes a *repository* — many ``.bpl``
files (and, via the HAVOC lowering, ``.c`` files) that together form
one program with cross-file calls.  This module does the frontend half
of that: discover the sources, parse each one, merge the pieces into a
single typechecked :class:`~repro.lang.ast.Program`, and remember
which file every procedure came from (the incremental manifest records
it, and the delta report prints it).

Merging rules:

* files are discovered in sorted relative-path order, so ingest is
  deterministic regardless of filesystem enumeration order;
* a global variable or uninterpreted function declared in several
  files must agree exactly (same type / arity) — a mismatch is an
  :class:`IngestError`;
* a *procedure* defined in two files is always an error: procedure
  names are the unit of incremental identity, so a collision would
  make the manifest ambiguous;
* typechecking runs once, on the merged program, so cross-file calls
  resolve exactly as they would in a concatenated single file.

Each source is read once: the bytes that are hashed for the manifest
are the bytes that are parsed.  With a parse cache (an
:class:`~repro.core.cache.AnalysisCache` rooted at ``<cache-dir>/parse``,
see ``docs/caching.md``), a file whose digest, frontend and lowering
inputs match a stored record is decoded from it instead of parsed or
lowered again; merge and typecheck still run on every call.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

from ..lang import parse_program, typecheck
from ..lang.ast import Program
from ..scenarios.classes import DEFAULT_CLASSES

#: Sources the ingester recognizes, with the frontend each one takes.
BOOGIE_SUFFIXES = (".bpl",)
C_SUFFIXES = (".c",)


class IngestError(ValueError):
    """A source repository that cannot form one coherent program."""


@dataclass
class IngestedRepo:
    """One merged program plus its file-level provenance."""

    root: Path
    program: Program
    #: repo-relative source path -> sha256 hex digest of its bytes
    file_digests: dict = field(default_factory=dict)
    #: procedure name -> repo-relative source path it was defined in
    proc_files: dict = field(default_factory=dict)
    #: files parsed or lowered by this ingest (parse-cache misses; every
    #: file when there is no cache)
    files_parsed: int = 0

    @property
    def files(self) -> list[str]:
        return sorted(self.file_digests)


def discover_sources(root: str | Path) -> list[Path]:
    """Every ``.bpl``/``.c`` file under ``root``, sorted by relative
    path.  Hidden directories (and the manifest itself, which is JSON)
    are naturally excluded by the suffix filter."""
    root = Path(root)
    if not root.is_dir():
        raise IngestError(f"not a directory: {root}")
    suffixes = BOOGIE_SUFFIXES + C_SUFFIXES
    return sorted((p for p in root.rglob("*")
                   if p.is_file() and p.suffix in suffixes),
                  key=lambda p: str(p.relative_to(root)))


def _parse_one(suffix: str, data: bytes, unroll_depth: int,
               bug_classes: frozenset[str] | None = None) -> Program:
    # Decoded as ``Path.read_text`` would on a UTF-8 locale (universal
    # newlines), but from the bytes that were hashed, so the AST is a
    # function of the digest alone.
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    if suffix in C_SUFFIXES:
        from .lower import compile_c
        return compile_c(text, unroll_depth=unroll_depth,
                         bug_classes=bug_classes)
    return parse_program(text)


def _lowering_inputs(suffix: str, unroll_depth: int,
                     bug_classes: frozenset[str] | None) -> dict:
    """What the frontend for ``suffix`` reads besides the source text:
    part of the parse-cache key."""
    if suffix not in C_SUFFIXES:
        return {}
    return {"unroll_depth": unroll_depth,
            "bug_classes": sorted(DEFAULT_CLASSES if bug_classes is None
                                  else bug_classes)}


def merge_programs(parts: list[tuple[str, Program]]) -> tuple[Program, dict]:
    """Merge per-file programs into one; returns ``(program,
    proc_files)``.  ``parts`` is ``[(relative path, program), ...]`` in
    deterministic order."""
    globals_: dict = {}
    functions: dict = {}
    procedures: dict = {}
    origin: dict = {}       # decl name -> file, for error messages
    proc_files: dict = {}
    for rel, prog in parts:
        for name, ty in prog.globals.items():
            if name in globals_ and globals_[name] != ty:
                raise IngestError(
                    f"global {name!r} declared as {globals_[name]} in "
                    f"{origin[('g', name)]} but {ty} in {rel}")
            globals_[name] = ty
            origin.setdefault(("g", name), rel)
        for name, arity in prog.functions.items():
            if name in functions and functions[name] != arity:
                raise IngestError(
                    f"function {name!r} has arity {functions[name]} in "
                    f"{origin[('f', name)]} but {arity} in {rel}")
            functions[name] = arity
            origin.setdefault(("f", name), rel)
        for name, proc in prog.procedures.items():
            if name in procedures:
                raise IngestError(
                    f"procedure {name!r} defined in both "
                    f"{proc_files[name]} and {rel}")
            procedures[name] = proc
            proc_files[name] = rel
    return (Program(globals=globals_, functions=functions,
                    procedures=procedures), proc_files)


def ingest_paths(root: str | Path, paths: list[Path],
                 unroll_depth: int = 2,
                 bug_classes: frozenset[str] | None = None,
                 cache=None) -> IngestedRepo:
    """Parse and merge an explicit file list (repo-relative provenance
    is computed against ``root``).  ``bug_classes`` selects the
    automatic assertion families the ``.c`` lowering inserts (see
    `repro.scenarios.classes`; ``.bpl`` files are unaffected).
    ``cache`` is the parse cache, an ``AnalysisCache`` rooted at
    ``<cache-dir>/parse``, or ``None`` to parse every file."""
    root = Path(root)
    parts: list[tuple[str, Program]] = []
    digests: dict = {}
    parsed = 0
    for path in paths:
        rel = str(path.relative_to(root)) if path.is_relative_to(root) \
            else str(path)
        data = path.read_bytes()
        digests[rel] = hashlib.sha256(data).hexdigest()
        program = key = None
        if cache is not None:
            key = cache.parse_key(digests[rel], path.suffix,
                                  **_lowering_inputs(path.suffix,
                                                     unroll_depth,
                                                     bug_classes))
            program = cache.load_program(key)
        if program is None:
            try:
                program = _parse_one(path.suffix, data, unroll_depth,
                                     bug_classes)
            except (SyntaxError, TypeError, ValueError) as exc:
                raise IngestError(f"{rel}: {exc}") from exc
            parsed += 1
            if cache is not None:
                cache.store_program(key, program)
        parts.append((rel, program))
    program, proc_files = merge_programs(parts)
    try:
        program = typecheck(program)
    except (TypeError, ValueError) as exc:
        raise IngestError(f"merged program does not typecheck: {exc}") \
            from exc
    return IngestedRepo(root=root, program=program, file_digests=digests,
                        proc_files=proc_files, files_parsed=parsed)


def ingest_directory(root: str | Path,
                     unroll_depth: int = 2,
                     bug_classes: frozenset[str] | None = None,
                     cache=None) -> IngestedRepo:
    """Discover, parse, merge and typecheck every source under
    ``root`` (``cache`` as in :func:`ingest_paths`)."""
    root = Path(root)
    paths = discover_sources(root)
    if not paths:
        raise IngestError(f"no .bpl or .c sources under {root}")
    return ingest_paths(root, paths, unroll_depth=unroll_depth,
                        bug_classes=bug_classes, cache=cache)
