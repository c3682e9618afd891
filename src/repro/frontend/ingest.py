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
* typechecking runs on the merged program (on the fast path below,
  over the loaded files' procedures only), so cross-file calls resolve
  exactly as they would in a concatenated single file.

Each source is read once: the bytes that are hashed for the manifest
are the bytes that are parsed.  With a parse cache (an
:class:`~repro.core.cache.AnalysisCache` rooted at ``<cache-dir>/parse``,
see ``docs/caching.md``), a file whose digest, frontend and lowering
inputs match a stored record is decoded from it instead of parsed or
lowered again.

With a declaration cache as well (rooted at ``<cache-dir>/decls``) and
the previous CI manifest, ingest takes the *fast path*: only the files
whose digest differs from the manifest's are parsed or decoded and
typechecked, and every other file contributes the body-less stubs of
its declaration record (:func:`declarations`).  Call elaboration
(§2.1) inlines only a callee's spec, so the stubs are all a changed
procedure's analysis reads.  Any change another file could see (a
global or function added, removed or retyped; a procedure that a stub
calls gone or respecified; a name collision; a record missing or
malformed; a changed file that does not parse or typecheck) makes the
fast path give way to the full ingest, which reports every error
exactly as before.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path, PurePath

from ..lang import parse_program, typecheck
from ..lang.ast import Program, stmt_callees
from ..lang.transform import spec_stub
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
    #: parse records this ingest decoded
    files_decoded: int = 0
    #: on the fast path, the files whose procedures ``program`` holds in
    #: full (the others' are stubs); ``None`` when it holds every file's
    loaded: frozenset | None = None
    #: stub standing for a procedure with a body -> its sorted direct
    #: callees, as its declaration record stored them
    stub_callees: dict = field(default_factory=dict)

    @property
    def files(self) -> list[str]:
        return sorted(self.file_digests)

    def has_body(self, name: str) -> bool:
        """Whether procedure ``name`` has a body in its source (a stub
        in ``program`` may stand for one)."""
        return name in self.stub_callees \
            or self.program.procedures[name].body is not None

    def call_graph(self) -> dict:
        """``caller -> sorted direct callees`` over every procedure
        with a body, stubs included."""
        graph = dict(self.stub_callees)
        for name, proc in self.program.procedures.items():
            if proc.body is not None:
                graph[name] = tuple(sorted(stmt_callees(proc.body)))
        return graph


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


def declarations(program: Program) -> tuple[Program, dict]:
    """What the rest of a repository needs from one file's ``program``:
    its globals and functions, a :func:`~repro.lang.transform.spec_stub`
    per procedure (file order kept), and ``procedure -> sorted direct
    callees`` for each procedure with a body.  The declaration record
    stores this pair."""
    stubs = {name: spec_stub(proc)
             for name, proc in program.procedures.items()}
    callees = {name: tuple(sorted(stmt_callees(proc.body)))
               for name, proc in program.procedures.items()
               if proc.body is not None}
    return (Program(globals=dict(program.globals),
                    functions=dict(program.functions), procedures=stubs),
            callees)


@dataclass
class _Source:
    rel: str
    suffix: str
    data: bytes
    digest: str


class _Loader:
    """Parses or decodes the sources of one ingest, each at most once,
    and counts the work; records are written as a side effect."""

    def __init__(self, cache, decls, unroll_depth: int,
                 bug_classes: frozenset[str] | None):
        self.cache = cache
        self.decls = decls
        self.unroll_depth = unroll_depth
        self.bug_classes = bug_classes
        self.parsed = 0
        self.decoded = 0
        self.programs: dict = {}
        #: declaration-record keys found malformed, to overwrite
        self.stale: set = set()

    def key(self, digest: str, suffix: str) -> str | None:
        """The record key of a source; parse and declaration records
        share it."""
        store = self.cache if self.cache is not None else self.decls
        if store is None:
            return None
        return store.parse_key(digest, suffix, **_lowering_inputs(
            suffix, self.unroll_depth, self.bug_classes))

    def program(self, src: _Source) -> Program:
        """``src``'s frontend output, decoded from its parse record or
        parsed; :class:`IngestError` when it does not parse."""
        program = self.programs.get(src.rel)
        if program is not None:
            return program
        key = self.key(src.digest, src.suffix)
        if self.cache is not None:
            program = self.cache.load_program(key)
        if program is not None:
            self.decoded += 1
        else:
            try:
                program = _parse_one(src.suffix, src.data,
                                     self.unroll_depth, self.bug_classes)
            except (SyntaxError, TypeError, ValueError) as exc:
                raise IngestError(f"{src.rel}: {exc}") from exc
            self.parsed += 1
            if self.cache is not None:
                self.cache.store_program(key, program)
        if self.decls is not None and (key in self.stale
                                       or not self.decls.has_record(key)):
            self.decls.store_decls(key, *declarations(program))
        self.programs[src.rel] = program
        return program


def _ingest_changed(root: Path, sources: list, loader: _Loader,
                    previous: dict) -> IngestedRepo | None:
    """The fast path (module docstring): ``None`` whenever it has to
    give way to the full ingest."""
    decls = loader.decls
    prev_files = previous.get("files")
    prev_spec = previous.get("spec_fps")
    prev_procs = previous.get("procedures")
    if not all(isinstance(d, dict)
               for d in (prev_files, prev_spec, prev_procs)):
        return None
    parts: list[tuple[str, Program]] = []
    loaded: set = set()
    stub_callees: dict = {}
    for src in sources:
        if prev_files.get(src.rel) != src.digest:
            try:
                parts.append((src.rel, loader.program(src)))
            except IngestError:
                return None
            loaded.add(src.rel)
            continue
        key = loader.key(src.digest, src.suffix)
        record = decls.load_decls(key)
        if record is None:
            loader.stale.add(key)
            return None
        stubs, callees = record
        # the plan carries these procedures' fingerprints over from the
        # manifest, so it must hold them
        if any(name not in prev_spec or (
                name in callees
                and not prev_procs.get(name, {}).get("surface_fp"))
               for name in stubs.procedures):
            return None
        parts.append((src.rel, stubs))
        stub_callees.update(callees)

    # The previous versions of the loaded and the removed files.
    current = {src.rel for src in sources}
    before = []
    for rel, digest in prev_files.items():
        if rel in loaded or rel not in current:
            record = decls.load_decls(
                loader.key(digest, PurePath(rel).suffix))
            if record is None:
                return None
            before.append((rel, record[0]))
    try:
        program, proc_files = merge_programs(parts)
        previous_program, _ = merge_programs(
            [part for part in parts if part[0] not in loaded] + before)
    except IngestError:
        return None
    if (previous_program.globals, previous_program.functions) != \
            (program.globals, program.functions):
        return None
    respecified = {name for _, old in before
                   for name, stub in old.procedures.items()
                   if name not in program.procedures
                   or spec_stub(program.procedures[name]) != stub}
    if respecified and any(not respecified.isdisjoint(callees)
                           for callees in stub_callees.values()):
        return None
    try:
        typecheck(program, [name for name, rel in proc_files.items()
                            if rel in loaded])
    except (TypeError, ValueError):
        return None
    return IngestedRepo(root=root, program=program,
                        file_digests={s.rel: s.digest for s in sources},
                        proc_files=proc_files, files_parsed=loader.parsed,
                        files_decoded=loader.decoded,
                        loaded=frozenset(loaded), stub_callees=stub_callees)


def ingest_paths(root: str | Path, paths: list[Path],
                 unroll_depth: int = 2,
                 bug_classes: frozenset[str] | None = None,
                 cache=None, decls=None,
                 previous: dict | None = None) -> IngestedRepo:
    """Parse and merge an explicit file list (repo-relative provenance
    is computed against ``root``).  ``bug_classes`` selects the
    automatic assertion families the ``.c`` lowering inserts (see
    `repro.scenarios.classes`; ``.bpl`` files are unaffected).
    ``cache`` is the parse cache, an ``AnalysisCache`` rooted at
    ``<cache-dir>/parse``, or ``None`` to parse every file.  ``decls``
    is the declaration cache rooted at ``<cache-dir>/decls``; it gets a
    record for every file parsed or decoded that has none.  With
    ``decls`` and ``previous``, the last CI manifest written under the
    same configuration (``docs/ci_mode.md``; its ``files``, ``spec_fps``
    and surface fingerprints are read), ingest tries the fast path
    first (module docstring)."""
    root = Path(root)
    sources = []
    for path in paths:
        rel = str(path.relative_to(root)) if path.is_relative_to(root) \
            else str(path)
        data = path.read_bytes()
        sources.append(_Source(rel, path.suffix, data,
                               hashlib.sha256(data).hexdigest()))
    loader = _Loader(cache, decls, unroll_depth, bug_classes)
    if decls is not None and previous is not None:
        repo = _ingest_changed(root, sources, loader, previous)
        if repo is not None:
            return repo
    parts = [(src.rel, loader.program(src)) for src in sources]
    program, proc_files = merge_programs(parts)
    try:
        program = typecheck(program)
    except (TypeError, ValueError) as exc:
        raise IngestError(f"merged program does not typecheck: {exc}") \
            from exc
    return IngestedRepo(root=root, program=program,
                        file_digests={s.rel: s.digest for s in sources},
                        proc_files=proc_files, files_parsed=loader.parsed,
                        files_decoded=loader.decoded)


def ingest_directory(root: str | Path,
                     unroll_depth: int = 2,
                     bug_classes: frozenset[str] | None = None,
                     cache=None, decls=None,
                     previous: dict | None = None) -> IngestedRepo:
    """Discover, parse, merge and typecheck every source under
    ``root`` (``cache``, ``decls`` and ``previous`` as in
    :func:`ingest_paths`)."""
    root = Path(root)
    paths = discover_sources(root)
    if not paths:
        raise IngestError(f"no .bpl or .c sources under {root}")
    return ingest_paths(root, paths, unroll_depth=unroll_depth,
                        bug_classes=bug_classes, cache=cache, decls=decls,
                        previous=previous)
