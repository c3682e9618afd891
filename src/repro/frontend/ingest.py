"""Multi-file ingest: a directory to one ``Program``.

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
are the bytes that are parsed.

With a declaration cache (an :class:`~repro.core.cache.AnalysisCache`
rooted at ``<cache-dir>/decls``, see ``docs/caching.md``) and the
previous CI manifest, ingest takes the *fast path*: only the files
whose digest differs from the manifest's are parsed and typechecked.
Every other file is read from its declaration record
(:func:`declarations`) for its globals, functions, procedure names and
callee lists, and the body-less stub of one of its procedures is
decoded only when a loaded procedure calls it.  Call elaboration (§2.1)
inlines only a callee's spec, so those stubs are all a changed
procedure's analysis and typecheck read; the planner takes every other
name from ``proc_files`` and ``stub_callees``.  Any change another file
could see (a global or function added, removed or retyped; a procedure
that another file calls gone or respecified; a name collision; a record
missing or malformed; a changed file that does not parse or typecheck)
makes the fast path give way to the full ingest, which reports every
error exactly as before.
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
    #: files parsed or lowered by this ingest: every file, except those
    #: the fast path stood in for with their declaration records
    files_parsed: int = 0
    #: on the fast path, the files whose procedures ``program`` holds in
    #: full; of every other file it holds only the stubs of procedures a
    #: loaded procedure calls.  ``None`` when it holds every procedure
    #: of every file
    loaded: frozenset | None = None
    #: procedure with a body in a file not loaded -> its sorted direct
    #: callees, as its declaration record stored them
    stub_callees: dict = field(default_factory=dict)
    #: stubs decoded from the declaration records of files not loaded
    stubs_decoded: int = 0

    @property
    def files(self) -> list[str]:
        return sorted(self.file_digests)

    def has_body(self, name: str) -> bool:
        """Whether procedure ``name`` has a body in its source (``program``
        may hold a stub of it, or nothing)."""
        if name in self.stub_callees:
            return True
        proc = self.program.procedures.get(name)
        return proc is not None and proc.body is not None

    def call_graph(self) -> dict:
        """``caller -> sorted direct callees`` over every procedure
        with a body, including those of files not loaded."""
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
    part of the declaration record's key."""
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
    """Parses the sources of one ingest, each at most once, and counts
    the work; declaration records are written as a side effect."""

    def __init__(self, decls, unroll_depth: int,
                 bug_classes: frozenset[str] | None):
        self.decls = decls
        self.unroll_depth = unroll_depth
        self.bug_classes = bug_classes
        self.parsed = 0
        self.programs: dict = {}
        #: declaration-record keys found malformed, to overwrite
        self.stale: set = set()

    def key(self, digest: str, suffix: str) -> str:
        """The declaration record key of a source."""
        return self.decls.source_key(digest, suffix, **_lowering_inputs(
            suffix, self.unroll_depth, self.bug_classes))

    def program(self, src: _Source) -> Program:
        """``src``'s frontend output; :class:`IngestError` when it does
        not parse."""
        program = self.programs.get(src.rel)
        if program is not None:
            return program
        try:
            program = _parse_one(src.suffix, src.data, self.unroll_depth,
                                 self.bug_classes)
        except (SyntaxError, TypeError, ValueError) as exc:
            raise IngestError(f"{src.rel}: {exc}") from exc
        self.parsed += 1
        if self.decls is not None:
            key = self.key(src.digest, src.suffix)
            if key in self.stale or not self.decls.has_record(key):
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
    # the loaded files' programs, and the other files' declarations
    # with every stub still encoded
    parts: list[tuple[str, Program]] = []
    loaded: set = set()
    stub_callees: dict = {}
    keys: dict = {}     # file not loaded -> its record key
    for src in sources:
        if prev_files.get(src.rel) != src.digest:
            try:
                parts.append((src.rel, loader.program(src)))
            except IngestError:
                return None
            loaded.add(src.rel)
            continue
        key = keys[src.rel] = loader.key(src.digest, src.suffix)
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
        merged, proc_files = merge_programs(parts)
        previous_program, _ = merge_programs(
            [part for part in parts if part[0] not in loaded] + before)
    except IngestError:
        return None
    if (previous_program.globals, previous_program.functions) != \
            (merged.globals, merged.functions):
        return None
    # Every procedure that a file not loaded calls keeps its spec.  The
    # merge above left each such procedure of ``before`` in a loaded
    # file or nowhere.
    called_by_stubs = {name for names in stub_callees.values()
                       for name in names}
    for _, old in before:
        for name, encoded in old.procedures.items():
            if name in called_by_stubs:
                stub = decls.decode_stub(encoded)
                if stub is None or proc_files.get(name) not in loaded or \
                        spec_stub(merged.procedures[name]) != stub:
                    return None

    # The loaded files' procedures, and the stubs they call.
    held = [name for name, rel in proc_files.items() if rel in loaded]
    called = {callee for name in held
              if merged.procedures[name].body is not None
              for callee in stmt_callees(merged.procedures[name].body)}
    procedures: dict = {}
    decoded = 0
    for name, rel in proc_files.items():
        if rel in loaded:
            procedures[name] = merged.procedures[name]
        elif name in called:
            stub = decls.decode_stub(merged.procedures[name])
            if stub is None:
                loader.stale.add(keys[rel])
                return None
            procedures[name] = stub
            decoded += 1
    program = Program(globals=merged.globals, functions=merged.functions,
                      procedures=procedures)
    try:
        typecheck(program, held)
    except (TypeError, ValueError):
        return None
    return IngestedRepo(root=root, program=program,
                        file_digests={s.rel: s.digest for s in sources},
                        proc_files=proc_files, files_parsed=loader.parsed,
                        loaded=frozenset(loaded), stub_callees=stub_callees,
                        stubs_decoded=decoded)


def ingest_directory(root: str | Path,
                     unroll_depth: int = 2,
                     bug_classes: frozenset[str] | None = None,
                     decls=None,
                     previous: dict | None = None) -> IngestedRepo:
    """Discover, parse, merge and typecheck every source under ``root``.
    ``bug_classes`` selects the automatic assertion families the ``.c``
    lowering inserts (see `repro.scenarios.classes`; ``.bpl`` files are
    unaffected).  ``decls`` is the declaration cache rooted at
    ``<cache-dir>/decls``, or ``None``; it gets a record for every file
    parsed that has none.  With ``decls`` and ``previous``, the last CI
    manifest written under the same configuration (``docs/ci_mode.md``;
    its ``files``, ``spec_fps`` and surface fingerprints are read),
    ingest tries the fast path first (module docstring)."""
    root = Path(root)
    paths = discover_sources(root)
    if not paths:
        raise IngestError(f"no .bpl or .c sources under {root}")
    sources = []
    for path in paths:
        data = path.read_bytes()
        sources.append(_Source(str(path.relative_to(root)), path.suffix,
                               data, hashlib.sha256(data).hexdigest()))
    loader = _Loader(decls, unroll_depth, bug_classes)
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
                        proc_files=proc_files, files_parsed=loader.parsed)
