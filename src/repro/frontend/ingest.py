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
  over the procedures parsed in full only), so cross-file calls resolve
  exactly as they would in a concatenated single file.

Each source is read once: the bytes that are hashed for the manifest
are the bytes that are parsed.

Sources are parsed by *declaration unit*: a ``.bpl`` source is cut
before each line that begins with ``var``, ``function`` or
``procedure`` in column 0 (:func:`split_units`), and a ``.c`` source is
one unit.  No AST node carries a source position and the parser never
looks past a declaration's closing ``;`` or ``}``, so the units parsed
alone and merged in order are the whole file's program.  When a unit
does not parse (a cut inside a ``/* */`` comment, a local ``var`` in
column 0) or two declare one name, the whole file is parsed as one
unit, which reports every error as before.  Each unit has an index
entry (:func:`_entry`), and the CI manifest keeps every file's, in
order, as ``decls``.

Against the previous CI manifest of the same configuration, ingest
first takes the *fast path*.  A file whose digest matches is not split:
its units are the index's.  In any other file, a unit whose digest the
index lists for that file keeps its entry; every other unit is parsed,
as is a unit that calls a procedure whose spec fingerprint moved (a
dependent needs its body).  Call elaboration (§2.1) inlines only a
callee's spec, so a callee not parsed is held as its stub, from
parsing its unit alone (for ``.c``, lowering its file).  A global or
function added, removed or retyped, a call to a procedure that no
longer exists, a name collision, a malformed index, or a changed unit
that does not parse or typecheck makes the fast path give way to the
full ingest, which reports every error exactly as before.
"""

from __future__ import annotations

import hashlib
import io
import re
from dataclasses import dataclass, field
from pathlib import Path

from ..lang import parse_program, typecheck
from ..lang.ast import Program, stmt_callees
from ..lang.transform import spec_stub

#: Sources the ingester recognizes, with the frontend each one takes.
BOOGIE_SUFFIXES = (".bpl",)
C_SUFFIXES = (".c",)

#: A line of a ``.bpl`` source that starts a top-level declaration.
_DECL_START = re.compile(r"^(?:var|function|procedure)\b", re.M)

#: An index entry: a unit's digest, then ``;`` and a declaration per
#: name it declares: ``var NAME TYPE``, ``function NAME ARITY``, or
#: ``procedure NAME``, with `` {CALLEE ...}`` (sorted) after a
#: procedure that has a body.
_NAME = r"[^\s;{}]+"
_ENTRY = re.compile(
    rf"[0-9a-f]{{64}}(?:;(?:var {_NAME} (?:int|\[int\]int)"
    rf"|function {_NAME} [0-9]+"
    rf"|procedure {_NAME}(?: \{{(?:{_NAME}(?: {_NAME})*)?\}})?))*")


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
    #: files this ingest split into declaration units: every file, except
    #: on the fast path, which splits only those whose digest changed
    files_parsed: int = 0
    #: declaration units (whole files, where a file did not split) that
    #: this ingest parsed or lowered, stubs included
    decls_parsed: int = 0
    #: on the fast path, the procedures ``program`` holds in full; it
    #: holds any other only as the stub of a callee of one of those.
    #: ``None`` when it holds every procedure in full
    loaded: frozenset | None = None
    #: procedure -> its sorted direct callees, ``None`` without a body,
    #: as the index entries list them
    callees: dict = field(default_factory=dict)
    #: repo-relative source path -> its declaration units' index entries,
    #: in order (the manifest's ``decls``)
    decl_index: dict = field(default_factory=dict)

    def has_body(self, name: str) -> bool:
        """Whether procedure ``name`` has a body in its source (``program``
        may hold a stub of it, or nothing)."""
        return self.callees.get(name) is not None

    def call_graph(self) -> dict:
        """``caller -> sorted direct callees`` over every procedure
        with a body, including those not loaded."""
        return {name: names for name, names in self.callees.items()
                if names is not None}


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


def split_units(text: str) -> list[str]:
    """The declaration units of a ``.bpl`` source: ``text`` cut before
    each line that begins with ``var``, ``function`` or ``procedure`` in
    column 0, the text before the first cut joining the first unit.
    Each unit is stripped of surrounding whitespace, so a blank line
    added between two declarations changes neither."""
    cuts = [m.start() for m in _DECL_START.finditer(text)][1:]
    return [text[a:b].strip()
            for a, b in zip([0, *cuts], [*cuts, len(text)])]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _entry(digest: str, program: Program) -> str:
    """The index entry of a unit with ``digest`` that declares
    ``program``, in the form :data:`_ENTRY` matches."""
    parts = [digest]
    parts += (f"var {name} {ty}" for name, ty in program.globals.items())
    parts += (f"function {name} {arity}"
              for name, arity in program.functions.items())
    for name, proc in program.procedures.items():
        callees = None if proc.body is None \
            else " ".join(sorted(stmt_callees(proc.body)))
        parts.append(f"procedure {name}" if callees is None
                     else f"procedure {name} {{{callees}}}")
    return ";".join(parts)


def _declarations(entry: str) -> list:
    """``(kind, name, value)`` per declaration of an index entry: a
    global's type, a function's arity, or a procedure's sorted callees
    (``None`` without a body)."""
    out = []
    for declaration in entry.split(";")[1:]:
        kind, name, *rest = declaration.split(" ", 2)
        value = rest[0] if rest else None
        out.append((kind, name, int(value) if kind == "function"
                    else value[1:-1].split() if kind == "procedure" and value
                    else value))
    return out


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


@dataclass
class _Source:
    rel: str
    suffix: str
    data: bytes
    digest: str


class _Loader:
    """Parses the sources of one ingest, each declaration unit at most
    once, and counts the work."""

    def __init__(self, unroll_depth: int,
                 bug_classes: frozenset[str] | None):
        self.unroll_depth = unroll_depth
        self.bug_classes = bug_classes
        #: units and whole files handed to a frontend
        self.parsed = 0
        self._programs: dict = {}   # (suffix, unit digest) -> Program
        self._units: dict = {}      # file -> (whole file, units)

    def units(self, src: _Source) -> tuple[tuple, list]:
        """``src`` as one unit and split into its units, each a
        ``(digest, text)`` pair; ``ValueError`` when it is not UTF-8."""
        split = self._units.get(src.rel)
        if split is None:
            # Decoded as ``Path.read_text`` would on a UTF-8 locale
            # (universal newlines), but from the bytes that were hashed,
            # so every unit is a function of the file's digest.
            text = io.TextIOWrapper(io.BytesIO(src.data),
                                    encoding="utf-8").read()
            if src.suffix in C_SUFFIXES:
                whole = (_digest(text), text)
                units = [whole]
            else:
                # the whole text, for the line numbers of its errors
                whole = (_digest(text.strip()), text)
                units = [(_digest(unit), unit) for unit in split_units(text)]
            split = self._units[src.rel] = (whole, units)
        return split

    def parse(self, suffix: str, digest: str, text: str) -> Program:
        """The frontend's program for the unit ``text``; raises what the
        frontend raises."""
        key = (suffix, digest)
        program = self._programs.get(key)
        if program is None:
            self.parsed += 1
            if suffix in C_SUFFIXES:
                from .lower import compile_c
                program = compile_c(text, unroll_depth=self.unroll_depth,
                                    bug_classes=self.bug_classes)
            else:
                program = parse_program(text)
            self._programs[key] = program
        return program

    def declare(self, src: _Source, known: dict) -> list:
        """``src`` unit by unit, as ``[(entry, program), ...]`` in order.
        A unit whose digest ``known`` maps to an index entry keeps it
        unparsed (``program`` is ``None``); every other unit is parsed.
        A unit that does not parse, or two that declare one name, make
        the whole file one unit; :class:`IngestError` when the whole
        file does not parse either."""
        try:
            _, units = self.units(src)
            out = []
            for digest, text in units:
                entry = known.get(digest)
                program = None
                if entry is None:
                    program = self.parse(src.suffix, digest, text)
                    entry = _entry(digest, program)
                out.append((entry, program))
            declared = [(kind, name) for entry, _ in out
                        for kind, name, _ in _declarations(entry)]
            if len(declared) == len(set(declared)):
                return out
        except (SyntaxError, TypeError, ValueError):
            pass
        try:
            digest, text = self.units(src)[0]
            program = self.parse(src.suffix, digest, text)
        except (SyntaxError, TypeError, ValueError) as exc:
            raise IngestError(f"{src.rel}: {exc}") from exc
        return [(_entry(digest, program), program)]

    def reparse(self, src: _Source, entry: list) -> Program | None:
        """The program of the unit of ``src`` that ``entry`` indexes,
        parsed alone, or ``None`` when ``src`` has no such unit or it
        does not declare what ``entry`` says (a manifest that does not
        describe the sources)."""
        try:
            whole, units = self.units(src)
            for digest, text in (*units, whole):
                if digest == entry[:64]:
                    program = self.parse(src.suffix, digest, text)
                    return program if _entry(digest, program) == entry \
                        else None
        except (SyntaxError, TypeError, ValueError):
            pass
        return None


def _ingest_changed(root: Path, sources: list, loader: _Loader,
                    previous: dict) -> IngestedRepo | None:
    """The fast path (module docstring): ``None`` whenever it has to
    give way to the full ingest."""
    from ..core.interproc import spec_fingerprint
    prev_files, prev_spec, prev_procs, index = (previous.get(key) for key in (
        "files", "spec_fps", "procedures", "decls"))
    # a manifest is outside input: past this check, the fast path reads
    # its index without looking again
    if not all(isinstance(d, dict)
               for d in (prev_files, prev_spec, prev_procs, index)) \
            or index.keys() != prev_files.keys() or not all(
                type(units) is list and all(
                    type(entry) is str and _ENTRY.fullmatch(entry)
                    for entry in units) for units in index.values()):
        return None

    # Each file's units: the index's where the digest matches, else the
    # file split, with every unit the index does not list parsed.
    files: dict = {}
    split = 0
    for src in sources:
        old = index.get(src.rel, ())
        if prev_files.get(src.rel) == src.digest:
            files[src.rel] = [(entry, None) for entry in old]
            continue
        split += 1
        try:
            files[src.rel] = loader.declare(
                src, {entry[:64]: entry for entry in old})
        except IngestError:
            return None

    declared: dict = {}  # (var | function, name) -> type or arity
    proc_files: dict = {}
    units: dict = {}     # procedure -> its unit's entry
    callees: dict = {}   # procedure -> its callees, None without a body
    held: dict = {}      # procedure parsed in full -> its Procedure
    for rel, file_units in files.items():
        for entry, program in file_units:
            for kind, name, value in _declarations(entry):
                if kind != "procedure":
                    if declared.setdefault((kind, name), value) != value:
                        return None
                    continue
                if name in proc_files:
                    return None
                proc_files[name] = rel
                units[name] = entry
                callees[name] = value
                if program is not None:
                    held[name] = program.procedures[name]
    if declared != {(kind, name): value for units in index.values()
                    for entry in units
                    if ";var " in entry or ";function " in entry
                    for kind, name, value in _declarations(entry)
                    if kind != "procedure"}:
        return None

    # A procedure that calls one whose spec moved is a dependent: parse
    # its unit.  Its own spec and surface cannot have moved.
    moved = {name for name, proc in held.items()
             if spec_fingerprint(proc) != prev_spec.get(name)}
    by_path = {src.rel: src for src in sources}
    for name, names in callees.items():
        if name in held or not names:
            continue
        if any(callee not in proc_files for callee in names):
            return None
        if not moved.isdisjoint(names):
            program = loader.reparse(by_path[proc_files[name]], units[name])
            if program is None:
                return None
            held.update(program.procedures)
    # the plan carries every other procedure's fingerprints over from
    # the manifest, so it must hold them
    for name in proc_files:
        if name not in held and (name not in prev_spec or (
                callees[name] is not None
                and not (isinstance(prev_procs.get(name), dict)
                         and prev_procs[name].get("surface_fp")))):
            return None

    # The procedures parsed, and the stubs of those they call.
    called = {callee for proc in held.values() if proc.body is not None
              for callee in stmt_callees(proc.body)}
    procedures: dict = {}
    for name, rel in proc_files.items():
        if name in held:
            procedures[name] = held[name]
        elif name in called:
            program = loader.reparse(by_path[rel], units[name])
            if program is None:
                return None
            procedures[name] = spec_stub(program.procedures[name])
    program = Program(
        globals={name: v for (kind, name), v in declared.items()
                 if kind == "var"},
        functions={name: v for (kind, name), v in declared.items()
                   if kind == "function"},
        procedures=procedures)
    try:
        typecheck(program, list(held))
    except (TypeError, ValueError):
        return None
    return IngestedRepo(
        root=root, program=program,
        file_digests={s.rel: s.digest for s in sources},
        proc_files=proc_files, files_parsed=split,
        decls_parsed=loader.parsed, loaded=frozenset(held), callees=callees,
        decl_index={rel: [entry for entry, _ in file_units]
                    for rel, file_units in files.items()})


def ingest_directory(root: str | Path,
                     unroll_depth: int = 2,
                     bug_classes: frozenset[str] | None = None,
                     previous: dict | None = None) -> IngestedRepo:
    """Discover, parse, merge and typecheck every source under ``root``.
    ``bug_classes`` selects the automatic assertion families the ``.c``
    lowering inserts (see `repro.scenarios.classes`; ``.bpl`` files are
    unaffected).  With ``previous``, the last CI manifest written under
    the same configuration (``docs/ci_mode.md``; its ``files``,
    ``decls``, ``spec_fps`` and surface fingerprints are read), ingest
    tries the fast path first (module docstring)."""
    root = Path(root)
    paths = discover_sources(root)
    if not paths:
        raise IngestError(f"no .bpl or .c sources under {root}")
    sources = []
    for path in paths:
        data = path.read_bytes()
        sources.append(_Source(str(path.relative_to(root)), path.suffix,
                               data, hashlib.sha256(data).hexdigest()))
    loader = _Loader(unroll_depth, bug_classes)
    if previous is not None:
        repo = _ingest_changed(root, sources, loader, previous)
        if repo is not None:
            return repo
    files = {src.rel: loader.declare(src, {}) for src in sources}
    # no two units of a file declare one name, so merging them as parts
    # of their file is merging the file
    program, proc_files = merge_programs(
        [(rel, program) for rel, file_units in files.items()
         for _, program in file_units])
    try:
        program = typecheck(program)
    except (TypeError, ValueError) as exc:
        raise IngestError(f"merged program does not typecheck: {exc}") \
            from exc
    decl_index = {rel: [entry for entry, _ in file_units]
                  for rel, file_units in files.items()}
    return IngestedRepo(
        root=root, program=program,
        file_digests={s.rel: s.digest for s in sources},
        proc_files=proc_files, files_parsed=len(sources),
        decls_parsed=loader.parsed,
        callees={name: names for entries in decl_index.values()
                 for entry in entries
                 for kind, name, names in _declarations(entry)
                 if kind == "procedure"},
        decl_index=decl_index)
