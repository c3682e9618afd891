"""The parse cache in multi-file ingest (`repro.frontend.ingest`) and in
`repro ci`: each source is read once, a warm ingest parses only files
whose bytes it has not seen, ``.c`` records key on the lowering inputs,
corrupt records degrade to re-parses, and a warm ingest equals a cold
one under semantics-preserving edits, deletes and moves.  With
declaration records and the previous manifest, a warm ``run_ci`` loads
only the changed files, and it equals a run without those records under
the same edits and under declaration edits that force the full ingest.

Runs on the committed fixture repository (``tests/fixtures/ci_repo``),
like ``tests/core/test_incremental.py``."""

from __future__ import annotations

import builtins
import hashlib
import io
import json
import re
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import run as cli_run
from repro.core.cache import AnalysisCache
from repro.core.incremental import load_manifest, render_delta, run_ci
from repro.frontend.ingest import IngestError, discover_sources, \
    ingest_directory
from repro.lang import parse_program
from repro.scenarios.classes import ALL_CLASSES, DEFAULT_CLASSES

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "ci_repo"

#: One loop (so ``unroll_depth`` shapes the lowering), one dereference
#: and one division (so the bug classes do).
C_SOURCE = """
void f(int *p, int n, int d) {
  int i;
  i = 0;
  while (i < n) { *p = i / d; i = i + 1; }
}
"""


def make_repo(tmp_path: Path) -> Path:
    repo = tmp_path / "repo"
    shutil.copytree(FIXTURE, repo)
    return repo


def assert_same_ingest(warm, cold) -> None:
    assert repr(warm.program) == repr(cold.program)
    assert warm.proc_files == cold.proc_files
    assert warm.file_digests == cold.file_digests


def test_each_source_is_read_once(tmp_path, monkeypatch):
    """The bytes hashed for the manifest are the bytes parsed: an edit
    landing between two reads would otherwise store one version's AST
    under the other version's digest."""
    repo = make_repo(tmp_path)
    sources = {p.resolve() for p in discover_sources(repo)}
    opened: Counter = Counter()
    path_open, builtin_open = Path.open, builtins.open

    def count(target) -> None:
        if isinstance(target, (str, Path)) and Path(target).resolve() \
                in sources:
            opened[Path(target).resolve()] += 1

    def counting_path_open(self, *args, **kwargs):
        count(self)
        return path_open(self, *args, **kwargs)

    def counting_open(file, *args, **kwargs):
        count(file)
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_path_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    for cache in (None, AnalysisCache(tmp_path / "parse"),
                  AnalysisCache(tmp_path / "parse")):
        opened.clear()
        ingest_directory(repo, cache=cache)
        assert opened == {p: 1 for p in sources}


def test_warm_ingest_parses_only_changed_files(tmp_path):
    repo = make_repo(tmp_path)
    cache = AnalysisCache(tmp_path / "parse")
    cold = ingest_directory(repo, cache=cache)
    assert cold.files_parsed == 4 and cache.stores == 4
    warm = ingest_directory(repo, cache=AnalysisCache(tmp_path / "parse"))
    assert warm.files_parsed == 0
    assert_same_ingest(warm, cold)
    text = (repo / "alloc.bpl").read_text()
    (repo / "alloc.bpl").write_text(text.replace(
        "  Freed[p] := 1;\n", "  Freed[p] := 1;\n  R2: assert p == p;\n"))
    edited = ingest_directory(repo, cache=AnalysisCache(tmp_path / "parse"))
    assert edited.files_parsed == 1
    assert_same_ingest(edited, ingest_directory(repo))
    assert ingest_directory(repo).files_parsed == 4  # no cache


def test_c_records_key_on_lowering_inputs(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "f.c").write_text(C_SOURCE)
    cache = AnalysisCache(tmp_path / "parse")
    variants = [{}, {"bug_classes": ALL_CLASSES}, {"unroll_depth": 3},
                {"unroll_depth": 3, "bug_classes": ALL_CLASSES}]
    lowerings = set()
    for inputs in variants:
        warm = ingest_directory(repo, cache=cache, **inputs)
        cold = ingest_directory(repo, **inputs)
        assert warm.files_parsed == 1, inputs
        assert_same_ingest(warm, cold)
        lowerings.add(repr(cold.program))
    assert len(lowerings) == len(variants)
    for inputs in variants:
        assert ingest_directory(repo, cache=cache,
                                **inputs).files_parsed == 0
    # the default classes spelled out are the default
    assert ingest_directory(repo, cache=cache,
                            bug_classes=DEFAULT_CLASSES).files_parsed == 0


def _truncate(text: str) -> str:
    return text[:len(text) // 2]


def _wrong_kind(text: str) -> str:
    rec = json.loads(text)
    rec["kind"] = "analysis"
    return json.dumps(rec)


def _unknown_node(text: str) -> str:
    assert '"AssertStmt"' in text
    return text.replace('"AssertStmt"', '"Popen"')


@pytest.mark.parametrize("corrupt", [_truncate, _wrong_kind, _unknown_node])
def test_corrupt_record_is_reparsed_and_overwritten(tmp_path, corrupt):
    repo = make_repo(tmp_path)
    root = tmp_path / "parse"
    ingest_directory(repo, cache=AnalysisCache(root))
    record = sorted(root.glob("*.json"))[0]
    good = record.read_text()
    record.write_text(corrupt(good))
    cache = AnalysisCache(root)
    warm = ingest_directory(repo, cache=cache)
    assert warm.files_parsed == 1
    assert (cache.invalidations, cache.hits, cache.stores) == (1, 3, 1)
    assert_same_ingest(warm, ingest_directory(repo))
    assert record.read_text() == good
    again = AnalysisCache(root)
    assert ingest_directory(repo, cache=again).files_parsed == 0
    assert again.invalidations == 0


def test_run_ci_reports_files_parsed_and_cli_no_cache_skips_records(
        tmp_path):
    repo = make_repo(tmp_path)
    cache = str(tmp_path / "cache")
    cold = run_ci(repo, tmp_path / "m.json", cache_dir=cache)
    idle = run_ci(repo, tmp_path / "m.json", cache_dir=cache)
    assert (cold.stats["files_parsed"], idle.stats["files_parsed"]) == (4, 0)
    # parse records live under parse/ and stay out of the analysis
    # counters
    assert len(list((Path(cache) / "parse").glob("*.json"))) == 4
    assert idle.stats["cache"] == {}
    uncached = run_ci(repo, tmp_path / "m2.json")
    assert uncached.stats["files_parsed"] == 4

    argv = ["ci", str(repo), "--manifest", str(tmp_path / "m.json")]
    on, off = tmp_path / "cli-cache", tmp_path / "cli-no-cache"
    assert cli_run(argv + ["--cache-dir", str(on)], out=io.StringIO()) == 0
    assert len(list((on / "parse").glob("*.json"))) == 4
    assert cli_run(argv + ["--cache-dir", str(off), "--no-cache"],
                   out=io.StringIO()) == 0
    assert not (off / "parse").exists()


def test_corrupt_declaration_record_falls_back(tmp_path):
    repo = make_repo(tmp_path)
    cache = tmp_path / "cache"
    run_ci(repo, tmp_path / "m.json", cache_dir=str(cache))
    previous = load_manifest(tmp_path / "m.json")
    record = sorted((cache / "decls").glob("*.json"))[0]
    good = record.read_text()
    record.write_text(_truncate(good))

    def ingest(decls):
        return ingest_directory(repo, cache=AnalysisCache(cache / "parse"),
                                decls=decls, previous=previous)

    decls = AnalysisCache(cache / "decls")
    full = ingest(decls)
    assert full.loaded is None  # the full ingest
    assert (full.files_parsed, full.files_decoded) == (0, 4)
    assert decls.invalidations == 1
    assert_same_ingest(full, ingest_directory(repo))
    assert record.read_text() == good  # overwritten
    again = AnalysisCache(cache / "decls")
    fast = ingest(again)
    assert fast.loaded == frozenset()
    assert (fast.files_parsed, fast.files_decoded) == (0, 0)
    assert again.invalidations == 0 and again.hits == 4


# ----------------------------------------------------------------------
# property: a warm ingest equals a cold one
# ----------------------------------------------------------------------
#
# The edits are the semantics-preserving mutations of fault-localization
# robustness studies (comment insertion, variable rename, dead code),
# plus file deletes and moves, plus declaration edits another file can
# see, which the warm CI run must meet with the full ingest: a global
# added or retyped, a function added or given another arity, a
# cross-file callee's ``requires`` changed, a procedure another file
# calls removed, and a procedure defined twice.  Each op is (kind, k);
# k picks the file, the line or the variable, so an op sequence is
# deterministic on the current tree.

OPS = ("comment", "rename", "dead", "delete", "move",
       "global", "arity", "requires", "uncall", "twice")

#: ``op -> (declaration, its other form)``: the toggles of the global
#: and the function ops (added when the file declares neither form).
_TOGGLES = {"global": ("var Spm: int;", "var Spm: [int]int;"),
            "arity": ("function spm(int): int;",
                      "function spm(int, int): int;")}


def _remove_called(files: list) -> None:
    """Remove the first procedure (rotating files) that another file
    calls."""
    texts = {p: p.read_text() for p in files}
    for path in files:
        for name in re.findall(r"procedure (\w+)\(", texts[path]):
            if any(re.search(rf"call [^;]*\b{name}\(", text)
                   for other, text in texts.items() if other != path):
                path.write_text(re.sub(rf"procedure {name}\(.*?\n}}\n?",
                                       "", texts[path], count=1,
                                       flags=re.S))
                return


def _apply(repo: Path, op: str, k: int) -> None:
    files = discover_sources(repo)
    if not files:
        return
    path = files[k % len(files)]
    text = path.read_text()
    if op in _TOGGLES:
        one, other = _TOGGLES[op]
        if one in text:
            path.write_text(text.replace(one, other))
        elif other in text:
            path.write_text(text.replace(other, one))
        else:
            path.write_text(f"{one}\n{text}")
    elif op == "requires":
        specced = [p for p in files if "requires" in p.read_text()]
        if specced:
            path = specced[k % len(specced)]
            path.write_text(re.sub(r"requires (.*?);",
                                   rf"requires \1 && {k} == {k};",
                                   path.read_text(), count=1))
    elif op == "uncall":
        _remove_called(files[k % len(files):] + files[:k % len(files)])
    elif op == "twice":
        match = re.search(r"procedure \w+\(.*?\n}", text, flags=re.S)
        if match:
            (repo / f"twice{k}.bpl").write_text(match.group(0) + "\n")
    elif op == "comment":
        lines = text.split("\n")
        lines.insert(k % (len(lines) + 1), f"// spm comment {k}")
        path.write_text("\n".join(lines))
    elif op == "rename":
        try:
            names = sorted({v for proc in parse_program(text).procedures
                            .values() for v in proc.var_types})
        except (SyntaxError, TypeError, ValueError):
            return
        if names:
            old = names[k % len(names)]
            path.write_text(re.sub(rf"\b{re.escape(old)}\b", f"v{k}_{old}",
                                   text))
    elif op == "dead" and "}" in text:
        end = text.rindex("}")
        path.write_text(text[:end] + "  if (false) { assume true; }\n"
                        + text[end:])
    elif op == "delete":
        path.unlink()
    else:
        target = repo / f"moved{k}" / path.name
        target.parent.mkdir(exist_ok=True)
        path.rename(target)


@pytest.fixture(scope="module")
def warm_fixture(tmp_path_factory):
    """A cold ``run_ci`` over the fixture: its manifest and its cache
    (analysis and parse records), copied into every example."""
    base = tmp_path_factory.mktemp("warm")
    repo = base / "repo"
    shutil.copytree(FIXTURE, repo)
    run_ci(repo, base / "m.json", cache_dir=str(base / "cache"))
    return base


@settings(max_examples=10, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(OPS),
                              st.integers(min_value=0, max_value=99)),
                    min_size=1, max_size=6))
def test_warm_ingest_equals_cold_under_edits(warm_fixture, ops):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        repo = tmp / "repo"
        shutil.copytree(FIXTURE, repo)
        cache = tmp / "cache"
        shutil.copytree(warm_fixture / "cache", cache)
        for manifest in ("a.json", "b.json"):
            shutil.copyfile(warm_fixture / "m.json", tmp / manifest)
        seen = {hashlib.sha256(p.read_bytes()).hexdigest()
                for p in discover_sources(FIXTURE)}

        for op, k in ops:
            _apply(repo, op, k)
            parse_cache = AnalysisCache(cache / "parse")
            current = {hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in discover_sources(repo)}
            try:
                cold = ingest_directory(repo)
            except IngestError as exc:
                # deletes and declaration edits fail at merge or
                # typecheck, after every file was parsed (and stored)
                with pytest.raises(IngestError) as warm_exc:
                    ingest_directory(repo, cache=parse_cache)
                assert str(warm_exc.value) == str(exc)
                seen |= current
                continue
            warm = ingest_directory(repo, cache=parse_cache)
            assert_same_ingest(warm, cold)
            assert warm.files_parsed == len(current - seen)
            seen |= current

        # The same manifest, delta and plan, or the same IngestError,
        # with the parse and declaration records as without them: run a
        # may take the fast path against the fixture's manifest; run b
        # starts from the same manifest with only the analysis records
        # run a left, so it parses every file and is served a's
        # analyses.  A served procedure's manifest ``wall`` is its own
        # lookup time, so the comparison leaves walls out (a known
        # defect, pinned in tests/core/test_incremental.py).
        a = _ci_or_error(repo, tmp / "a.json", cache)
        b_cache = tmp / "b-cache"
        shutil.copytree(cache, b_cache,
                        ignore=shutil.ignore_patterns("parse", "decls"))
        b = _ci_or_error(repo, tmp / "b.json", b_cache)
        if isinstance(b, IngestError):
            assert isinstance(a, IngestError) and str(a) == str(b)
            return
        assert not isinstance(a, IngestError), str(a)
        assert a.stats["files_parsed"] == 0
        assert b.stats["files_parsed"] == b.stats["files"]
        assert _without_walls(tmp / "a.json") == _without_walls(tmp / "b.json")
        assert render_delta(a.delta) == render_delta(b.delta)
        assert a.plan.classes == b.plan.classes
        assert a.plan.order == b.plan.order


def _without_walls(path: Path) -> dict:
    manifest = json.loads(path.read_text())
    for entry in manifest["procedures"].values():
        assert entry.pop("wall") >= 0.0
    return manifest


def _ci_or_error(repo: Path, manifest: Path, cache: Path):
    try:
        return run_ci(repo, manifest, cache_dir=str(cache))
    except IngestError as exc:
        return exc
