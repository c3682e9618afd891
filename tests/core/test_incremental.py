"""Incremental CI mode (`repro.core.incremental`): multi-file ingest,
dependency-aware dirty-set planning, manifest round-trips, rename cache
hits, priority scheduling, and the warning delta.

Everything runs on the committed fixture repository
(``tests/fixtures/ci_repo``): Release (spec'd callee, alloc.bpl),
Main (its cross-file caller), Buggy (a genuine SIB) and Clamp (an
isolated leaf)."""

import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.deadfail import clear_baseline_cache
from repro.core.incremental import (load_manifest, plan_increment,
                                    render_delta, run_ci, save_manifest,
                                    warning_delta)
from repro.core.interproc import (call_graph, callers_of, spec_dependents,
                                  spec_fingerprint)
from repro.frontend.ingest import (IngestError, ingest_directory,
                                   merge_programs)
from repro.lang import parse_program, typecheck
from repro.vc.encode import procedure_fingerprint

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "ci_repo"


def make_repo(tmp_path: Path) -> Path:
    repo = tmp_path / "repo"
    shutil.copytree(FIXTURE, repo)
    return repo


def edit(repo: Path, filename: str, old: str, new: str) -> None:
    path = repo / filename
    text = path.read_text()
    assert old in text, f"fixture drifted: {old!r} not in {filename}"
    path.write_text(text.replace(old, new))


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------

class TestIngest:
    def test_cross_file_calls_typecheck(self, tmp_path):
        repo = make_repo(tmp_path)
        ingested = ingest_directory(repo)
        assert set(ingested.program.procedures) == {"Release", "Main",
                                                    "Buggy", "Clamp"}
        assert ingested.proc_files["Release"] == "alloc.bpl"
        assert ingested.proc_files["Main"] == "main.bpl"
        assert set(ingested.file_digests) == {"alloc.bpl", "main.bpl",
                                              "buggy.bpl", "util.bpl"}

    def test_duplicate_procedure_is_an_error(self, tmp_path):
        repo = make_repo(tmp_path)
        (repo / "dup.bpl").write_text(
            "procedure Clamp(x: int, lo: int, hi: int) returns (r: int)\n"
            "{ r := x; }\n")
        with pytest.raises(IngestError, match="defined in both"):
            ingest_directory(repo)

    def test_conflicting_global_is_an_error(self, tmp_path):
        a = typecheck(parse_program("var G: int;\nprocedure P(x: int) {}"))
        b = typecheck(parse_program(
            "var G: [int]int;\nprocedure Q(x: int) {}"))
        with pytest.raises(IngestError, match="global 'G'"):
            merge_programs([("a.bpl", a), ("b.bpl", b)])

    def test_empty_directory_is_an_error(self, tmp_path):
        with pytest.raises(IngestError, match="no .bpl or .c sources"):
            ingest_directory(tmp_path)


# ----------------------------------------------------------------------
# the dependency graph
# ----------------------------------------------------------------------

class TestCallGraph:
    def test_edges_and_reverse_edges(self, tmp_path):
        program = ingest_directory(make_repo(tmp_path)).program
        graph = call_graph(program)
        assert graph["Main"] == ("Release",)
        assert graph["Release"] == ()
        assert callers_of(program)["Release"] == ("Main",)

    def test_spec_dependents_is_one_level(self, tmp_path):
        graph = call_graph(ingest_directory(make_repo(tmp_path)).program)
        assert spec_dependents(graph, {"Release"}) == {"Main"}
        # Main has no callers, so its spec reaches nobody.
        assert spec_dependents(graph, {"Main"}) == set()

    def test_spec_fingerprint_ignores_body_and_name(self):
        src = ("procedure P(x: int) returns (r: int)\n"
               "  requires x > 0;\n  ensures r > 0;\n{ r := x; }")
        base = typecheck(parse_program(src)).proc("P")
        rebodied = typecheck(parse_program(
            src.replace("r := x;", "r := x + 1;"))).proc("P")
        renamed = typecheck(parse_program(src.replace("P", "Q"))).proc("Q")
        respecced = typecheck(parse_program(
            src.replace("x > 0", "x > 1"))).proc("P")
        assert spec_fingerprint(base) == spec_fingerprint(rebodied)
        assert spec_fingerprint(base) == spec_fingerprint(renamed)
        assert spec_fingerprint(base) != spec_fingerprint(respecced)


# ----------------------------------------------------------------------
# planning against a manifest
# ----------------------------------------------------------------------

class TestPlanning:
    def test_cold_plan_marks_everything_changed(self, tmp_path):
        ingested = ingest_directory(make_repo(tmp_path))
        plan = plan_increment(ingested, None)
        assert plan.reason == "cold"
        assert set(plan.order) == set(ingested.program.procedures)
        assert all(c == "changed" for c in plan.classes.values())

    def test_config_mismatch_dirties_everything(self, tmp_path):
        repo = make_repo(tmp_path)
        result = run_ci(repo, tmp_path / "m.json")
        rerun = run_ci(repo, tmp_path / "m.json", prune_k=2)
        assert rerun.plan.reason == "config"
        assert len(rerun.plan.order) == 4

    def test_ordering_changed_first_then_slow_first(self, tmp_path):
        repo = make_repo(tmp_path)
        result = run_ci(repo, tmp_path / "m.json")
        previous = result.manifest
        # Fabricate a diff: Buggy and Clamp changed (Clamp historically
        # slower), and a stale spec fingerprint for Release dirtying its
        # caller Main as dependent (Release's own surface is untouched,
        # so Release itself stays clean in this fabricated manifest).
        previous["procedures"]["Buggy"]["surface_fp"] = "stale"
        previous["procedures"]["Buggy"]["wall"] = 0.5
        previous["procedures"]["Clamp"]["surface_fp"] = "stale"
        previous["procedures"]["Clamp"]["wall"] = 9.0
        previous["spec_fps"]["Release"] = "stale"
        ingested = ingest_directory(repo)
        plan = plan_increment(ingested, previous)
        assert plan.classes == {"Buggy": "changed", "Clamp": "changed",
                                "Main": "dependent", "Release": "clean"}
        # rank 0 (changed) before rank 1 (dependent); historically
        # slow first within the rank.
        assert plan.order == ["Clamp", "Buggy", "Main"]
        assert plan.priorities == {"Clamp": 0, "Buggy": 0, "Main": 1}


# ----------------------------------------------------------------------
# full runs: dirty sets, deltas, manifests
# ----------------------------------------------------------------------

class TestRunCi:
    def test_cold_then_idle_rerun(self, tmp_path):
        repo = make_repo(tmp_path)
        manifest = tmp_path / "m.json"
        cold = run_ci(repo, manifest, cache_dir=str(tmp_path / "cache"))
        assert cold.stats["analyzed"] == 4
        assert "Buggy:A5" in cold.delta["high"]["new"]
        idle = run_ci(repo, manifest, cache_dir=str(tmp_path / "cache"))
        assert idle.plan.order == []
        assert idle.stats["analyzed"] == 0
        assert idle.delta["high"]["new"] == []
        assert "Buggy:A5" in idle.delta["high"]["unchanged"]
        again = run_ci(repo, manifest, cache_dir=str(tmp_path / "cache"))
        assert render_delta(idle.delta) == render_delta(again.delta)

    def test_body_edit_dirties_exactly_that_procedure(self, tmp_path):
        repo = make_repo(tmp_path)
        manifest = tmp_path / "m.json"
        run_ci(repo, manifest)
        edit(repo, "alloc.bpl", "  Freed[p] := 1;\n",
             "  Freed[p] := 1;\n  R2: assert Freed[p] == 0;\n")
        rerun = run_ci(repo, manifest)
        assert rerun.plan.order == ["Release"]
        assert rerun.plan.classes["Main"] == "clean"
        assert "Release:R2" in rerun.delta["high"]["new"]

    def test_callee_spec_edit_dirties_direct_caller(self, tmp_path):
        repo = make_repo(tmp_path)
        manifest = tmp_path / "m.json"
        run_ci(repo, manifest)
        edit(repo, "alloc.bpl", "  requires Freed[p] == 0;",
             "  requires Freed[p] == 0;\n  requires p != 0;")
        rerun = run_ci(repo, manifest)
        assert rerun.plan.classes["Release"] == "changed"
        assert rerun.plan.classes["Main"] == "dependent"
        assert set(rerun.plan.order) == {"Release", "Main"}
        assert rerun.plan.order[0] == "Release"  # rank 0 before rank 1
        assert rerun.plan.classes["Buggy"] == "clean"
        assert rerun.plan.classes["Clamp"] == "clean"

    def test_comment_and_whitespace_edits_dirty_nothing(self, tmp_path):
        repo = make_repo(tmp_path)
        manifest = tmp_path / "m.json"
        run_ci(repo, manifest)
        edit(repo, "util.bpl", "  r := x;", "  r    := x;  // init")
        edit(repo, "main.bpl", "procedure Main",
             "// a fresh comment line\nprocedure Main")
        rerun = run_ci(repo, manifest)
        assert rerun.plan.order == []
        assert rerun.plan.counts()["clean"] == 4

    def test_fixed_warning_shows_in_delta(self, tmp_path):
        repo = make_repo(tmp_path)
        manifest = tmp_path / "m.json"
        run_ci(repo, manifest)
        (repo / "buggy.bpl").unlink()
        rerun = run_ci(repo, manifest)
        assert rerun.plan.removed == ["Buggy"]
        assert "Buggy:A5" in rerun.delta["high"]["fixed"]
        assert rerun.delta["high"]["new"] == []


class TestPoolExecution:
    def test_jobs_parallel_matches_serial(self, tmp_path):
        """jobs>1 routes the dirty set through the serve layer's
        priority WorkerPool; results are identical to the serial path
        modulo wall clocks."""
        repo = make_repo(tmp_path)
        serial = run_ci(repo, tmp_path / "m1.json")
        pooled = run_ci(repo, tmp_path / "m2.json", jobs=2)

        def stable(manifest):
            return {n: {k: v for k, v in e.items() if k != "wall"}
                    for n, e in manifest["procedures"].items()}

        assert stable(serial.manifest) == stable(pooled.manifest)
        assert render_delta(serial.delta) == render_delta(pooled.delta)


class TestRenameCacheHit:
    """Satellite regression: a fingerprint-identical procedure under a
    new name (file rename / procedure move) must hit the cache — the
    content address excludes the name."""

    def test_rename_and_move_costs_zero_solver_work(self, tmp_path):
        repo = make_repo(tmp_path)
        manifest = tmp_path / "m.json"
        cache_dir = str(tmp_path / "cache")
        run_ci(repo, manifest, cache_dir=cache_dir)
        # Move Clamp to a new file AND rename it: same content.
        text = (repo / "util.bpl").read_text()
        (repo / "util.bpl").unlink()
        (repo / "clip.bpl").write_text(text.replace("Clamp", "Clip"))
        clear_baseline_cache()  # as in a new process: served from disk
        rerun = run_ci(repo, manifest, cache_dir=cache_dir)
        assert rerun.plan.classes["Clip"] == "renamed"
        assert rerun.plan.renamed_from == {"Clip": "Clamp"}
        assert rerun.plan.order == ["Clip"]
        assert rerun.stats["cache"]["hits"] == 1
        assert rerun.stats["cache"]["misses"] == 0
        assert rerun.stats["queries"] == 0  # served from disk
        # the loaded report carries the *new* name
        assert rerun.reports["Clip"].proc_name == "Clip"
        assert rerun.manifest["procedures"]["Clip"]["file"] == "clip.bpl"

    def test_renamed_warnings_relabel_in_delta(self, tmp_path):
        repo = make_repo(tmp_path)
        manifest = tmp_path / "m.json"
        cache_dir = str(tmp_path / "cache")
        run_ci(repo, manifest, cache_dir=cache_dir)
        text = (repo / "buggy.bpl").read_text()
        (repo / "buggy.bpl").unlink()
        (repo / "nasty.bpl").write_text(text.replace("Buggy", "Nasty"))
        rerun = run_ci(repo, manifest, cache_dir=cache_dir)
        assert rerun.stats["queries"] == 0
        assert "Nasty:A5" in rerun.delta["high"]["new"]
        assert "Buggy:A5" in rerun.delta["high"]["fixed"]


def _without_walls(manifest: dict) -> dict:
    return {**manifest, "procedures": {
        name: {k: v for k, v in entry.items() if k != "wall"}
        for name, entry in manifest["procedures"].items()}}


class TestFastPath:
    """A warm run with a cache and a same-config manifest loads only
    the files whose digest changed, standing in for the rest with the
    stubs of their declaration records; edits another file can see
    fall back to the full ingest, which decodes every other file."""

    CLAMP = ("procedure Clamp(x: int, lo: int, hi: int) returns (r: int)\n"
             "  ensures r >= lo;\n{\n  r := x;\n  if (r < lo) { r := lo; }\n"
             "  if (r > hi) { r := hi; }\n  U1: assert r >= lo;\n}\n")

    def warm(self, tmp_path):
        repo = make_repo(tmp_path)
        cache_dir = str(tmp_path / "cache")
        run_ci(repo, tmp_path / "m.json", cache_dir=cache_dir)
        return repo, cache_dir

    @pytest.mark.parametrize("kind", ["body", "rename", "copy", "noop"])
    def test_common_edits_decode_nothing(self, tmp_path, kind):
        repo, cache_dir = self.warm(tmp_path)
        shutil.copyfile(tmp_path / "m.json", tmp_path / "m-full.json")
        assert self.CLAMP in (repo / "util.bpl").read_text()
        if kind == "body":
            edit(repo, "alloc.bpl", "  Freed[p] := 1;\n",
                 "  Freed[p] := 1;\n  R2: assert Freed[p] == 0;\n")
        elif kind == "rename":
            edit(repo, "util.bpl", "procedure Clamp(", "procedure Clip(")
        elif kind == "copy":
            edit(repo, "util.bpl", self.CLAMP, self.CLAMP + "\n"
                 + self.CLAMP.replace("Clamp", "Clip"))
        else:
            (repo / "main.bpl").write_bytes((repo / "main.bpl").read_bytes())
        rerun = run_ci(repo, tmp_path / "m.json", cache_dir=cache_dir)
        assert rerun.stats["files_decoded"] == 0
        assert rerun.stats["files_parsed"] == (kind != "noop")
        # only the edited file's procedures were fingerprinted
        assert rerun.stats["fingerprints_skipped"] == {
            "body": 3, "rename": 3, "copy": 3, "noop": 4}[kind]
        expected = {"body": {"Release": "changed"},
                    "rename": {"Clip": "renamed"},
                    "copy": {"Clip": "new"}, "noop": {}}[kind]
        assert {n: c for n, c in rerun.plan.classes.items()
                if c != "clean"} == expected
        assert rerun.plan.classes.get("Main", "clean") == "clean"
        # analyzed against stubs, the same reports as against the full
        # program, with no cache at all
        full = run_ci(repo, tmp_path / "m-full.json")
        assert render_delta(rerun.delta) == render_delta(full.delta)
        assert _without_walls(rerun.manifest) == _without_walls(full.manifest)

    #: name -> (file, declaration before the cold run, edit after it);
    #: an edit of None removes everything from the file's first
    #: procedure on, or defines Clamp a second time
    EDITS = {
        "retype a global": ("alloc.bpl", "var Spm: int;",
                            "var Spm: [int]int;"),
        "change a function's arity": ("util.bpl", "function spm(int): int;",
                                      "function spm(int, int): int;"),
        "change a cross-file callee's requires": (
            "alloc.bpl", "  requires Freed[p] == 0;",
            "  requires Freed[p] == 0 && p != 0;"),
        "remove a procedure another file calls": ("alloc.bpl", "", None),
        "define a name twice": ("util.bpl", "", None),
    }

    @pytest.mark.parametrize("name", sorted(EDITS))
    def test_declaration_edits_fall_back(self, tmp_path, name):
        filename, before, after = self.EDITS[name]
        repo = make_repo(tmp_path)
        path = repo / filename
        if before not in path.read_text():
            path.write_text(f"{before}\n{path.read_text()}")
        cache_dir = str(tmp_path / "cache")
        run_ci(repo, tmp_path / "m.json", cache_dir=cache_dir)
        shutil.copyfile(tmp_path / "m.json", tmp_path / "m-full.json")
        text = path.read_text()
        if after is not None:
            path.write_text(text.replace(before, after))
        elif filename == "alloc.bpl":
            path.write_text(text[:text.index("procedure")])
        else:
            (repo / "twice.bpl").write_text(self.CLAMP)
        try:
            full = run_ci(repo, tmp_path / "m-full.json")
        except IngestError as exc:
            with pytest.raises(IngestError) as warm_exc:
                run_ci(repo, tmp_path / "m.json", cache_dir=cache_dir)
            assert str(warm_exc.value) == str(exc)
            return
        warm = run_ci(repo, tmp_path / "m.json", cache_dir=cache_dir)
        # the full ingest: every unedited file decoded from its record
        assert warm.stats["files_decoded"] == 3
        assert warm.plan.classes == full.plan.classes
        assert warm.plan.order == full.plan.order
        assert render_delta(warm.delta) == render_delta(full.delta)
        assert _without_walls(warm.manifest) == _without_walls(full.manifest)

    def test_spec_edit_called_only_in_its_own_file_stays_fast(
            self, tmp_path):
        repo, cache_dir = self.warm(tmp_path)
        edit(repo, "alloc.bpl", "{\n  R1:",
             "{\n  call Note(p);\n  R1:")
        (repo / "alloc.bpl").write_text(
            (repo / "alloc.bpl").read_text()
            + "\nprocedure Note(q: int)\n{\n  N1: assert q == q;\n}\n")
        run_ci(repo, tmp_path / "m.json", cache_dir=cache_dir)
        edit(repo, "alloc.bpl", "procedure Note(q: int)\n",
             "procedure Note(q: int)\n  requires q >= 0;\n")
        rerun = run_ci(repo, tmp_path / "m.json", cache_dir=cache_dir)
        assert rerun.stats["files_decoded"] == 0
        assert rerun.plan.classes["Note"] == "changed"
        assert rerun.plan.classes["Release"] == "dependent"
        assert rerun.plan.classes["Main"] == "clean"


class TestWallPlumbing:
    """Per-procedure wall timings ride the manifest, feeding the
    historically-slow-first heuristic."""

    def test_manifest_records_walls(self, tmp_path):
        repo = make_repo(tmp_path)
        result = run_ci(repo, tmp_path / "m.json")
        walls = {n: e["wall"]
                 for n, e in result.manifest["procedures"].items()}
        assert set(walls) == {"Release", "Main", "Buggy", "Clamp"}
        assert all(w >= 0.0 for w in walls.values())
        assert walls["Buggy"] > 0.0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known defect: a served procedure's manifest wall is the time "
        "its lookup took, not the wall of the analysis that computed its "
        "answer, so slow-first ordering under-rates it (ROADMAP Known "
        "defects, item 1)"))
    @pytest.mark.parametrize("served_from", ["memo", "record"])
    def test_served_procedure_keeps_its_computed_wall(self, tmp_path,
                                                      served_from):
        if served_from == "memo":
            # a cold run over two content-identical procedures: the
            # second is answered from the memo entry the first left
            from .test_analysis_memo import TWINS
            repo = tmp_path / "repo"
            repo.mkdir()
            (repo / "twins.bpl").write_text(TWINS)
            walls = run_ci(repo, tmp_path / "m.json").manifest["procedures"]
            computed, served = walls["first"], walls["second"]
        else:
            # a rename served from the record its old name left
            repo = make_repo(tmp_path)
            manifest = tmp_path / "m.json"
            cache_dir = str(tmp_path / "cache")
            cold = run_ci(repo, manifest, cache_dir=cache_dir)
            edit(repo, "util.bpl", "Clamp", "Clip")
            clear_baseline_cache()
            rerun = run_ci(repo, manifest, cache_dir=cache_dir)
            computed = cold.manifest["procedures"]["Clamp"]
            served = rerun.manifest["procedures"]["Clip"]
        assert served["wall"] == computed["wall"]


class TestManifestIO:
    def test_round_trip_and_byte_stability(self, tmp_path):
        repo = make_repo(tmp_path)
        path = tmp_path / "m.json"
        result = run_ci(repo, path)
        first = path.read_bytes()
        loaded = load_manifest(path)
        assert loaded == result.manifest
        save_manifest(path, loaded)
        assert path.read_bytes() == first

    def test_single_write_matches_the_streaming_writer(self, tmp_path):
        """``save_manifest`` writes ``json.dumps`` in one call; its bytes
        are those of the ``json.dump`` file-handle writer it replaced,
        kept here as the reference."""
        manifest = run_ci(make_repo(tmp_path), tmp_path / "m.json").manifest
        reference = tmp_path / "reference.json"
        with open(reference, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        assert (tmp_path / "m.json").read_bytes() == reference.read_bytes()

    def test_wrong_schema_or_garbage_reads_as_cold(self, tmp_path):
        path = tmp_path / "m.json"
        assert load_manifest(path) is None  # missing
        path.write_text("{not json")
        assert load_manifest(path) is None
        path.write_text(json.dumps({"schema": 999, "procedures": {}}))
        assert load_manifest(path) is None

    def test_delta_against_no_previous_is_all_new(self, tmp_path):
        repo = make_repo(tmp_path)
        result = run_ci(repo, tmp_path / "m.json")
        delta = warning_delta(None, result.manifest)
        assert delta["high"]["unchanged"] == []
        assert "Buggy:A5" in delta["high"]["new"]


# ----------------------------------------------------------------------
# fingerprint stability (the property behind "comments dirty nothing")
# ----------------------------------------------------------------------

_BASE_SRC = (FIXTURE / "alloc.bpl").read_text()
_BASE_PROGRAM = typecheck(parse_program(_BASE_SRC))
_BASE_FPS = {n: procedure_fingerprint(_BASE_PROGRAM, p)
             for n, p in _BASE_PROGRAM.procedures.items()}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_fingerprints_survive_comment_and_whitespace_noise(data):
    """Random comment lines, trailing comments and indentation noise
    never change any procedure's surface fingerprint — the property
    that makes `plan_increment` classify such edits as clean."""
    lines = _BASE_SRC.splitlines()
    noisy: list[str] = []
    for i, line in enumerate(lines):
        if data.draw(st.booleans(), label=f"comment-before-{i}"):
            noisy.append("// noise %d" % i)
        pad = data.draw(st.integers(min_value=0, max_value=4),
                        label=f"pad-{i}")
        suffix = "  // trail" if data.draw(st.booleans(),
                                           label=f"trail-{i}") else ""
        noisy.append(" " * pad + line + suffix)
    program = typecheck(parse_program("\n".join(noisy)))
    for name, proc in program.procedures.items():
        assert procedure_fingerprint(program, proc) == _BASE_FPS[name]
