"""The ``ci_edits`` workload: scripted edits to a repository, each followed
by an incremental ``run_ci`` with a warm manifest and cache.

The repository holds one pretty-printed ``.bpl`` file per sweep suite
plus ``lib.bpl``.  Lowered ``.c`` suites cannot be used directly: every
lowering emits its own library stubs, and ingesting two of them fails
with ``IngestError: procedure 'calloc' defined in both ...`` (pinned by
``tests/test_ingest_bug.py``).  So the body-less stubs and the globals are
hoisted into ``lib.bpl``; a stub several suites declare with different
``modifies`` sets gets their union.

A *unit* is one CI run after one edit.  A *round* copies the repository,
manifest and cache as the set-up left them, then applies one seeded,
shuffled cycle of the edit mix in ``workloads.json`` — body edits (one
store constant changed), in-place renames, copies of a procedure under a
new name, and no-op rewrites — running CI after each edit.  Every round
replays the same edits from the same state, so a unit's timings (on the
reference clock) differ only by machine noise;
:func:`e2ebench.metrics.timing_metrics` takes each unit's median.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import re
import shutil
import statistics
import time
from pathlib import Path

from repro.bench.runner import compile_suite
from repro.core.deadfail import clear_baseline_cache
from repro.core.incremental import run_ci
from repro.lang.ast import Program
from repro.lang.pretty import pp_program

from .checks import LabelScore
from .common import (ReferenceClock, measuring_rounds, outcome, python,
                     timed_command)
from .inputs import SWEEP_SUITES, procedure_text, tagged_suite
from .metrics import LayerCounters, peak_rss_mb, timing_metrics
from .tracing import unit_span

#: A constant stored into the heap or a field map: the body-edit target
#: (changing a stored value never changes which assertion can fail).
_STORE_CONST = re.compile(r"(?:Mem|fld\$\w+)\[[^\n]*\] := (\d+);")
_CONFIG = "Conc"


@dataclasses.dataclass
class Repo:
    """The generated repository, mirrored in memory so edits can rewrite
    one file without re-reading it."""
    root: Path
    #: file name -> list of [procedure name, procedure text]
    files: dict
    #: procedure name -> (name, labels, pattern) of the generated
    #: function it descends from through renames and copies
    truth: dict
    #: procedures that exist because of a copy edit
    copies: set = dataclasses.field(default_factory=set)

    def write(self, fname: str) -> None:
        text = "\n".join(t for _, t in self.files[fname])
        (self.root / fname).write_text(text)

    def procs(self) -> list:
        return [(f, i) for f in sorted(self.files)
                for i in range(len(self.files[f]))]


def build_repo(root: Path, scale: float, seed: int) -> Repo:
    globals_: dict = {}
    functions: dict = {}
    stubs: dict = {}
    files: dict = {}
    truth: dict = {}
    for name in SWEEP_SUITES:
        tagged = tagged_suite(name, scale, seed)
        program = compile_suite(tagged.suite)
        globals_.update(program.globals)
        functions.update(program.functions)
        bodies = []
        for pname, proc in program.procedures.items():
            if proc.body is None:
                old = stubs.get(pname)
                if old is not None:
                    proc = dataclasses.replace(old, modifies=tuple(
                        dict.fromkeys(old.modifies + proc.modifies)))
                stubs[pname] = proc
            else:
                bodies.append([pname, procedure_text(proc)])
        for fn in tagged.suite.functions:
            truth[fn.name] = (fn.name, fn.labels, tagged.patterns[fn.name])
        files[f"{name}.bpl"] = bodies
    root.mkdir(parents=True)
    (root / "lib.bpl").write_text(pp_program(Program(
        globals=globals_, functions=functions, procedures=stubs)))
    repo = Repo(root=root, files=files, truth=truth)
    for fname in files:
        repo.write(fname)
    return repo


def _renamed(text: str, old: str, new: str) -> str:
    return text.replace(f"procedure {old}(", f"procedure {new}(", 1)


def apply_edit(repo: Repo, kind: str, rng: random.Random,
               edit_no: int) -> str:
    """Apply one edit of ``kind``; returns the file it touched."""
    if kind == "noop":
        fname = rng.choice(sorted(repo.files))
        repo.write(fname)
        return fname
    if kind == "body":
        fname, idx = rng.choice([
            (f, i) for f, i in repo.procs()
            if _STORE_CONST.search(repo.files[f][i][1])])
        name, text = repo.files[fname][idx]
        match = _STORE_CONST.search(text)
        text = (text[:match.start(1)] + str(1000 + edit_no)
                + text[match.end(1):])
        repo.files[fname][idx] = [name, text]
    else:
        fname, idx = rng.choice(repo.procs())
        name, text = repo.files[fname][idx]
        new = f"{repo.truth[name][0]}_{kind[0]}{edit_no}"
        repo.truth[new] = repo.truth[name]
        entry = [new, _renamed(text, name, new)]
        if kind == "rename":
            del repo.truth[name]
            if name in repo.copies:
                repo.copies.remove(name)
                repo.copies.add(new)
            repo.files[fname][idx] = entry
        else:
            repo.copies.add(new)
            repo.files[fname].insert(idx + 1, entry)
    repo.write(fname)
    return fname


def edit_cycle(mix: dict, rng: random.Random) -> list:
    """One round's edit kinds: the mix, shuffled."""
    cycle = [kind for kind, count in sorted(mix.items())
             for _ in range(count)]
    rng.shuffle(cycle)
    return cycle


def fresh_round(base: Repo, manifest: Path, cache: Path,
                work: Path) -> tuple[Repo, Path, Path]:
    """Copies, under ``work``, of the repository, manifest and cache as
    the set-up left them."""
    shutil.rmtree(work, ignore_errors=True)
    repo = copy.deepcopy(base)
    repo.root = work / "repo"
    shutil.copytree(base.root, repo.root)
    shutil.copytree(cache, work / "cache")
    shutil.copyfile(manifest, work / "manifest.json")
    return repo, work / "manifest.json", work / "cache"


def plan_ok(kind: str, stats: dict) -> bool:
    """The plan each edit kind must produce."""
    if kind == "body":
        return stats["analyzed"] == 1
    if kind in ("rename", "copy"):
        return stats["queries"] == 0
    return stats["analyzed"] == 0


def _without_walls(manifest: dict) -> dict:
    out = dict(manifest)
    out["procedures"] = {name: {k: v for k, v in entry.items()
                                if k != "wall"}
                         for name, entry in manifest["procedures"].items()}
    return out


def cold_ci(repo_root: Path, manifest: Path, cache: Path | None) -> float:
    """One cold ``repro ci`` process (exit 1 = new warnings, expected on
    a cold run); returns its wall seconds."""
    cmd = python("-m", "repro", "ci", str(repo_root),
                 "--manifest", str(manifest), "--config", _CONFIG)
    cmd += ["--cache-dir", str(cache)] if cache else ["--no-cache"]
    return timed_command(cmd, ok_codes=(0, 1))


def run(params: dict, seed: int, seconds: float, tracer, repeats: int,
        tmp: Path) -> dict:
    base = build_repo(tmp / "base", params["scale"], seed)
    # Set-up: cold CI runs that fill a manifest and a cache; the last
    # one's are the warm state every round starts from.
    clock = ReferenceClock()
    for i in range(repeats):
        clock.add(cold_ci(base.root, tmp / f"manifest{i}.json",
                          tmp / f"cache{i}"))
    setups = clock.take()
    warm_manifest = tmp / f"manifest{repeats - 1}.json"
    warm_cache = tmp / f"cache{repeats - 1}"

    checks = {"plan": 0, "rounds": 0, "final_manifest": 0, "labels": 0}
    counters = LayerCounters()
    rounds: list = []
    first_work: list = []
    failed = 0
    if tracer is not None:
        tracer.install()
    try:
        for round_no in measuring_rounds(seconds):
            repo, manifest, cache = fresh_round(base, warm_manifest,
                                                warm_cache, tmp / "round")
            clear_baseline_cache()
            rng = random.Random(seed)
            kinds = edit_cycle(params["edit_mix"], rng)
            for edit_no, kind in enumerate(kinds):
                fname = apply_edit(repo, kind, rng, edit_no)
                t0 = time.perf_counter()
                with unit_span(tracer, round_no * len(kinds) + edit_no):
                    result = run_ci(repo.root, manifest, cache_dir=str(cache),
                                    changed_files=[fname])
                clock.add(time.perf_counter() - t0)
                stats = result.stats
                failed += bool(result.failed_procs)
                checks["plan"] += not plan_ok(kind, stats)
                # Every round must plan, analyse and hit the cache exactly
                # as round 0 did.
                work = {k: v for k, v in stats.items() if k != "wall_seconds"}
                if round_no == 0:
                    first_work.append(work)
                elif work != first_work[edit_no]:
                    checks["rounds"] += 1
                counters.add("core.incremental.analyzed_per_run",
                             stats["analyzed"])
                counters.add("core.incremental.queries_per_run",
                             stats["queries"])
                counters.add("core.incremental.fingerprints_skipped",
                             stats["fingerprints_skipped"])
                counters.add_cache_stats(stats["cache"])
                for report in result.reports.values():
                    if not report.failed:
                        counters.add_report(report)
            rounds.append(clock.take())
    finally:
        if tracer is not None:
            tracer.restore()
    rss = peak_rss_mb()

    # The incremental manifest must equal a cold run over the final tree
    # with no manifest and no cache.
    final = json.loads(manifest.read_text())
    cold_ci(repo.root, tmp / "manifest_cold.json", None)
    cold = json.loads((tmp / "manifest_cold.json").read_text())
    checks["final_manifest"] = int(_without_walls(final)
                                   != _without_walls(cold))
    # Copies are checked but left out of the accuracy, which then scores
    # each generated procedure once.
    score, originals = LabelScore(), LabelScore()
    for name, entry in final["procedures"].items():
        _, labels, pattern = repo.truth[name]
        score.add(_CONFIG, pattern, labels, entry["warnings"])
        if name not in repo.copies:
            originals.add(_CONFIG, pattern, labels, entry["warnings"])
    checks["labels"] = len(score.unexpected)

    n = sum(len(times) for times in rounds)
    e2e = {"setup_s": statistics.median(setups),
           **timing_metrics(rounds, params["tail_pct"]),
           "peak_rss_mb": rss, "label_accuracy": originals.accuracy}
    layers = None
    if tracer is not None:
        counters.add_spans(tracer)
        counters.add("bench.error_share", failed / n)
        counters.add("bench.slowdown", clock.slowdown())
        layers = counters.metrics(n)
    return outcome(attempted=n, failed=failed, checks=checks, e2e=e2e,
                   layers=layers, rounds=len(rounds))
