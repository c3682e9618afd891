"""Repo-scale incremental analysis: the dependency-aware CI mode.

A CI run over a multi-file repository should pay for what the diff can
affect, not for the whole repo.  This module is that driver:

1. **Ingest.**  `repro.frontend.ingest` merges every ``.bpl``/``.c``
   source under a directory into one typechecked program with
   per-procedure file provenance.  With a cache directory, a file whose
   bytes a previous run already parsed is decoded from its parse record
   instead (``stats["files_parsed"]`` counts the files that were not,
   ``stats["files_decoded"]`` the records decoded).  Given the previous
   manifest as well, ingest loads only the files whose digest changed
   and stands in for the others with the body-less stubs of their
   declaration records; the plan then carries those files'
   fingerprints over from the manifest.

2. **Fingerprint.**  Every procedure with a body gets a *surface
   fingerprint* (:func:`repro.vc.encode.procedure_fingerprint` on the
   pre-elaboration AST — name-independent, interface-inclusive) and
   every procedure gets a *spec fingerprint*
   (:func:`repro.core.interproc.spec_fingerprint` — exactly the slice
   call elaboration inlines into callers).

3. **Plan.**  Against the previous run's *manifest* (a JSON file this
   module reads and writes), each procedure is classified:

   * ``changed`` — its own surface fingerprint differs;
   * ``renamed`` — a new name whose surface fingerprint matches a
     procedure that disappeared (file rename / procedure move; it is
     re-served, but the name-independent memo or persistent cache
     answers it with zero solver work);
   * ``new`` — a new name with a never-seen fingerprint;
   * ``dependent`` — its own surface is untouched but a direct
     callee's *spec* fingerprint changed.  One level only, by
     construction: elaboration rewrites a call into assert-pre / bind /
     assume-post from the callee's spec, so a callee's spec reaches
     exactly its direct callers (see `repro.core.interproc`);
   * ``clean`` — everything else.  Clean procedures are not analyzed,
     not even as cache hits: their manifest entries are carried over
     verbatim.

   A missing manifest, a manifest of the wrong schema, or a changed
   analysis configuration makes the whole repo dirty (``reason`` is
   ``"cold"`` / ``"config"`` instead of ``"diff"``).

4. **Schedule.**  The dirty set is ordered changed-first (rank 0:
   changed/renamed/new; rank 1: dependent), historically-slow-first
   within each rank using the wall seconds the manifest recorded for
   the previous run (ties break by name, so plans are deterministic).
   With ``jobs > 1`` the tasks go through the serve layer's
   :class:`~repro.serve.pool.WorkerPool`, whose priority queue honors
   the same ranks; ``jobs=1`` runs them serially in plan order.

5. **Report.**  The new manifest is written back (sorted keys, so it
   is byte-stable), and the run carries a *warning delta* against the
   previous manifest — new / fixed / unchanged warnings per confidence
   class (``high`` = ACSpec warnings, ``cons`` = the conservative
   verifier's) — rendered canonically by :func:`render_delta` so CI
   can diff it against a golden file.

``docs/ci_mode.md`` documents the manifest format, the dirty-set rules
and the delta-report glossary; ``tools/ci_smoke.py`` is the end-to-end
CI exercise (cold sweep, scripted one-procedure edit, re-run, golden
delta compare).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..frontend.ingest import IngestedRepo, ingest_directory
from ..scenarios.classes import DEFAULT_CLASSES, bug_class_of
from ..vc.encode import procedure_fingerprint
from .analysis import _reraise_certificate, failure_report
from .cache import AnalysisCache, merge_cache_stats
from .config import AbstractionConfig, CONC
from .interproc import spec_dependents, spec_fingerprint
from .tasks import AnalysisTask, run_task

#: Version of the manifest format.  A manifest of any other version is
#: ignored (the run degrades to a cold sweep) — no migration, no mixed
#: reads, exactly like the persistent cache's schema field.
MANIFEST_SCHEMA = 1

#: Scheduling rank per dirty class: lower runs first.  Changed (and
#: renamed/new) procedures are the ones the diff touched directly — the
#: signal a CI user is waiting on — so they beat dependency-dirtied
#: re-checks.
CLASS_RANK = {"changed": 0, "renamed": 0, "new": 0, "dependent": 1}

#: Confidence classes the warning delta is reported per.
WARNING_CLASSES = ("high", "cons")
_CLASS_FIELD = {"high": "warnings", "cons": "conservative_warnings"}


def config_fingerprint(config: AbstractionConfig, *, prune_k: int | None,
                       unroll_depth: int, max_preds: int,
                       bug_classes: frozenset[str] | None = None) -> dict:
    """The budget-insensitive analysis knobs a manifest is valid under:
    the configuration (its name and both abstraction knobs),
    ``prune_k``, ``unroll_depth``, ``max_preds`` and ``bug_classes``.
    A manifest's entries are the reports of one configuration, so one
    produced under different knobs says nothing about this run, and a
    mismatch dirties everything.  ``bug_classes`` is part of it because
    it changes what the ``.c`` lowering *asserts*."""
    return {"config_name": config.name,
            "ignore_conditionals": config.ignore_conditionals,
            "havoc_returns": config.havoc_returns,
            "prune_k": prune_k,
            "unroll_depth": unroll_depth,
            "max_preds": max_preds,
            "bug_classes": sorted(DEFAULT_CLASSES if bug_classes is None
                                  else bug_classes)}


# ----------------------------------------------------------------------
# manifest I/O
# ----------------------------------------------------------------------

def load_manifest(path: str | os.PathLike) -> dict | None:
    """The previous run's manifest, or ``None`` when it is missing,
    unreadable, or of the wrong schema — all of which simply mean a
    cold sweep, never an error."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("schema") != MANIFEST_SCHEMA:
        return None
    if not isinstance(data.get("procedures"), dict):
        return None
    return data


def save_manifest(path: str | os.PathLike, manifest: dict) -> None:
    """Atomic write-then-rename with sorted keys: re-saving an
    identical run produces identical bytes, and a crashed run can never
    leave a truncated manifest behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-manifest-",
                               suffix=".json")
    # one write of json.dumps: the same bytes as json.dump, which makes
    # many small writes
    with os.fdopen(fd, "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------

@dataclass
class IncrementPlan:
    """What one CI run will and will not re-analyze, and why."""

    #: "cold" (no usable manifest), "config" (knob mismatch), or "diff"
    reason: str
    #: procedure -> changed | renamed | new | dependent | clean
    classes: dict = field(default_factory=dict)
    #: renamed procedure -> the manifest name it matched by fingerprint
    renamed_from: dict = field(default_factory=dict)
    #: manifest procedures that no longer exist (their warnings show up
    #: as fixed in the delta)
    removed: list = field(default_factory=list)
    #: dirty procedures in schedule order (rank, then slow-first, then
    #: name)
    order: list = field(default_factory=list)
    #: procedure -> scheduling rank (the WorkerPool priority)
    priorities: dict = field(default_factory=dict)
    #: fingerprints of the *current* repo, reused by the new manifest
    surface_fps: dict = field(default_factory=dict)
    spec_fps: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    #: fingerprint computations the planner skipped, carrying them over
    #: from the previous manifest for files the ingest did not load or
    #: an explicit ``--changed-files`` diff left out
    fingerprints_skipped: int = 0

    @property
    def dirty(self) -> list:
        return list(self.order)

    @property
    def clean(self) -> list:
        return sorted(n for n, c in self.classes.items() if c == "clean")

    def counts(self) -> dict:
        out = {c: 0 for c in ("changed", "renamed", "new", "dependent",
                              "clean")}
        for c in self.classes.values():
            out[c] += 1
        return out


def plan_increment(repo: IngestedRepo, previous: dict | None, *,
                   config: AbstractionConfig = CONC,
                   prune_k: int | None = None, unroll_depth: int = 2,
                   max_preds: int = 12,
                   bug_classes: frozenset[str] | None = None,
                   changed_files: list | set | None = None) -> IncrementPlan:
    """Classify every procedure of ``repo`` against ``previous`` (a
    manifest dict or ``None``) and schedule the dirty set.

    Procedures defined in a file the ingest did not load (``repo`` came
    from the fast path against ``previous``) reuse the previous
    manifest's surface and spec fingerprints.  Without the fast path,
    ``changed_files``, an optional explicit VCS diff of repo-relative
    paths the caller *knows* are the only ones touched, lets every
    other file's procedures do the same.  Either is a pure
    planning-time saving: the dirty-set classification is unchanged,
    because an untouched file's fingerprints cannot have moved."""
    program = repo.program
    bodied = [n for n in program.procedures if repo.has_body(n)]
    has_body = set(bodied)
    cfg = config_fingerprint(config, prune_k=prune_k,
                             unroll_depth=unroll_depth, max_preds=max_preds,
                             bug_classes=bug_classes)
    plan = IncrementPlan(reason="diff", config=cfg)

    prev_procs = previous.get("procedures", {}) if previous else {}
    if previous is None:
        plan.reason = "cold"
        prev_procs = {}
    elif previous.get("config") != cfg:
        plan.reason = "config"
        prev_procs = {}
    prev_spec = previous.get("spec_fps", {}) if plan.reason == "diff" else {}

    # Carrying fingerprints over only works against a same-config
    # manifest: a cold/config run has nothing trustworthy to carry
    # them from.
    touched = None
    if plan.reason == "diff":
        touched = repo.loaded if repo.loaded is not None else (
            None if changed_files is None else set(changed_files))
    for name, proc in program.procedures.items():
        untouched = (touched is not None
                     and repo.proc_files.get(name) not in touched)
        if untouched and name in prev_spec \
                and (name not in has_body
                     or prev_procs.get(name, {}).get("surface_fp")):
            if name in has_body:
                plan.surface_fps[name] = prev_procs[name]["surface_fp"]
            plan.spec_fps[name] = prev_spec[name]
            plan.fingerprints_skipped += 1
            continue
        if name in repo.stub_callees:
            raise ValueError(f"no fingerprint of stubbed procedure "
                             f"{name!r}: plan against the manifest the "
                             f"ingest read")
        if proc.body is not None:
            plan.surface_fps[name] = procedure_fingerprint(program, proc)
        plan.spec_fps[name] = spec_fingerprint(proc)

    plan.removed = sorted(set(prev_procs) - has_body)
    removed_by_fp = {prev_procs[n].get("surface_fp"): n
                     for n in plan.removed}
    spec_changed = {n for n, fp in plan.spec_fps.items()
                    if prev_spec.get(n) != fp}
    dependents = spec_dependents(repo.call_graph(), spec_changed) \
        if spec_changed else set()

    hist_wall: dict = {}
    for name in bodied:
        prev_entry = prev_procs.get(name)
        if prev_entry is None:
            old = removed_by_fp.get(plan.surface_fps[name])
            if old is not None:
                plan.classes[name] = "renamed"
                plan.renamed_from[name] = old
                hist_wall[name] = float(prev_procs[old].get("wall", 0.0))
            else:
                plan.classes[name] = "changed" if plan.reason != "diff" \
                    else "new"
                hist_wall[name] = 0.0
        elif prev_entry.get("surface_fp") != plan.surface_fps[name]:
            plan.classes[name] = "changed"
            hist_wall[name] = float(prev_entry.get("wall", 0.0))
        elif name in dependents:
            plan.classes[name] = "dependent"
            hist_wall[name] = float(prev_entry.get("wall", 0.0))
        else:
            plan.classes[name] = "clean"

    dirty = [n for n in bodied if plan.classes[n] != "clean"]
    plan.priorities = {n: CLASS_RANK[plan.classes[n]] for n in dirty}
    plan.order = sorted(dirty, key=lambda n: (plan.priorities[n],
                                              -hist_wall[n], n))
    return plan


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

def _execute(tasks: list, priorities: list, jobs: int) -> list:
    """Run the dirty set; results in task order.  ``jobs=1`` is the
    serial, deterministic path (tasks arrive already in plan order);
    ``jobs>1`` routes through the serve layer's priority worker pool,
    which dispatches rank 0 before rank 1 whenever both are queued."""
    if jobs <= 1 or len(tasks) <= 1:
        return [run_task(t) for t in tasks]
    from ..serve.pool import WorkerPool  # lazy: serve imports core
    pool = WorkerPool(workers=min(jobs, len(tasks)))
    pool.start()
    try:
        futures = [pool.submit(task, priority=prio)
                   for task, prio in zip(tasks, priorities)]
        return [f.result() for f in futures]
    finally:
        pool.close()


# ----------------------------------------------------------------------
# warning delta
# ----------------------------------------------------------------------

def _warning_set(procs: dict, cls: str) -> set:
    key = _CLASS_FIELD[cls]
    return {f"{name}:{label}" for name, entry in procs.items()
            for label in entry.get(key, ())}


def warning_delta(previous: dict | None, manifest: dict) -> dict:
    """New / fixed / unchanged warnings per confidence class, between
    two manifests.  Entries are ``"proc:label"`` strings, sorted, so
    the rendered delta is canonical.  Each class also carries a
    ``bug_classes`` breakdown: per label-prefix-derived bug class (see
    `repro.scenarios.classes`), how many of its warnings are new /
    fixed / unchanged — only classes with at least one warning appear,
    keeping the rendered delta stable for repos without the new
    assertion families."""
    prev_procs = previous.get("procedures", {}) if previous else {}
    new_procs = manifest["procedures"]
    out = {}
    for cls in WARNING_CLASSES:
        before = _warning_set(prev_procs, cls)
        after = _warning_set(new_procs, cls)
        entry = {"new": sorted(after - before),
                 "fixed": sorted(before - after),
                 "unchanged": sorted(before & after)}
        by_bug: dict = {}
        for kind in ("new", "fixed", "unchanged"):
            for item in entry[kind]:
                bug = bug_class_of(item.split(":", 1)[1])
                slot = by_bug.setdefault(
                    bug, {"new": 0, "fixed": 0, "unchanged": 0})
                slot[kind] += 1
        entry["bug_classes"] = {b: by_bug[b] for b in sorted(by_bug)}
        out[cls] = entry
    return out


def render_delta(delta: dict) -> str:
    """The canonical byte representation of a warning delta (sorted
    keys, two-space indent, trailing newline): identical runs render to
    identical bytes, which CI compares against a committed golden."""
    return json.dumps(delta, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------

@dataclass
class CiResult:
    """Everything one incremental run produced."""

    plan: IncrementPlan
    manifest: dict
    delta: dict
    #: fresh ProcedureReports for the dirty set, in plan order
    reports: dict = field(default_factory=dict)
    #: wall_seconds / files_parsed / files_decoded / analyzed / clean /
    #: queries / cache counters
    stats: dict = field(default_factory=dict)

    @property
    def new_warnings(self) -> list:
        return sorted(w for cls in WARNING_CLASSES
                      for w in self.delta[cls]["new"])

    @property
    def failed_procs(self) -> list:
        return sorted(n for n, r in self.reports.items() if r.failed)


def _normalize_changed(root: Path, files: list | set) -> set:
    """Repo-relative forms of an explicit diff's paths (absolute paths
    are re-expressed against ``root``; already-relative ones pass
    through)."""
    resolved = root.resolve()
    out = set()
    for f in files:
        p = Path(f)
        if p.is_absolute():
            try:
                p = p.resolve().relative_to(resolved)
            except ValueError:
                pass  # outside the repo: keep verbatim (matches nothing)
        out.add(str(p))
    return out


def run_ci(root: str | os.PathLike,
           manifest_path: str | os.PathLike | None = None, *,
           previous: dict | None = None,
           config: AbstractionConfig = CONC,
           prune_k: int | None = None,
           timeout: float | None = 10.0,
           unroll_depth: int = 2,
           max_preds: int = 12,
           lia_budget: int = 20000,
           jobs: int = 1,
           cache_dir: str | None = None,
           bug_classes: frozenset[str] | None = None,
           changed_files: list | set | None = None) -> CiResult:
    """One incremental CI run over the repository at ``root``.

    Reads the previous manifest from ``manifest_path`` (or takes it as
    ``previous`` directly), analyzes exactly the dirty set, carries
    clean procedures' manifest entries over verbatim, writes the new
    manifest back to ``manifest_path`` (when given), and returns the
    :class:`CiResult` with the warning delta.  ``cache_dir`` holds
    the analysis records and, under ``parse/`` and ``decls/``, the
    parse and declaration records that let ingest load only the files
    whose bytes changed since the previous manifest.

    Raises :class:`repro.frontend.ingest.IngestError` when the sources
    do not form one coherent program, and re-raises a
    ``CertificateError`` from self-checking workers; per-procedure
    analysis failures are folded into the reports instead.
    """
    start = time.monotonic()
    if previous is None and manifest_path is not None:
        previous = load_manifest(manifest_path)
    parse_cache = decl_cache = None
    if cache_dir:
        parse_cache = AnalysisCache(Path(cache_dir) / "parse")
        decl_cache = AnalysisCache(Path(cache_dir) / "decls")
    same_config = previous is not None and previous.get("config") == \
        config_fingerprint(config, prune_k=prune_k,
                           unroll_depth=unroll_depth, max_preds=max_preds,
                           bug_classes=bug_classes)
    repo = ingest_directory(root, unroll_depth=unroll_depth,
                            bug_classes=bug_classes, cache=parse_cache,
                            decls=decl_cache,
                            previous=previous if same_config else None)
    if changed_files is not None:
        changed_files = _normalize_changed(Path(root), changed_files)
    plan = plan_increment(repo, previous, config=config, prune_k=prune_k,
                          unroll_depth=unroll_depth, max_preds=max_preds,
                          bug_classes=bug_classes,
                          changed_files=changed_files)

    tasks = [AnalysisTask(kind="analyze", proc_name=name,
                          program=repo.program, config_name=config.name,
                          prune_k=prune_k, timeout=timeout,
                          unroll_depth=unroll_depth, max_preds=max_preds,
                          lia_budget=lia_budget,
                          cache_dir=str(cache_dir) if cache_dir else None)
             for name in plan.order]
    results = _execute(tasks, [plan.priorities[n] for n in plan.order],
                       jobs)

    procedures: dict = {}
    prev_procs = previous.get("procedures", {}) if previous else {}
    for name in plan.clean:
        entry = dict(prev_procs[name])
        entry["file"] = repo.proc_files[name]
        procedures[name] = entry

    reports: dict = {}
    queries = 0
    for name, res in zip(plan.order, results):
        if res.failure is not None:
            _reraise_certificate(res.failure)
            report = failure_report(name, config.name, res.failure)
        else:
            report = res.report
            queries += report.queries
        reports[name] = report
        procedures[name] = {
            "file": repo.proc_files[name],
            "surface_fp": plan.surface_fps[name],
            "wall": round(report.seconds, 6),
            "status": report.status,
            "timed_out": report.timed_out,
            "failed": report.failed,
            "warnings": list(report.warnings),
            "conservative_warnings": list(report.conservative_warnings),
            "bug_classes": dict(report.bug_classes),
        }

    manifest = {"schema": MANIFEST_SCHEMA,
                "config": plan.config,
                "files": dict(repo.file_digests),
                "spec_fps": dict(plan.spec_fps),
                "procedures": procedures}
    delta = warning_delta(previous if plan.reason == "diff" else None,
                          manifest)
    if manifest_path is not None:
        save_manifest(manifest_path, manifest)

    cache_stats = merge_cache_stats(r.cache_stats for r in results
                                    if r.cache_stats)
    # a report served from the memo or a record counts no queries
    stats = {"wall_seconds": round(time.monotonic() - start, 3),
             "files": len(repo.file_digests),
             "files_parsed": repo.files_parsed,
             "files_decoded": repo.files_decoded,
             "procedures": len(procedures),
             "analyzed": len(plan.order),
             "clean": len(plan.clean),
             "classes": plan.counts(),
             "fingerprints_skipped": plan.fingerprints_skipped,
             "queries": queries,
             "cache": cache_stats}
    return CiResult(plan=plan, manifest=manifest, delta=delta,
                    reports=reports, stats=stats)
