#!/usr/bin/env python3
"""End-to-end smoke of the incremental CI mode (``docs/ci_mode.md``).

Drives one full cold-sweep / scripted-diff / incremental-re-run cycle
over the committed fixture repository and asserts the contract the
mode is sold on:

1. a **cold sweep** analyzes every procedure;
2. a **no-edit re-run** analyzes *nothing*, parses no file and
   decodes no parse record (every file's digest matches the manifest,
   so its declaration record stands in for it) and renders a
   byte-stable warning delta;
3. a **scripted one-procedure edit** (a failing assert appended to
   ``Release`` in ``alloc.bpl``) dirties *exactly* that procedure —
   its caller ``Main``, in ``main.bpl``, stays clean — re-parses only
   ``alloc.bpl`` and decodes no parse record;
4. the re-run's delta matches the committed golden byte-for-byte
   (``tests/fixtures/ci_repo_golden_delta.json``);
5. the re-run's wall time is at most 25% of the cold sweep's;
6. the ``repro ci`` CLI verb reports the same dirty set and exit codes.

Exits 0 when every check passes and 1 otherwise.

Usage::

    python tools/ci_smoke.py [--jobs N]
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.incremental import render_delta, run_ci  # noqa: E402

FIXTURE = REPO / "tests" / "fixtures" / "ci_repo"
GOLDEN = REPO / "tests" / "fixtures" / "ci_repo_golden_delta.json"

#: The scripted diff: one body-only edit to one procedure.  A failing
#: assert appended to Release — its spec is untouched, so Main (its
#: caller) must stay clean.
EDIT_FILE = "alloc.bpl"
EDIT_OLD = "  Freed[p] := 1;\n"
EDIT_NEW = "  Freed[p] := 1;\n  R2: assert Freed[p] == 0;\n"
EDITED_PROC = "Release"
CALLER = "Main"

_failures = 0


def check(cond: bool, label: str, detail: str = "") -> None:
    global _failures
    status = "ok" if cond else "FAIL"
    print(f"  [{status}] {label}" + (f" — {detail}" if detail else ""))
    if not cond:
        _failures += 1


def apply_edit(repo: Path) -> None:
    src = repo / EDIT_FILE
    text = src.read_text()
    assert EDIT_OLD in text, "fixture drifted: scripted edit anchor missing"
    src.write_text(text.replace(EDIT_OLD, EDIT_NEW))


def run_api_cycle(jobs: int) -> None:
    tmp = Path(tempfile.mkdtemp(prefix="ci-smoke-"))
    repo = tmp / "repo"
    shutil.copytree(FIXTURE, repo)
    manifest = tmp / "manifest.json"
    cache = str(tmp / "cache")

    print("cold sweep:")
    t0 = time.monotonic()
    cold = run_ci(repo, manifest, jobs=jobs, cache_dir=cache)
    cold_wall = time.monotonic() - t0
    total = cold.stats["procedures"]
    check(cold.stats["analyzed"] == total, "cold analyzes every procedure",
          f"{cold.stats['analyzed']}/{total}")

    print("no-edit re-run:")
    t0 = time.monotonic()
    idle = run_ci(repo, manifest, jobs=jobs, cache_dir=cache)
    check(idle.stats["analyzed"] == 0, "no-edit re-run analyzes nothing",
          f"analyzed {idle.plan.order}")
    check(idle.stats["files_parsed"] == 0, "no-edit re-run parses no file",
          f"files_parsed={idle.stats['files_parsed']}")
    check(idle.stats["files_decoded"] == 0,
          "no-edit re-run decodes no parse record",
          f"files_decoded={idle.stats['files_decoded']}")
    idle2 = run_ci(repo, manifest, jobs=jobs, cache_dir=cache)
    check(render_delta(idle.delta) == render_delta(idle2.delta),
          "delta report is byte-stable across identical runs")

    print(f"scripted edit ({EDIT_FILE}: one failing assert in "
          f"{EDITED_PROC}):")
    apply_edit(repo)
    t0 = time.monotonic()
    rerun = run_ci(repo, manifest, jobs=jobs, cache_dir=cache)
    rerun_wall = time.monotonic() - t0
    check(rerun.plan.order == [EDITED_PROC],
          "re-run analyzes exactly the dirty set",
          f"dirty={rerun.plan.order}")
    check(rerun.plan.classes.get(CALLER) == "clean",
          f"{CALLER}, {EDITED_PROC}'s caller in another file, stays clean",
          f"{CALLER} is {rerun.plan.classes.get(CALLER)}")
    check(rerun.stats["files_parsed"] == 1,
          f"re-run parses only {EDIT_FILE}",
          f"files_parsed={rerun.stats['files_parsed']}")
    check(rerun.stats["files_decoded"] == 0,
          "re-run decodes no parse record",
          f"files_decoded={rerun.stats['files_decoded']}")
    golden = GOLDEN.read_text()
    check(render_delta(rerun.delta) == golden,
          "delta matches the committed golden")
    ratio = rerun_wall / cold_wall if cold_wall > 0 else 1.0
    check(ratio <= 0.25, "incremental wall <= 25% of cold sweep",
          f"cold {cold_wall:.3f}s, re-run {rerun_wall:.3f}s "
          f"({ratio:.0%})")


def run_cli_cycle() -> None:
    """The same cycle through the ``repro ci`` verb: dirty-set line,
    golden delta via --delta-out, and the exit-code contract (1 when
    new warnings appeared, 0 when nothing regressed)."""
    tmp = Path(tempfile.mkdtemp(prefix="ci-smoke-cli-"))
    repo = tmp / "repo"
    shutil.copytree(FIXTURE, repo)
    args = ["--manifest", str(tmp / "manifest.json"),
            "--cache-dir", str(tmp / "cache")]

    def ci(*extra: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", "ci", str(repo), *args, *extra],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})

    print("CLI verb:")
    cold = ci()
    check(cold.returncode == 1, "cold run exits 1 (the fixture has "
          "warnings, all new)", f"rc={cold.returncode}")
    idle = ci()
    check(idle.returncode == 0 and "analyzing 0 (" in idle.stdout,
          "no-edit run analyzes nothing and exits 0",
          f"rc={idle.returncode}")
    apply_edit(repo)
    delta_out = tmp / "delta.json"
    edited = ci("--delta-out", str(delta_out))
    check(edited.returncode == 1 and "analyzing 1 (1 changed" in
          edited.stdout, "edit run analyzes one procedure and exits 1",
          f"rc={edited.returncode}")
    check(delta_out.read_text() == GOLDEN.read_text(),
          "--delta-out matches the committed golden")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="ci_smoke")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)

    run_api_cycle(args.jobs)
    run_cli_cycle()

    if _failures:
        print(f"ci_smoke: {_failures} check(s) FAILED", file=sys.stderr)
        return 1
    print("ci_smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
