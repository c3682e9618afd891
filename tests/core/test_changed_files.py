"""The manifest's configuration fingerprint and the per-class
warning-delta breakdown.

Runs on the committed fixture repository (``tests/fixtures/ci_repo``),
like ``test_incremental.py``: changing ``bug_classes`` invalidates the
manifest, and every delta class and manifest entry carries per-bug-class
counts."""

import shutil
from pathlib import Path

from repro.core.incremental import config_fingerprint, run_ci
from repro.core.config import CONC
from repro.scenarios.classes import DEFAULT_CLASSES

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "ci_repo"

EDIT_OLD = "  Freed[p] := 1;\n"
EDIT_NEW = "  Freed[p] := 1;\n  R2: assert Freed[p] == 0;\n"


def make_repo(tmp_path: Path) -> Path:
    repo = tmp_path / "repo"
    shutil.copytree(FIXTURE, repo)
    return repo


def edit_release(repo: Path) -> None:
    path = repo / "alloc.bpl"
    text = path.read_text()
    assert EDIT_OLD in text
    path.write_text(text.replace(EDIT_OLD, EDIT_NEW, 1))


class TestConfigFingerprint:
    def test_bug_classes_default_is_recorded(self):
        cfg = config_fingerprint(CONC, prune_k=None, unroll_depth=2,
                                 max_preds=12)
        assert cfg["bug_classes"] == sorted(DEFAULT_CLASSES)

    def test_changing_bug_classes_invalidates_manifest(self, tmp_path):
        repo = make_repo(tmp_path)
        run_ci(repo, repo / "m.json")
        again = run_ci(repo, repo / "m.json",
                       bug_classes=frozenset({"null-deref"}))
        assert again.plan.reason == "config"


class TestDeltaBugClasses:
    def test_delta_carries_per_class_counts(self, tmp_path):
        repo = make_repo(tmp_path)
        run_ci(repo, repo / "m.json")
        edit_release(repo)
        result = run_ci(repo, repo / "m.json")
        high = result.delta["high"]
        assert high["bug_classes"]["user-assert"]["new"] == len(high["new"])
        cons = result.delta["cons"]
        assert "call-precondition" in cons["bug_classes"]
        for counts in cons["bug_classes"].values():
            assert set(counts) == {"new", "fixed", "unchanged"}

    def test_manifest_entries_carry_bug_classes(self, tmp_path):
        repo = make_repo(tmp_path)
        result = run_ci(repo, repo / "m.json")
        for entry in result.manifest["procedures"].values():
            assert "bug_classes" in entry
        buggy = result.manifest["procedures"]["Buggy"]
        assert sum(buggy["bug_classes"].values()) == len(buggy["warnings"])

    def test_empty_delta_has_empty_breakdown(self, tmp_path):
        repo = make_repo(tmp_path)
        run_ci(repo, repo / "m.json")
        result = run_ci(repo, repo / "m.json")  # no edit
        for cls in ("high", "cons"):
            d = result.delta[cls]
            assert d["new"] == [] and d["fixed"] == []
            for counts in d["bug_classes"].values():
                assert counts["new"] == 0 and counts["fixed"] == 0
