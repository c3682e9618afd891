"""The documentation must stay checkable: relative links resolve,
fenced python snippets compile and named repo paths exist in README.md,
DESIGN.md and docs/*.md (tools/check_docs.py, also run by CI)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_docs_links_and_snippets():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_readme_links_every_doc():
    readme = (REPO / "README.md").read_text()
    for doc in sorted((REPO / "docs").glob("*.md")):
        assert f"docs/{doc.name}" in readme, (
            f"README.md does not mention docs/{doc.name}")


def _check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py")
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    return check_docs


def test_design_notes_are_checked(tmp_path, monkeypatch):
    # DESIGN.md names test files; the logs (ROADMAP.md, CHANGES.md,
    # EXPERIMENTS.md) name deleted files on purpose and are not read
    check_docs = _check_docs()
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    (tmp_path / "docs").mkdir()
    for name in ("README.md", "DESIGN.md", "ROADMAP.md", "CHANGES.md",
                 "EXPERIMENTS.md"):
        (tmp_path / name).write_text("See `tests/gone.py`.\n")
    assert [p.name for p in check_docs.doc_files()] == ["README.md",
                                                        "DESIGN.md"]
    assert check_docs.check_paths(tmp_path / "DESIGN.md") == [
        "DESIGN.md: names a missing path `tests/gone.py`"]


def test_missing_backticked_path_is_reported(tmp_path, monkeypatch):
    check_docs = _check_docs()
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "present.py").write_text("")
    doc = tmp_path / "README.md"
    doc.write_text("Run `python tools/present.py --x` and\n"
                   "`tools/missing.py`; `tools/<name>.py` is a pattern.\n")
    assert check_docs.check_paths(doc) == [
        "README.md: names a missing path `tools/missing.py`"]
