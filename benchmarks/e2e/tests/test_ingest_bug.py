"""Pins a frontend bug the ``ci_edits`` workload routes around.

Every ``.c`` lowering emits its own body-less library stubs, so two
lowered suites in one repository define ``calloc`` twice and
``ingest_directory`` refuses them.  ``ci_edits`` therefore writes
pretty-printed ``.bpl`` files with the stubs hoisted into one
``lib.bpl``.  The test is a strict xfail: the change that fixes ingest
must flip it.

    python -m pytest benchmarks/e2e/tests/test_ingest_bug.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[3] / "src"))

from repro.bench.suites import make_suite  # noqa: E402
from repro.frontend.ingest import IngestError, ingest_directory  # noqa: E402


@pytest.mark.xfail(strict=True, raises=IngestError,
                   reason="each lowering emits its own stubs: procedure "
                          "'calloc' defined in both CWE476.c and CWE690.c")
def test_two_lowered_c_suites_ingest_as_one_repository(tmp_path):
    for name in ("CWE476", "CWE690"):
        (tmp_path / f"{name}.c").write_text(make_suite(name).c_source)
    repo = ingest_directory(tmp_path)
    assert {"CWE476_f1", "CWE690_f1"} <= set(repo.program.procedures)
