"""Regenerate ``expected/sweep_seed0.json``: the warnings of every unit of
the ``sweep`` workload at seed 0, per suite, configuration and procedure
(procedures without warnings are omitted).

    PYTHONPATH=src:benchmarks/e2e python -m e2ebench.golden

Regenerating it changes the reference the benchmark checks against, so a
new golden belongs in its own change, with the review of its
disagreements with the ground-truth labels that README.md describes.
"""

from __future__ import annotations

import json
import subprocess
import sys

from repro.core.tasks import run_task

from .analysis_runs import (GOLDEN, SUITE_SETS, corpus_units, make_task,
                            warnings_of)
from .common import ROOT, load_params


def main() -> int:
    params = load_params("sweep")
    warnings = {suite: {config: {} for config in params["configs"]}
                for suite in SUITE_SETS[params["suites"]]}
    for suite, program, config, fn, _ in corpus_units(params, 0):
        result = run_task(make_task(program, config, fn.name,
                                    self_check=False))
        if warnings_of(result):
            warnings[suite][config][fn.name] = warnings_of(result)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            cwd=ROOT, capture_output=True, text=True)
    GOLDEN.write_text(json.dumps({
        "generated_at_commit": commit.stdout.strip() or "unknown",
        "seed": 0, "scale": params["scale"], "configs": params["configs"],
        "warnings": warnings}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
