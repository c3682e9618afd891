"""Per-bug-class confidence tables: the Figure-7 experiment, by family.

The paper's Figure 7 classifies every warning of every configuration as
correct / false positive / false negative against ground truth.  This
module runs the same classification *per bug class*: each scenario
suite (`repro.scenarios.generators`) isolates one assertion family with
construction-known ground truth, and the sweep measures how each
configuration — Conc, A0, A1, A2, plus the Cons baseline — trades
false positives for false negatives on that family.

The output of :func:`classification_sweep` is plain data so both the
CLI tool (``tools/scenario_report.py``) and tests can consume it::

    {suite_name: {
        "bug_class": str,
        "labels": int, "buggy": int,
        "configs": {config_name: {
            "correct": int, "false_positives": int,
            "false_negatives": int, "fp_rate": float,
            "timeouts": int}}}}
"""

from __future__ import annotations

from ..core.config import BY_NAME
from .generators import SCENARIO_SUITE_RECIPES, make_scenario_suite

#: The abstraction ladder the per-class tables sweep, most to least
#: precise, with the conservative baseline last (as in Figure 7).
SWEEP_CONFIGS = ("Conc", "A0", "A1", "A2")


def classification_sweep(scale: float = 1.0, timeout: float | None = 10.0,
                         suite_names: list[str] | None = None,
                         self_check: bool = False) -> dict:
    """Sweep every scenario suite through the configuration ladder and
    the Cons baseline, classifying against ground truth."""
    from ..bench.runner import (classify, compile_suite, run_conservative,
                                run_suite)
    names = list(suite_names) if suite_names is not None \
        else list(SCENARIO_SUITE_RECIPES)
    out: dict = {}
    for name in names:
        suite = make_scenario_suite(name, scale=scale)
        program = compile_suite(suite)
        entry = {"bug_class": SCENARIO_SUITE_RECIPES[name][1],
                 "labels": suite.n_labeled_asserts,
                 "buggy": suite.n_buggy,
                 "configs": {}}
        runs = [(cfg_name, run_suite(suite, BY_NAME[cfg_name],
                                     timeout=timeout, program=program,
                                     self_check=self_check))
                for cfg_name in SWEEP_CONFIGS]
        runs.append(("Cons", run_conservative(suite, timeout=timeout,
                                              program=program,
                                              self_check=self_check)))
        for cfg_name, run in runs:
            cl = classify(suite, run)
            total = cl.total
            entry["configs"][cfg_name] = {
                "correct": cl.correct,
                "false_positives": cl.false_positives,
                "false_negatives": cl.false_negatives,
                "fp_rate": round(cl.false_positives / total, 4)
                if total else 0.0,
                "timeouts": run.n_timeouts,
            }
        out[name] = entry
    return out


def scenario_table(sweep: dict) -> str:
    """Render the per-class confidence x FP-rate table (Figure-7 style,
    one row per suite x configuration)."""
    from ..bench.tables import render_table
    headers = ["Suite", "Bug class", "Config", "C", "FP", "FN", "FP rate"]
    rows = []
    for name, entry in sweep.items():
        for cfg_name in (*SWEEP_CONFIGS, "Cons"):
            c = entry["configs"][cfg_name]
            rows.append([name, entry["bug_class"], cfg_name,
                         c["correct"], c["false_positives"],
                         c["false_negatives"], f"{c['fp_rate']:.2f}"])
    return render_table(headers, rows)
