"""Benchmark harness tests: suite generation determinism, ground-truth
label sanity (every label corresponds to a real assertion in the compiled
program), classification arithmetic, and table rendering."""

import pytest

from repro.bench import (LARGE_SUITE_RECIPES, PATTERNS, SMALL_SUITE_RECIPES,
                         Classification, classify, compile_suite,
                         fig5_table, fig6_table, fig7_table, fig8_table,
                         fig9_table, make_suite, run_conservative,
                         run_suite, suite_statistics)
from repro.bench.runner import SuiteRun
from repro.bench.suites import build_suite
from repro.core import CONC
from repro.lang.ast import asserts_in
from repro.lang.transform import prepare_procedure


class TestSuiteGeneration:
    def test_deterministic(self):
        a = make_suite("CWE476", scale=0.3)
        b = make_suite("CWE476", scale=0.3)
        assert a.c_source == b.c_source
        assert a.labels == b.labels

    def test_scale_changes_size(self):
        small = make_suite("CWE476", scale=0.3)
        big = make_suite("CWE476", scale=1.0)
        assert big.n_functions > small.n_functions

    def test_all_recipes_compile(self):
        for name in list(SMALL_SUITE_RECIPES) + list(LARGE_SUITE_RECIPES):
            suite = make_suite(name, scale=0.15)
            prog = compile_suite(suite)
            for fn in suite.functions:
                assert fn.name in prog.procedures

    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_every_pattern_labels_match_compiled_asserts(self, pattern):
        """Each ground-truth label must name a real assertion of the
        prepared procedure (guards against deref-numbering drift)."""
        suite = build_suite("t", "test", {pattern: 2}, seed=7)
        prog = compile_suite(suite)
        for fn in suite.functions:
            prepared = prepare_procedure(prog, prog.proc(fn.name))
            labels = {a.label for a in asserts_in(prepared.body)}
            for lab in fn.labels:
                assert lab in labels, (pattern, fn.name, lab, labels)

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            make_suite("nope")

    def test_statistics_fields(self):
        stats = suite_statistics(make_suite("event", scale=1.0))
        assert stats["bench"] == "event"
        assert stats["procs"] >= 3
        assert stats["asserts"] > 0
        assert stats["loc_c"] > 0
        assert stats["loc_il"] > stats["loc_c"] // 2


class TestClassification:
    def _fake(self, suite, reported):
        run = SuiteRun(suite_name=suite.name, config_name="X", prune_k=None)
        run.warnings = reported
        return run

    def test_counts(self):
        suite = build_suite("t", "test", {"check_then_use": 1}, seed=1)
        fn = suite.functions[0].name
        # ground truth: deref$1 buggy, deref$2 safe
        run = self._fake(suite, {fn: ["deref$1"]})
        c = classify(suite, run)
        assert (c.correct, c.false_positives, c.false_negatives) == (2, 0, 0)
        run = self._fake(suite, {fn: ["deref$2"]})
        c = classify(suite, run)
        assert (c.correct, c.false_positives, c.false_negatives) == (0, 1, 1)
        run = self._fake(suite, {})
        c = classify(suite, run)
        assert (c.correct, c.false_positives, c.false_negatives) == (1, 0, 1)

    def test_timed_out_excluded(self):
        suite = build_suite("t", "test", {"check_then_use": 1}, seed=1)
        fn = suite.functions[0].name
        run = self._fake(suite, {})
        run.timed_out = [fn]
        c = classify(suite, run)
        assert c.total == 0


class TestEndToEndSmall:
    def test_cwe_suite_shapes(self):
        suite = make_suite("CWE476", scale=0.3)
        prog = compile_suite(suite)
        conc = run_suite(suite, CONC, program=prog)
        cons = run_conservative(suite, program=prog)
        c_conc = classify(suite, conc)
        c_cons = classify(suite, cons)
        # the paper's headline shapes
        assert conc.n_warnings < cons.n_warnings
        assert c_conc.false_positives == 0
        assert c_cons.false_negatives == 0
        assert c_cons.false_positives > 0

    def test_conservative_timeouts_are_reported_and_not_classified(self):
        suite = make_suite("CWE476", scale=0.5)
        cons = run_conservative(suite, timeout=0)
        assert cons.timed_out == [f.name for f in suite.functions]
        assert cons.n_timeouts == suite.n_functions > 0
        assert classify(suite, cons).total == 0

    def test_run_records_averages(self):
        suite = make_suite("event", scale=1.0)
        run = run_suite(suite, CONC)
        assert run.n_procs == suite.n_functions
        assert run.avg_preds >= 0
        assert run.avg_seconds > 0


class TestTables:
    def test_fig5(self):
        stats = [{"bench": "a", "loc_c": 10, "loc_il": 20, "procs": 2,
                  "asserts": 3},
                 {"bench": "b", "loc_c": 5, "loc_il": 9, "procs": 1,
                  "asserts": 1}]
        out = fig5_table(stats)
        assert "Total" in out and "15" in out

    def test_fig6(self):
        data = {"a": {("Conc", None): 3, ("Conc", 3): 4, ("Conc", 2): 4,
                      ("Conc", 1): 5, ("A1", None): 2, ("A2", None): 1,
                      "Cons": 10, "TO": 0}}
        out = fig6_table(data)
        assert "Cons" in out and "Total" in out

    def test_fig7(self):
        data = {"a": {c: Classification(5, 1, 2)
                      for c in ("Conc", "A1", "A2", "Cons")}}
        out = fig7_table(data)
        assert "FP" in out

    def test_fig8(self):
        data = {"Drv1": {"Procs": 10, "Asrt": 50, "Conc": 1, "A1": 2,
                         "A2": 5, "Cons": 30, "TO": 1}}
        out = fig8_table(data)
        assert "Drv1" in out

    def test_fig9(self):
        data = {"Drv1": {c: (3.5, 1.1, 0.4) for c in ("Conc", "A1", "A2")}}
        out = fig9_table(data)
        assert "3.5" in out
