"""Checking an answer must not change it.

Self-checking (``self_check``) certificate-checks every solver answer,
and the one solver tuning field, ``checked_theory_lemmas``, decides
whether a self-checked run's theory lemmas are replayed by the checker
or trusted.  Both reshape the *work* (proof logging, justifications,
counters and timings move) but every verdict — fail/dead sets,
warnings, specs, classifications — must be bit-identical to the
unchecked run's.  Checked on the committed fuzz corpus and on
fig5-small style generated suites."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.runner import compile_suite, run_suite
from repro.bench.suites import make_suite
from repro.core.analysis import analyze_program
from repro.core.config import ALL_CONFIGS
from repro.core.deadfail import DeadFailOracle, clear_baseline_cache
from repro.core.predicates import mine_predicates
from repro.fuzz.oracles import _fields
from repro.lang.parser import parse_program
from repro.lang.transform import prepare_procedure
from repro.lang.typecheck import typecheck
from repro.smt.tuning import tuning
from repro.vc.encode import EncodedProcedure

CORPUS = sorted(
    (Path(__file__).resolve().parent.parent / "corpus").glob("*.bpl"))

#: (name, tuning overrides) of each self-checked setting compared
#: against the unchecked run
SETTINGS = [("checked lemmas", {}),
            ("trusted lemmas", {"checked_theory_lemmas": False})]


def _analyze(program, self_check=False, **overrides):
    clear_baseline_cache()
    with tuning(**overrides):
        report = analyze_program(program, timeout=None, lia_budget=20000,
                                 max_preds=6, self_check=self_check)
    return [(r.proc_name, _fields(r)) for r in report.reports]


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_reports_invariant_under_knobs(path):
    program = typecheck(parse_program(path.read_text()))
    baseline = _analyze(program)
    for name, overrides in SETTINGS:
        assert _analyze(program, self_check=True, **overrides) == \
            baseline, f"{path.name}: report changed with {name}"


def test_fail_and_dead_sets_invariant_under_knobs():
    # drive the oracle directly: identical fail/dead sets for a fixed
    # family of specs, setting by setting
    program = typecheck(parse_program(CORPUS[0].read_text()))
    name = next(n for n, p in program.procedures.items()
                if p.body is not None)

    def sets(self_check=False, **overrides):
        clear_baseline_cache()
        with tuning(**overrides):
            prepared = prepare_procedure(program, program.proc(name))
            preds = mine_predicates(program, prepared, max_preds=4)
            enc = EncodedProcedure(program, prepared, self_check=self_check)
            oracle = DeadFailOracle(enc, preds)
            specs = [frozenset()]
            for i in range(1, len(preds) + 1):
                specs.append(frozenset({frozenset({i})}))
                specs.append(frozenset({frozenset({-i})}))
            return [(oracle.fail_set(s), oracle.dead_set(s))
                    for s in specs]

    baseline = sets()
    for setting, overrides in SETTINGS:
        assert sets(self_check=True, **overrides) == baseline, \
            f"fail/dead sets changed with {setting}"


@pytest.mark.parametrize("suite_name", ["event", "moufilter"])
def test_fig5_small_suites_invariant_under_knobs(suite_name):
    # a fig5-small style sweep (same generator and configurations the
    # benchmark uses, smallest suites to keep this tier-1 friendly)
    suite = make_suite(suite_name, scale=0.5)
    program = compile_suite(suite)

    def sweep(self_check=False, **overrides):
        out = []
        with tuning(**overrides):
            for config in ALL_CONFIGS:
                run = run_suite(suite, config, timeout=None,
                                program=program, max_preds=6,
                                self_check=self_check)
                out.append((config.name, run.warnings, run.timed_out,
                            run.n_procs, run.avg_preds, run.avg_clauses))
        return out

    baseline = sweep()
    for name, overrides in SETTINGS:
        assert sweep(self_check=True, **overrides) == baseline, \
            f"{suite_name}: sweep changed with {name}"
