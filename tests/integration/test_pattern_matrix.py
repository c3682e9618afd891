"""The behavior matrix: every benchmark pattern × every configuration.

This is the repository's strongest regression net for the analysis
semantics: each cell encodes which configuration reveals which warning on
which code pattern, mirroring the discriminations the paper's evaluation
is built on (Conc = semantic inconsistencies; A1 adds
conditional-blindness; A2 adds callee-effect blindness; Cons = demonic).
"""

import pytest

from repro.bench.runner import compile_suite
from repro.bench.suites import build_suite
from repro.core import A1, A2, CONC, find_abstract_sibs
from repro.core.acspec import find_almost_correct_specs
from repro.core.cover import predicate_cover
from repro.core.deadfail import DeadFailOracle
from repro.core.predicates import mine_predicates
from repro.lang.transform import prepare_procedure
from repro.vc.encode import EncodedProcedure

# pattern -> (Cons warning count, Conc warnings, A1 warnings, A2 warnings)
MATRIX = {
    "guarded_deref":          (0, [], [], []),
    "loop_copy":              (0, [], [], []),
    "env_safe_deref":         (1, [], [], []),
    "param_deref_buggy":      (1, [], [], []),
    "state_machine":          (3, [], [], []),
    "check_then_use":         (1, ["deref$1"], ["deref$1"], ["deref$1"]),
    "late_check":             (1, ["deref$2"], ["deref$2"], ["deref$2"]),
    "defensive_macro":        (1, ["deref$1"], ["deref$1"], ["deref$1"]),
    "sl_assert":              (1, ["user$1"], ["user$1"], ["user$1"]),
    "double_free":            (6, ["free$5"], ["free$5"], ["free$5"]),
    "correlated_guard":       (1, [], ["deref$1"], ["deref$1"]),
    "unchecked_alloc_branch": (1, [], ["deref$1"], ["deref$1"]),
    "unchecked_alloc_simple": (1, [], [], ["deref$1"]),
    "field_after_call":       (1, [], [], ["deref$3"]),
    "lock_protocol":          (1, [], [], []),
    # lock$1 is labelled safe: a false positive of the through-failures
    # Dead() semantics (test_double_unlock_fp_is_the_dead_semantics)
    "double_unlock":          (2, ["lock$1", "unlock$2"],
                               ["lock$1", "unlock$2"],
                               ["lock$1", "unlock$2"]),
}


@pytest.fixture(scope="module")
def analyses():
    out = {}
    for pattern in MATRIX:
        suite = build_suite("t", "t", {pattern: 1}, seed=11)
        prog = compile_suite(suite)
        fn = suite.functions[0].name
        cell = {}
        for config in (CONC, A1, A2):
            cell[config.name] = find_abstract_sibs(prog, fn, config=config)
        out[pattern] = cell
    return out


@pytest.mark.parametrize("pattern", sorted(MATRIX))
def test_conservative_count(analyses, pattern):
    n_cons, *_ = MATRIX[pattern]
    res = analyses[pattern]["Conc"]
    assert len(res.conservative_warnings) == n_cons, \
        res.conservative_warnings


@pytest.mark.parametrize("pattern", sorted(MATRIX))
@pytest.mark.parametrize("config_idx,config_name",
                         [(1, "Conc"), (2, "A1"), (3, "A2")])
def test_config_warnings(analyses, pattern, config_idx, config_name):
    expected = MATRIX[pattern][config_idx]
    res = analyses[pattern][config_name]
    assert res.warnings == expected, (pattern, config_name, res.warnings)


@pytest.mark.parametrize("pattern", sorted(MATRIX))
def test_warning_monotonicity_across_knobs(analyses, pattern):
    """Proposition 2's practical face: a smaller vocabulary (A2 ⊆ A1 ⊆
    Conc in expressible specs) can only surface *more* inconsistencies
    on these single-knob patterns."""
    conc = set(analyses[pattern]["Conc"].warnings)
    a1 = set(analyses[pattern]["A1"].warnings)
    a2 = set(analyses[pattern]["A2"].warnings)
    assert conc <= a1 <= a2


@pytest.mark.parametrize("through_failures,expected",
                         [(True, ["lock$1", "unlock$2"]),
                          (False, ["unlock$2"])])
def test_double_unlock_fp_is_the_dead_semantics(through_failures, expected):
    """The ``lock$1`` false positive of the double_unlock row comes from
    letting Dead() reach through assertion failures: one minimal spec
    makes ``lock$1`` fail, and the ``mode == k`` branch is reachable
    only through that failure.  Strict failure-terminates semantics
    report ``unlock$2`` alone (benchmarks/test_ablation_semantics.py
    runs the same case)."""
    suite = build_suite("t", "t", {"double_unlock": 1}, seed=11)
    program = compile_suite(suite)
    proc = program.proc(suite.functions[0].name)
    prepared = prepare_procedure(program, proc)
    oracle = DeadFailOracle(EncodedProcedure(program, prepared),
                            mine_predicates(program, prepared),
                            dead_through_failures=through_failures)
    res = find_almost_correct_specs(oracle, predicate_cover(oracle))
    assert oracle.labels_of(res.warnings) == expected
