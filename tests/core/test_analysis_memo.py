"""The in-process memo of completed analyses and Cons results
(`repro.core.deadfail`): each distinct (prepared procedure, Q) pair is
analyzed once per process, a hit carries the recorded verdict and
reports no solver work, nothing that would change an answer's
provenance — certificate checking, the solver tuning, the pruning bound,
the budget — is served from another run's entry, and a self-checked run
always solves."""

import shutil

import pytest

import repro.core.checker as checker_mod
import repro.core.deadfail as deadfail
import repro.core.sib as sib_mod
from repro.bench import make_suite
from repro.bench.runner import compile_suite
from repro.core import (A0, A1, A2, CONC, analyze_procedure,
                        check_procedure, conservative_program,
                        find_abstract_sibs)
from repro.core.cache import AnalysisCache
from repro.core.deadfail import clear_baseline_cache
from repro.core.incremental import run_ci
from repro.lang import parse_program, typecheck
from repro.smt.tuning import tuning

from .test_incremental import FIXTURE

VERDICT = ("status", "warnings", "conservative_warnings", "bug_classes",
           "specs", "n_preds", "n_cover_clauses")

TWINS = """
var M: [int]int;
procedure first(p: int) modifies M;
{
  if (p == 0) { A1: assert M[p] == 0; }
  A2: assert M[p] == 0;
  M[p] := 1;
}

procedure second(p: int) modifies M;
{
  if (p == 0) { A1: assert M[p] == 0; }
  A2: assert M[p] == 0;
  M[p] := 1;
}
"""


@pytest.fixture()
def encodings(monkeypatch):
    """Count the encodings built: a unit that builds none was answered
    from the memo."""
    built = []
    for module in (sib_mod, checker_mod):
        real = module.EncodedProcedure

        def counting(*args, _real=real, **kwargs):
            built.append(args[1].name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "EncodedProcedure", counting)
    return built


def _verdict(report) -> dict:
    return {name: getattr(report, name) for name in VERDICT}


def _twins():
    return typecheck(parse_program(TWINS))


@pytest.mark.parametrize("suite_name", ["CWE690", "Drv7"])
def test_hits_equal_cold_runs(suite_name, encodings):
    suite = make_suite(suite_name, scale=0.5)
    program = compile_suite(suite)
    names = [fn.name for fn in suite.functions]
    served = []  # (config name, procedure, result, hit?)
    for config in (CONC, A0, A1, A2, None):
        for name in names:
            before = len(encodings)
            if config is None:
                result = check_procedure(program, name)
            else:
                result = analyze_procedure(program, name, config=config)
            served.append((config, name, result, len(encodings) == before))
    hits = {}
    for config, name, result, hit in served:
        if not hit:
            continue
        label = "Cons" if config is None else config.name
        hits[label] = hits.get(label, 0) + 1
        clear_baseline_cache()
        if config is None:
            cold = check_procedure(program, name)
            assert result == cold, name
        else:
            cold = analyze_procedure(program, name, config=config)
            assert _verdict(result) == _verdict(cold), (label, name)
            assert (result.proc_name, result.config_name) == \
                (name, config.name)
    # the comparison above must not pass vacuously
    assert hits.get("A1", 0) and hits.get("A2", 0) and hits.get("Cons", 0)


def test_hit_reports_no_solver_work():
    program = _twins()
    cold = analyze_procedure(program, "first")
    hit = analyze_procedure(program, "second")
    assert cold.queries > 0
    assert (hit.queries, hit.cache_hits, hit.queries_saved) == (0, 0, 0)
    assert set(hit.solver_stats) == set(cold.solver_stats)
    assert not any(hit.solver_stats.values())
    assert hit.certificates == cold.certificates == {}
    # the caller's name; phases and seconds describe this call
    assert hit.proc_name == "second"
    assert "encode" not in hit.phases and hit.seconds > 0
    assert _verdict(hit) == _verdict(cold)


def test_content_identical_procedure_is_a_hit(encodings):
    program = _twins()
    find_abstract_sibs(program, "first")
    res = find_abstract_sibs(program, "second")
    assert encodings == ["first"]
    assert res.proc_name == "second"
    check_procedure(program, "second")
    assert encodings == ["first"]


@pytest.mark.parametrize("change", ["self_check", "prune_k", "tuning"])
def test_settings_that_can_change_an_answer_miss(change, encodings):
    program = _twins()
    find_abstract_sibs(program, "first")
    self_check = change == "self_check"
    with tuning(checked_theory_lemmas=change != "tuning"):
        # Cons has no pruning bound: only that change leaves it a hit
        check_procedure(program, "first", self_check=self_check)
        find_abstract_sibs(program, "first", self_check=self_check,
                           prune_k=1 if change == "prune_k" else None)
    assert encodings == ["first"] * (2 if change == "prune_k" else 3)


def test_self_checked_runs_always_solve(encodings):
    # a self-checked report carries the certificates of its own answers,
    # so no self-checked run is served from, or recorded in, the memo
    program = _twins()
    cold = analyze_procedure(program, "first", self_check=True)
    again = analyze_procedure(program, "second", self_check=True)
    cons = check_procedure(program, "second", self_check=True)
    assert encodings == ["first", "second", "second"]
    assert again.queries > 0
    assert again.certificates["sat_checked"] + \
        again.certificates["unsat_checked"] > 0
    assert _verdict(again) == _verdict(cold)
    assert cons.warnings == again.conservative_warnings
    assert not any(key[0] in ("analysis", "cons")
                   for key in deadfail._BASELINE_CACHE)


def _self_checked_after_unchecked(cache=None):
    # a self-checked answer must never come from an unchecked run: the
    # baselines (Dead(true), Fail(true)) included
    program = compile_suite(make_suite("moufilter", scale=0.5))

    def certs(report):
        return {k: v for k, v in report.certificates.items()
                if k != "check_wall"}

    lone = analyze_procedure(program, "moufilter_f1", config=CONC,
                             self_check=True)
    clear_baseline_cache()
    analyze_procedure(program, "moufilter_f1", config=CONC, cache=cache)
    after = analyze_procedure(program, "moufilter_f1", config=CONC,
                              cache=cache, self_check=True)
    assert certs(lone)["sat_checked"] + certs(lone)["unsat_checked"] > 0
    assert after.queries == lone.queries
    assert certs(after) == certs(lone)
    return program


def test_self_checked_run_after_an_unchecked_one_checks_everything():
    _self_checked_after_unchecked()


def test_self_checked_run_after_an_unchecked_record_checks_everything(
        tmp_path):
    # the same rule on disk: a self-checked analysis or Cons task
    # neither reads nor writes a record
    cache = AnalysisCache(tmp_path)
    program = _self_checked_after_unchecked(cache)
    assert (cache.hits, cache.stores) == (0, 1)
    cons = dict(proc_names=["moufilter_f1"], cache_dir=tmp_path)
    conservative_program(program, **cons)
    stats: dict = {}
    conservative_program(program, self_check=True, cache_stats_out=stats,
                         **cons)
    assert (stats["hits"], stats["stores"]) == (0, 0)


def test_timed_out_analysis_is_not_stored(encodings):
    program = _twins()
    timed = analyze_procedure(program, "first", timeout=0.0)
    assert timed.timed_out
    assert not any(key[0] == "analysis" for key in deadfail._BASELINE_CACHE)
    done = analyze_procedure(program, "first")
    assert not done.timed_out and done.queries > 0
    assert encodings == ["first", "first"]


def test_clear_empties_every_kind():
    program = _twins()
    analyze_procedure(program, "first")
    check_procedure(program, "first")
    kinds = {key[0] for key in deadfail._BASELINE_CACHE}
    assert kinds == {"live", "fail_true", "analysis", "cons"}
    clear_baseline_cache()
    assert not deadfail._BASELINE_CACHE


def test_store_never_exceeds_its_cap(monkeypatch):
    monkeypatch.setattr(deadfail, "_BASELINE_CACHE_CAP", 3)
    program = compile_suite(make_suite("CWE690", scale=0.5))
    for fn in make_suite("CWE690", scale=0.5).functions[:4]:
        for config in (CONC, A2):
            analyze_procedure(program, fn.name, config=config)
            assert len(deadfail._BASELINE_CACHE) <= 3


def test_memo_hit_is_stored_to_disk(tmp_path):
    # A0 prepares a call-free procedure as Conc does and mines the same
    # Q: a memo hit on an entry that an uncached run left, which the
    # disk does not hold yet
    program = _twins()
    cache = AnalysisCache(tmp_path)
    analyze_procedure(program, "first", config=CONC)
    hit = analyze_procedure(program, "first", config=A0, cache=cache)
    assert "encode" not in hit.phases
    assert (cache.stores, cache.hits) == (1, 0)
    # a second memo hit finds the record and writes nothing
    analyze_procedure(program, "second", config=CONC, cache=cache)
    assert cache.stores == 1
    clear_baseline_cache()
    served = analyze_procedure(program, "first", config=A0, cache=cache)
    assert cache.hits == 1
    assert _verdict(served) == _verdict(hit)
    assert (served.queries, served.config_name) == (0, "A0")


def test_ci_copy_edit_asks_no_queries(tmp_path):
    repo = tmp_path / "repo"
    shutil.copytree(FIXTURE, repo)
    manifest = tmp_path / "m.json"
    cache_dir = str(tmp_path / "cache")
    run_ci(repo, manifest, cache_dir=cache_dir)
    text = (repo / "util.bpl").read_text()
    clamp = text[text.index("procedure Clamp"):]
    (repo / "util.bpl").write_text(text + clamp.replace("Clamp", "Clip"))
    rerun = run_ci(repo, manifest, cache_dir=cache_dir,
                   changed_files=["util.bpl"])
    assert rerun.plan.classes["Clip"] == "new"
    assert rerun.stats["queries"] == 0


def test_hit_hands_out_copies():
    program = _twins()
    first = find_abstract_sibs(program, "first")
    first.warnings.append("mutated")
    first.oracle_stats["mutated"] = 1
    second = find_abstract_sibs(program, "second")
    second.specs.append("mutated")
    third = find_abstract_sibs(program, "second")
    assert "mutated" not in third.warnings
    assert "mutated" not in third.oracle_stats
    assert "mutated" not in third.specs
