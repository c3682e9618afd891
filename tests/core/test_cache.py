"""The persistent content-addressed analysis cache (repro.core.cache),
the disk tier of the analysis memo.

Correctness bar: a warm sweep served from disk must equal the cold sweep
that populated the cache on every verdict field and report zero live
counters, as a memo hit does; every memo-key input must move a record's
content address, and configurations that prepare the same procedure and
mine the same Q must share its record; corruption of any record must
degrade to a miss, never a crash; and a cache shared by ``jobs=2``
workers must give the same answers as a serial sweep.  Each run meant
to be a disk hit starts from an empty memo, or the memo would answer
it first.
"""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

from repro.bench import compile_suite, make_suite
from repro.cli import run as cli_run
from repro.core import (CONC, A0, A1, A2, AnalysisCache, analyze_procedure,
                        analyze_program, conservative_program)
from repro.core.deadfail import clear_baseline_cache
from repro.lang import parse_program, typecheck
from repro.smt.tuning import tuning

# wall-clock fields and live counters: a hit reports this call's time
# and no solver work, so only the verdict fields compare with a cold run
_VOLATILE = {"seconds", "phases", "budget_remaining", "solver_stats",
             "queries", "cache_hits", "queries_saved"}


def _stable(reports):
    return [{f.name: getattr(r, f.name) for f in fields(r)
             if f.name not in _VOLATILE} for r in reports]


def _no_live_work(reports) -> bool:
    return all(r.queries == r.cache_hits == r.queries_saved == 0
               and not any(r.solver_stats.values()) for r in reports)


def _program():
    suite = make_suite("moufilter", scale=0.5)
    return compile_suite(suite), [f.name for f in suite.functions]


SRC = """
var Freed: [int]int;
procedure Foo(c: int)
  modifies Freed;
{
  A1: assert Freed[c] == 0;
  Freed[c] := 1;
  A2: assert Freed[c] == 0;
  Freed[c] := 1;
}
"""

#: ``Foo`` has a branch (A1 mines another Q), a call (A0 prepares
#: another procedure) and a loop (``unroll_depth`` moves it);
#: ``Straight`` has only the call, so Conc and A1 mine the same Q.
KNOBS = """
var M: [int]int;
procedure Set(p: int) modifies M;
  ensures M[p] == 1;
  ;

procedure Foo(p: int) modifies M;
{
  if (p == 0) { A1: assert M[p] == 0; }
  call Set(p);
  while (*) { M[p] := 0; }
  A2: assert M[p] == 0;
}

procedure Straight(p: int) modifies M;
{
  A1: assert M[p] == 0;
  call Set(p);
  A2: assert M[p] == 0;
}
"""


def _small_program():
    return typecheck(parse_program(SRC))


def _knobs_program():
    return typecheck(parse_program(KNOBS))


# ----------------------------------------------------------------------
# warm == cold on every verdict field
# ----------------------------------------------------------------------

def test_warm_report_equals_cold_verdicts(tmp_path):
    program, names = _program()
    cold = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))
    clear_baseline_cache()
    warm = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))
    # a hit carries the recorded verdict and, like a memo hit, reports
    # no solver work of its own
    assert _stable(warm.reports) == _stable(cold.reports)
    assert _no_live_work(warm.reports)
    assert sum(r.queries for r in cold.reports) > 0
    assert cold.cache_stats["misses"] == len(names)
    assert cold.cache_stats["stores"] == len(names)
    assert warm.cache_stats["hits"] == len(names)
    assert warm.cache_stats["misses"] == 0


def test_warm_matches_uncached_on_stable_fields(tmp_path):
    program, names = _program()
    plain = analyze_program(program, config=A2, proc_names=names)
    clear_baseline_cache()
    analyze_program(program, config=A2, proc_names=names,
                    cache_dir=str(tmp_path))
    clear_baseline_cache()
    warm = analyze_program(program, config=A2, proc_names=names,
                           cache_dir=str(tmp_path))
    assert warm.cache_stats["hits"] == len(names)
    assert _stable(warm.reports) == _stable(plain.reports)


def test_cache_off_by_default(tmp_path):
    program, names = _program()
    report = analyze_program(program, config=CONC, proc_names=names)
    assert report.cache_stats == {}
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# content address sensitivity
# ----------------------------------------------------------------------

def _record(tmp_path, program, name="Foo", **kwargs) -> str:
    """The name of the one record an analysis writes into an empty
    cache, starting from an empty memo."""
    clear_baseline_cache()
    cache = AnalysisCache(tmp_path / f"c{len(list(tmp_path.iterdir()))}")
    analyze_procedure(program, name, cache=cache, **kwargs)
    records = [path.name for path in cache.root.glob("*.json")]
    assert len(records) == 1, records
    return records[0]


def test_key_is_deterministic(tmp_path):
    program = _small_program()
    assert _record(tmp_path, program) == _record(tmp_path, program)


def test_key_is_the_same_in_every_process(tmp_path):
    # the record's name digests the memo key's repr, which must not
    # depend on the process (string hashing is salted per process)
    script = ("import sys; from repro.core import AnalysisCache, "
              "analyze_procedure; from repro.lang import parse_program, "
              "typecheck; analyze_procedure(typecheck(parse_program("
              "sys.stdin.read())), 'Foo', cache=AnalysisCache(sys.argv[1]))")
    src = str(Path(__file__).resolve().parents[2] / "src")
    for seed in ("1", "2"):
        subprocess.run([sys.executable, "-c", script, str(tmp_path / seed)],
                       input=KNOBS, text=True, check=True,
                       env={**os.environ, "PYTHONPATH": src,
                            "PYTHONHASHSEED": seed})
    names = [sorted(p.name for p in (tmp_path / seed).glob("*.json"))
             for seed in ("1", "2")]
    assert names[0] == names[1] == [_record(tmp_path, _knobs_program())]


def test_every_fingerprint_knob_changes_the_key(tmp_path):
    # every input of the memo key moves the record: the prepared
    # procedure (source, havoc_returns, unroll_depth), Q
    # (ignore_conditionals, max_preds), prune_k and the solver tuning
    program = _knobs_program()
    base = _record(tmp_path, program)
    with tuning(checked_theory_lemmas=False):
        retuned = _record(tmp_path, program)
    variants = [
        _record(tmp_path, program, config=A1),   # ignore_conditionals
        _record(tmp_path, program, config=A0),   # havoc_returns
        _record(tmp_path, program, config=A2),   # both
        _record(tmp_path, program, prune_k=2),
        _record(tmp_path, program, unroll_depth=3),
        _record(tmp_path, program, max_preds=1),
        retuned,
    ]
    assert len({base, *variants}) == len(variants) + 1
    # the configuration itself is not an input: Conc and A1 share a
    # record when Q coincides, and so do A0 and A2
    straight = [_record(tmp_path, program, "Straight", config=c)
                for c in (CONC, A1, A0, A2)]
    assert straight[0] == straight[1] != straight[2] == straight[3]


def test_a1_is_served_from_the_conc_record(tmp_path):
    program = _knobs_program()
    cache = AnalysisCache(tmp_path)
    cold = analyze_procedure(program, "Straight", config=CONC, cache=cache)
    clear_baseline_cache()
    served = analyze_procedure(program, "Straight", config=A1, cache=cache)
    assert (cache.hits, served.queries) == (1, 0)
    assert "encode" not in served.phases
    assert served.config_name == "A1"
    assert _stable([served]) == _stable([replace(cold, config_name="A1")])
    # another prepared procedure (A0 havocs the call's effects) or
    # another Q (A1 drops Foo's branch condition) misses
    clear_baseline_cache()
    analyze_procedure(program, "Straight", config=A0, cache=cache)
    analyze_procedure(program, "Foo", config=CONC, cache=cache)
    clear_baseline_cache()
    analyze_procedure(program, "Foo", config=A1, cache=cache)
    assert (cache.hits, cache.misses) == (1, 4)


def test_source_change_changes_the_key(tmp_path):
    program = _small_program()
    edited = typecheck(parse_program(SRC.replace("== 0", "== 1")))
    assert _record(tmp_path, program) != _record(tmp_path, edited)


def test_budgets_are_not_part_of_the_key(tmp_path):
    # timeout / lia_budget are outside the content address: a result
    # computed under one budget is served under any other
    program = _small_program()
    cache = AnalysisCache(tmp_path)
    cold = analyze_procedure(program, "Foo", timeout=10.0, cache=cache)
    clear_baseline_cache()
    warm = analyze_procedure(program, "Foo", timeout=99.0,
                             lia_budget=50000, cache=cache)
    assert _stable([warm]) == _stable([cold])
    assert cache.hits == 1


def test_timed_out_analyses_are_never_cached(tmp_path):
    program, names = _program()
    report = analyze_program(program, config=CONC, proc_names=names,
                             timeout=0.0, cache_dir=str(tmp_path))
    # a born-expired budget raises before every solver query; only
    # procedures needing zero queries can complete (and may be stored)
    n_timed = sum(1 for r in report.reports if r.timed_out)
    assert n_timed > 0
    assert report.cache_stats["stores"] == len(names) - n_timed
    assert len(list(tmp_path.iterdir())) == len(names) - n_timed


# ----------------------------------------------------------------------
# corruption tolerance
# ----------------------------------------------------------------------

def _corrupt_each(tmp_path, payload):
    records = sorted(tmp_path.glob("*.json"))
    assert records
    for rec in records:
        rec.write_bytes(payload if isinstance(payload, bytes)
                        else payload(rec))
    return len(records)


def _assert_recovers(tmp_path, cold, n_bad):
    program, names = _program()
    clear_baseline_cache()
    warm = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))
    assert _stable(warm.reports) == _stable(cold.reports)
    assert warm.cache_stats["invalidations"] == n_bad
    assert warm.cache_stats["stores"] == n_bad  # bad records re-stored
    # ... and the restored records serve again
    clear_baseline_cache()
    warm2 = analyze_program(program, config=CONC, proc_names=names,
                            cache_dir=str(tmp_path))
    assert _stable(warm2.reports) == _stable(warm.reports)
    assert warm2.cache_stats["hits"] == len(names)


def test_truncated_record_is_a_miss(tmp_path):
    program, names = _program()
    cold = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))
    n = _corrupt_each(tmp_path, lambda p: p.read_bytes()[:10])
    _assert_recovers(tmp_path, cold, n)


def test_garbage_record_is_a_miss(tmp_path):
    program, names = _program()
    cold = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))
    n = _corrupt_each(tmp_path, b"{not json at all")
    _assert_recovers(tmp_path, cold, n)


def test_empty_record_is_a_miss(tmp_path):
    program, names = _program()
    cold = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))
    n = _corrupt_each(tmp_path, b"")
    _assert_recovers(tmp_path, cold, n)


def test_wrong_schema_version_is_a_miss(tmp_path):
    program, names = _program()
    cold = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))

    def bump(path):
        rec = json.loads(path.read_text())
        rec["schema"] = rec["schema"] + 1
        return json.dumps(rec).encode()

    n = _corrupt_each(tmp_path, bump)
    _assert_recovers(tmp_path, cold, n)


def test_unknown_report_field_is_a_miss(tmp_path):
    # a record written by a *newer* schema that forgot to bump: the
    # reconstruction fails and degrades to a miss
    program, names = _program()
    cold = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))

    def extend(path):
        rec = json.loads(path.read_text())
        rec["entry"]["from_the_future"] = 1
        return json.dumps(rec).encode()

    n = _corrupt_each(tmp_path, extend)
    _assert_recovers(tmp_path, cold, n)


def test_mistyped_record_field_is_a_miss(tmp_path):
    # well-formed JSON whose field holds the wrong type must not reach
    # the hit path, which copies and zeroes it
    program, names = _program()
    cold = analyze_program(program, config=CONC, proc_names=names,
                           cache_dir=str(tmp_path))

    def mistype(path):
        rec = json.loads(path.read_text())
        rec["entry"]["solver_stats"] = [1]
        return json.dumps(rec).encode()

    n = _corrupt_each(tmp_path, mistype)
    _assert_recovers(tmp_path, cold, n)


# ----------------------------------------------------------------------
# shared cache under jobs > 1
# ----------------------------------------------------------------------

def test_parallel_shared_cache_equals_serial(tmp_path):
    program, names = _program()
    serial = analyze_program(program, config=CONC, proc_names=names)
    parallel = analyze_program(program, config=CONC, proc_names=names,
                               jobs=2, cache_dir=str(tmp_path))
    assert _stable(parallel.reports) == _stable(serial.reports)
    assert parallel.cache_stats["stores"] == len(names)
    clear_baseline_cache()  # forked workers would inherit the memo
    warm = analyze_program(program, config=CONC, proc_names=names,
                           jobs=2, cache_dir=str(tmp_path))
    assert _stable(warm.reports) == _stable(parallel.reports)
    assert warm.cache_stats["hits"] == len(names)


def test_parallel_conservative_shared_cache(tmp_path):
    program, names = _program()
    serial = conservative_program(program, proc_names=names)
    stats: dict = {}
    parallel = conservative_program(program, proc_names=names, jobs=2,
                                    cache_dir=str(tmp_path),
                                    cache_stats_out=stats)
    assert parallel == serial
    assert stats["stores"] == len(names)
    clear_baseline_cache()  # forked workers would inherit the memo
    warm_stats: dict = {}
    warm = conservative_program(program, proc_names=names, jobs=2,
                                cache_dir=str(tmp_path),
                                cache_stats_out=warm_stats)
    assert warm == serial
    assert warm_stats["hits"] == len(names)


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------

def test_open_coerces_paths_and_instances(tmp_path):
    assert AnalysisCache.open(None) is None
    cache = AnalysisCache.open(str(tmp_path))
    assert isinstance(cache, AnalysisCache)
    assert AnalysisCache.open(cache) is cache


def test_config_replace_shares_nothing(tmp_path):
    # paranoia: AbstractionConfig is frozen dataclass-style; replacing a
    # knob under the same name must still move the key (guards against
    # key derivation reading the name instead of what the knob does)
    program = _knobs_program()
    tweaked = replace(CONC, ignore_conditionals=True)
    assert _record(tmp_path, program) != \
        _record(tmp_path, program, config=tweaked)


def test_cli_cache_dir_roundtrip(tmp_path, capsys):
    src = tmp_path / "t.bpl"
    src.write_text(SRC)
    cache = tmp_path / "cache"
    rc1 = cli_run(["--cache-dir", str(cache), str(src)])
    out1 = capsys.readouterr().out
    assert list(cache.iterdir())
    rc2 = cli_run(["--cache-dir", str(cache), str(src)])
    out2 = capsys.readouterr().out
    assert (rc1, out1) == (rc2, out2)


def test_cli_no_cache_disables(tmp_path, capsys):
    src = tmp_path / "t.bpl"
    src.write_text(SRC)
    cache = tmp_path / "cache"
    cli_run(["--cache-dir", str(cache), "--no-cache", str(src)])
    capsys.readouterr()
    assert not cache.exists()
