"""The ``jobs > 1`` worker-pool sweep must be invisible in the results:
identical reports (modulo wall-clock fields and counters) and identical
Cons baseline, in the serial report order."""

from dataclasses import fields

from repro.bench import compile_suite, make_suite
from repro.core import A2, CONC, analyze_program, conservative_program

# wall-clock / machine-local fields excluded from the equality check
_VOLATILE = {"seconds", "phases", "budget_remaining", "solver_stats",
             "queries", "cache_hits", "queries_saved"}


def _stable(report):
    return [{f.name: getattr(r, f.name) for f in fields(r)
             if f.name not in _VOLATILE} for r in report.reports]


def _program():
    suite = make_suite("moufilter", scale=0.5)
    return compile_suite(suite), [f.name for f in suite.functions]


def test_parallel_sweep_equals_serial():
    program, names = _program()
    serial = analyze_program(program, config=CONC, proc_names=names)
    parallel = analyze_program(program, config=CONC, proc_names=names,
                               jobs=2)
    assert _stable(parallel) == _stable(serial)
    assert [r.proc_name for r in parallel.reports] == names


def test_parallel_sweep_equals_serial_abstract_config():
    program, names = _program()
    serial = analyze_program(program, config=A2, proc_names=names)
    parallel = analyze_program(program, config=A2, proc_names=names, jobs=2)
    assert _stable(parallel) == _stable(serial)


def test_parallel_conservative_equals_serial():
    program, names = _program()
    serial = conservative_program(program, proc_names=names)
    parallel = conservative_program(program, proc_names=names, jobs=2)
    assert parallel == serial


def test_jobs_one_is_the_serial_path():
    program, names = _program()
    a = analyze_program(program, config=CONC, proc_names=names)
    b = analyze_program(program, config=CONC, proc_names=names, jobs=1)
    assert _stable(a) == _stable(b)
