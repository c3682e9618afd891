"""LIA rows stay integral end to end.

``int + Fraction`` silently gives a ``Fraction``, and every verdict stays
correct, so nothing else would notice a rational value creeping back
into the solver.  These tests watch every place a row lives (the LIA
trail, the substitution chain, the bound store, the reduced rows, the
trail disequalities and ``TheoryCore``'s parse memo) and every
multiplier of every LIA certificate the solver emits.  They run one
self-checked fig5-small procedure and two queries whose equation
``2x + 3y = 7`` takes a lossy Gaussian pivot: no coefficient divides
the other, so elimination cross-multiplies."""

from collections import Counter

import pytest

import repro.smt.dpllt as dpllt
from repro.bench import compile_suite, make_suite
from repro.core import A2, analyze_program
from repro.smt import Solver, TermFactory
from repro.smt.theories.lia import LiaSolver


def _ints(*values) -> bool:
    return all(type(v) is int for v in values)


def _row(coeffs, const) -> bool:
    return _ints(const, *coeffs.values())


def _script_terms(script):
    for step in script:
        if step[0] == "comb":
            yield from step[2]
        else:  # ("split", ref, lo_script, hi_script)
            yield from _script_terms(step[2])
            yield from _script_terms(step[3])


@pytest.fixture()
def watch(monkeypatch):
    """Check the LIA state after every push, every parsed literal and
    every emitted justification; count what was seen."""
    seen = Counter()
    push, parse, justify = LiaSolver.push, dpllt.TheoryCore._parse_lit, \
        dpllt.justify_lemma

    def checked_push(lia, *args):
        conflict = push(lia, *args)
        assert all(_row(c, k) for _, c, k, _ in lia._trail)
        for _var, a, rest, k, _ in lia._subs:
            assert _ints(a, k) and _row(rest, k)
            seen["lossy chain entries" if a != 1 else "chain entries"] += 1
        for lo, _, hi, _ in lia._bounds.values():
            assert lo is None or type(lo) is int
            assert hi is None or type(hi) is int
            seen["bounds"] += 1
        assert all(_row(c, k) for c, k, _ in lia._rows)
        assert all(_row(c, k) for c, k, _ in lia._dis)
        seen["rows"] += len(lia._rows)
        return conflict

    def checked_parse(core, lit):
        parsed = parse(core, lit)
        if parsed is not None:
            assert _row(parsed[1], parsed[2])
            seen["parsed"] += 1
        return parsed

    def checked_justify(*args, **kwargs):
        just = justify(*args, **kwargs)
        if just[0] == "lia":
            for num, den, _ref in _script_terms(just[2]):
                assert den == 1 and type(num) is int
                seen["comb terms"] += 1
        return just

    monkeypatch.setattr(LiaSolver, "push", checked_push)
    monkeypatch.setattr(dpllt.TheoryCore, "_parse_lit", checked_parse)
    monkeypatch.setattr(dpllt, "justify_lemma", checked_justify)
    return seen


def test_fig5_small_procedure_keeps_integer_rows(watch):
    program = compile_suite(make_suite("CWE690", scale=0.5))
    report = analyze_program(program, config=A2, proc_names=["CWE690_f5"],
                             self_check=True)
    (r,) = report.reports
    assert r.certificates["lemmas_checked"] > 0
    assert r.certificates["lemmas_trusted"] == 0
    for what in ("parsed", "chain entries", "bounds", "rows", "comb terms"):
        assert watch[what] > 0, what


def _lossy_query(lo: int, hi: int) -> Solver:
    """``2x + 3y = 7`` with ``lo <= x, y <= hi``, self-checked."""
    f = TermFactory()
    x, y = f.int_var("x"), f.int_var("y")
    s = Solver(f, validate=True)
    s.add(f.eq(f.add(f.mul(f.intconst(2), x), f.mul(f.intconst(3), y)),
               f.intconst(7)))
    for v in (x, y):
        s.add(f.le(f.intconst(lo), v), f.le(v, f.intconst(hi)))
    return s


def test_lossy_pivot_keeps_integer_rows(watch):
    sat = _lossy_query(0, 5)            # x = 2, y = 1
    assert sat.check() == "sat"
    assert sat.certificates["sat_checked"] == 1
    # back-substitution through the lossy entry divided exactly
    assert sat.certificates["model_fallbacks"] == 0
    m = sat.last_model.var_values
    assert 2 * m["x"] + 3 * m["y"] == 7
    unsat = _lossy_query(0, 1)          # 2x + 3y <= 5
    assert unsat.check() == "unsat"
    assert unsat.certificates["lemmas_checked"] > 0
    assert unsat.certificates["lemmas_trusted"] == 0
    assert watch["lossy chain entries"] > 0
    assert watch["comb terms"] > 0
    # what the proof logs carry, read back from the logs themselves
    logged = [term for s in (sat, unsat) for step in s.sat.proof.steps
              if len(step) > 2 and step[2][0] == "lia"
              for term in _script_terms(step[2][2])]
    assert logged
    assert all(den == 1 and type(num) is int for num, den, _ in logged)
