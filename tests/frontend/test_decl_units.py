"""Differential test of the declaration-unit split behind CI ingest
(`repro.frontend.ingest`): a ``.bpl`` source parsed unit by unit, with
the whole-file fallback, gives the ``Program`` the whole-file parse
gives, procedure order included, or raises the same error text.

Inputs: every committed ``.bpl`` file, the pretty-printed sweep suites
(scale 0.5, seed 0), and generated programs (`repro.fuzz.gen`) mutated
by comments between and inside declarations, a ``/* */`` block across a
line that starts a procedure, two declarations on one line, a local
``var`` in column 0 and a duplicated declaration."""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.runner import compile_suite
from repro.bench.suites import (LARGE_SUITE_RECIPES, SMALL_SUITE_RECIPES,
                                make_suite)
from repro.frontend.ingest import (IngestError, _Loader, _Source,
                                   merge_programs, split_units)
from repro.fuzz import gen
from repro.fuzz.gen import generate_program
from repro.lang import parse_program
from repro.lang.pretty import pp_program
from repro.scenarios.generators import SCENARIO_SUITE_RECIPES

ROOT = Path(__file__).resolve().parents[2]
COMMITTED = sorted([*ROOT.glob("examples/*.bpl"),
                    *(ROOT / "tests").rglob("*.bpl")])
SWEEP = (*SMALL_SUITE_RECIPES, *LARGE_SUITE_RECIPES, *SCENARIO_SUITE_RECIPES)

#: A line that starts a declaration, as the split sees it.
_DECL_LINE = re.compile(r"^(?:var|function|procedure)\b")


def unitwise(text: str) -> tuple:
    """``text`` as ingest parses a ``.bpl`` file of it: the merged
    program and the number of units it was indexed as."""
    data = text.encode()
    src = _Source("f.bpl", ".bpl", data, hashlib.sha256(data).hexdigest())
    units = _Loader(2, None).declare(src, {})
    program, _ = merge_programs([("f.bpl", program) for _, program in units])
    return program, len(units)


def check(text: str) -> int | None:
    """Assert that the unit-wise parse of ``text`` is the whole-file
    parse; the number of units, or ``None`` when neither parses."""
    try:
        whole = parse_program(text)
    except SyntaxError as exc:
        with pytest.raises(IngestError) as unit_exc:
            unitwise(text)
        assert str(unit_exc.value) == f"f.bpl: {exc}"
        return None
    program, units = unitwise(text)
    assert program == whole
    for table in ("globals", "functions", "procedures"):
        assert list(getattr(program, table)) == list(getattr(whole, table))
    return units


@pytest.mark.parametrize("path", COMMITTED,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_committed_sources(path):
    text = path.read_text()
    assert check(text) == len(split_units(text))


def test_committed_sources_are_found():
    assert len(COMMITTED) >= 22


@pytest.mark.parametrize("name", SWEEP)
def test_pretty_printed_sweep_suites(name):
    text = pp_program(compile_suite(make_suite(name, scale=0.5)))
    units = check(text)
    # one unit per declaration: nothing fell back to the whole file
    assert units == len(split_units(text)) > 1


def _lines_starting(lines: list, pattern=_DECL_LINE) -> list:
    return [i for i, line in enumerate(lines) if pattern.match(line)]


def _mutate(text: str, kind: str, a: int, b: int) -> str:
    lines = text.split("\n")
    decls = _lines_starting(lines)
    if kind == "line_comment":
        lines.insert(a % (len(lines) + 1), f"// note {b}")
    elif kind == "inline_comment":
        i = a % len(lines)
        lines[i] += f" /* note {b} */"
    elif kind == "block" and decls:
        # a /* */ block across a line that starts a procedure
        procs = _lines_starting(lines, re.compile(r"procedure\b"))
        if procs:
            p = procs[a % len(procs)]
            first, last = max(0, p - b % 3), min(len(lines) - 1, p + b % 7)
            lines.insert(last + 1, "*/")
            lines.insert(first, "/*")
    elif kind == "join" and len(decls) > 1:
        # two declarations on one line
        i = decls[1:][a % (len(decls) - 1)]
        j = i - 1
        while j > 0 and not lines[j].strip():
            j -= 1
        lines[j:i + 1] = [lines[j] + " " + lines[i]]
    elif kind == "local":
        # a local ``var`` in column 0, first in a body
        opens = [i for i, line in enumerate(lines) if line == "{"]
        if opens:
            lines.insert(opens[a % len(opens)] + 1, f"var loc{b}: int;")
    elif kind == "duplicate" and decls:
        i = a % len(decls)
        end = decls[i + 1] if i + 1 < len(decls) else len(lines)
        lines[end:end] = lines[decls[i]:end]
    return "\n".join(lines)


KINDS = ("line_comment", "inline_comment", "block", "join", "local",
         "duplicate")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       preset=st.sampled_from(["GENERAL", "MULTIPROC", "SCENARIOS"]),
       prelude=st.lists(st.sampled_from(["var g: int;", "var M: [int]int;",
                                         "function h(int): int;"]),
                        max_size=3),
       mutations=st.lists(st.tuples(st.sampled_from(KINDS),
                                    st.integers(min_value=0, max_value=99),
                                    st.integers(min_value=0, max_value=99)),
                          max_size=4))
def test_mutated_generated_programs(seed, preset, prelude, mutations):
    text = "\n".join(prelude) + "\n" \
        + pp_program(generate_program(seed, getattr(gen, preset)))
    for kind, a, b in mutations:
        text = _mutate(text, kind, a, b)
    check(text)
