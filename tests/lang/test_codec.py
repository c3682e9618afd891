"""The AST JSON codec behind analysis records (`repro.lang.codec`).

Round trips go through ``json.dumps(..., sort_keys=True)``, as the cache
writes records, and compare ``repr``: ``==`` on a dataclass ignores
whether a dict's keys kept their order or a tuple came back as a list,
and ``procedure_fingerprint`` hashes ``repr``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.frontend.lower import compile_c
from repro.fuzz import gen
from repro.fuzz.gen import generate_program
from repro.lang import ast, parse_program, typecheck
from repro.lang.codec import NODES, decode, encode
from repro.scenarios.classes import ALL_CLASSES

LOWERING = Path(__file__).resolve().parents[1] / "fixtures" / "lowering"


def round_trip(value):
    return decode(json.loads(json.dumps(encode(value), sort_keys=True)))


@pytest.mark.parametrize("preset", ["GENERAL", "MULTIPROC", "SCENARIOS"])
def test_generated_programs_round_trip(preset):
    for seed in range(40):
        program = generate_program(seed, getattr(gen, preset))
        assert repr(round_trip(program)) == repr(program), \
            f"{preset} seed {seed}"
        checked = typecheck(program)
        assert repr(round_trip(checked)) == repr(checked)


@pytest.mark.parametrize("path", sorted(LOWERING.glob("*.bpl")),
                         ids=lambda p: p.name)
def test_lowering_fixtures_round_trip(path):
    program = parse_program(path.read_text())
    assert repr(round_trip(program)) == repr(program)


@pytest.mark.parametrize("classes", [None, ALL_CLASSES],
                         ids=["default", "all"])
def test_lowered_c_round_trips(classes):
    program = compile_c((LOWERING / "snippet.c").read_text(),
                        bug_classes=classes)
    assert repr(round_trip(program)) == repr(program)


def test_dict_order_survives_sorted_keys():
    program = parse_program(
        "procedure P(z: int, a: int) returns (m: int)\n"
        "{ var y: int; var b: int; m := z; }")
    proc = program.proc("P")
    assert list(proc.var_types) != sorted(proc.var_types)
    back = round_trip(program)
    assert list(back.proc("P").var_types) == list(proc.var_types)


def test_decoder_builds_only_ast_nodes():
    assert set(NODES) >= {"Program", "Procedure", "SeqStmt", "VarExpr"}
    assert all(cls.__module__ == ast.__name__ for cls in NODES.values())
    too_few = {"AssertStmt": [{"BoolLit": [True]}]}
    for bad in ({"Popen": [["sh"]]}, {"Type": []}, {"VarExpr": "x"},
                {"VarExpr": ["x"], "IntLit": [1]}, 1.5,
                {"VarExpr": ["x", "y"]}, too_few,
                {"dict": [["a", 1, 2]]}, {"dict": ["ab"]}):
        with pytest.raises(ValueError):
            decode(bad)


def test_encoder_rejects_values_the_ast_does_not_hold():
    for bad in (ast.VarExpr(["x"]), ast.IntLit(1.5), ast.VarExpr(object())):
        with pytest.raises(TypeError):
            encode(bad)
