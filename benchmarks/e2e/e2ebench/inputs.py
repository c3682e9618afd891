"""Seeded workload inputs: the 22 sweep suites, each generated procedure
tagged with the pattern that produced it.

The suites are the ones ``repro.bench.suites.make_suite`` builds — the 17
paper suites plus the 5 ``scn_*`` bug-class suites — generated through
the public ``build_suite`` with a pattern catalog that records which
emitter produced each function.  The tags let the label check
(`e2ebench.checks`) tell a paper-documented false positive or negative
from a real disagreement.

Seeding: workload seed 0 reproduces ``make_suite``'s historical per-suite
seed, so the golden file for seed 0 describes the same programs every
other benchmark in the repository uses.  Every other seed gets its own
suite seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bench.suites import (LARGE_SUITE_RECIPES, PATTERNS,
                                SMALL_SUITE_RECIPES, Suite, build_suite)
from repro.lang.ast import Program
from repro.lang.pretty import pp_program
from repro.scenarios.generators import (SCENARIO_PATTERNS,
                                        SCENARIO_SUITE_RECIPES)

#: The fig5-small suites (the ``certified`` workload's corpus).
FIG5_SMALL = tuple(SMALL_SUITE_RECIPES)
#: Every suite the ``sweep`` workload runs, in registry order.
SWEEP_SUITES = (*SMALL_SUITE_RECIPES, *LARGE_SUITE_RECIPES,
                *SCENARIO_SUITE_RECIPES)

#: Distance between the suite seeds of consecutive workload seeds.
_SEED_STRIDE = 1_000_003


def suite_seed(name: str, seed: int) -> int:
    """The generator seed of suite ``name`` for workload ``seed``; seed 0
    is ``make_suite``'s default."""
    return sum(ord(ch) for ch in name) * 7919 + _SEED_STRIDE * seed


@dataclass
class TaggedSuite:
    suite: Suite
    #: generated function name -> pattern name
    patterns: dict


def tagged_suite(name: str, scale: float, seed: int) -> TaggedSuite:
    """Build suite ``name`` exactly as ``make_suite`` would for this
    seed, recording each function's pattern."""
    if name in SCENARIO_SUITE_RECIPES:
        desc, bug_class, mix = SCENARIO_SUITE_RECIPES[name]
        catalog, bug_classes = SCENARIO_PATTERNS, frozenset({bug_class})
    else:
        desc, mix = {**SMALL_SUITE_RECIPES, **LARGE_SUITE_RECIPES}[name]
        catalog, bug_classes = PATTERNS, None
    tags: dict = {}

    def tagging(pattern, emit):
        def emit_tagged(rng, fname):
            tags[fname] = pattern
            return emit(rng, fname)
        return emit_tagged

    suite = build_suite(name, desc, mix,
                        seed=suite_seed(name, seed), scale=scale,
                        patterns={p: tagging(p, e) for p, e in catalog.items()},
                        bug_classes=bug_classes)
    return TaggedSuite(suite=suite, patterns=tags)


def procedure_text(proc, name: str | None = None) -> str:
    """One procedure pretty-printed on its own, optionally renamed."""
    if name is not None:
        proc = replace(proc, name=name)
    return pp_program(Program(procedures={proc.name: proc}))
