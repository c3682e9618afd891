"""Synthetic benchmark suites mirroring the paper's evaluation corpus.

The original evaluation ran on 1.85 MLOC of C: two NIST SAMATE suites
(CWE476 null-dereference, CWE690 unchecked-return-value), open-source
programs (``space``, ``ansicon``), WDK sample drivers, and anonymized
Windows drivers/kernel components.  Those sources are proprietary or
impractically large for a pure-Python reproduction, so each suite here is
*generated*: a seeded mixture of the code patterns the paper's analysis
discriminates on, scaled down (the paper's relative claims depend on the
pattern mix, not on raw LOC — see DESIGN.md).

Every pattern function emits one C function plus ground-truth labels for
the assertions it contains (``True`` = a real bug), which is what the
Figure 7 classification experiment needs.  The pattern catalog, with the
paper section that motivates each:

===========================  ====================================================
pattern                      paper motivation
===========================  ====================================================
guarded_deref                provably-safe deref (Cons stays silent)
env_safe_deref               safe-by-environment deref (classic Cons false alarm)
check_then_use               use-before-check inconsistency — concrete SIB ([11])
late_check                   ``if (x) assert x; assert x`` shape (§6)
double_free                  Figure 1: missing return between frees
unchecked_alloc_branch       Figure 2: abstract SIB, found by A1/A2 only
unchecked_alloc_simple       unchecked malloc, no inconsistency (caught only by
                             A2's empty vocabulary, §4.4.3's imprecision)
param_deref_buggy            simple-but-buggy parameter deref — a FN for every
                             config (§5.1.2's "void Foo(x) { *x = 1; }")
defensive_macro              ``CheckFieldF`` macro: Conc false positive (§5.1.3)
sl_assert                    ``SL_ASSERT`` macro: Conc false positive (§5.1.3)
correlated_guard             ``mBufferLength`` correlation: A1 false positive (§5.1.3)
field_after_call             nested field after call: A2 false positive (§5.1.3)
lock_protocol                paired lock/unlock dispatch (safe typestate)
double_unlock                missing return between unlocks (buggy; Fig. 1's
                             shape in the lock typestate)
loop_copy                    bounded buffer loop (space/driver-style, safe)
state_machine                cmd-dispatch driver shape with frees (safe)
===========================  ====================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class GeneratedFunction:
    name: str
    code: str
    # assertion label -> True if a real bug (ground truth by construction)
    labels: dict = field(default_factory=dict)


@dataclass
class Suite:
    name: str
    description: str
    c_source: str
    # (function name, assertion label) -> buggy?
    labels: dict = field(default_factory=dict)
    functions: list = field(default_factory=list)
    #: assertion families the lowering should insert for this suite
    #: (None = the frontend's historical default set); see
    #: `repro.scenarios.classes`
    bug_classes: frozenset | None = None

    @property
    def loc_c(self) -> int:
        return len([l for l in self.c_source.splitlines() if l.strip()])

    @property
    def n_functions(self) -> int:
        return len(self.functions)

    @property
    def n_labeled_asserts(self) -> int:
        return len(self.labels)

    @property
    def n_buggy(self) -> int:
        return sum(1 for b in self.labels.values() if b)


_VARS = ["p", "q", "buf", "data", "ptr", "node", "item", "ctx", "req", "dev"]
_INTS = ["n", "len", "cmd", "size", "count", "mode", "flags", "status"]


def _v(rng: random.Random) -> str:
    return rng.choice(_VARS)


def _i(rng: random.Random) -> str:
    return rng.choice(_INTS)


# ======================================================================
# pattern emitters
# ======================================================================


def pat_guarded_deref(rng: random.Random, name: str) -> GeneratedFunction:
    """Provably-safe guarded dereference; even Cons proves it."""
    p, k = _v(rng), rng.randint(1, 9)
    code = f"""
void {name}(int *{p}) {{
  if ({p} != NULL) {{
    *{p} = {k};
  }}
}}
"""
    return GeneratedFunction(name, code, {"deref$1": False})


def pat_env_safe_deref(rng: random.Random, name: str) -> GeneratedFunction:
    """Safe by environment contract (callers never pass NULL): a classic
    conservative-verifier false alarm that ACSpec suppresses."""
    p, k = _v(rng), rng.randint(1, 9)
    extra = f"  *{p} = *{p} + {rng.randint(1, 5)};\n" if rng.random() < 0.5 else ""
    code = f"""
void {name}(int *{p}) {{
  *{p} = {k};
{extra}}}
"""
    labels = {"deref$1": False}
    if extra:
        labels["deref$2"] = False
        labels["deref$3"] = False
    return GeneratedFunction(name, code, labels)


def pat_check_then_use(rng: random.Random, name: str) -> GeneratedFunction:
    """Use before check: the programmer's later NULL test betrays the belief
    that the pointer can be NULL — a concrete SIB and a real bug."""
    p = _v(rng)
    code = f"""
void {name}(int *{p}) {{
  *{p} = {rng.randint(1, 9)};
  if ({p} != NULL) {{
    *{p} = {rng.randint(10, 19)};
  }}
}}
"""
    return GeneratedFunction(name, code, {"deref$1": True, "deref$2": False})


def pat_late_check(rng: random.Random, name: str) -> GeneratedFunction:
    """Checked use followed by an unchecked use (the §6 micro-shape)."""
    p = _v(rng)
    code = f"""
void {name}(int *{p}, int n) {{
  if ({p} != NULL) {{
    *{p} = n;
  }}
  *{p} = n + 1;
}}
"""
    return GeneratedFunction(name, code, {"deref$1": False, "deref$2": True})


def pat_double_free(rng: random.Random, name: str) -> GeneratedFunction:
    """Figure 1: a missing return lets control fall through to a second
    pair of frees."""
    a, b = "c", "buf"
    code = f"""
void {name}(int *{a}, char *{b}, int cmd) {{
  if (nondet()) {{
    free({a});
    free({b});
    return;
  }}
  if (cmd == 0) {{
    if (nondet()) {{
      free({a});
      free({b});
    }}
  }}
  free({a});
  free({b});
  return;
}}
"""
    labels = {"free$1": False, "free$2": False, "free$3": False,
              "free$4": False, "free$5": True, "free$6": False}
    return GeneratedFunction(name, code, labels)


def pat_unchecked_alloc_branch(rng: random.Random, name: str) -> GeneratedFunction:
    """Figure 2: one branch checks the allocation, the other does not —
    an abstract SIB visible to A1/A2 but not Conc."""
    code = f"""
void {name}(void) {{
  struct twoints *data = NULL;
  data = (struct twoints *)calloc({rng.randint(10, 200)}, sizeof(struct twoints));
  if (static_returns_t()) {{
    data[0].a = {rng.randint(1, 9)};
  }} else {{
    if (data != NULL) {{
      data[0].a = {rng.randint(1, 9)};
    }} else {{
    }}
  }}
}}
"""
    return GeneratedFunction(name, code, {"deref$1": True, "deref$2": False})


def pat_unchecked_alloc_simple(rng: random.Random, name: str) -> GeneratedFunction:
    """Simple-but-buggy: no inconsistency anywhere, so every abstract
    configuration misses it (the paper's main FN class, §5.1.2)."""
    p = _v(rng)
    code = f"""
void {name}(void) {{
  int *{p};
  {p} = (int *)malloc({rng.randint(4, 64)});
  *{p} = {rng.randint(1, 9)};
}}
"""
    return GeneratedFunction(name, code, {"deref$1": True})


def pat_param_deref_buggy(rng: random.Random, name: str) -> GeneratedFunction:
    """Simple-but-buggy with a *parameter* pointer: in the original SAMATE
    bad-cases the offending NULL comes from a caller outside the analyzed
    procedure, so no configuration can see an inconsistency — the paper's
    dominant FN class (§5.1.2: "void Foo(x) { *x = 1; }")."""
    p, n = _v(rng), _i(rng)
    use_flag = rng.random() < 0.5
    if use_flag:
        code = f"""
void {name}(int *{p}, int {n}) {{
  if ({n} > 0) {{
    *{p} = {n};
  }}
}}
"""
    else:
        code = f"""
void {name}(int *{p}) {{
  *{p} = {rng.randint(1, 9)};
}}
"""
    return GeneratedFunction(name, code, {"deref$1": True})


def pat_defensive_macro(rng: random.Random, name: str) -> GeneratedFunction:
    """The CheckFieldF pattern of §5.1.3 (macro pre-expanded): an earlier
    deref makes the defensive NULL test dead-code-inconsistent — a Conc
    false positive, because the check is merely too defensive."""
    x, a = "x", rng.randint(1, 9)
    code = f"""
void {name}(struct node *{x}) {{
  int y;
  y = {x}->val;
  if ({x} != NULL && {x}->val == {a}) {{
    {x}->val = y + 1;
  }} else {{
    y = 0;
  }}
}}
"""
    return GeneratedFunction(name, code,
                             {"deref$1": False, "deref$2": False,
                              "deref$3": False})


def pat_sl_assert(rng: random.Random, name: str) -> GeneratedFunction:
    """The SL_ASSERT pattern of §5.1.3 (macro pre-expanded): the tool
    insists the then-branch be reachable although the user expects it
    reachable only on failure — a Conc false positive."""
    n = _i(rng)
    code = f"""
void {name}(int {n}, int *out) {{
  if (!({n} >= 0)) {{
    assert(0);
  }}
  if (out != NULL) {{
    *out = {n};
  }}
}}
"""
    return GeneratedFunction(name, code, {"user$1": False, "deref$1": False})


def pat_correlated_guard(rng: random.Random, name: str) -> GeneratedFunction:
    """The mBufferLength pattern of §5.1.3: the correct precondition is the
    correlation len >= 1 ==> buf != 0; A1 cannot express it and reports a
    false positive, while Conc suppresses the warning."""
    code = f"""
void {name}(int len, char *mbuf) {{
  int i;
  if (len >= 1) {{
    for (i = 0; i < len; i++) {{
      mbuf[i] = {rng.randint(1, 9)};
    }}
  }}
  if (mbuf != NULL) {{
    mbuf[0] = 0;
  }}
}}
"""
    return GeneratedFunction(name, code,
                             {"deref$1": False, "deref$2": False})


def pat_field_after_call(rng: random.Random, name: str) -> GeneratedFunction:
    """Nested field dereference after a call (§5.1.3): HAVOC's
    conservative modifies-set makes A2 lose the x->next != 0 fact, while
    Conc/A1 can still state it over the lam$ constant — an A2 false
    positive."""
    code = f"""
void {name}(struct node *x) {{
  if (x == NULL) {{
    return;
  }}
  if (x->next == NULL) {{
    return;
  }}
  bar();
  x->next->val = {rng.randint(1, 9)};
}}
"""
    return GeneratedFunction(name, code,
                             {"deref$1": False, "deref$2": False,
                              "deref$3": False})


def pat_lock_protocol(rng: random.Random, name: str) -> GeneratedFunction:
    """Correctly paired lock/unlock dispatch (safe; driver-style
    typestate, the inconsistency domain of [11] beyond null/free)."""
    code = f"""
void {name}(int *dev, int mode) {{
  lock(dev);
  if (mode == {rng.randint(1, 5)}) {{
    unlock(dev);
    return;
  }}
  unlock(dev);
}}
"""
    return GeneratedFunction(name, code, {"lock$1": False, "unlock$1": False,
                                          "unlock$2": False})


def pat_double_unlock(rng: random.Random, name: str) -> GeneratedFunction:
    """A missing return lets an unlock path fall through to a second
    unlock — the Figure 1 shape in the lock typestate (buggy).

    Every configuration also reports ``lock$1``, labelled safe: a false
    positive of the through-failures Dead() semantics (DESIGN.md).  One
    minimal spec makes ``lock$1`` fail, and the ``mode == k`` branch is
    reachable only through that failure.  Strict failure-terminates
    semantics report ``unlock$2`` alone, but lose §5.1.3's
    defensive-macro result (``benchmarks/test_ablation_semantics.py``,
    ``tests/integration/test_pattern_matrix.py``)."""
    code = f"""
void {name}(int *dev, int mode) {{
  lock(dev);
  if (mode == {rng.randint(1, 5)}) {{
    if (nondet()) {{
      unlock(dev);
      /* ERROR: missing return */
    }}
  }}
  unlock(dev);
}}
"""
    return GeneratedFunction(name, code, {"lock$1": False, "unlock$1": False,
                                          "unlock$2": True})


def pat_loop_copy(rng: random.Random, name: str) -> GeneratedFunction:
    """A bounded buffer-fill loop with a guarded pointer (space/driver
    style, safe)."""
    code = f"""
void {name}(char *dst, int n) {{
  int i;
  if (dst == NULL) {{
    return;
  }}
  for (i = 0; i < n; i++) {{
    dst[i] = {rng.randint(1, 9)};
  }}
}}
"""
    return GeneratedFunction(name, code, {"deref$1": False})


def pat_state_machine(rng: random.Random, name: str) -> GeneratedFunction:
    """A cmd-dispatch shape with a correctly returning free path (the
    fixed version of Figure 1 — safe)."""
    code = f"""
void {name}(int *res, int cmd) {{
  if (cmd == 1) {{
    free(res);
    return;
  }}
  if (cmd == 2) {{
    *res = 0;
    return;
  }}
  free(res);
  return;
}}
"""
    return GeneratedFunction(name, code,
                             {"free$1": False, "deref$1": False,
                              "free$2": False})


PATTERNS = {
    "guarded_deref": pat_guarded_deref,
    "env_safe_deref": pat_env_safe_deref,
    "check_then_use": pat_check_then_use,
    "late_check": pat_late_check,
    "double_free": pat_double_free,
    "unchecked_alloc_branch": pat_unchecked_alloc_branch,
    "unchecked_alloc_simple": pat_unchecked_alloc_simple,
    "param_deref_buggy": pat_param_deref_buggy,
    "defensive_macro": pat_defensive_macro,
    "sl_assert": pat_sl_assert,
    "correlated_guard": pat_correlated_guard,
    "field_after_call": pat_field_after_call,
    "lock_protocol": pat_lock_protocol,
    "double_unlock": pat_double_unlock,
    "loop_copy": pat_loop_copy,
    "state_machine": pat_state_machine,
}

_PRELUDE = """
struct node { int val; struct node *next; };
struct twoints { int a; int b; };
int static_returns_t(void);
void bar(void);
"""


def build_suite(name: str, description: str, mix: dict, seed: int,
                scale: float = 1.0, patterns: dict | None = None,
                bug_classes: frozenset | None = None) -> Suite:
    """Assemble a suite from a {pattern: count} mixture (scaled).

    ``patterns`` overrides the emitter catalog (the bug-class scenario
    suites supply their own, see `repro.scenarios.generators`);
    ``bug_classes`` is recorded on the suite and selects the assertion
    families :func:`repro.bench.runner.compile_suite` asks the lowering
    for."""
    catalog = PATTERNS if patterns is None else patterns
    rng = random.Random(seed)
    parts: list[str] = [_PRELUDE]
    labels: dict = {}
    functions: list[GeneratedFunction] = []
    idx = 0
    order: list[str] = []
    for pattern, count in mix.items():
        scaled = max(1, round(count * scale)) if count > 0 else 0
        order.extend([pattern] * scaled)
    rng.shuffle(order)
    for pattern in order:
        idx += 1
        fname = f"{name}_f{idx}"
        gf = catalog[pattern](rng, fname)
        parts.append(gf.code)
        functions.append(gf)
        for label, buggy in gf.labels.items():
            labels[(fname, label)] = buggy
    return Suite(name=name, description=description,
                 c_source="\n".join(parts), labels=labels,
                 functions=functions, bug_classes=bug_classes)


# ======================================================================
# the suite registry (Figure 5's benchmark list, scaled)
# ======================================================================

# {pattern: count} mixtures tuned to echo each original benchmark's
# character: the CWE suites are labeled test cases with known bug ratios
# (36% / 27% buggy asserts), the small programs are mostly-safe code with
# a couple of inconsistencies, the drivers feature macro patterns and
# call-heavy code.

SMALL_SUITE_RECIPES = {
    "CWE476": ("NIST SAMATE null-dereference tests", {
        "guarded_deref": 4, "env_safe_deref": 4, "check_then_use": 3,
        "late_check": 2, "unchecked_alloc_simple": 2,
        "unchecked_alloc_branch": 2, "loop_copy": 2,
        "param_deref_buggy": 4,
    }),
    "CWE690": ("NIST SAMATE unchecked-return-value tests", {
        "guarded_deref": 7, "env_safe_deref": 7,
        "unchecked_alloc_branch": 4, "unchecked_alloc_simple": 2,
        "loop_copy": 4, "late_check": 1, "param_deref_buggy": 3,
    }),
    "ansicon": ("console text processor", {
        "guarded_deref": 3, "env_safe_deref": 4, "correlated_guard": 2,
        "loop_copy": 3, "check_then_use": 1, "sl_assert": 1,
    }),
    "space": ("flight control software", {
        "guarded_deref": 4, "env_safe_deref": 5, "loop_copy": 4,
        "correlated_guard": 2, "late_check": 1, "sl_assert": 2,
    }),
    "cancel": ("WDK sample driver: cancel", {
        "state_machine": 2, "double_free": 1, "env_safe_deref": 1,
        "lock_protocol": 1,
    }),
    "event": ("WDK sample driver: event", {
        "state_machine": 1, "guarded_deref": 1, "env_safe_deref": 1,
    }),
    "firefly": ("WDK sample driver: firefly", {
        "state_machine": 1, "field_after_call": 1, "correlated_guard": 1,
        "env_safe_deref": 1, "lock_protocol": 1,
    }),
    "moufilter": ("WDK sample driver: moufilter", {
        "guarded_deref": 1, "defensive_macro": 1, "env_safe_deref": 1,
        "state_machine": 1,
    }),
    "vserial": ("WDK sample driver: vserial", {
        "state_machine": 2, "double_free": 1, "env_safe_deref": 2,
        "defensive_macro": 1, "loop_copy": 1, "double_unlock": 1,
    }),
}

LARGE_SUITE_RECIPES = {
    "Drv1": ("Windows driver set 1", {
        "env_safe_deref": 6, "guarded_deref": 5, "defensive_macro": 2,
        "field_after_call": 3, "correlated_guard": 2, "sl_assert": 1,
        "state_machine": 3, "loop_copy": 3, "check_then_use": 1,
    }),
    "Drv2": ("Windows driver set 2", {
        "env_safe_deref": 7, "guarded_deref": 6, "field_after_call": 4,
        "state_machine": 4, "loop_copy": 3, "correlated_guard": 1,
    }),
    "Drv3": ("Windows driver set 3", {
        "env_safe_deref": 3, "guarded_deref": 3, "field_after_call": 1,
        "state_machine": 2, "loop_copy": 1,
    }),
    "Drv4": ("Windows driver set 4", {
        "env_safe_deref": 5, "guarded_deref": 4, "field_after_call": 2,
        "state_machine": 3, "loop_copy": 2, "defensive_macro": 1,
    }),
    "Drv5": ("Windows driver set 5", {
        "env_safe_deref": 6, "guarded_deref": 5, "field_after_call": 3,
        "state_machine": 3, "loop_copy": 3, "sl_assert": 1,
        "lock_protocol": 2,
    }),
    "Drv6": ("Windows driver set 6", {
        "env_safe_deref": 4, "guarded_deref": 4, "field_after_call": 3,
        "state_machine": 2, "loop_copy": 2, "defensive_macro": 1,
    }),
    "Drv7": ("Windows driver set 7 (largest)", {
        "env_safe_deref": 10, "guarded_deref": 9, "field_after_call": 6,
        "state_machine": 6, "loop_copy": 5, "defensive_macro": 2,
        "correlated_guard": 2, "sl_assert": 1, "check_then_use": 1,
    }),
    "Lib1": ("Windows kernel core component", {
        "env_safe_deref": 6, "guarded_deref": 6, "field_after_call": 4,
        "loop_copy": 4, "correlated_guard": 2, "defensive_macro": 1,
        "sl_assert": 1,
    }),
}


def make_suite(name: str, scale: float = 1.0, seed: int | None = None) -> Suite:
    """Build a registered suite by name.  ``scale`` multiplies the pattern
    counts; the seed defaults to a stable per-suite value so every run of
    the benchmarks sees the same programs."""
    if name in SMALL_SUITE_RECIPES:
        desc, mix = SMALL_SUITE_RECIPES[name]
    elif name in LARGE_SUITE_RECIPES:
        desc, mix = LARGE_SUITE_RECIPES[name]
    else:
        # lazy: the scenario suites live in repro.scenarios.generators,
        # which imports this module for Suite/build_suite
        from ..scenarios.generators import SCENARIO_SUITE_RECIPES, \
            make_scenario_suite
        if name in SCENARIO_SUITE_RECIPES:
            return make_scenario_suite(name, scale=scale, seed=seed)
        raise KeyError(f"unknown suite {name!r}")
    if seed is None:
        seed = sum(ord(ch) for ch in name) * 7919
    return build_suite(name, desc, mix, seed=seed, scale=scale)


def small_suites(scale: float = 1.0) -> list[Suite]:
    return [make_suite(n, scale=scale) for n in SMALL_SUITE_RECIPES]


def large_suites(scale: float = 1.0) -> list[Suite]:
    return [make_suite(n, scale=scale) for n in LARGE_SUITE_RECIPES]
