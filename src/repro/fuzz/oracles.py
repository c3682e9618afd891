"""Differential oracles: independent implementations cross-checked.

Every oracle is a function ``(program, rng) -> str | None`` returning a
human-readable disagreement description, or ``None`` when the two sides
agree.  A :class:`repro.smt.api.CertificateError` escaping an oracle is
*also* a finding (the self-checking solver rejected its own answer); the
campaign driver counts those separately.

The oracle matrix (also in ``docs/testing.md``):

=====================  ==============================  =======================
oracle                 side A                          side B
=====================  ==============================  =======================
``roundtrip``          ``parse(pretty(p))``            ``p`` (structural ==)
``interp-vs-wp``       concrete interpreter run        ``wp(body, true)``
                                                       evaluated at the state
``brute-vs-solver``    exhaustive input enumeration    SMT Dead/Fail oracle
``incremental-vs-``    monotonicity-hinted             per-query naive
``naive``              ``fail_set``/``dead_set``       recomputation
``cache``              uncached analysis               cache miss+store / hit
``jobs``               ``analyze_program(jobs=2)``     serial sweep
``theory_``            checked theory lemmas           ``checked_theory_``
``justifications``     (certified + replayed)          ``lemmas=False`` (trusted)
=====================  ==============================  =======================

Fragment restrictions (enforced by the generator presets in ``gen``):

* execution-based oracles (``interp-vs-wp``, ``brute-vs-solver``) need
  *deterministic* programs — the interpreter explores one execution,
  the solver all of them;
* ``brute-vs-solver`` additionally needs int-only programs whose inputs
  are boxed by a domain prelude (``assume -B <= v && v <= B``) so the
  enumeration over the same box is exact in both directions, and no
  uninterpreted functions (the interpreter pins one interpretation, the
  solver quantifies over all).
"""

from __future__ import annotations

import random
import tempfile
from functools import wraps
from itertools import product

from ..core.analysis import _BUDGET_ERRORS, analyze_procedure, analyze_program
from ..core.clauses import ClauseSet, clause_set_formula
from ..core.deadfail import Budget, DeadFailOracle, clear_baseline_cache
from ..core.predicates import mine_predicates
from ..lang.ast import BoolLit, Program, Type
from ..lang.interp import ExecStatus, Interpreter, MapValue, initial_state
from ..lang.parser import parse_program
from ..lang.pretty import pp_program
from ..lang.transform import prepare_procedure
from ..smt.tuning import tuning
from ..vc.encode import EncodedProcedure
from ..vc.wp import wp
from .gen import DEFAULT_DOMAIN_BOUND

#: Enumeration box half-width for ``brute-vs-solver``; must match the
#: domain prelude of every program the oracle is given (the generator's
#: ``BRUTE`` preset and every committed corpus case use the same bound).
DOMAIN_BOUND = DEFAULT_DOMAIN_BOUND


def _skip_on_budget(fn):
    """Solver-backed oracles skip programs that exhaust a deterministic
    work budget (LIA pivot count, AllSAT enumeration, recursion) or the
    oracle's wall-clock allowance: a too-hard random program is not a
    finding, and the campaign has hundreds more."""
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _BUDGET_ERRORS:
            return None
    return wrapper


def _first_proc(program: Program) -> str:
    for name, p in program.procedures.items():
        if p.body is not None:
            return name
    raise ValueError("program has no procedure with a body")


def _fields(report) -> dict:
    """The semantically meaningful slice of a ProcedureReport (wall-clock
    and counter fields legitimately differ between runs)."""
    return {
        "status": report.status,
        "timed_out": report.timed_out,
        "warnings": list(report.warnings),
        "conservative_warnings": list(report.conservative_warnings),
        "specs": list(report.specs),
        "n_preds": report.n_preds,
        "n_cover_clauses": report.n_cover_clauses,
    }


# ----------------------------------------------------------------------
# oracle: pretty-print / parse round-trip
# ----------------------------------------------------------------------

def roundtrip(program: Program, rng: random.Random) -> str | None:
    src = pp_program(program)
    try:
        back = parse_program(src)
    except SyntaxError as exc:
        return f"pretty-printed program does not parse: {exc}"
    if back != program:
        return "parse(pretty(p)) != p"
    return None


# ----------------------------------------------------------------------
# oracle: interpreter vs wp
# ----------------------------------------------------------------------

def interp_vs_wp(program: Program, rng: random.Random,
                 n_states: int = 12) -> str | None:
    """On a *deterministic* program, ``wp(body, true)`` evaluated at an
    input state must be equivalent to "the unique execution from that
    state does not fail an assertion" (blocked executions satisfy any
    wp vacuously)."""
    name = _first_proc(program)
    prepared = prepare_procedure(program, program.proc(name))
    body = prepared.body
    precondition = wp(body, BoolLit(True))
    interp = Interpreter()
    for _ in range(n_states):
        values = {}
        var_types = dict(program.globals)
        var_types.update(prepared.var_types)
        for var, ty in var_types.items():
            if ty == Type.MAP:
                values[var] = MapValue({}, rng.randint(-2, 2))
            else:
                values[var] = rng.randint(-3, 3)
        state = initial_state(prepared, values, program.globals)
        predicted_ok = interp.eval_formula(precondition, dict(state))
        result = interp.run(body, dict(state))
        actual_ok = result.status != ExecStatus.ASSERT_FAIL
        if predicted_ok != actual_ok:
            return (f"wp predicts {'ok' if predicted_ok else 'failure'} but "
                    f"execution {result.status} at state "
                    f"{ {k: v for k, v in sorted(state.items())} }")
    return None


# ----------------------------------------------------------------------
# oracle: brute-force enumeration vs the SMT Dead/Fail oracle
# ----------------------------------------------------------------------

@_skip_on_budget
def brute_vs_solver(program: Program, rng: random.Random,
                    self_check: bool = True) -> str | None:
    """On a deterministic int-only program whose inputs are boxed by a
    domain prelude, exhaustively enumerate the box and compare:

    * first-failure sets — assertion labels that are the first failure
      of some execution — against ``conservative_fail()`` (``Fail(true)``);
    * visited locations against the live-location baseline with the
      strict §2.3 semantics (``dead_through_failures=False``: execution
      stops at the first failing assertion, exactly like the
      interpreter does).
    """
    name = _first_proc(program)
    prepared = prepare_procedure(program, program.proc(name))
    int_vars = sorted(v for v, ty in {**program.globals,
                                      **prepared.var_types}.items()
                      if ty == Type.INT)
    if any(ty == Type.MAP for ty in prepared.var_types.values()) or \
            program.functions:
        return None  # outside the oracle's exact fragment
    if len(int_vars) > 4:
        return None  # box too large to enumerate
    interp = Interpreter()
    brute_fail: set[str] = set()
    brute_live: set[int] = set()
    box = range(-DOMAIN_BOUND, DOMAIN_BOUND + 1)
    for point in product(box, repeat=len(int_vars)):
        state = initial_state(prepared, dict(zip(int_vars, point)),
                              program.globals)
        result = interp.run(prepared.body, dict(state))
        brute_live |= result.visited_locations
        if result.status == ExecStatus.ASSERT_FAIL:
            fa = result.failed_assert
            # same naming rule as vc.encode: explicit label or A<aid>
            brute_fail.add(fa.label if fa.label is not None else f"A{fa.aid}")
    clear_baseline_cache()
    enc = EncodedProcedure(program, prepared, self_check=self_check)
    oracle = DeadFailOracle(enc, [], dead_through_failures=False)
    solver_fail = set(oracle.labels_of(oracle.conservative_fail()))
    solver_live = set(oracle.live_locs)
    if solver_fail != brute_fail:
        return (f"Fail(true) mismatch: solver={sorted(solver_fail)} "
                f"brute={sorted(brute_fail)}")
    if solver_live != brute_live:
        return (f"live locations mismatch: solver={sorted(solver_live)} "
                f"brute={sorted(brute_live)}")
    return None


# ----------------------------------------------------------------------
# oracle: incremental (monotonicity-hinted) vs naive Dead/Fail
# ----------------------------------------------------------------------

def _random_clause_set(rng: random.Random, n_preds: int,
                       max_clauses: int = 3) -> ClauseSet:
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        size = rng.randint(1, min(2, n_preds))
        idxs = rng.sample(range(1, n_preds + 1), size)
        clauses.append(frozenset(i if rng.random() < 0.5 else -i
                                 for i in idxs))
    return frozenset(clauses)


@_skip_on_budget
def incremental_vs_naive(program: Program, rng: random.Random,
                         self_check: bool = True) -> str | None:
    """The incremental ``fail_set``/``dead_set`` (with caches, bounded
    variants and parent-spec monotonicity hints) must agree with a naive
    per-query recomputation through ``fail_set_formula`` /
    ``dead_set_formula`` on a fresh encoding."""
    name = _first_proc(program)
    prepared = prepare_procedure(program, program.proc(name))
    preds = mine_predicates(program, prepared, max_preds=5)
    clear_baseline_cache()
    budget = Budget(20.0)
    enc = EncodedProcedure(program, prepared, lia_budget=5000,
                           self_check=self_check)
    inc = DeadFailOracle(enc, preds, budget=budget)
    enc2 = EncodedProcedure(program, prepared, lia_budget=5000,
                            self_check=self_check)
    naive = DeadFailOracle(enc2, [], budget=budget)

    parent = _random_clause_set(rng, len(preds)) if preds else frozenset()
    strong = parent | (_random_clause_set(rng, len(preds))
                       if preds else frozenset())

    def naive_fail(cs: ClauseSet) -> frozenset:
        return naive.fail_set_formula(clause_set_formula(cs, preds))

    def naive_dead(cs: ClauseSet) -> frozenset:
        return naive.dead_set_formula(clause_set_formula(cs, preds))

    # true-spec baseline: memoized conservative_fail vs naive Fail(true)
    if inc.conservative_fail() != naive_fail(frozenset()):
        return "Fail(true): conservative_fail != naive fail_set_formula"

    nf_strong, nd_strong = naive_fail(strong), naive_dead(strong)
    # bounded variant first (uncached path): an insufficient limit must
    # yield None, a sufficient one the exact set
    if nf_strong and inc.fail_set_bounded(
            strong, len(nf_strong) - 1) is not None:
        return "fail_set_bounded returned a set above its limit"
    if inc.fail_set_bounded(strong, len(nf_strong)) != nf_strong:
        return (f"fail_set_bounded({len(nf_strong)}) disagrees with naive "
                f"recomputation on {sorted(map(sorted, strong))}")
    f_strong, d_strong = inc.fail_set(strong), inc.dead_set(strong)
    if f_strong != nf_strong:
        return (f"fail_set mismatch on strong spec: inc={sorted(f_strong)} "
                f"naive={sorted(nf_strong)}")
    if d_strong != nd_strong:
        return (f"dead_set mismatch on strong spec: inc={sorted(d_strong)} "
                f"naive={sorted(nd_strong)}")
    # the weaker parent, computed *with* monotonicity hints from the
    # stronger child: Fail is antitone, Dead is monotone in the spec
    f_weak = inc.fail_set(parent, superset_of=f_strong)
    d_weak = inc.dead_set(parent, subset_of=d_strong)
    if f_weak != naive_fail(parent):
        return (f"hinted fail_set mismatch on parent spec: "
                f"inc={sorted(f_weak)} naive={sorted(naive_fail(parent))}")
    if d_weak != naive_dead(parent):
        return (f"hinted dead_set mismatch on parent spec: "
                f"inc={sorted(d_weak)} naive={sorted(naive_dead(parent))}")
    return None


# ----------------------------------------------------------------------
# oracle: cached vs uncached analysis
# ----------------------------------------------------------------------

@_skip_on_budget
def cached_vs_uncached(program: Program, rng: random.Random,
                       self_check: bool = True) -> str | None:
    """``analyze_procedure`` must report the same result uncached, on a
    cache miss (fresh solve + store) and on the subsequent hit, read
    from the record by a run that starts from an empty memo.  Only
    unchecked runs read or write records, so ``self_check`` applies to
    the uncached run alone.

    No wall-clock timeout: the only budgets are deterministic work
    counters (LIA pivots, vocabulary size), so ``timed_out`` itself is a
    reproducible field and safe to compare."""
    name = _first_proc(program)
    kwargs = dict(timeout=None, lia_budget=5000, max_preds=6)
    uncached = _fields(analyze_procedure(program, name,
                                         self_check=self_check, **kwargs))
    clear_baseline_cache()  # the miss must solve, not hit the memo
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as tmp:
        miss = _fields(analyze_procedure(program, name, cache=tmp, **kwargs))
        clear_baseline_cache()  # the hit must read the record
        hit = _fields(analyze_procedure(program, name, cache=tmp, **kwargs))
    if miss != uncached:
        return f"cache-miss run differs from uncached: {miss} vs {uncached}"
    if hit != uncached:
        return f"cache-hit report differs from uncached: {hit} vs {uncached}"
    return None


# ----------------------------------------------------------------------
# oracle: parallel vs serial sweep
# ----------------------------------------------------------------------

@_skip_on_budget
def jobs_vs_serial(program: Program, rng: random.Random,
                   self_check: bool = True) -> str | None:
    """``analyze_program(jobs=2)`` must equal the serial sweep report
    for report (modulo wall-clock fields)."""
    kwargs = dict(timeout=None, lia_budget=5000, max_preds=6,
                  self_check=self_check)
    serial = analyze_program(program, **kwargs)
    clear_baseline_cache()  # forked workers would inherit the memo
    parallel = analyze_program(program, jobs=2, **kwargs)
    a = [(r.proc_name, _fields(r)) for r in serial.reports]
    b = [(r.proc_name, _fields(r)) for r in parallel.reports]
    if a != b:
        return f"jobs=2 sweep differs from serial: {b} vs {a}"
    return None


# ----------------------------------------------------------------------
# oracle: checked vs trusted theory lemmas
# ----------------------------------------------------------------------

@_skip_on_budget
def theory_justifications(program: Program,
                          rng: random.Random) -> str | None:
    """Checked theory lemmas must be invisible to every report: the run
    whose lemmas all carry checker-replayed justifications (the default)
    must equal the trusted-lemma run.  Since both sides keep
    self-checking on, an unjustifiable or checker-rejected lemma
    surfaces as a CertificateError finding."""
    kwargs = dict(timeout=None, lia_budget=5000, max_preds=6,
                  self_check=True)
    checked = [(r.proc_name, _fields(r))
               for r in analyze_program(program, **kwargs).reports]
    with tuning(checked_theory_lemmas=False):
        trusted = [(r.proc_name, _fields(r))
                   for r in analyze_program(program, **kwargs).reports]
    if checked != trusted:
        return ("analysis changed with checked theory lemmas disabled: "
                f"{trusted} vs {checked}")
    return None


ORACLES = {
    "roundtrip": roundtrip,
    "interp-vs-wp": interp_vs_wp,
    "brute-vs-solver": brute_vs_solver,
    "incremental-vs-naive": incremental_vs_naive,
    "cache": cached_vs_uncached,
    "jobs": jobs_vs_serial,
    "theory_justifications": theory_justifications,
}


def run_oracle(name: str, program: Program,
               seed: int = 0) -> str | None:
    """Replay entry point (used by the corpus collector): run one named
    oracle on a program with a deterministic rng."""
    try:
        fn = ORACLES[name]
    except KeyError:
        raise ValueError(f"unknown oracle {name!r}; "
                         f"known: {sorted(ORACLES)}") from None
    return fn(program, random.Random(seed))
