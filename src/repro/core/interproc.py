"""Limited interprocedural analysis (the paper's §7 future work).

    "Extending our current work to perform limited interprocedural
     analysis [9] by asserting failure preconditions at call sites will
     increase the scope of analysis and increase the set of abstract
     SIBs."

The mechanism: run the intraprocedural analysis once per procedure; the
almost-correct specification of a callee is its *likely intended
precondition* (the minimal weakening of the angelic spec that keeps the
callee's code alive).  Strengthening the callee's ``requires`` with it
makes call elaboration assert that condition at every call site, so the
caller's analysis now checks it — the simple-but-buggy callee
(``void Foo(x) { *x = 1; }``, the paper's dominant FN class) becomes
checkable at its callers.

Soundness guardrails:

* only clauses over the callee's *parameters and globals* survive (a
  caller cannot mention the callee's ``lam$`` constants or locals);
* multiple almost-correct specifications combine disjunctively (the
  weakest plausible contract);
* trivial specs (``true``) change nothing;
* the pass never touches ``ensures`` (failure preconditions only).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from ..lang.ast import (BoolLit, Formula, Procedure, Program,
                        formula_vars, mk_and, mk_or, stmt_callees, TRUE)
from ..lang.transform import is_lambda_const
from .analysis import ProgramReport, analyze_program
from .config import AbstractionConfig, CONC
from .sib import find_abstract_sibs
from .deadfail import Budget


# ======================================================================
# procedure-level dependency graph (call edges)
# ======================================================================
#
# Call elaboration (§2.1) inlines a callee's *specification* — its
# ``requires``/``ensures``, parameter/return signature and ``modifies``
# clause — into every caller's prepared body, and nothing else: the
# callee's own body never enters the caller's encoding.  A caller's
# analysis therefore depends on exactly (a) its own surface text and
# (b) the spec slice of each direct callee.  The incremental driver
# (`repro.core.incremental`) uses these edges to invalidate callers
# when a callee's spec changes while leaving body-only callee edits to
# dirty just the callee itself.


def call_graph(program: Program) -> dict[str, tuple[str, ...]]:
    """``caller -> sorted direct callees`` over the *surface* program
    (pre-elaboration; elaborated bodies have no ``CallStmt`` left)."""
    return {name: tuple(sorted(stmt_callees(proc.body)))
            for name, proc in program.procedures.items()}


def callers_of(program: Program) -> dict[str, tuple[str, ...]]:
    """Reverse edges of :func:`call_graph`: ``callee -> sorted direct
    callers``."""
    rev: dict[str, set[str]] = {name: set() for name in program.procedures}
    for caller, callees in call_graph(program).items():
        for callee in callees:
            rev.setdefault(callee, set()).add(caller)
    return {name: tuple(sorted(callers)) for name, callers in rev.items()}


def spec_fingerprint(proc: Procedure) -> str:
    """Content hash of the slice of ``proc`` that call elaboration
    inlines into callers: signature, ``requires``/``ensures``,
    ``modifies`` and the declared types of parameters and returns.

    Deliberately excludes the body (a body-only edit must not dirty
    callers) and the name (a rename forces call-site edits in every
    caller anyway, so the callers' own surface text already changes).
    """
    iface_types = {v: t for v, t in sorted(proc.var_types.items())
                   if v in proc.params or v in proc.returns}
    h = hashlib.sha256()
    for part in (proc.params, proc.returns, iface_types, proc.modifies,
                 proc.requires, proc.ensures):
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def spec_dependents(graph: dict, spec_changed: set[str]) -> set[str]:
    """Procedures whose analysis a spec change in ``spec_changed``
    invalidates: the direct callers of each changed procedure, read
    off ``graph`` (``caller -> direct callees``, as :func:`call_graph`
    or :meth:`repro.frontend.ingest.IngestedRepo.call_graph` give it).

    One level only, by construction: elaboration rewrites a call into
    assert-pre / bind / assume-post using the callee's spec, so a
    callee's *spec* reaches exactly its direct callers — the callers'
    own specs are untouched, and their callers see nothing.
    """
    return {caller for caller, callees in graph.items()
            if not spec_changed.isdisjoint(callees)}


@dataclass
class InterprocResult:
    """Both passes' reports plus the inferred contracts."""

    intra: ProgramReport
    inter: ProgramReport
    # procedure name -> pretty contract added to its requires
    contracts: dict = field(default_factory=dict)

    @property
    def new_warnings(self) -> dict:
        """Warnings present in pass 2 but not pass 1, per procedure."""
        before = {r.proc_name: set(r.warnings) for r in self.intra.reports}
        out = {}
        for r in self.inter.reports:
            extra = [w for w in r.warnings
                     if w not in before.get(r.proc_name, set())]
            if extra:
                out[r.proc_name] = extra
        return out


def _callable_part(spec: Formula, proc: Procedure,
                   program: Program) -> Formula:
    """Restrict a spec to the vocabulary callers can establish."""
    visible = set(proc.params) | set(program.globals)
    vs = formula_vars(spec)
    if not vs:
        return TRUE  # 'true' (or vacuous) adds nothing
    if vs <= visible:
        return spec
    # conjunction: keep the visible conjuncts (weakening — sound for a
    # *likely* precondition); anything else is dropped wholesale
    from ..lang.ast import AndExpr
    if isinstance(spec, AndExpr):
        keep = [a for a in spec.args if formula_vars(a) <= visible]
        return mk_and(*keep)
    return TRUE


def infer_contracts(program: Program,
                    config: AbstractionConfig = CONC,
                    timeout: float | None = 10.0,
                    unroll_depth: int = 2,
                    max_preds: int = 12,
                    proc_names: list[str] | None = None) -> dict:
    """Pass 1: per-procedure almost-correct specs as likely preconditions.

    Returns name -> Formula (only entries that actually strengthen).
    """
    names = proc_names if proc_names is not None else [
        n for n, p in program.procedures.items() if p.body is not None]
    contracts: dict = {}
    for name in names:
        proc = program.proc(name)
        try:
            res = find_abstract_sibs(program, proc, config=config,
                                     budget=Budget(timeout),
                                     unroll_depth=unroll_depth,
                                     max_preds=max_preds)
        except Exception:
            continue  # timeouts etc.: no contract for this procedure
        candidates = [_callable_part(fm, proc, program)
                      for fm in res.spec_formulas]
        candidates = [c for c in candidates
                      if not (isinstance(c, BoolLit) and c.value)]
        if not candidates or len(candidates) != len(res.spec_formulas):
            # if any alternative degenerated to true, the disjunction is true
            continue
        contracts[name] = mk_or(*candidates)
    return contracts


def strengthen_program(program: Program, contracts: dict) -> Program:
    """Add each inferred contract to the procedure's requires."""
    procedures = {}
    for name, proc in program.procedures.items():
        if name in contracts:
            proc = replace(proc, requires=mk_and(proc.requires,
                                                 contracts[name]))
        procedures[name] = proc
    return Program(globals=program.globals, functions=program.functions,
                   procedures=procedures)


def analyze_program_interprocedural(
        program: Program,
        config: AbstractionConfig = CONC,
        prune_k: int | None = None,
        timeout: float | None = 10.0,
        unroll_depth: int = 2,
        max_preds: int = 12,
        proc_names: list[str] | None = None) -> InterprocResult:
    """Two-pass analysis: infer contracts, assert them at call sites,
    re-analyze."""
    intra = analyze_program(program, config=config, prune_k=prune_k,
                            timeout=timeout, unroll_depth=unroll_depth,
                            max_preds=max_preds, proc_names=proc_names)
    contracts = infer_contracts(program, config=config, timeout=timeout,
                                unroll_depth=unroll_depth,
                                max_preds=max_preds, proc_names=proc_names)
    strengthened = strengthen_program(program, contracts)
    inter = analyze_program(strengthened, config=config, prune_k=prune_k,
                            timeout=timeout, unroll_depth=unroll_depth,
                            max_preds=max_preds, proc_names=proc_names)
    from ..lang.pretty import pp_formula
    return InterprocResult(
        intra=intra, inter=inter,
        contracts={n: pp_formula(f) for n, f in contracts.items()})
