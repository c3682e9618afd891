"""Solver-side emission of checkable theory-lemma justifications.

The independent checker (:mod:`repro.smt.proofcheck`) defines what a
justification *is* and how it is verified; this module is the solver's
side of that contract: given a theory conflict (premise tokens) or a
theory lemma clause, reconstruct a justification the checker will
accept.  It deliberately reuses the checker's pure helpers
(``_combine``, ``_premise_row``, ``_EufState``) as the *shadow state*
of emission, so an emitted certificate is replay-exact by construction;
the trust direction is preserved because the checker imports nothing
from here.

Emission is post hoc: instead of instrumenting every inference inside
the EUF/LIA engines, we re-derive the refutation from the conflict
core — congruence-closure saturation for EUF, provenance-tracking
Gaussian elimination plus integer-tightening Fourier–Motzkin (with
disequality splits) for LIA.  The cores are small (they are exactly
the premises the theory solvers explain), so this costs about as much
as the original derivation, and it structurally mirrors the solver's
own stateless pipeline (``_presolve_raw`` + ``_fm_raw``), which the
``incremental-vs-naive`` fuzz oracle keeps equivalent to the trail
path.  Crucially, emission is *sound by construction*: it can fail
(raising :class:`repro.smt.api.CertificateError`), but it cannot
fabricate a certificate for a lemma that is not T-valid — which is how
the mutation test in tests/smt/test_theory_certificates.py catches a
re-introduced premise-dropping solver bug at the certificate layer
rather than at the model check.
"""

from __future__ import annotations

from . import proofcheck as _pc
from .terms import Op, Term
from .theories.lia import LiaBudgetExceeded, LiaSolver


def _cert_error(msg: str):
    from .api import CertificateError  # lazy: api -> dpllt -> certify
    return CertificateError(msg)


# ----------------------------------------------------------------------
# term -> s-expression encoding (the checker's term language)
# ----------------------------------------------------------------------

def term_sexp(t: Term):
    """Encode an interned term as the checker's hashable s-expression."""
    op = t.op
    if op is Op.INTCONST:
        return ("int", t.payload)
    if op is Op.VAR:
        return ("var", t.payload[0], t.sort.value)
    if op is Op.APPLY:
        return ("apply", t.payload[0]) + tuple(term_sexp(a) for a in t.args)
    return (op.value,) + tuple(term_sexp(a) for a in t.args)


def atom_sexp(atom: Term):
    if atom.op not in (Op.EQ, Op.LE, Op.LT):
        raise _cert_error(f"cannot certify non-theory premise atom {atom!r}")
    return (atom.op.value, term_sexp(atom.args[0]), term_sexp(atom.args[1]))


# ----------------------------------------------------------------------
# EUF emission: congruence-closure saturation over s-expressions
# ----------------------------------------------------------------------

class _Saturator:
    """Re-derives a congruence chain from equality/disequality premises
    by saturating with congruence and read-over-write rules, recording
    each merge as a checker step.  The shadow union-find is the
    checker's own :class:`proofcheck._EufState`, so every recorded step
    is valid at replay by construction."""

    def __init__(self, premises):
        self.premises = premises
        self.st = _pc._EufState()
        self.steps: list[tuple] = []
        self.diseqs: list[tuple] = []
        self.universe: list = []
        self._seen: set = set()
        self.selects: list = []
        self.stores: list = []
        for i, (lit, atom) in enumerate(premises):
            self.add_term(atom[1])
            self.add_term(atom[2])
            if lit < 0:
                self.diseqs.append((atom[1], atom[2]))

    def add_term(self, s) -> None:
        if s in self._seen:
            return
        self._seen.add(s)
        self.universe.append(s)
        self.st.find(s)
        if s[0] == "select":
            self.selects.append(s)
        elif s[0] == "store":
            self.stores.append(s)
        for c in _pc._sexp_children(s):
            self.add_term(c)

    def merge(self, a, b, step) -> bool:
        if self.st.find(a) == self.st.find(b):
            return False
        self.steps.append(step)
        self.st.merge(a, b)
        return True

    def _round(self) -> bool:
        merged = False
        sig: dict = {}
        for s in list(self.universe):
            children = _pc._sexp_children(s)
            if not children:
                continue
            head = (s[0], s[1]) if s[0] == "apply" else (s[0], len(s))
            key = (head, tuple(self.st.find(c) for c in children))
            other = sig.get(key)
            if other is None:
                sig[key] = s
            else:
                merged |= self.merge(other, s, ("cong", other, s))
        for sel in list(self.selects):
            k = sel[2]
            for store in list(self.stores):
                if self.st.find(sel[1]) != self.st.find(store):
                    continue
                i = store[2]
                if self.st.find(k) == self.st.find(i):
                    merged |= self.merge(sel, store[3],
                                         ("store_same", sel, store))
                elif _pc._known_distinct(self.st, self.diseqs, k, i):
                    new = ("select", store[1], k)
                    self.add_term(new)
                    merged |= self.merge(sel, new,
                                         ("store_other", sel, store))
        return merged

    def _conclusion(self, goal):
        if goal is not None:
            if self.st.find(goal[0]) == self.st.find(goal[1]):
                return ("eq", goal[0], goal[1])
            return None
        if self.st.clash:
            return ("const",)
        for i, (lit, atom) in enumerate(self.premises):
            if lit < 0 and self.st.find(atom[1]) == self.st.find(atom[2]):
                return ("ne", i)
        return None

    def run(self, goal=None, max_steps: int = 20000):
        if goal is not None:
            self.add_term(goal[0])
            self.add_term(goal[1])
        for i, (lit, atom) in enumerate(self.premises):
            if lit > 0:
                self.merge(atom[1], atom[2], ("prem", i))
        while True:
            concl = self._conclusion(goal)
            if concl is not None:
                return concl
            if len(self.steps) > max_steps or not self._round():
                return None


def _emit_euf_just(entries, goal=None):
    """``entries``: list of ``(lit, atom Term)``, all equality atoms.
    Returns ``(premises, steps, concl)`` or None."""
    premises = tuple((lit, atom_sexp(atom)) for lit, atom in entries)
    sat = _Saturator(premises)
    concl = sat.run(goal)
    if concl is None:
        return None
    return premises, tuple(sat.steps), concl


# ----------------------------------------------------------------------
# LIA emission: provenance Gaussian + tightening Fourier–Motzkin
# ----------------------------------------------------------------------

class _Row:
    """A derivation node: premise row or checker-exact combination."""

    __slots__ = ("kind", "coeffs", "const", "src")

    def __init__(self, kind, coeffs, const, src):
        self.kind = kind
        self.coeffs = coeffs
        self.const = const
        # src: ("prem", i) | ("comb", kind, ((int multiplier, _Row), ...))
        # | ("branch",) for split-introduced rows
        self.src = src


class _Budget:
    __slots__ = ("left",)

    def __init__(self, left: int):
        self.left = left

    def spend(self) -> None:
        self.left -= 1
        if self.left <= 0:
            raise LiaBudgetExceeded()


def _comb_row(kind, entries, budget):
    """Combine rows through the checker's own ``_combine`` so the shadow
    result is exactly what replay will compute.  Returns
    ``(row, None)`` or ``(None, contra_descriptor)``."""
    budget.spend()
    res = _pc._combine([(c, (r.kind, r.coeffs, r.const)) for c, r in entries],
                       kind)
    if res[0] == "contra":
        return None, ("comb", kind, tuple(entries))
    rkind, coeffs, const = res[1]
    return _Row(rkind, coeffs, const, ("comb", kind, tuple(entries))), None


def _refute_convex(eqs, les, budget):
    """Find a contradiction among equation/inequality rows, mirroring
    the solver's Gaussian elimination + Fourier–Motzkin with integer
    tightening.  Returns a contra descriptor or None.

    Every multiplier is an integer.  Eliminating the pivot ``cv·var`` of
    an equation from a row with coefficient ``c`` combines
    ``|cv|·row − sign(cv)·c·equation``: a positive multiple of the row
    the solver derives, which the checker's tightening brings back to
    the solver's row for an inequality."""
    work = list(eqs)
    cur = []
    for r in les:
        if not r.coeffs:
            if r.const > 0:
                return ("comb", "le", ((1, r),))
            continue
        cur.append(r)
    while work:
        e = work.pop()
        if not e.coeffs:
            if e.const != 0:
                return ("comb", "eq", ((1, e),))
            continue
        # materialize the equation's own gcd-infeasibility check
        _node, contra = _comb_row("eq", ((1, e),), budget)
        if contra:
            return contra
        var = LiaSolver._lossless_pivot(e.coeffs, e.const)
        if var is None:
            var = next(iter(e.coeffs))
        cv = e.coeffs[var]
        scale, sign = abs(cv), (1 if cv > 0 else -1)

        def elim(rows):
            out = []
            for r in rows:
                c = r.coeffs.get(var)
                if not c:
                    out.append(r)
                    continue
                nr, con = _comb_row(r.kind, ((scale, r), (-sign * c, e)),
                                    budget)
                if con:
                    return out, con
                if nr.coeffs:
                    out.append(nr)
                # empty rows that are not contradictions are vacuous
            return out, None

        work, contra = elim(work)
        if contra:
            return contra
        cur, contra = elim(cur)
        if contra:
            return contra
    # tighten untouched premise inequalities (combination results are
    # already tightened by _combine)
    current = []
    for r in cur:
        if r.src[0] != "comb":
            nr, contra = _comb_row("le", ((1, r),), budget)
            if contra:
                return contra
            r = nr
        if r.coeffs:
            current.append(r)
    # Fourier–Motzkin, cheapest variable first (mirrors _fm_raw)
    while True:
        vars_here: dict = {}
        for r in current:
            for k, v in r.coeffs.items():
                pos, neg = vars_here.get(k, (0, 0))
                if v > 0:
                    vars_here[k] = (pos + 1, neg)
                else:
                    vars_here[k] = (pos, neg + 1)
        if not vars_here:
            return None
        var = min(vars_here,
                  key=lambda k: vars_here[k][0] * vars_here[k][1])
        pos_rows, neg_rows, rest = [], [], []
        for r in current:
            v = r.coeffs.get(var, 0)
            if v > 0:
                pos_rows.append(r)
            elif v < 0:
                neg_rows.append(r)
            else:
                rest.append(r)
        new = rest
        for p in pos_rows:
            for n in neg_rows:
                a = p.coeffs[var]
                b = -n.coeffs[var]
                nr, contra = _comb_row("le", ((b, p), (a, n)), budget)
                if contra:
                    return contra
                if nr.coeffs:
                    new.append(nr)
        best: dict = {}
        for r in new:
            key = tuple(sorted(r.coeffs.items()))
            old = best.get(key)
            if old is None or r.const > old.const:
                best[key] = r
        current = list(best.values())


def _search(eqs, les, nes, budget, depth: int = 2):
    """Refutation search with disequality splits; returns
    ``("direct", contra)`` or ``("split", ne, lo, hi, lo_res, hi_res)``
    or None."""
    contra = _refute_convex(eqs, les, budget)
    if contra is not None:
        return ("direct", contra)
    if depth == 0:
        return None
    for i, ne in enumerate(nes):
        rest = nes[:i] + nes[i + 1:]
        lo = _Row("le", dict(ne.coeffs), ne.const + 1, ("branch",))
        hi = _Row("le", {k: -v for k, v in ne.coeffs.items()},
                  -ne.const + 1, ("branch",))
        lo_res = _search(eqs, les + [lo], rest, budget, depth - 1)
        if lo_res is None:
            continue
        hi_res = _search(eqs, les + [hi], rest, budget, depth - 1)
        if hi_res is None:
            continue
        return ("split", ne, lo, hi, lo_res, hi_res)
    return None


def _emit_result(result, index_map: dict, length: int) -> list:
    """Linearize a search result into checker script steps, assigning
    row indices exactly as replay will (premises first, then each comb
    appends; split branch rows share the pre-branch index)."""
    script: list = []
    imap = dict(index_map)
    counter = [length]

    def mat(row) -> int:
        idx = imap.get(row)
        if idx is not None:
            return idx
        _tag, kind, entries = row.src
        terms = tuple((c, 1, mat(dep)) for c, dep in entries)
        script.append(("comb", kind, terms))
        imap[row] = counter[0]
        counter[0] += 1
        return imap[row]

    if result[0] == "direct":
        contra = result[1]
        terms = tuple((c, 1, mat(dep)) for c, dep in contra[2])
        script.append(("comb", contra[1], terms))
        return script
    _tag, ne, lo_row, hi_row, lo_res, hi_res = result
    ne_idx = mat(ne)
    base = counter[0]
    lo_script = _emit_result(lo_res, {**imap, lo_row: base}, base + 1)
    hi_script = _emit_result(hi_res, {**imap, hi_row: base}, base + 1)
    script.append(("split", ne_idx, tuple(lo_script), tuple(hi_script)))
    return script


def _eufeq_entry(core, a: Term, b: Term):
    """Nested goal-mode congruence chain justifying ``a = b`` (an EUF
    equality exported to LIA).  Returns ``(entry, row)`` or (None, None)."""
    lits = core.euf.explain_lits(a, b)
    if lits is None:
        return None, None  # non-literal reasons: cannot certify
    entries = []
    for lit in lits:
        atom = core.cnf.var_to_atom.get(abs(lit))
        if atom is None:
            return None, None
        entries.append((lit, atom))
    goal = (term_sexp(a), term_sexp(b))
    res = _emit_euf_just(entries, goal=goal)
    if res is None:
        return None, None
    eprems, esteps, _concl = res
    ca, ka = _pc._sexp_lin(goal[0])
    cb, kb = _pc._sexp_lin(goal[1])
    row = _Row("eq", _pc._lin_add(ca, cb, -1), ka - kb, None)
    return ("eufeq", goal[0], goal[1], eprems, esteps), row


def _try_euf(lit_entries):
    if not all(atom.op is Op.EQ for _, atom in lit_entries):
        return None
    res = _emit_euf_just(lit_entries)
    if res is None:
        return None
    premises, steps, concl = res
    return ("euf", premises, steps, concl)


def _try_lia(core, lit_entries, euf_pairs):
    premises: list = []
    rows: list[_Row] = []
    try:
        for lit, atom in lit_entries:
            sx = atom_sexp(atom)
            kind, coeffs, const = _pc._premise_row(lit, sx)
            premises.append((lit, sx))
            rows.append(_Row(kind, coeffs, const, ("prem", len(rows))))
    except _pc.ProofError:
        return None
    for a, b in euf_pairs:
        entry, row = _eufeq_entry(core, a, b)
        if entry is None:
            return None
        premises.append(entry)
        row.src = ("prem", len(rows))
        rows.append(row)
    eqs = [r for r in rows if r.kind == "eq"]
    les = [r for r in rows if r.kind == "le"]
    nes = [r for r in rows if r.kind == "ne"]
    budget = _Budget(max(core.lia.budget, 1000))
    result = _search(eqs, les, nes, budget)
    if result is None:
        return None
    index_map = {r: i for i, r in enumerate(rows)}
    script = _emit_result(result, index_map, len(rows))
    return ("lia", tuple(premises), tuple(script))


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def justify_lemma(core, clause, tokens=None, prefer: str = "lia"):
    """Build a checkable justification for a theory lemma ``clause``.

    ``tokens`` is the conflict's premise-token set (``("lit", l)`` /
    ``("euf", a_tid, b_tid)``); when None the premises are the negated
    clause literals (lemmas constructed clause-first: trichotomy
    splits, array instantiations, interface equalities).  ``prefer``
    orders the EUF/LIA emission attempts.  Raises
    :class:`repro.smt.api.CertificateError` when no certificate can be
    reconstructed — never fabricates one.
    """
    if tokens is None:
        tokens = [("lit", -l) for l in clause]
    lit_toks = sorted({t[1] for t in tokens if t[0] == "lit"})
    euf_toks = sorted({(t[1], t[2]) for t in tokens if t[0] == "euf"})
    lit_entries = []
    for lit in lit_toks:
        atom = core.cnf.var_to_atom.get(abs(lit))
        if atom is None:
            raise _cert_error(
                f"theory lemma premise {lit} has no theory atom")
        lit_entries.append((lit, atom))
    euf_pairs = [(core._key_terms[a], core._key_terms[b])
                 for a, b in euf_toks]
    just = None
    if prefer == "euf" and not euf_pairs:
        just = _try_euf(lit_entries)
        if just is None:
            just = _try_lia(core, lit_entries, euf_pairs)
    else:
        just = _try_lia(core, lit_entries, euf_pairs)
        if just is None and not euf_pairs:
            just = _try_euf(lit_entries)
    if just is None:
        raise _cert_error(
            "could not certify theory lemma "
            f"{sorted(clause, key=abs)}: no EUF chain or LIA certificate "
            "refutes its negated literals")
    return just
