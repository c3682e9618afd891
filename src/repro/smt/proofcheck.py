"""Standalone DRUP-style proof checker with checked theory lemmas.

This module validates the clause-derivation proofs emitted by the CDCL
core (``repro.smt.sat.solver.ProofLog``) **without importing anything
from the solver**: it re-implements unit propagation, congruence
closure and linear-arithmetic certificate checking from scratch over
plain data, so a bug in the solver's reasoning cannot also hide in the
checker.

A proof is a chronological sequence of steps ``(tag, clause)`` or
``(tag, clause, justification)``:

========  ==============================================================
``"i"``   input clause — admitted without checking (the problem itself)
``"t"``   theory lemma — T-valid but *not* propositionally derivable.
          May carry a justification (below) which is verified by an
          independent rule engine; an unjustified lemma is only
          admitted when the checker runs with ``require_justified``
          off (the pre-PR-8 trusted-axiom behaviour).
``"a"``   addition — must be RUP (reverse unit propagation: asserting
          the negation of every literal and propagating to fixpoint must
          yield a conflict) w.r.t. all clauses admitted so far; then it
          joins the database
``"d"``   deletion — removes one copy of the clause from the database
``"f"``   final clause of one UNSAT answer — must be RUP, but is only
          checked, never added (an empty final clause certifies
          unconditional unsatisfiability; a non-empty one certifies that
          its negated literals form an unsat core)
========  ==============================================================

Theory-lemma justifications
---------------------------

A clause ``C`` is T-valid iff the conjunction of the negations of its
literals is T-unsatisfiable, so every justification is a refutation of
a *premise set*: pairs ``(lit, atom)`` asserting the theory atom
``atom`` (an s-expression, below) with the sign of ``lit``.  Soundness
requires only that ``-lit`` appears in the lemma clause for every
premise literal — extra clause literals are a sound weakening.  Two
justification kinds exist:

``("euf", premises, steps, concl)``
    A congruence chain.  ``steps`` is a sequence of merges over a
    union-find of term s-expressions — ``("prem", i)`` merges the two
    sides of equality premise *i*, ``("cong", a, b)`` merges two
    applications whose arguments are already known equal,
    ``("store_same", sel, store)`` / ``("store_other", sel, store)``
    apply the read-over-write axioms.  ``concl`` states the
    contradiction: ``("ne", i)`` (disequality premise *i* is
    contradicted), ``("const",)`` (two distinct integer constants were
    merged), or ``("eq", a, b)`` (goal mode, used nested inside LIA
    certificates to justify an interface equality).

``("lia", premises, script)``
    A Farkas-style certificate with integer tightening.  Premises
    linearize to rows ``coeffs·x + const {<=,=,!=} 0``; a premise may
    also be ``("eufeq", a, b, euf_premises, euf_steps)``, a nested
    goal-mode congruence chain contributing the equation ``a - b = 0``.
    ``script`` derives new rows: ``("comb", kind, ((num, den, ref),
    ...))`` takes a rational linear combination (non-negative
    coefficients on inequality rows when ``kind == "le"``; equation
    rows may be scaled by any rational) which the checker automatically
    *tightens* (divide an integer inequality by the gcd of its
    coefficients and floor the bound) or gcd-tests (an equation whose
    integer coefficient gcd does not divide its constant has no integer
    solution); ``("split", ref, lo_script, hi_script)`` case-splits a
    disequality row ``e != 0`` into ``e + 1 <= 0`` and ``-e + 1 <= 0``,
    and both branch scripts must refute.  The script succeeds when a
    derived row is an outright contradiction (``0 < 0``-shaped).

Term s-expressions are hashable nested tuples built from ``("int",
k)``, ``("var", name, sort)``, ``("apply", name, *args)``, ``("select",
m, k)``, ``("store", m, k, v)`` and generic operators ``(op, *args)``.
The checker keeps a per-proof registry mapping each SAT variable to the
theory atom its justifications claim for it, and rejects a proof that
binds one variable to two different atoms.  (The binding of variables
to atoms is established by the CNF layer and certified on the
satisfiable side by model re-evaluation; the justification machinery
closes the per-lemma *theory reasoning* gap.)

The checker is *incremental*: one :class:`DrupChecker` can consume the
suffix of a long-lived solver's log after each ``solve()`` call, so the
cost of re-verifying a shared clause database is paid once.

A small textual serialization (one step per line, DIMACS-style
``0``-terminated, with ``; repr(justification)`` appended to justified
theory steps) is provided for corpus files and tests::

    i 1 2 0
    i -1 2 0
    a 2 0
    f 0
"""

from __future__ import annotations

import ast
import math
from fractions import Fraction
from typing import Iterable, Sequence

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


class ProofError(Exception):
    """A proof step failed to check (bogus derivation, malformed text,
    deletion of an absent clause, invalid theory justification, ...)."""


# ----------------------------------------------------------------------
# EUF justification engine: union-find over term s-expressions
# ----------------------------------------------------------------------

def _sexp_children(s) -> tuple:
    """The sub-term positions of a term s-expression."""
    if s[0] in ("var", "int"):
        return ()
    if s[0] == "apply":
        return s[2:]
    return s[1:]


class _EufState:
    """Union-find over s-expressions with integer-constant tracking."""

    __slots__ = ("parent", "num", "clash")

    def __init__(self) -> None:
        self.parent: dict = {}
        self.num: dict = {}  # root -> known integer value
        self.clash = False   # two distinct integer constants merged

    def find(self, s):
        p = self.parent
        if s not in p:
            p[s] = s
            if s[0] == "int":
                self.num[s] = s[1]
            return s
        root = s
        while p[root] != root:
            root = p[root]
        while p[s] != root:
            p[s], s = root, p[s]
        return root

    def merge(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        self.parent[ra] = rb
        va, vb = self.num.pop(ra, None), self.num.get(rb)
        if va is not None:
            if vb is not None and va != vb:
                self.clash = True
            else:
                self.num[rb] = va


def _check_cong(st: _EufState, a, b) -> None:
    if a[0] != b[0] or len(a) != len(b):
        raise ProofError("congruence step over different operators")
    if a[0] in ("var", "int"):
        raise ProofError("congruence step over atomic terms")
    if a[0] == "apply" and a[1] != b[1]:
        raise ProofError("congruence step over different functions")
    for x, y in zip(_sexp_children(a), _sexp_children(b)):
        if st.find(x) != st.find(y):
            raise ProofError("congruence step arguments are not known equal")


def _check_store(st: _EufState, sel, store) -> None:
    if sel[0] != "select" or store[0] != "store":
        raise ProofError("store step does not pair a select with a store")
    if st.find(sel[1]) != st.find(store):
        raise ProofError("store step: selected map is not known equal to "
                         "the store term")


def _known_distinct(st: _EufState, diseqs, x, y) -> bool:
    rx, ry = st.find(x), st.find(y)
    if rx == ry:
        return False
    vx, vy = st.num.get(rx), st.num.get(ry)
    if vx is not None and vy is not None and vx != vy:
        return True
    return any({st.find(a), st.find(b)} == {rx, ry} for a, b in diseqs)


def _replay_euf(premises, steps, concl) -> None:
    """Replay a congruence chain; raise :class:`ProofError` unless it
    establishes ``concl``."""
    st = _EufState()
    diseqs = []
    for lit, atom in premises:
        if not isinstance(lit, int) or lit == 0:
            raise ProofError("bad premise literal in EUF justification")
        if atom[0] != "=":
            raise ProofError("EUF premise atom is not an equality")
        if lit < 0:
            diseqs.append((atom[1], atom[2]))
    for stp in steps:
        op = stp[0]
        if op == "prem":
            lit, atom = premises[stp[1]]
            if lit < 0:
                raise ProofError("chain merges the sides of a disequality "
                                 "premise")
            st.merge(atom[1], atom[2])
        elif op == "cong":
            a, b = stp[1], stp[2]
            _check_cong(st, a, b)
            st.merge(a, b)
        elif op == "store_same":
            sel, store = stp[1], stp[2]
            _check_store(st, sel, store)
            if st.find(sel[2]) != st.find(store[2]):
                raise ProofError("store_same step: indices are not known "
                                 "equal")
            st.merge(sel, store[3])
        elif op == "store_other":
            sel, store = stp[1], stp[2]
            _check_store(st, sel, store)
            if not _known_distinct(st, diseqs, sel[2], store[2]):
                raise ProofError("store_other step: indices are not known "
                                 "distinct")
            st.merge(sel, ("select", store[1], sel[2]))
        else:
            raise ProofError(f"unknown EUF chain step {op!r}")
    kind = concl[0]
    if kind == "ne":
        lit, atom = premises[concl[1]]
        if lit >= 0:
            raise ProofError("EUF conclusion cites a non-disequality premise")
        if st.find(atom[1]) != st.find(atom[2]):
            raise ProofError("congruence chain does not contradict the "
                             "cited disequality")
    elif kind == "const":
        if not st.clash:
            raise ProofError("congruence chain does not merge two distinct "
                             "integer constants")
    elif kind == "eq":
        if st.find(concl[1]) != st.find(concl[2]):
            raise ProofError("congruence chain does not establish the "
                             "claimed equality")
    else:
        raise ProofError(f"unknown EUF conclusion {kind!r}")


# ----------------------------------------------------------------------
# LIA justification engine: Farkas combinations + integer tightening
# ----------------------------------------------------------------------

def _sexp_lin(s):
    """Linearize a term s-expression into ``(coeffs, const)`` keyed by
    opaque sub-term s-expressions.  Values are plain ints here —
    Fractions only enter through certificate-script coefficients — and
    the arithmetic below is duck-typed over both.

    Mirrors the solver's linearizer (``dpllt.linearize``) structurally:
    +, binary -, neg and multiplication by an integer literal are
    interpreted; everything else is an opaque key."""
    h = s[0]
    if h == "int":
        if not isinstance(s[1], int):
            raise ProofError("non-integer literal in LIA justification")
        return {}, s[1]
    if h == "+":
        ca, ka = _sexp_lin(s[1])
        cb, kb = _sexp_lin(s[2])
        return _lin_add(ca, cb, 1), ka + kb
    if h == "-":
        ca, ka = _sexp_lin(s[1])
        cb, kb = _sexp_lin(s[2])
        return _lin_add(ca, cb, -1), ka - kb
    if h == "neg":
        ca, ka = _sexp_lin(s[1])
        return {k: -v for k, v in ca.items()}, -ka
    if h == "*":
        if s[1][0] == "int":
            cb, kb = _sexp_lin(s[2])
            f = s[1][1]
            return {k: v * f for k, v in cb.items()}, kb * f
        if s[2][0] == "int":
            ca, ka = _sexp_lin(s[1])
            f = s[2][1]
            return {k: v * f for k, v in ca.items()}, ka * f
    return {s: 1}, 0


def _lin_add(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, 0) + sign * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def _tighten_le(coeffs: dict, const):
    """Strengthen ``coeffs·x + const <= 0`` using integrality: scale to
    integer coefficients, divide by their gcd, floor the bound."""
    if not coeffs:
        return coeffs, const
    scale = math.lcm(*(v.denominator for v in coeffs.values()))
    ints = {k: int(v * scale) for k, v in coeffs.items()}
    g = math.gcd(*(abs(v) for v in ints.values()))
    cs = -const * scale
    bound = cs // g if isinstance(cs, int) else math.floor(cs / g)
    return ({k: v // g for k, v in ints.items()}, -bound)


def _combine(entries, kind):
    """Combine rows ``(c, (rkind, coeffs, const))``; returns
    ``("contra",)`` or ``("row", (kind, coeffs, const))``."""
    if kind not in ("le", "eq"):
        raise ProofError(f"unknown combination kind {kind!r}")
    if not entries:
        raise ProofError("empty linear combination")
    coeffs: dict = {}
    const = 0
    for c, (rkind, rcoeffs, rconst) in entries:
        if rkind == "ne":
            raise ProofError("linear combination over a disequality row")
        if kind == "eq" and rkind != "eq":
            raise ProofError("equation combination uses an inequality row")
        if kind == "le" and rkind == "le" and c < 0:
            raise ProofError("negative Farkas coefficient on an "
                             "inequality row")
        for k, v in rcoeffs.items():
            nv = coeffs.get(k, 0) + c * v
            if nv:
                coeffs[k] = nv
            else:
                coeffs.pop(k, None)
        const += c * rconst
    if kind == "le":
        coeffs, const = _tighten_le(coeffs, const)
        if not coeffs and const > 0:
            return ("contra",)
        return ("row", ("le", coeffs, const))
    if not coeffs:
        return ("contra",) if const != 0 else ("row", ("eq", coeffs, const))
    scale = math.lcm(*(v.denominator for v in coeffs.values()))
    g = math.gcd(*(abs(int(v * scale)) for v in coeffs.values()))
    c2 = const * scale
    if c2.denominator != 1 or (g and c2.numerator % g != 0):
        return ("contra",)  # gcd test: no integer solution
    return ("row", ("eq", coeffs, const))


def _premise_row(lit: int, atom):
    """Derive the row asserted by ``(lit, atom)``, mirroring the
    solver's sign conventions for <=, < and =."""
    if not isinstance(lit, int) or lit == 0:
        raise ProofError("bad premise literal in LIA justification")
    op = atom[0]
    ca, ka = _sexp_lin(atom[1])
    cb, kb = _sexp_lin(atom[2])
    diff = _lin_add(ca, cb, -1)
    const = ka - kb
    if op == "=":
        return ("eq" if lit > 0 else "ne", diff, const)
    neg = {k: -v for k, v in diff.items()}
    if op == "<=":
        if lit > 0:
            return ("le", diff, const)
        return ("le", neg, -const + 1)
    if op == "<":
        if lit > 0:
            return ("le", diff, const + 1)
        return ("le", neg, -const)
    raise ProofError(f"LIA premise atom has non-arithmetic operator {op!r}")


def _run_lia_script(rows: list, script) -> bool:
    """Execute a certificate script over ``rows``; True iff it reaches a
    contradiction.  Split branches must both refute or the script is
    rejected outright."""
    for stp in script:
        op = stp[0]
        if op == "comb":
            entries = []
            for num, den, ref in stp[2]:
                if not isinstance(ref, int) or not 0 <= ref < len(rows):
                    raise ProofError("combination references a row outside "
                                     "the derivation")
                # int fast path; Fraction() also rejects non-rationals
                c = num if den == 1 and isinstance(num, int) \
                    else Fraction(num, den)
                entries.append((c, rows[ref]))
            res = _combine(entries, stp[1])
            if res[0] == "contra":
                return True
            rows.append(res[1])
        elif op == "split":
            ref = stp[1]
            if not isinstance(ref, int) or not 0 <= ref < len(rows):
                raise ProofError("split references a row outside the "
                                 "derivation")
            rkind, coeffs, const = rows[ref]
            if rkind != "ne":
                raise ProofError("split on a non-disequality row")
            base = len(rows)
            rows.append(("le", dict(coeffs), const + 1))
            lo = _run_lia_script(rows, stp[2])
            del rows[base:]
            if not lo:
                raise ProofError("split lower branch does not refute")
            rows.append(("le", {k: -v for k, v in coeffs.items()},
                         -const + 1))
            hi = _run_lia_script(rows, stp[3])
            del rows[base:]
            if not hi:
                raise ProofError("split upper branch does not refute")
            return True
        else:
            raise ProofError(f"unknown LIA script step {op!r}")
    return False


# ----------------------------------------------------------------------
# justification verification (pure per-lemma, given the lemma clause)
# ----------------------------------------------------------------------

def _premise_atom_pairs(just):
    """Yield every ``(lit, atom)`` premise of a justification, including
    the premises of nested goal-mode congruence chains."""
    if just[0] == "euf":
        yield from just[1]
    elif just[0] == "lia":
        for p in just[1]:
            if p[0] == "eufeq":
                yield from p[3]
            else:
                yield p[0], p[1]


def _verify(lits, just) -> None:
    clause = set(lits)
    for lit, _atom in _premise_atom_pairs(just):
        if not isinstance(lit, int) or -lit not in clause:
            raise ProofError(f"justification premise literal {lit} is not "
                             "negated in the lemma clause")
    head = just[0]
    if head == "euf":
        _tag, premises, steps, concl = just
        _replay_euf(premises, steps, concl)
    elif head == "lia":
        _tag, premises, script = just
        rows = []
        for p in premises:
            if p[0] == "eufeq":
                _k, a, b, eprems, esteps = p
                _replay_euf(eprems, esteps, ("eq", a, b))
                ca, ka = _sexp_lin(a)
                cb, kb = _sexp_lin(b)
                rows.append(("eq", _lin_add(ca, cb, -1), ka - kb))
            else:
                rows.append(_premise_row(p[0], p[1]))
        if not _run_lia_script(rows, script):
            raise ProofError("LIA certificate does not refute the negated "
                             "lemma")
    else:
        raise ProofError(f"unknown justification kind {head!r}")


def verify_justification(lits: Sequence[int], just) -> None:
    """Verify that ``just`` establishes the T-validity of the lemma
    clause ``lits``; raises :class:`ProofError` otherwise.

    Pure: touches no checker state, imports nothing from the solver, and
    tolerates arbitrarily malformed (adversarial) justification data."""
    try:
        _verify(tuple(lits), just)
    except ProofError:
        raise
    except Exception as exc:  # malformed adversarial structure
        raise ProofError(f"malformed theory justification: {exc!r}") from None


class DrupChecker:
    """Incremental RUP checker over an integer-literal clause database.

    Uses its own two-watched-literal propagation.  Root-level consequences
    of the database (units and their propagations) are kept persistently;
    RUP checks push temporary assignments on top and undo them afterwards.

    ``require_justified``
        Reject any theory lemma without a justification (the
        ``checked_theory_lemmas`` regime).
    ``defer``
        Queue justification math for :meth:`flush` instead of verifying
        inline (atom-registry and clause-coverage checks still run
        inline, in proof order).  Callers must flush before trusting a
        verdict.
    """

    def __init__(self, require_justified: bool = False,
                 defer: bool = False) -> None:
        self._clauses: list[list[int] | None] = []  # by id; None = deleted
        self._by_key: dict[tuple[int, ...], list[int]] = {}  # multiset of ids
        # watched literal -> ids of clauses watching it (cl[0]/cl[1])
        self._watch: dict[int, list[int]] = {}
        self._assign: dict[int, int] = {}  # var -> _TRUE/_FALSE
        self._trail: list[int] = []
        self._qhead = 0
        # The database alone propagates to a conflict: everything is RUP.
        self._contradiction = False
        self.checked = 0  # derivations + finals successfully verified
        self.require_justified = require_justified
        self.defer = defer
        self.theory_checked = 0   # lemmas whose justification was verified
        self.theory_trusted = 0   # lemmas admitted as trusted axioms
        self._atoms: dict[int, object] = {}  # var -> claimed theory atom
        self._pending: list[tuple[int, tuple[int, ...], object]] = []
        self._step_no = 0
        # (clause key, justification) pairs this checker already verified:
        # an incremental solver re-derives the same lemmas query after
        # query, and a verified certificate stays verified.
        self._just_seen: set = set()

    # -- assignment helpers -------------------------------------------

    def _value(self, lit: int) -> int:
        v = self._assign.get(abs(lit), _UNASSIGNED)
        if v == _UNASSIGNED:
            return _UNASSIGNED
        return v if lit > 0 else -v

    def _assert_lit(self, lit: int) -> bool:
        """Make ``lit`` true; returns False on conflict."""
        val = self._value(lit)
        if val == _TRUE:
            return True
        if val == _FALSE:
            return False
        self._assign[abs(lit)] = _TRUE if lit > 0 else _FALSE
        self._trail.append(lit)
        return True

    def _undo_to(self, mark: int) -> None:
        for lit in self._trail[mark:]:
            del self._assign[abs(lit)]
        del self._trail[mark:]
        self._qhead = min(self._qhead, mark)

    # -- propagation ---------------------------------------------------

    def _propagate(self) -> bool:
        """Unit propagation to fixpoint; returns False on conflict."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            watchlist = self._watch.get(-lit)
            if not watchlist:
                continue
            keep: list[int] = []
            for pos, cid in enumerate(watchlist):
                cl = self._clauses[cid]
                if cl is None:
                    continue  # lazily drop deleted clauses
                if cl[0] == -lit:
                    cl[0], cl[1] = cl[1], cl[0]
                first = cl[0]
                if self._value(first) == _TRUE:
                    keep.append(cid)
                    continue
                moved = False
                for k in range(2, len(cl)):
                    if self._value(cl[k]) != _FALSE:
                        cl[1], cl[k] = cl[k], cl[1]
                        self._watch.setdefault(cl[1], []).append(cid)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(cid)
                if self._value(first) == _FALSE:
                    keep.extend(watchlist[pos + 1:])
                    self._watch[-lit] = keep
                    self._qhead = len(self._trail)
                    return False
                self._assert_lit(first)
            self._watch[-lit] = keep
        return True

    # -- clause admission ---------------------------------------------

    @staticmethod
    def _key(lits: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(set(lits), key=abs))

    def _admit(self, lits: Sequence[int]) -> None:
        """Add a clause to the database and draw root consequences."""
        if self._contradiction:
            return
        cl = list(self._key(lits))
        if any(-l in cl for l in cl):
            return  # tautology: never useful for propagation
        cid = len(self._clauses)
        self._by_key.setdefault(tuple(cl), []).append(cid)
        if not cl:
            self._clauses.append([])
            self._contradiction = True
            return
        # Position two non-false literals at the watch slots if possible.
        cl.sort(key=lambda l: 0 if self._value(l) != _FALSE else 1)
        self._clauses.append(cl)
        if len(cl) == 1 or self._value(cl[1]) == _FALSE:
            # Unit (or already falsified) under the root assignment.
            if not self._assert_lit(cl[0]) or not self._propagate():
                self._contradiction = True
            if len(cl) >= 2:
                self._watch.setdefault(cl[0], []).append(cid)
                self._watch.setdefault(cl[1], []).append(cid)
            return
        self._watch.setdefault(cl[0], []).append(cid)
        self._watch.setdefault(cl[1], []).append(cid)

    def add_input(self, lits: Sequence[int]) -> None:
        """Admit an input clause (tag ``i``)."""
        self._admit(lits)

    def _register_lemma_atoms(self, lits: Sequence[int], just) -> None:
        """Inline (order-dependent) part of lemma checking: every premise
        literal must be negated in the clause, and each SAT variable must
        claim one single theory atom across the whole proof."""
        clause = set(lits)
        try:
            pairs = list(_premise_atom_pairs(just))
        except Exception as exc:
            raise ProofError(
                f"malformed theory justification: {exc!r}") from None
        for lit, atom in pairs:
            if not isinstance(lit, int) or lit == 0:
                raise ProofError("bad premise literal in justification")
            if -lit not in clause:
                raise ProofError(f"justification premise literal {lit} is "
                                 "not negated in the lemma clause")
            prev = self._atoms.setdefault(abs(lit), atom)
            if prev != atom:
                raise ProofError(f"variable {abs(lit)} is bound to two "
                                 "different theory atoms across the proof")

    def add_axiom(self, lits: Sequence[int], just=None) -> None:
        """Admit a theory lemma (tag ``t``), verifying its justification."""
        if just is None:
            if self.require_justified:
                raise ProofError("unjustified theory lemma "
                                 f"{sorted(lits, key=abs)}")
            self.theory_trusted += 1
        else:
            self._register_lemma_atoms(lits, just)
            key = (self._key(lits), just)
            if key in self._just_seen:
                pass
            elif self.defer:
                self._pending.append((self._step_no, tuple(lits), just))
            else:
                verify_justification(lits, just)
                self._just_seen.add(key)
            self.theory_checked += 1
        self._admit(lits)

    def flush(self) -> None:
        """Verify all deferred justifications."""
        queued, self._pending = self._pending, []
        for idx, lits, just in queued:
            key = (self._key(lits), just)
            if key in self._just_seen:
                continue
            try:
                verify_justification(lits, just)
            except ProofError as exc:
                raise ProofError(f"theory lemma at step {idx}: "
                                 f"{exc}") from None
            self._just_seen.add(key)

    def delete(self, lits: Sequence[int]) -> None:
        """Remove one copy of a clause (tag ``d``).

        Root-level units already propagated from the clause are *not*
        retracted (the usual DRUP-checker behaviour).  The solver's
        learnt-clause database reduction emits one ``d`` step per dropped
        clause, so every ``Solver(validate=True)`` replay exercises this.
        """
        key = self._key(lits)
        ids = self._by_key.get(key)
        if not ids:
            raise ProofError(f"deletion of absent clause {list(key)}")
        cid = ids.pop()
        self._clauses[cid] = None

    # -- RUP checking --------------------------------------------------

    def is_rup(self, lits: Sequence[int]) -> bool:
        """Does asserting the negation of every literal of ``lits`` and
        propagating to fixpoint yield a conflict?"""
        if self._contradiction:
            return True
        mark = len(self._trail)
        ok = True
        for lit in lits:
            if not self._assert_lit(-lit):
                break  # complementary literals or a root-true literal
        else:
            ok = self._propagate()
        conflict = not ok or any(self._value(-l) == _FALSE for l in lits)
        self._undo_to(mark)
        return conflict

    def check_derivation(self, lits: Sequence[int]) -> None:
        """Verify an addition (tag ``a``): RUP check, then admit."""
        if not self.is_rup(lits):
            raise ProofError(f"derived clause is not RUP: {sorted(lits, key=abs)}")
        self.checked += 1
        self._admit(lits)

    def check_final(self, lits: Sequence[int]) -> None:
        """Verify a final clause (tag ``f``): RUP check only, no admission."""
        if not self.is_rup(lits):
            raise ProofError(f"final clause is not RUP: {sorted(lits, key=abs)}")
        self.checked += 1

    def step(self, tag: str, lits: Sequence[int], just=None) -> None:
        """Apply one proof step; raises :class:`ProofError` when invalid."""
        self._step_no += 1
        if just is not None and tag != "t":
            raise ProofError(f"justification on non-theory step {tag!r}")
        if tag == "i":
            self.add_input(lits)
        elif tag == "t":
            self.add_axiom(lits, just)
        elif tag == "a":
            self.check_derivation(lits)
        elif tag == "d":
            self.delete(lits)
        elif tag == "f":
            self.check_final(lits)
        else:
            raise ProofError(f"unknown proof step tag {tag!r}")


def check_proof(steps: Iterable[Sequence], require_unsat: bool = False,
                require_justified: bool = False) -> int:
    """Check a whole proof; returns the number of verified derivations.

    Steps are ``(tag, lits)`` or ``(tag, lits, justification)``.  With
    ``require_unsat=True`` the proof must contain at least one final
    (``f``) step, i.e. it must actually certify an UNSAT answer.  With
    ``require_justified=True`` every theory lemma must carry a verified
    justification.
    """
    checker = DrupChecker(require_justified=require_justified, defer=True)
    finals = 0
    for i, step in enumerate(steps):
        tag, lits = step[0], step[1]
        just = step[2] if len(step) > 2 else None
        checker._step_no = i
        try:
            checker.step(tag, lits, just)
        except ProofError as exc:
            raise ProofError(f"step {i}: {exc}") from None
        if tag == "f":
            finals += 1
    checker.flush()
    if require_unsat and finals == 0:
        raise ProofError("proof has no final (f) step: nothing is refuted")
    return checker.checked


# ----------------------------------------------------------------------
# textual serialization (for corpus files and tests)
# ----------------------------------------------------------------------

def format_proof(steps: Iterable[Sequence]) -> str:
    """One step per line: ``<tag> <lit> ... 0``, with a justified theory
    step carrying `` ; repr(justification)`` after the terminator."""
    out = []
    for step in steps:
        tag, lits = step[0], step[1]
        just = step[2] if len(step) > 2 else None
        line = f"{tag} {' '.join(map(str, lits))} 0".replace("  ", " ")
        if just is not None:
            line += f" ; {just!r}"
        out.append(line + "\n")
    return "".join(out)


def parse_proof(text: str) -> list[tuple]:
    """Inverse of :func:`format_proof`; raises on malformed/truncated input."""
    steps: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        just = None
        if " ; " in raw:
            body, jtext = raw.split(" ; ", 1)
            try:
                just = ast.literal_eval(jtext.strip())
            except (ValueError, SyntaxError):
                raise ProofError(f"line {lineno}: unparsable "
                                 "justification") from None
        else:
            body = raw
        line = body.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag not in ("i", "t", "a", "d", "f"):
            raise ProofError(f"line {lineno}: unknown tag {tag!r}")
        if just is not None and tag != "t":
            raise ProofError(f"line {lineno}: justification on non-theory "
                             f"step {tag!r}")
        try:
            lits = [int(p) for p in parts[1:]]
        except ValueError:
            raise ProofError(f"line {lineno}: non-integer literal") from None
        if not lits or lits[-1] != 0:
            raise ProofError(f"line {lineno}: truncated step (missing "
                             "terminating 0)")
        if any(l == 0 for l in lits[:-1]):
            raise ProofError(f"line {lineno}: literal 0 inside clause")
        if just is not None:
            steps.append((tag, tuple(lits[:-1]), just))
        else:
            steps.append((tag, tuple(lits[:-1])))
    return steps


def check_proof_text(text: str, require_unsat: bool = False,
                     require_justified: bool = False) -> int:
    """Parse and check a textual proof; returns verified-derivation count."""
    return check_proof(parse_proof(text), require_unsat=require_unsat,
                       require_justified=require_justified)
