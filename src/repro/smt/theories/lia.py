"""Linear integer arithmetic by explained Fourier–Motzkin elimination.

Constraints are linear forms over opaque variable keys (the DPLL(T) layer
uses term ids of non-arithmetic subterms).  Coefficients and constants
are plain Python integers: every VC atom has integer coefficients, and
every step below keeps them integral.  Every constraint carries a
frozenset of *premise tokens* so an infeasibility verdict comes with an
explanation (the union of the premises of the constraints combined into
the contradiction).

Pipeline per :func:`check` call:

1. Gaussian elimination of equations, free of fractions.  Each equation
   is divided by its content (the gcd of its coefficients, which must
   divide the constant, or the equation has no integer solution), so a
   lossless pivot has coefficient ±1 and substitutes exactly.  A lossy
   pivot ``a·x + rest + k = 0`` eliminates ``x`` from a row with
   coefficient ``c`` by cross-multiplying: ``a·row − c·equation``.
2. Integer tightening of inequalities (divide by the gcd of the
   variable coefficients, floor the constant).
3. Fourier–Motzkin elimination, cheapest variable first, combining rows
   with positive integer multipliers.
4. Disequalities last: ``e != 0`` conflicts iff both ``e <= -1`` and
   ``e >= 1`` are infeasible with the rest.

Completeness note (see DESIGN.md): steps 1–3 decide rational feasibility
exactly; the gcd/floor tightenings give integer reasoning sufficient for
the unit-coefficient constraints our VC generator emits.  Work is bounded
by a constraint budget; exceeding it raises :class:`LiaBudgetExceeded`,
which the analysis layer reports as a timeout (the paper's TO column).

The DPLL(T) layer uses the *trail* API: facts are :meth:`LiaSolver.push`-ed
as the SAT trail grows and :meth:`LiaSolver.pop_to`-ped on backjumps.
Each equation is Gaussian-eliminated *once*, at push time, against the
substitution chain built so far; inequalities are substituted and
tightened once and kept in reduced form; single-variable rows feed a
bound store so ``x <= 2, x >= 3``-style conflicts surface at push time,
before any Fourier–Motzkin elimination.  A check then only has to
presolve the (usually empty) non-trail side equations on top of the
already-reduced rows — see :meth:`LiaSolver.context`.  The stateless
:meth:`LiaSolver.check` decides a whole fact list at once; the model
value search (`repro.smt.model`) uses it to probe candidate values.
"""

from __future__ import annotations

from math import gcd


class LiaBudgetExceeded(Exception):
    """The Fourier–Motzkin constraint budget was exhausted."""


#: Test-only fault injection: re-introduce the PR 3 Gaussian pivot bug
#: (eliminate with the first variable in insertion order while claiming
#: the substitution is integer-lossless, and drop the equation's premise
#: from the substituted rows).  The mutation test in
#: tests/smt/test_theory_certificates.py flips this to prove the
#: checked-lemma pass — not just the sat-model re-evaluation — catches
#: the resulting unsound conflict explanations.  Never set outside tests.
PR3_PIVOT_BUG = False


# A linear form is dict[key, int] with no zero values, kept in insertion
# order (elimination picks variables by it); a constraint is
# (coeffs, const, premises) meaning  sum(coeffs * x) + const <= 0  (an
# inequality) or == 0 (an equation).  A substitution-chain entry
# (var, a, rest, k, premises) records the equation  a*var + rest + k = 0
# with a > 0 that eliminated var.

LinForm = dict
Constraint = tuple


def lin_comb(a: LinForm, sa: int, b: LinForm, sb: int) -> LinForm:
    """``sa·a + sb·b`` (``sa`` nonzero): ``a``'s keys in order, then the
    new keys of ``b``; cancelled keys are dropped."""
    out = {k: v * sa for k, v in a.items()}
    for k, v in b.items():
        nv = out.get(k, 0) + v * sb
        if nv:
            out[k] = nv
        else:
            del out[k]
    return out


def _neg(coeffs: LinForm) -> LinForm:
    return {k: -v for k, v in coeffs.items()}


def _tighten(coeffs: LinForm, const: int) -> tuple[LinForm, int]:
    """Integer tightening of ``sum coeffs + const <= 0``: with g the gcd
    of the coefficients, ``sum (a_i/g) x_i <= floor(-const/g)``.  The
    result is the same for a row and any positive multiple of it."""
    if not coeffs:
        return coeffs, const
    g = gcd(*coeffs.values())
    if g == 1:
        return coeffs, const
    # floor division rounds toward -inf, as the bound must
    return {k: v // g for k, v in coeffs.items()}, -(-const // g)


def _pivot_entry(coeffs: LinForm, const: int):
    """Solve the equation ``coeffs + const = 0`` for a pivot; returns the
    chain entry ``(var, a, rest, k)``, or None when the equation has no
    integer solution (gcd test).  The equation is first divided by its
    content, so a lossless pivot gets a = 1."""
    g = gcd(*coeffs.values())
    if const % g:
        return None
    if g != 1:
        coeffs = {k: v // g for k, v in coeffs.items()}
        const //= g
    var = LiaSolver._lossless_pivot(coeffs, const)
    if var is None:
        # no lossless pivot (e.g. 2x + 3y + 1 = 0): cross-multiplying
        # keeps the elimination rational-complete
        var = next(iter(coeffs))
    a = coeffs[var]
    if a > 0:
        rest = {k: v for k, v in coeffs.items() if k != var}
    else:
        a, const = -a, -const
        rest = {k: -v for k, v in coeffs.items() if k != var}
    return var, a, rest, const


def _eliminate(coeffs: LinForm, const: int, var, a: int, rest: LinForm,
               k: int) -> tuple[LinForm, int]:
    """Eliminate ``var`` from the row ``coeffs + const`` (which has it)
    with the equation ``a*var + rest + k = 0``: ``a·row − c·equation``,
    where ``c`` is the row's coefficient of ``var``."""
    c = coeffs[var]
    if a == 1:
        out = dict(coeffs)
        del out[var]
    else:
        out = {x: v * a for x, v in coeffs.items() if x != var}
        const *= a
    for x, v in rest.items():
        nv = out.get(x, 0) - c * v
        if nv:
            out[x] = nv
        else:
            del out[x]
    return out, const - c * k


def _apply_chain(subs, coeffs: LinForm, const: int, prem):
    """Substitute a chain into one constraint (``coeffs`` is not
    mutated)."""
    for var, a, rest, k, sub_prem in subs:
        if var in coeffs:
            coeffs, const = _eliminate(coeffs, const, var, a, rest, k)
            prem = prem | sub_prem
    return coeffs, const, prem


_MISS = object()


class _Presolved:
    """Result of Gaussian elimination: either a conflict core, or the
    equation-free tightened inequalities plus the substitution chain that
    maps further side constraints into the reduced space."""

    __slots__ = ("conflict", "reduced", "subs")

    def __init__(self, conflict=None, reduced=(), subs=()):
        self.conflict = conflict
        self.reduced = reduced
        self.subs = subs

    def apply(self, constraint):
        coeffs, const, prem = constraint
        return _apply_chain(self.subs, coeffs, const, frozenset(prem))


class _TrailContext:
    """A composed feasibility view: the solver's trail state with side
    equations (the EUF-derived ones, not trail-aligned) presolved on top.

    Built once per theory check so the quadratic interface-equality sweep
    pays the substitution/presolve cost once instead of per probe."""

    __slots__ = ("lia", "pre", "rows", "conflict")

    def __init__(self, lia: "LiaSolver", pre, rows, conflict):
        self.lia = lia
        self.pre = pre
        self.rows = rows
        self.conflict = conflict

    def _apply(self, constraint):
        c = self.lia._apply_subs(constraint)
        if self.pre is not None:
            c = self.pre.apply(c)
        return c

    def feasible(self) -> set | None:
        """Conflict premise set, or None if the context is feasible
        (disequalities NOT included — see :meth:`diseq_conflict`)."""
        if self.conflict is not None:
            return set(self.conflict)
        core = self.lia._fm(self.rows)
        return set(core) if core is not None else None

    def entails_eq(self, coeffs: LinForm, const: int) -> set | None:
        """Premises entailing ``sum coeffs + const = 0``, or None."""
        if self.conflict is not None:
            return set(self.conflict)
        lo = self._apply((coeffs, const + 1, frozenset()))
        hi = self._apply((_neg(coeffs), -const + 1, frozenset()))
        core_lo = self.lia._fm_with(self.rows, lo)
        if core_lo is None:
            return None
        core_hi = self.lia._fm_with(self.rows, hi)
        if core_hi is None:
            return None
        return set(core_lo) | set(core_hi)

    def diseq_conflict(self) -> set | None:
        """First trail disequality refuted on both sides, as a conflict."""
        for dcoeffs, dconst, dprem in self.lia._dis:
            lo = self._apply((dcoeffs, dconst + 1, frozenset()))
            hi = self._apply((_neg(dcoeffs), -dconst + 1, frozenset()))
            core_lo = self.lia._fm_with(self.rows, lo)
            if core_lo is None:
                continue
            core_hi = self.lia._fm_with(self.rows, hi)
            if core_hi is None:
                continue
            return set(core_lo) | set(core_hi) | set(dprem)
        return None


class LiaSolver:
    """A trail API (push/pop_to/context) for the DPLL(T) layer, plus a
    stateless checker with memoization across calls."""

    def __init__(self, budget: int = 20000):
        self.budget = budget
        self._memo: dict = {}
        self._presolve_memo: dict = {}
        # --- trail state (incremental path) ---------------------------
        self.incremental_hits = 0
        self._trail: list[tuple] = []     # (kind, coeffs, const, prem)
        self._snaps: list[list] = []      # per-push restore records
        self._subs: list[tuple] = []      # substitution chain
        self._rows: tuple = ()            # reduced+tightened inequalities
        self._dis: list[tuple] = []       # trail disequalities
        self._bounds: dict = {}           # key -> (lo, lop, hi, hip)
        self._conflict: frozenset | None = None

    # ------------------------------------------------------------------
    # trail API
    # ------------------------------------------------------------------

    def trail_mark(self) -> int:
        return len(self._trail)

    def pop_to(self, n: int) -> None:
        while len(self._trail) > n:
            self._trail.pop()
            subs_len, rows, dis_len, conflict, bound_undo = self._snaps.pop()
            for k, old in reversed(bound_undo):
                if old is None:
                    self._bounds.pop(k, None)
                else:
                    self._bounds[k] = old
            del self._subs[subs_len:]
            self._rows = rows
            del self._dis[dis_len:]
            self._conflict = conflict

    def push(self, kind: str, coeffs: LinForm, const: int,
             prem: frozenset) -> set | None:
        """Assert one fact (kind ``"eq"``, ``"le"`` or ``"ne"``); returns
        a conflict premise set or None.  A conflicting fact stays on the
        trail (carrying the conflict) until popped.  The solver never
        mutates ``coeffs``."""
        snap = [len(self._subs), self._rows, len(self._dis),
                self._conflict, []]
        self._snaps.append(snap)
        self._trail.append((kind, coeffs, const, prem))
        if self._conflict is not None:
            return set(self._conflict)
        prem = frozenset(prem)
        if kind == "ne":
            self._dis.append((coeffs, const, prem))
            return None
        coeffs, const, prem = self._apply_subs((coeffs, const, prem))
        if kind == "eq":
            return self._push_eq(coeffs, const, prem)
        return self._push_ineq(coeffs, const, prem, snap)

    def context(self, extra_eqs=()) -> _TrailContext:
        """Feasibility context over the trail plus side equations."""
        self.incremental_hits += 1
        if self._conflict is not None:
            return _TrailContext(self, None, None, self._conflict)
        if extra_eqs:
            applied = [self._apply_subs((c, k, frozenset(p)))
                       for c, k, p in extra_eqs]
            pre = self._presolve(applied, self._rows)
            if pre.conflict is not None:
                return _TrailContext(self, None, None,
                                     frozenset(pre.conflict))
            return _TrailContext(self, pre, pre.reduced, None)
        return _TrailContext(self, None, self._rows, None)

    # ------------------------------------------------------------------

    def _apply_subs(self, constraint):
        return _apply_chain(self._subs, *constraint)

    def _fail(self, prem) -> set:
        self._conflict = frozenset(prem)
        return set(prem)

    def _push_eq(self, coeffs, const, prem) -> set | None:
        if not coeffs:
            return self._fail(prem) if const != 0 else None
        entry = _pivot_entry(coeffs, const)
        if entry is None:
            return self._fail(prem)
        var, a, rest, k = entry
        if not rest:
            # the equation fixes var (a == 1 after the gcd division):
            # check against the known bounds
            value = -k
            lo, lop, hi, hip = self._bounds.get(var, (None,) * 4)
            if lo is not None and value < lo:
                return self._fail(prem | lop)
            if hi is not None and value > hi:
                return self._fail(prem | hip)
        self._subs.append((var, a, rest, k,
                           frozenset() if PR3_PIVOT_BUG else prem))
        rows = []
        for rc, rk, rp in self._rows:
            if var not in rc:
                rows.append((rc, rk, rp))
                continue
            nc, nk = _tighten(*_eliminate(rc, rk, var, a, rest, k))
            np_ = rp if PR3_PIVOT_BUG else rp | prem
            if not nc:
                if nk > 0:
                    self._rows = tuple(rows)
                    return self._fail(np_)
                continue
            rows.append((nc, nk, np_))
        self._rows = tuple(rows)
        return None

    def _push_ineq(self, coeffs, const, prem, snap) -> set | None:
        coeffs, const = _tighten(coeffs, const)
        if not coeffs:
            return self._fail(prem) if const > 0 else None
        if len(coeffs) == 1:
            # after tightening the single coefficient is +-1, so the row
            # is a unit bound; conflicts surface here, pre-elimination
            ((k, a),) = coeffs.items()
            lo, lop, hi, hip = self._bounds.get(k, (None,) * 4)
            snap[4].append((k, self._bounds.get(k)))
            if a > 0:
                cand = -const
                if hi is None or cand < hi:
                    hi, hip = cand, prem
            else:
                cand = const
                if lo is None or cand > lo:
                    lo, lop = cand, prem
            self._bounds[k] = (lo, lop, hi, hip)
            if lo is not None and hi is not None and lo > hi:
                self._rows = self._rows + ((coeffs, const, prem),)
                return self._fail(lop | hip)
        self._rows = self._rows + ((coeffs, const, prem),)
        return None

    @staticmethod
    def _lossless_pivot(coeffs: dict, const: int):
        """Smallest pivot whose coefficient divides every other
        coefficient and the constant (integer-lossless elimination);
        None if there is no such pivot.  Scaling the equation does not
        change the choice."""
        if PR3_PIVOT_BUG:
            return next(iter(coeffs))
        for k in sorted(coeffs, key=lambda k: (abs(coeffs[k]), k)):
            a = abs(coeffs[k])
            if const % a == 0 and all(c % a == 0 for c in coeffs.values()):
                return k
        return None

    # ------------------------------------------------------------------

    def check(self, eqs: list[Constraint], ineqs: list[Constraint],
              diseqs: list[Constraint]) -> set | None:
        """Return a conflict premise set, or None if feasible."""
        pre = self._presolve(eqs, ineqs)
        if pre.conflict is not None:
            return set(pre.conflict)
        core = self._fm(pre.reduced)
        if core is not None:
            return set(core)
        for dcoeffs, dconst, dprem in diseqs:
            lo = pre.apply((dcoeffs, dconst + 1, frozenset()))
            hi = pre.apply((_neg(dcoeffs), -dconst + 1, frozenset()))
            core_lo = self._fm_with(pre.reduced, lo)
            if core_lo is None:
                continue
            core_hi = self._fm_with(pre.reduced, hi)
            if core_hi is None:
                continue
            return set(core_lo) | set(core_hi) | set(dprem)
        return None

    # ------------------------------------------------------------------

    @staticmethod
    def _canon(cs, kind: str) -> frozenset:
        return frozenset(
            (kind, tuple(sorted(coeffs.items())), const, premises)
            for coeffs, const, premises in cs)

    def _presolve(self, eqs: list[Constraint], ineqs: list[Constraint]):
        """Gaussian-eliminate the equations once (memoized); the result
        can substitute additional side constraints cheaply, so the
        disequality/entailment probes skip the quadratic work."""
        key = (self._canon(eqs, "eq"), self._canon(ineqs, "le"))
        hit = self._presolve_memo.get(key)
        if hit is not None:
            return hit
        result = self._presolve_raw(eqs, ineqs)
        self._presolve_memo[key] = result
        return result

    def _presolve_raw(self, eqs, ineqs) -> "_Presolved":
        work_eqs = [(c, k, frozenset(p)) for c, k, p in eqs]
        work_ineqs = [(c, k, frozenset(p)) for c, k, p in ineqs]
        subs: list[tuple] = []  # (var, a, rest, k, prem)
        while work_eqs:
            coeffs, const, prem = work_eqs.pop()
            if not coeffs:
                if const != 0:
                    return _Presolved(conflict=frozenset(prem))
                continue
            # Solve for some variable and substitute everywhere.  The
            # pivot must be chosen with care: eliminating ``x`` from
            # ``2x + y = 0`` substitutes ``x = -y/2`` and *forgets* that
            # ``x`` is an integer (i.e. that ``y`` is even), making the
            # reduced system satisfiable at points the original is not —
            # found by the differential fuzzer as a "sat" answer whose
            # only models were half-integral.  A pivot whose coefficient
            # divides every other coefficient and the constant is
            # integer-lossless (the pivot's value is an integer for any
            # integer assignment of the rest); prefer the smallest such.
            entry = _pivot_entry(coeffs, const)
            if entry is None:
                return _Presolved(conflict=frozenset(prem))
            var, a, rest, k = entry
            sub_prem = frozenset() if PR3_PIVOT_BUG else prem

            def subst(target):
                tcoeffs, tconst, tprem = target
                if var not in tcoeffs:
                    return target
                ncoeffs, nconst = _eliminate(tcoeffs, tconst, var, a, rest, k)
                return ncoeffs, nconst, tprem | sub_prem

            work_eqs = [subst(e) for e in work_eqs]
            work_ineqs = [subst(i) for i in work_ineqs]
            subs.append((var, a, rest, k, sub_prem))
        # --- integer tightening ----------------------------------------
        tight: list[tuple] = []
        for coeffs, const, prem in work_ineqs:
            coeffs, const = _tighten(coeffs, const)
            if not coeffs:
                if const > 0:
                    return _Presolved(conflict=frozenset(prem))
                continue
            tight.append((coeffs, const, prem))
        return _Presolved(reduced=tuple(tight), subs=tuple(subs))

    def _fm_with(self, reduced, extra) -> frozenset | None:
        coeffs, const, prem = extra
        coeffs, const = _tighten(coeffs, const)
        if not coeffs:
            return frozenset(prem) if const > 0 else None
        return self._fm(tuple(reduced) + ((coeffs, const, frozenset(prem)),))

    def _fm(self, reduced) -> frozenset | None:
        """Fourier–Motzkin feasibility of equation-free, tightened
        inequalities (memoized)."""
        key = self._canon(reduced, "le")
        hit = self._memo.get(key, _MISS)
        if hit is not _MISS:
            return hit
        result = self._fm_raw(list(reduced))
        self._memo[key] = result
        return result

    def _fm_raw(self, tight) -> frozenset | None:
        budget = self.budget
        current = tight
        while True:
            vars_here: dict = {}
            for coeffs, _, _ in current:
                for k, v in coeffs.items():
                    pos, neg = vars_here.get(k, (0, 0))
                    if v > 0:
                        vars_here[k] = (pos + 1, neg)
                    else:
                        vars_here[k] = (pos, neg + 1)
            if not vars_here:
                break
            # cheapest variable first
            var = min(vars_here, key=lambda k: vars_here[k][0] * vars_here[k][1])
            pos_cs, neg_cs, rest = [], [], []
            for c in current:
                v = c[0].get(var, 0)
                if v > 0:
                    pos_cs.append(c)
                elif v < 0:
                    neg_cs.append(c)
                else:
                    rest.append(c)
            new = rest
            for pc, pk, pp in pos_cs:
                for nc, nk, np_ in neg_cs:
                    a = pc[var]
                    b = -nc[var]
                    # b*(pos) + a*(neg):  var cancels
                    coeffs, const = _tighten(lin_comb(pc, b, nc, a),
                                             b * pk + a * nk)
                    prem = pp | np_
                    if not coeffs:
                        if const > 0:
                            return frozenset(prem)
                        continue
                    new.append((coeffs, const, prem))
                    budget -= 1
                    if budget <= 0:
                        raise LiaBudgetExceeded()
            current = self._prune(new)
        return None

    @staticmethod
    def _prune(cs: list[tuple]) -> list[tuple]:
        """Drop syntactic duplicates, keeping the tightest constant."""
        best: dict[tuple, tuple] = {}
        for coeffs, const, prem in cs:
            key = tuple(sorted(coeffs.items()))
            old = best.get(key)
            # larger const means tighter (sum + const <= 0)
            if old is None or const > old[1]:
                best[key] = (coeffs, const, prem)
        return list(best.values())
