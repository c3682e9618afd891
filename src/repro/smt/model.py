"""Model extraction for satisfiable queries.

The DPLL(T) core certifies satisfiability without producing an integer
assignment (Fourier–Motzkin decides feasibility but does not name a
witness).  This module builds one after a ``sat`` answer from the state
the solver is left in:

1. collect the theory atoms the SAT trail asserts, with their polarity,
   the linear facts they stand for, and the equalities the congruence
   closure implies;
2. Gaussian-eliminate the equations (the LIA solver's memoized presolve),
   eliminate the remaining variables as Fourier–Motzkin does while
   keeping each level's rows, and back-substitute: each variable takes
   the integer within its bounds nearest 0 that no other key uses yet
   (distinct values keep map cells and function rows apart), then the
   substitution chain is walked in reverse;
3. assign every congruence class a value (constants, LIA values, or
   fresh distinct values) and read the map and function tables off it;
4. **verify**: every asserted atom is re-evaluated under the candidate
   assignment.

When step 2 finds no integer point, or step 3 or 4 a collision, the
value search :func:`search_model` takes over and is counted in the
solver's ``certificates["model_fallbacks"]``.  It pins one key at a
time, validating each choice with the FM feasibility oracle, and
propagates Ackermann equalities between selects or applications whose
arguments meet.

Because of step 4 a returned :class:`Model` is always genuine.  The
extractor can fail (return ``None``) on exotic instances; the test suite
pins the supported fragment.
"""

from __future__ import annotations

from itertools import count

from .api import Solver
from .dpllt import _lin_diff, linearize
from .terms import Op, Sort, Term
from .theories.lia import LiaSolver, _tighten, lin_comb


class Model:
    """A concrete assignment: integers for int terms, dict-backed total
    maps for map variables, and tables for uninterpreted functions."""

    def __init__(self, var_values: dict, map_values: dict, fun_tables: dict):
        self.var_values = var_values      # var name -> int
        self.map_values = map_values      # map name -> (dict, default)
        self.fun_tables = fun_tables      # (fname, args) -> int

    # ------------------------------------------------------------------

    def eval_int(self, t: Term) -> int:
        op = t.op
        if op is Op.INTCONST:
            return t.value
        if op is Op.VAR:
            return self.var_values.get(t.name, 0)
        if op is Op.ADD:
            return self.eval_int(t.args[0]) + self.eval_int(t.args[1])
        if op is Op.SUB:
            return self.eval_int(t.args[0]) - self.eval_int(t.args[1])
        if op is Op.NEG:
            return -self.eval_int(t.args[0])
        if op is Op.MUL:
            return self.eval_int(t.args[0]) * self.eval_int(t.args[1])
        if op is Op.ITE:
            c = self.eval_bool(t.args[0])
            return self.eval_int(t.args[1] if c else t.args[2])
        if op is Op.SELECT:
            entries, default = self.eval_map(t.args[0])
            return entries.get(self.eval_int(t.args[1]), default)
        if op is Op.APPLY:
            args = tuple(self.eval_int(a) for a in t.args)
            return self.fun_tables.get((t.payload[0], args), 0)
        raise ValueError(f"cannot evaluate {t!r} as an integer")

    def eval_map(self, t: Term):
        if t.op is Op.VAR:
            return self.map_values.get(t.name, ({}, 0))
        if t.op is Op.STORE:
            entries, default = self.eval_map(t.args[0])
            entries = dict(entries)
            entries[self.eval_int(t.args[1])] = self.eval_int(t.args[2])
            return entries, default
        if t.op is Op.ITE:
            c = self.eval_bool(t.args[0])
            return self.eval_map(t.args[1] if c else t.args[2])
        raise ValueError(f"cannot evaluate {t!r} as a map")

    def eval_bool(self, t: Term) -> bool:
        op = t.op
        if op is Op.TRUE:
            return True
        if op is Op.FALSE:
            return False
        if op is Op.VAR:
            return bool(self.var_values.get(t.name, 0))
        if op is Op.EQ:
            if t.args[0].sort is Sort.MAP:
                # Extensional comparison over the (infinite) index domain:
                # equal defaults and equal entries after dropping entries
                # that merely restate the default.
                ea, da = self.eval_map(t.args[0])
                eb, db = self.eval_map(t.args[1])
                return da == db and \
                    {k: v for k, v in ea.items() if v != da} == \
                    {k: v for k, v in eb.items() if v != db}
            return self.eval_int(t.args[0]) == self.eval_int(t.args[1])
        if op is Op.LE:
            return self.eval_int(t.args[0]) <= self.eval_int(t.args[1])
        if op is Op.LT:
            return self.eval_int(t.args[0]) < self.eval_int(t.args[1])
        if op is Op.NOT:
            return not self.eval_bool(t.args[0])
        if op is Op.AND:
            return all(self.eval_bool(a) for a in t.args)
        if op is Op.OR:
            return any(self.eval_bool(a) for a in t.args)
        if op is Op.IMPLIES:
            return (not self.eval_bool(t.args[0])) or self.eval_bool(t.args[1])
        if op is Op.IFF:
            return self.eval_bool(t.args[0]) == self.eval_bool(t.args[1])
        if op is Op.ITE:
            c = self.eval_bool(t.args[0])
            return self.eval_bool(t.args[1] if c else t.args[2])
        if op is Op.APPLY:
            raise ValueError("boolean uninterpreted applications are not "
                             "part of the encoded fragment")
        raise ValueError(f"cannot evaluate {t!r} as a boolean")


def extract_model(solver: Solver, search_bound: int = 8,
                  retries: int = 4) -> Model | None:
    """Reconstruct a model after ``solver.check(...) == 'sat'``.

    Returns ``None`` when reconstruction fails (never a wrong model)."""
    atoms = _trail_atoms(solver)
    model = _build_from_state(solver.theory, atoms)
    if model is not None and _verify(model, atoms):
        return model
    solver.certificates["model_fallbacks"] += 1
    return search_model(solver, search_bound, retries)


def search_model(solver: Solver, search_bound: int = 8,
                 retries: int = 4) -> Model | None:
    """The fallback builder: value search with widening bounds.

    Returns ``None`` when every attempt fails (never a wrong model)."""
    atoms = _trail_atoms(solver)
    for attempt in range(retries):
        model = _try_build(solver, atoms, search_bound << attempt, attempt)
        if model is None:
            continue
        if _verify(model, atoms):
            return model
    return None


def _trail_atoms(solver: Solver) -> list[tuple[Term, bool]]:
    atoms: list[tuple[Term, bool]] = []
    for lit in solver.theory._lits:
        atom = solver.cnf.var_to_atom.get(abs(lit))
        if atom is not None:
            atoms.append((atom, lit > 0))
    return atoms


def _class_equalities_all(classes: dict) -> list:
    """Equations between *all* integer members of each congruence class.

    The solving pipeline only needs equalities over LIA-relevant terms,
    but model construction must respect congruence-derived equalities over
    terms LIA never saw (nested selects being the canonical case), or the
    per-key value choices can pull congruent terms apart."""
    out = []
    for members in classes.values():
        ints = [m for m in members if m.sort is Sort.INT]
        if len(ints) < 2:
            continue
        rep = ints[0]
        for other in ints[1:]:
            coeffs, const, _ = _lin_diff(rep, other)
            if coeffs:
                out.append((coeffs, const, frozenset({"euf-model"})))
    return out


def _applications(classes: dict) -> list[tuple[tuple, Term, tuple]]:
    """Every select of a map variable and every uninterpreted
    application among the registered terms, as (table, term, argument
    terms): the terms whose values become map cells and table rows."""
    apps = []
    for members in classes.values():
        for m in members:
            if m.op is Op.SELECT and m.args[0].op is Op.VAR:
                apps.append((("map", m.args[0].name), m, (m.args[1],)))
            elif m.op is Op.APPLY:
                apps.append((("fun", m.payload[0]), m, m.args))
    return apps


def _build_from_state(theory, atoms) -> Model | None:
    """A model read off the solver's final theory state by elimination
    and back-substitution; None when that gives no integer point that
    keeps every trail disequality, or the tables collide."""
    classes = theory.euf.equivalence_classes()
    eqs, ineqs, diseqs, key_terms = theory._collect_lia()
    eqs = eqs + theory._euf_equalities_for_lia(key_terms) + \
        _class_equalities_all(classes)
    pre = theory.lia._presolve(eqs, ineqs)
    if pre.conflict is not None:
        return None  # should not happen after a sat answer
    levels = _fm_levels(pre.reduced, theory.lia.budget)
    if levels is None:
        return None
    assigned: dict[int, int] = {}
    # keys also keep clear of the constants, which index cells too
    used = {m.value for members in classes.values() for m in members
            if m.op is Op.INTCONST}

    def give(key: int, lo=None, hi=None) -> None:
        value = _pick(lo, hi, used)
        assigned[key] = value
        used.add(value)

    for var, rows in reversed(levels):
        lo = hi = None
        for coeffs, const, _ in rows:
            rest = const
            for k, c in coeffs.items():
                if k == var:
                    continue
                if k not in assigned:
                    # every row of k went in a one-sided elimination, so
                    # k has no level of its own and any value works
                    give(k)
                rest += c * assigned[k]
            a = coeffs[var]       # a * var + rest <= 0
            if a > 0:
                bound = -rest // a                  # floor(-rest / a)
                hi = bound if hi is None else min(hi, bound)
            else:
                bound = -(rest // a)                # ceil(rest / -a)
                lo = bound if lo is None else max(lo, bound)
        if lo is not None and hi is not None and lo > hi:
            return None
        give(var, lo, hi)
    for var, a, rest, k, _ in reversed(pre.subs):
        # a * var + rest + k = 0
        value = -k
        for key, c in rest.items():
            if key not in assigned:
                give(key)
            value -= c * assigned[key]
        if value % a:
            return None
        value //= a
        assigned[var] = value
        used.add(value)
    apps = _applications(classes)
    free = [k for _, _, args in apps for arg in args
            for k in linearize(arg)[0]]
    free += [t.tid for _, t, _ in apps]
    free += [k for c in diseqs for k in c[0]]
    for k in free:
        if k not in assigned:
            give(k)
    for coeffs, const, _ in diseqs:
        if const + sum(c * assigned[k] for k, c in coeffs.items()) == 0:
            return None
    return _tables(theory, classes, assigned, key_terms, atoms,
                   max(used | {0}) + 101)


def _fm_levels(rows, budget: int) -> list[tuple[int, list]] | None:
    """Fourier–Motzkin elimination in :meth:`LiaSolver._fm_raw`'s
    variable order, returning (variable, rows that bound it) per level;
    None when the rows are infeasible or exceed ``budget`` derived rows.
    A level's rows mention only its variable and variables eliminated
    later (or never: those whose rows all went in one-sided
    eliminations), so assigning the levels in reverse meets every
    bound."""
    levels = []
    current = list(rows)
    while current:
        counts: dict = {}
        for coeffs, _, _ in current:
            for k, v in coeffs.items():
                pos, neg = counts.get(k, (0, 0))
                counts[k] = (pos + 1, neg) if v > 0 else (pos, neg + 1)
        var = min(counts, key=lambda k: counts[k][0] * counts[k][1])
        pos_cs, neg_cs, new = [], [], []
        for row in current:
            v = row[0].get(var)
            if v is None:
                new.append(row)
            else:
                (pos_cs if v > 0 else neg_cs).append(row)
        levels.append((var, pos_cs + neg_cs))
        for pc, pk, _ in pos_cs:
            for nc, nk, _ in neg_cs:
                a, b = pc[var], -nc[var]
                coeffs, const = _tighten(lin_comb(pc, b, nc, a),
                                         b * pk + a * nk)
                if not coeffs:
                    if const > 0:
                        return None
                    continue
                new.append((coeffs, const, None))
                budget -= 1
                if budget <= 0:
                    return None
        current = LiaSolver._prune(new)
    return levels


def _pick(lo: int | None, hi: int | None, used: set[int]) -> int:
    """The integer in [lo, hi] nearest 0 (positive first on a tie) that
    is not in ``used``; the one nearest 0 when every one is."""
    start = 0 if lo is None or lo <= 0 else lo
    if hi is not None and hi < start:
        start = hi
    for d in count():
        up = hi is None or start + d <= hi
        down = lo is None or start - d >= lo
        if not (up or down):
            return start
        if up and start + d not in used:
            return start + d
        if down and start - d not in used:
            return start - d


def _try_build(solver: Solver, atoms, bound: int, salt: int) -> Model | None:
    theory = solver.theory
    classes = theory.euf.equivalence_classes()
    eqs, ineqs, diseqs, key_terms = theory._collect_lia()
    eqs = eqs + theory._euf_equalities_for_lia(key_terms) + \
        _class_equalities_all(classes)
    # soft distinctness between unmerged interface terms keeps
    # uninterpreted functions consistent under the chosen values
    soft_diseqs = []
    interface = theory._interface_terms(key_terms)
    for i in range(len(interface)):
        for j in range(i + 1, len(interface)):
            x, y = interface[i], interface[j]
            if theory.euf.are_equal(x, y):
                continue
            coeffs, const, _ = _lin_diff(x, y)
            if coeffs:
                soft_diseqs.append((coeffs, const, frozenset({"soft"})))
    lia = theory.lia
    if lia.check(eqs, ineqs, diseqs) is not None:
        return None  # should not happen after a sat answer
    # add soft disequalities greedily, keeping feasibility (their
    # conjunction can be infeasible even when each is individually fine)
    kept_soft: list = []
    for sd in soft_diseqs:
        if lia.check(eqs, ineqs, diseqs + kept_soft + [sd]) is None:
            kept_soft.append(sd)
    diseqs = diseqs + kept_soft
    # greedy per-variable value search
    keys = sorted({k for cs in (eqs, ineqs) for c in cs for k in c[0]} |
                  {k for c in diseqs for k in c[0]})
    assigned: dict[int, int] = {}
    # Ackermann propagation: LIA sees each select and each uninterpreted
    # application as an opaque key, so when greedy pinning settles two
    # indices of the same map — or the argument tuples of the same
    # function — onto equal values, the terms must be *told* to agree or
    # their cells/table rows collide (y pinned into {-1,0} with M[-1],
    # M[0], M[y] all constrained is the canonical failure).  Each entry
    # is (group key, term, argument terms that must match).
    apps = _applications(classes)

    def ackermann_eqs(merged: frozenset) -> tuple[list, frozenset]:
        out, pairs = [], set()
        for i in range(len(apps)):
            for j in range(i + 1, len(apps)):
                (ga, a, argsa), (gb, b, argsb) = apps[i], apps[j]
                if ga != gb or len(argsa) != len(argsb) or \
                        (a.tid, b.tid) in merged:
                    continue
                vals = [(_linear_value(x, assigned),
                         _linear_value(y, assigned))
                        for x, y in zip(argsa, argsb)]
                if any(va is None or vb is None or va != vb
                       for va, vb in vals):
                    continue
                pairs.add((a.tid, b.tid))
                coeffs, const, _ = _lin_diff(a, b)
                if coeffs:
                    out.append((coeffs, const, frozenset({"ack"})))
        return out, merged | pairs

    base_ack, merged0 = ackermann_eqs(frozenset())
    work_eqs = list(eqs) + base_ack
    if lia.check(work_eqs, ineqs, diseqs) is not None:
        return None
    # every select/application and every key feeding a select index or
    # an application argument must be pinned, even when LIA never saw it
    # (inner selects of nested indices; a variable only occurring inside
    # f(-b)), or its cell/row would be built from an arbitrary fresh
    # value that disagrees with the final variable assignment the model
    # evaluates with; pin feeder keys before the selects/applications
    # themselves, so collisions surface before the colliding cells take
    # values
    index_keys: set[int] = set()
    for _, _, args in apps:
        for arg in args:
            index_keys.update(linearize(arg)[0])
    select_tids = {t.tid for _, t, _ in apps}
    keys = sorted(set(keys) | index_keys | select_tids)
    keys = sorted(keys, key=lambda k: (k not in index_keys,
                                       k in select_tids, k))
    candidates = sorted(range(-bound, bound + 1),
                        key=lambda v: (abs(v), v < 0))
    if salt:
        candidates = candidates[salt % 3:] + candidates[:salt % 3]
    # Backtracking value search.  A pin can be locally feasible yet wedge
    # the system only when a later pin triggers an Ackermann merge (the
    # canonical trap: M[-1] := 0 is fine until y := 0 forces
    # M[y] = M[0] = M[M[-1]]); chronological backtracking undoes such
    # pins, and a lia.check budget keeps the worst case bounded — on the
    # happy path this is exactly the old greedy sweep.  Soft
    # disequalities are shed per level when no value admits them (they
    # are preferences, not constraints; _verify guards the final model).
    budget = [250 * (salt + 1)]

    def pin_search(i: int, work_eqs: list, diseqs: list,
                   merged: frozenset) -> bool:
        if i == len(keys):
            return True
        key = keys[i]
        for relax in (0, 1, 2):
            if relax:
                dropped = [c for c in diseqs if "soft" in c[2] and
                           (key in c[0] or relax == 2)]
                if not dropped:
                    continue
                diseqs = [c for c in diseqs if c not in dropped]
            for v in candidates:
                if budget[0] <= 0:
                    return False
                budget[0] -= 1
                assigned[key] = v
                ack, child_merged = ackermann_eqs(merged)
                trial = work_eqs + \
                    [({key: 1}, -v, frozenset({"pin"}))] + ack
                if lia.check(trial, ineqs, diseqs) is None and \
                        pin_search(i + 1, trial, diseqs, child_merged):
                    return True
                del assigned[key]
        return False

    if not pin_search(0, work_eqs, diseqs, merged0):
        return None
    return _tables(theory, classes, assigned, key_terms, atoms,
                   max(set(assigned.values()) | {bound}) + 101)


def _linear_value(t: Term, assigned: dict[int, int]) -> int | None:
    cs, k, _ = linearize(t)
    total = k
    for tid, coeff in cs.items():
        if tid not in assigned:
            return None
        total += coeff * assigned[tid]
    return total


def _tables(theory, classes: dict, assigned: dict[int, int], key_terms,
            atoms, fresh: int) -> Model | None:
    """The model both builders share once every key has a value: one
    value per congruence class, the map and function tables read off
    the classes, LIA-only and boolean variables.  ``fresh`` must exceed
    every assigned value.  None on a map-cell or table-row conflict."""
    # congruence classes -> values; prefer interpreted constants, then
    # LIA-assigned keys, then linear combinations of assigned keys, then
    # fresh distinct values
    class_value: dict[int, int] = {}
    for root, members in classes.items():
        value = None
        for m in members:
            if m.op is Op.INTCONST:
                value = m.value
                break
        if value is None:
            for m in members:
                if m.tid in assigned:
                    value = assigned[m.tid]
                    break
        if value is None:
            for m in members:
                value = _linear_value(m, assigned)
                if value is not None:
                    break
        if value is None:
            value = fresh
            fresh += 1
        for m in members:
            class_value[m.tid] = value
    # variable / map / function tables
    var_values: dict[str, int] = {}
    map_values: dict[str, tuple[dict, int]] = {}
    fun_tables: dict = {}

    def value_of(t: Term) -> int:
        # every registered term has a class value; that IS its value
        if t.tid in class_value:
            return class_value[t.tid]
        if t.tid in assigned:
            return assigned[t.tid]
        if t.op is Op.INTCONST:
            return t.value
        lv = _linear_value(t, assigned)
        return lv if lv is not None else 0

    for root, members in classes.items():
        for m in members:
            if m.op is Op.VAR and m.sort is Sort.INT:
                var_values[m.name] = class_value[m.tid]
            elif m.op is Op.SELECT and m.args[0].op is Op.VAR:
                name = m.args[0].name
                entries, default = map_values.get(name, ({}, fresh))
                if name not in map_values:
                    fresh += 1
                idx = value_of(m.args[1])
                want = class_value[m.tid]
                if entries.get(idx, want) != want:
                    return None  # cell conflict
                entries[idx] = want
                map_values[name] = (entries, default)
            elif m.op is Op.APPLY:
                args = tuple(value_of(a) for a in m.args)
                key = (m.payload[0], args)
                want = class_value[m.tid]
                if fun_tables.get(key, want) != want:
                    return None  # table conflict
                fun_tables[key] = want
    # int vars only seen by LIA (no EUF class) still need values
    for tid, term in dict(theory._key_terms).items():
        if term.op is Op.VAR and term.sort is Sort.INT and \
                term.name not in var_values and tid in assigned:
            var_values[term.name] = assigned[tid]
    for tid, term in key_terms.items():
        if term.op is Op.VAR and term.sort is Sort.INT and \
                term.name not in var_values and tid in assigned:
            var_values[term.name] = assigned[tid]
    # boolean variables take their SAT-trail polarity
    for atom, polarity in atoms:
        if atom.op is Op.VAR and atom.sort is Sort.BOOL:
            var_values[atom.name] = int(polarity)
    return Model(var_values, map_values, fun_tables)


def _verify(model: Model, atoms) -> bool:
    for atom, polarity in atoms:
        try:
            if model.eval_bool(atom) != polarity:
                return False
        except ValueError:
            return False
    return True
