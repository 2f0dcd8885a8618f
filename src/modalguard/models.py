"""Finite-model oracle: bounded satisfiability by DPLL enumeration.

This is the reference engine the resolution prover is checked against.
Quantifiers are expanded over the finite domain of named constants in
one walk under a binding environment, substituting only at atoms and
modal subformulas: a universal combines its instances as a conjunction
its parts, an existential as a disjunction, stopping at the first part
that decides.  The environment binds only constants, so an atom or a
modal subformula is bound under it directly, with no binder to rename
(syntax.bind, which builds the prover's grounding instances too).
The modal closure rules are applied forward, and a DPLL search decides
the clauses one walk makes of the closed formulas.  Nothing outside a
modal subformula is quantified there, so nothing is shadowed: an atom
or a maximal modal subformula is one DPLL atom, named by its canonical
key.
Grounding and the modal rules alternate for at most depth + 1 rounds,
fewer once a round grounds nothing, or once a round would read the
records and join targets the previous round read, in the same order:
a round's output is a function of exactly those two, so it would
return what the previous round returned, and the closure returns that
without expanding again.

Each round expands its whole list from depth 0, but what the closure
derives of one formula object (its canonical key, its join targets and
the grounded conjuncts it hands the next round) is computed once per
call and reused by every later round that holds the object; a record
the expansion derived hands its key on.  Each is a function of the
object alone, and a round rebuilds its record and target dicts from
them in list order, first of each key, so every round's records, the
returned list and the round count are those of recomputing them in
every round.  A later round keys and harvests only the formulas new to
it (semi-naive evaluation).

The search numbers the atoms in key order and keeps, per literal, the
clauses it occurs in, so that assigning an atom touches only those
clauses; unit propagation runs to its fixpoint before each branch.  It
branches on the least unassigned atom of a clause no literal satisfies,
false first.  Unit propagation reaches one fixpoint, or a conflict,
whatever order it assigns the units in, so the search assigns the
atoms, and finds the model, that rescanning every clause per unit did.

Interpretation choices, shared with the prover: temporal order is a
free predicate (orderings must be stated as facts), "=" is a free
predicate, and the nullary atom (false) is pinned false.  Sound only
over the named domain, where a sort with no constant has one anonymous
element (_domains): a problem whose truth needs another unnamed
individual is outside the oracle's scope.  The query's deadline is
polled while grounding, building clauses and searching.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

from .schemata import RULE_ASSUMPTION, Derivation, expand_modal, harvest_join_targets
from .syntax import (
    And,
    Atom,
    Const,
    Exists,
    FALSUM,
    Forall,
    Formula,
    Iff,
    Implies,
    Modal,
    Not,
    Or,
    Signature,
    bind,
    canonical_key,
    conj,
    conjuncts,
    constant_occurrences,
    constant_sorts,
    disj,
    domain_order,
    symbol_names,
    unspoofed,
)

_TRUE = object()  # marker for a vacuously true ground formula


class OracleLimit(Exception):
    """The clause rows would outgrow max_clauses, or the deadline passed;
    the argument names the limit, max_clauses or wall_clock."""


Literal = tuple[str, bool]
ClauseSet = list[frozenset[Literal]]


def _domains(formulas: Sequence[Formula], sig: Signature) -> dict[str, list[Const]]:
    """Each sort's domain: the constants, of the formulas or declared,
    whose sorts widen to it.  A sort no constant widens to gets one
    anonymous element named apart from every name in the formulas, which
    joins its supersorts' domains too: as in clausifying, no quantifier
    is vacuous.  Raises ValueError when one name is a constant of two
    sorts (syntax.constant_sorts)."""
    named = constant_sorts([constant_occurrences(formulas)], sig.constants)
    consts = {Const(name, sort) for name, sort in named.items()}
    empty = [s for s in sig.sorts if not any(sig.widens(c.sort, s) for c in consts)]
    if empty:
        taken = set(sig.constants).union(*map(symbol_names, formulas))
        for sort in empty:
            name = f"_{sort}"
            while name in taken:
                name += "'"
            consts.add(Const(name, sort))
    return {
        sort: domain_order(c for c in consts if sig.widens(c.sort, sort))
        for sort in sig.sorts
    }


def _ground(f: Formula, dom: dict, env=None, deadline=math.inf):
    """Expand quantifiers over the domain under env, which binds the
    variables of the quantifiers above f to constants; _TRUE and FALSUM
    mark the vacuous cases.  Modal bodies are left alone: the closure
    rules may expose them later, at which point grounding runs again.
    Raises OracleLimit past the deadline, polled once per part or instance."""
    if isinstance(f, (Atom, Modal)):
        return bind(f, env) if env else f
    env = env or {}
    if isinstance(f, Not):
        b = _ground(f.body, dom, env, deadline)
        if b is _TRUE:
            return FALSUM
        if b == FALSUM:
            return _TRUE
        return Not(b)
    if isinstance(f, Implies):
        l = _ground(f.left, dom, env, deadline)
        r = _ground(f.right, dom, env, deadline)
        if l == FALSUM or r is _TRUE:
            return _TRUE
        if l is _TRUE:
            return r
        if r == FALSUM:
            return Not(l)
        return Implies(l, r)
    if isinstance(f, Iff):
        l = _ground(f.left, dom, env, deadline)
        r = _ground(f.right, dom, env, deadline)
        if l is _TRUE:
            return r
        if r is _TRUE:
            return l
        if l == FALSUM:
            return _TRUE if r == FALSUM else Not(r)
        if r == FALSUM:
            return Not(l)
        return Iff(l, r)
    # a universal is the conjunction of its instances, an existential
    # their disjunction: skip the unit, and stop at the zero
    if isinstance(f, (And, Or)):
        parts = ((p, env) for p in f.parts)
    elif isinstance(f, (Forall, Exists)):
        parts = ((f.body, {**env, f.var: c}) for c in dom.get(f.var.sort, ()))
    else:
        raise TypeError(f"cannot ground {f!r}")
    conjunctive = isinstance(f, (And, Forall))
    unit, zero, build = (_TRUE, FALSUM, conj) if conjunctive else (FALSUM, _TRUE, disj)
    kept = []
    for p, bound in parts:
        if time.monotonic() > deadline:
            raise OracleLimit("wall_clock")
        g = _ground(p, dom, bound, deadline)
        if g == zero:
            return zero
        if g != unit:
            kept.append(g)
    return build(kept) if kept else unit


def _has_quantifier_outside_modal(f: Formula) -> bool:
    if isinstance(f, (Forall, Exists)):
        return True
    if isinstance(f, Not):
        return _has_quantifier_outside_modal(f.body)
    if isinstance(f, (And, Or)):
        return any(_has_quantifier_outside_modal(p) for p in f.parts)
    if isinstance(f, (Implies, Iff)):
        return _has_quantifier_outside_modal(f.left) or _has_quantifier_outside_modal(
            f.right
        )
    return False


def _closure(
    formulas: list[Formula], sig: Signature, depth: int, deadline: float = math.inf
) -> list[Formula]:
    """Ground, apply the modal rules, and re-ground what they expose."""
    dom = _domains(formulas, sig)
    # per formula object met in this call, kept alive so that no id is
    # reused: its canonical key, its join targets once harvested, and
    # what it hands the next round as a record
    keyed: dict[int, tuple[Formula, str]] = {}
    harvested: dict[int, dict[str, Modal]] = {}
    handed: dict[int, tuple[bool, list[Formula]]] = {}

    def key_of(f: Formula) -> str:
        got = keyed.get(id(f))
        if got is None:
            got = keyed[id(f)] = (f, unspoofed(canonical_key(f)))
        return got[1]

    def hand_on(f: Formula) -> tuple[bool, list[Formula]]:
        got = handed.get(id(f))
        if got is None:
            regrounded = _has_quantifier_outside_modal(f)
            g = _ground(f, dom, None, deadline) if regrounded else f
            got = handed[id(f)] = (regrounded, [] if g is _TRUE else conjuncts(g))
        return got

    # grounding a universal gives one conjunction, and the modal rules
    # fire only on top-level formulas: split it back into its conjuncts
    current: list[Formula] = []
    for f in formulas:
        g = _ground(f, dom, None, deadline)
        if g is not _TRUE:
            current.extend(conjuncts(g))
    previous = None
    for _ in range(depth + 1):
        records: dict[str, Derivation] = {}
        targets: dict[str, Modal] = {}
        for f in current:
            records.setdefault(key_of(f), Derivation(f, RULE_ASSUMPTION, (), 0))
            got = harvested.get(id(f))
            if got is None:
                got = harvested[id(f)] = harvest_join_targets((f,))
            for tkey, tgt in got.items():
                targets.setdefault(tkey, tgt)
        # a round's output is a function of its records and join targets
        # in order, so a round that reads the previous round's would
        # return what that one returned: current
        read = (list(records.items()), list(targets.items()))
        if read == previous:
            return current
        previous = read
        expand_modal(records, depth=depth, join_targets=targets)
        out: list[Formula] = []
        again = False
        for key, d in records.items():
            keyed.setdefault(id(d.formula), (d.formula, key))
            regrounded, parts = hand_on(d.formula)
            again |= regrounded
            out.extend(parts)
        if not again:
            return out
        current = out
    return current


# ---------------------------------------------------------------------------
# Ground CNF and DPLL


def _cnf(f: Formula, positive: bool, keys: dict, deadline: float, max_clauses: float):
    """Clause rows of f, or of its negation when not positive.  An atom
    or a maximal modal subformula is one DPLL atom, named by its
    canonical key, computed once per formula in keys."""
    if isinstance(f, Implies):
        f = Or((Not(f.left), f.right))
    elif isinstance(f, Iff):
        f = And((Implies(f.left, f.right), Implies(f.right, f.left)))
    if isinstance(f, (Atom, Modal)):
        return [[(keys.get(f) or keys.setdefault(f, canonical_key(f)), positive)]]
    if isinstance(f, Not):
        return _cnf(f.body, not positive, keys, deadline, max_clauses)
    branches = [_cnf(p, positive, keys, deadline, max_clauses) for p in f.parts]
    if isinstance(f, And) == positive:
        return [row for br in branches for row in br]
    out: list[list[Literal]] = [[]]
    for br in branches:
        # checked before it is built: one product can be huge
        if len(out) * len(br) > max_clauses:
            raise OracleLimit("max_clauses")
        if time.monotonic() > deadline:
            raise OracleLimit("wall_clock")
        out = [acc + row for acc in out for row in br]
    return out


def _dpll(clauses: ClauseSet, deadline: float = math.inf) -> Optional[dict[str, bool]]:
    """The values a search assigns to satisfy the clauses, by atom key,
    or None when none do.  Raises OracleLimit past the deadline, polled
    before the search and at each branch."""
    if time.monotonic() > deadline:
        raise OracleLimit("wall_clock")
    if not all(clauses):
        return None
    names = sorted({atom for cl in clauses for atom, _ in cl})
    number = {atom: i for i, atom in enumerate(names)}
    # literal 2i + 1 makes atom i true, literal 2i makes it false
    rows = [[2 * number[atom] + pol for atom, pol in cl] for cl in clauses]
    occurs: list[list[int]] = [[] for _ in range(2 * len(names))]
    for c, row in enumerate(rows):
        for lit in row:
            occurs[lit].append(c)
    value = [-1] * len(names)  # -1 while unassigned
    free = [len(row) for row in rows]  # each clause's unassigned literals
    true = [0] * len(rows)  # each clause's true literals
    unsatisfied = len(rows)
    trail: list[int] = []  # the assigned atoms, in order
    units = [c for c, row in enumerate(rows) if len(row) == 1]

    def assign(lit: int) -> bool:
        """Make lit true; False when that falsifies a clause."""
        nonlocal unsatisfied
        value[lit >> 1] = lit & 1
        trail.append(lit >> 1)
        for c in occurs[lit]:
            free[c] -= 1
            true[c] += 1
            if true[c] == 1:
                unsatisfied -= 1
        consistent = True
        for c in occurs[lit ^ 1]:
            free[c] -= 1
            if not true[c]:
                if free[c] == 1:
                    units.append(c)
                elif not free[c]:
                    consistent = False
        return consistent

    def undo(mark: int) -> None:
        nonlocal unsatisfied
        while len(trail) > mark:
            i = trail.pop()
            lit = 2 * i + value[i]
            value[i] = -1
            for c in occurs[lit]:
                free[c] += 1
                true[c] -= 1
                if not true[c]:
                    unsatisfied += 1
            for c in occurs[lit ^ 1]:
                free[c] += 1

    def propagate() -> bool:
        """Assign every unit clause's literal; False on a conflict."""
        while units:
            c = units.pop()
            if not true[c] and free[c] == 1:
                lit = next(lit for lit in rows[c] if value[lit >> 1] < 0)
                if not assign(lit):
                    return False
        return True

    def branch_atom() -> int:
        """The least unassigned atom of a clause no literal satisfies."""
        return next(
            i
            for i, v in enumerate(value)
            if v < 0 and any(not true[c] for c in occurs[2 * i] + occurs[2 * i + 1])
        )

    # (trail length before, literal) of each branch taken
    branches: list[tuple[int, int]] = []
    consistent = propagate()
    while True:
        if consistent:
            if not unsatisfied:
                return {names[i]: bool(value[i]) for i in trail}
            mark, lit = len(trail), 2 * branch_atom()  # false first
        else:
            units.clear()
            while branches and branches[-1][1] & 1:
                branches.pop()
            if not branches:
                return None
            mark, lit = branches.pop()
            undo(mark)
            lit |= 1
        if time.monotonic() > deadline:
            raise OracleLimit("wall_clock")
        branches.append((mark, lit))
        consistent = assign(lit) and propagate()


def satisfiable(
    formulas: Sequence[Formula],
    sig: Optional[Signature] = None,
    depth: int = 4,
    deadline: float = math.inf,
    max_clauses: float = math.inf,
) -> Optional[list[str]]:
    """A model of the formulas as the sorted canonical keys of its true
    atoms and modal subformulas, or None.  Raises OracleLimit past the
    monotonic deadline or before building over max_clauses clause rows
    at once; ValueError on a name spelled like a shadow atom or a skolem
    symbol (syntax.unspoofed) or a constant of two sorts (constant_sorts)."""
    sig = sig if sig is not None else Signature()
    keys: dict[Formula, str] = {}
    clause_rows: list[list[Literal]] = [[(canonical_key(FALSUM), False)]]
    for f in _closure(list(formulas), sig, depth, deadline):
        clause_rows.extend(_cnf(f, True, keys, deadline, max_clauses))
    clauses: ClauseSet = [frozenset(row) for row in clause_rows]
    got = _dpll(clauses, deadline)
    if got is None:
        return None
    return sorted(a for a, v in got.items() if v)


def entails(
    assumptions: Sequence[Formula],
    goal: Formula,
    sig: Optional[Signature] = None,
    depth: int = 4,
    deadline: float = math.inf,
    max_clauses: float = math.inf,
) -> tuple[bool, Optional[list[str]]]:
    """(entailed, countermodel): a model of the assumptions in which the
    goal fails, when one exists.  Raises as satisfiable does."""
    model = satisfiable([*assumptions, Not(goal)], sig, depth, deadline, max_clauses)
    return (model is None, model)
