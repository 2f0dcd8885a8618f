"""Finite-model oracle: bounded satisfiability by DPLL enumeration.

This is the reference engine the resolution prover is checked against.
Quantifiers are expanded over the finite domain of named constants
(universals to conjunctions, existentials to disjunctions), the modal
closure rules are applied forward, modal subformulas become the same
content-addressed propositional atoms the prover uses, and a plain
DPLL loop decides the resulting ground clause set.  Grounding and the
modal rules alternate for at most depth + 1 rounds, fewer once a round
grounds nothing or returns the list it was given: a round reads only
that list, so every later round would return it again.

Interpretation choices, shared with the prover: temporal order is a
free predicate (orderings must be stated as facts), "=" is a free
predicate, and the nullary atom (false) is pinned false.  Sound only
over the named domain, where a sort with no constant has one anonymous
element (_domains): a problem whose truth needs another unnamed
individual is outside the oracle's scope.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .schemata import assumed, expand_modal, harvest_join_targets
from .shadow import ShadowMap, shadow
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
    canonical_key,
    conj,
    constants_in_formula,
    disj,
    is_moment_literal,
    moment_value,
    substitute,
    symbol_names,
    unspoofed,
)

_TRUE = object()  # marker for a vacuously true ground formula

Literal = tuple[str, bool]
ClauseSet = list[frozenset[Literal]]


def _domains(formulas: Sequence[Formula], sig: Signature) -> dict[str, list[Const]]:
    """Each sort's domain: the constants, of the formulas or declared,
    whose sorts widen to it.  A sort no constant widens to gets one
    anonymous element named apart from every name in the formulas, which
    joins its supersorts' domains too: as in clausifying, no quantifier
    is vacuous."""
    consts: set[Const] = set()
    for f in formulas:
        consts |= set(constants_in_formula(f))
    for name, sort in sig.constants.items():
        consts.add(Const(name, sort))
    empty = [s for s in sig.sorts if not any(sig.widens(c.sort, s) for c in consts)]
    if empty:
        taken = set(sig.constants).union(*map(symbol_names, formulas))
        for sort in empty:
            name = f"_{sort}"
            while name in taken:
                name += "'"
            consts.add(Const(name, sort))
    out: dict[str, list[Const]] = {}
    for sort in sig.sorts:
        members = [c for c in consts if sig.widens(c.sort, sort)]
        moments = sorted((c for c in members if is_moment_literal(c)), key=moment_value)
        named = sorted(
            (c for c in members if not is_moment_literal(c)), key=lambda c: c.name
        )
        out[sort] = moments + named
    return out


def _ground(f: Formula, dom: dict[str, list[Const]], sig: Signature):
    """Expand quantifiers over the domain; _TRUE and FALSUM mark the
    vacuous cases.  Modal bodies are left alone: the closure rules may
    expose them later, at which point grounding runs again."""
    if isinstance(f, (Atom, Modal)):
        return f
    if isinstance(f, Not):
        b = _ground(f.body, dom, sig)
        if b is _TRUE:
            return FALSUM
        if b == FALSUM:
            return _TRUE
        return Not(b)
    if isinstance(f, And):
        parts = []
        for p in f.parts:
            g = _ground(p, dom, sig)
            if g is _TRUE:
                continue
            if g == FALSUM:
                return FALSUM
            parts.append(g)
        return conj(parts) if parts else _TRUE
    if isinstance(f, Or):
        parts = []
        for p in f.parts:
            g = _ground(p, dom, sig)
            if g == FALSUM:
                continue
            if g is _TRUE:
                return _TRUE
            parts.append(g)
        return disj(parts) if parts else FALSUM
    if isinstance(f, Implies):
        l = _ground(f.left, dom, sig)
        r = _ground(f.right, dom, sig)
        if l == FALSUM or r is _TRUE:
            return _TRUE
        if l is _TRUE:
            return r
        if r == FALSUM:
            return Not(l)
        return Implies(l, r)
    if isinstance(f, Iff):
        l = _ground(f.left, dom, sig)
        r = _ground(f.right, dom, sig)
        if l is _TRUE:
            return r
        if r is _TRUE:
            return l
        if l == FALSUM:
            return _TRUE if r == FALSUM else Not(r)
        if r == FALSUM:
            return Not(l)
        return Iff(l, r)
    if isinstance(f, Forall):
        insts = [
            _ground(substitute(f.body, {f.var: c}, sig), dom, sig)
            for c in dom.get(f.var.sort, ())
        ]
        insts = [g for g in insts if g is not _TRUE]
        if any(g == FALSUM for g in insts):
            return FALSUM
        return conj(insts) if insts else _TRUE
    if isinstance(f, Exists):
        insts = [
            _ground(substitute(f.body, {f.var: c}, sig), dom, sig)
            for c in dom.get(f.var.sort, ())
        ]
        if any(g is _TRUE for g in insts):
            return _TRUE
        insts = [g for g in insts if g != FALSUM]
        return disj(insts) if insts else FALSUM
    raise TypeError(f"cannot ground {f!r}")


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


def _conjuncts(f: Formula) -> list[Formula]:
    # Grounding a universal produces one big conjunction; the modal rules
    # only fire on top-level formulas, so split it back into units.
    if isinstance(f, And):
        out: list[Formula] = []
        for p in f.parts:
            out.extend(_conjuncts(p))
        return out
    return [f]


def _closure(formulas: list[Formula], sig: Signature, depth: int) -> list[Formula]:
    """Ground, apply the modal rules, and re-ground what they expose."""
    dom = _domains(formulas, sig)
    current: list[Formula] = []
    for f in formulas:
        g = _ground(f, dom, sig)
        if g is not _TRUE:
            current.extend(_conjuncts(g))
    for _ in range(depth + 1):
        targets = harvest_join_targets(current)
        records = assumed(current)
        for key in records:
            unspoofed(key)
        expand_modal(records, depth=depth, join_targets=targets)
        out: list[Formula] = []
        again = False
        for f in (d.formula for d in records.values()):
            if _has_quantifier_outside_modal(f):
                f = _ground(f, dom, sig)
                again = True
            if f is not _TRUE:
                out.extend(_conjuncts(f))
        # a round is a function of its input list alone, so once it
        # returns that list every later round would return it again
        if not again or out == current:
            return out
        current = out
    return current


# ---------------------------------------------------------------------------
# Ground CNF and DPLL


def _nnf(f: Formula, neg: bool) -> Formula:
    if isinstance(f, Atom):
        return Not(f) if neg else f
    if isinstance(f, Not):
        return _nnf(f.body, not neg)
    if isinstance(f, And):
        parts = tuple(_nnf(p, neg) for p in f.parts)
        return Or(parts) if neg else And(parts)
    if isinstance(f, Or):
        parts = tuple(_nnf(p, neg) for p in f.parts)
        return And(parts) if neg else Or(parts)
    if isinstance(f, Implies):
        return _nnf(Or((Not(f.left), f.right)), neg)
    if isinstance(f, Iff):
        both = And((Implies(f.left, f.right), Implies(f.right, f.left)))
        return _nnf(both, neg)
    raise TypeError(f"not ground propositional: {f!r}")


def _cnf(f: Formula) -> list[list[Literal]]:
    if isinstance(f, Atom):
        return [[(canonical_key(f), True)]]
    if isinstance(f, Not):
        return [[(canonical_key(f.body), False)]]
    if isinstance(f, And):
        out = []
        for p in f.parts:
            out.extend(_cnf(p))
        return out
    if isinstance(f, Or):
        branches = [_cnf(p) for p in f.parts]
        out = [[]]
        for br in branches:
            out = [acc + cl for acc in out for cl in br]
        return out
    raise TypeError(f"not in NNF: {f!r}")


def _dpll(clauses: ClauseSet, assignment: dict[str, bool]) -> Optional[dict[str, bool]]:
    clauses = list(clauses)
    assignment = dict(assignment)
    while True:
        unit: Optional[Literal] = None
        next_clauses: ClauseSet = []
        for cl in clauses:
            undecided: list[Literal] = []
            satisfied = False
            for atom, pol in cl:
                if atom in assignment:
                    if assignment[atom] == pol:
                        satisfied = True
                        break
                else:
                    undecided.append((atom, pol))
            if satisfied:
                continue
            if not undecided:
                return None
            if len(undecided) == 1 and unit is None:
                unit = undecided[0]
            next_clauses.append(frozenset(undecided))
        clauses = next_clauses
        if unit is None:
            break
        assignment[unit[0]] = unit[1]
    if not clauses:
        return assignment
    atoms = sorted({a for cl in clauses for a, _ in cl})
    pick = atoms[0]
    for val in (False, True):
        trial = dict(assignment)
        trial[pick] = val
        got = _dpll(clauses, trial)
        if got is not None:
            return got
    return None


def satisfiable(
    formulas: Sequence[Formula],
    sig: Optional[Signature] = None,
    depth: int = 4,
) -> Optional[list[str]]:
    """A model of the formulas as the sorted canonical keys of its true
    atoms, or None.
    Raises ValueError when a formula holds a name spelled like a shadow
    atom or a skolem symbol (syntax.unspoofed)."""
    sig = sig if sig is not None else Signature()
    closed = _closure(list(formulas), sig, depth)
    smap = ShadowMap()
    clause_rows: list[list[Literal]] = [[(canonical_key(FALSUM), False)]]
    for f in closed:
        sf = shadow(f, smap)
        clause_rows.extend(_cnf(_nnf(sf, False)))
    clauses: ClauseSet = [frozenset(row) for row in clause_rows]
    got = _dpll(clauses, {})
    if got is None:
        return None
    return sorted(a for a, v in got.items() if v)


def entails(
    assumptions: Sequence[Formula],
    goal: Formula,
    sig: Optional[Signature] = None,
    depth: int = 4,
) -> tuple[bool, Optional[list[str]]]:
    """(entailed, countermodel): countermodel is a model of the
    assumptions in which the goal fails, when one exists."""
    model = satisfiable(list(assumptions) + [Not(goal)], sig, depth)
    return (model is None, model)
