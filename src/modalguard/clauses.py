"""Clausification of shadowed (modal-free) formulas.

One pre-order walk takes the formula to its matrix: it rewrites
implies and iff as it reaches them, pushes negations to the atoms,
renames each universal binder u<n> and drops it, and skolemizes each
existential on the universals above it (_matrix); _distribute then
multiplies or over and.  Skolem symbol names are derived from the source formula's
canonical key plus a running index, so clausifying the same formula
twice -- by the prover or by an independent proof checker -- yields
identical clauses.  That key is computed only when the first skolem
symbol is named; a formula with no existential to skolemize never
computes it.

A clause is identified by its canonical clause (canonical_clause), a
frozen value compared and hashed by structure: a variable is never a
constant of the same name, and sorts count.  Literal.key prints a
literal only to order the literals of a canonical clause.  The
canonical clause is not a normal form (see canonical_clause).

Iff expansion and distribution can grow a formula exponentially.  The
walk, which doubles per nested iff, counts the nodes it visits against
a cap, distribution checks each product against a clause budget before
building it, and both poll a deadline; past any of these clausify
raises ClausifyLimit.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Iterable

from .syntax import (
    And,
    App,
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Term,
    Var,
    canonical_key,
    print_term,
    substitute_term,
    term_vars,
)


@dataclass(frozen=True, slots=True)
class Literal:
    positive: bool
    atom: Atom

    def negated(self) -> "Literal":
        return Literal(not self.positive, self.atom)

    def key(self) -> str:
        """The print that orders the literals of a canonical clause."""
        sign = "" if self.positive else "not "
        args = " ".join(print_term(a) for a in self.atom.args)
        return f"({sign}{self.atom.pred}{' ' + args if args else ''})"

    def substituted(self, mapping: dict[Var, Term]) -> "Literal":
        args = tuple(substitute_term(a, mapping) for a in self.atom.args)
        return Literal(self.positive, Atom(self.atom.pred, args))


@dataclass(frozen=True, slots=True)
class Clause:
    literals: tuple[Literal, ...]

    @property
    def empty(self) -> bool:
        return not self.literals

    def weight(self) -> int:
        total = 0
        for l in self.literals:
            total += 1 + sum(_term_size(a) for a in l.atom.args)
        return total


def _term_size(t: Term) -> int:
    if isinstance(t, App):
        return 1 + sum(_term_size(a) for a in t.args)
    return 1


def _vars_of(literals: Iterable[Literal]) -> list[Var]:
    out: list[Var] = []
    for l in literals:
        for a in l.atom.args:
            term_vars(a, out)
    return out


def clause_vars(c: Clause) -> list[Var]:
    return _vars_of(c.literals)


def _literal_shape(l: Literal) -> str:
    """Print with variables anonymized, for canonical literal ordering."""
    args = " ".join(_term_shape(a) for a in l.atom.args)
    sign = "" if l.positive else "not "
    return f"({sign}{l.atom.pred}{' ' + args if args else ''})"


def _term_shape(t: Term) -> str:
    if isinstance(t, Var):
        return "_"
    if isinstance(t, Const):
        return t.name
    return f"({t.fn} {' '.join(_term_shape(a) for a in t.args)})"


def canonical_clause(literals: Iterable[Literal]) -> Clause:
    """Deduplicate, order, and rename variables V0, V1, ... canonically.

    Literals are ordered by print, ties broken by shape, so a variable
    and a constant printed alike come out in one order.  A ground
    clause has nothing to rename, so its literals are printed once,
    for the one sort that orders them.

    This is not idempotent: variables are numbered in (shape, print)
    order and the literals then sorted by their renamed print, so the
    clause returned can canonicalize to another numbering.  Two
    variants need not share one canonical clause, and saturate may keep
    both; proofs._among therefore canonicalizes both sides.
    """
    distinct = set(literals)
    if not _vars_of(distinct):
        return Clause(tuple(sorted(distinct, key=Literal.key)))
    ordered = sorted(distinct, key=lambda l: (_literal_shape(l), l.key()))
    ren = {v: Var(f"V{i}", v.sort) for i, v in enumerate(_vars_of(ordered))}
    # renamed keeps the shape order, so the stable sort breaks ties by it
    renamed = dict.fromkeys(l.substituted(ren) for l in ordered)
    return Clause(tuple(sorted(renamed, key=Literal.key)))


def is_tautology(c: Clause) -> bool:
    return any(l.positive and Literal(False, l.atom) in c.literals for l in c.literals)


# ---------------------------------------------------------------------------
# Formula -> clauses


class ClausifyLimit(Exception):
    """clausify would outgrow its bounds, or ran past its deadline; its
    argument names the limit, nnf_cap, max_clauses or wall_clock."""


# Nodes the walk may visit, counted in negation normal form: an implies
# counts as (or (not l) r) and an iff as (and (or (not l) r) (or (not r)
# l)), so the count doubles per nested iff.
NNF_NODE_CAP = 100_000


def clausify(
    f: Formula,
    deadline: float = math.inf,
    max_clauses: float = math.inf,
) -> list[Clause]:
    """Distinct non-tautological clauses of a shadowed formula, in a
    deterministic order: one walk takes f to its matrix (_matrix), which
    _distribute multiplies out.

    The formula's canonical key seeds the skolem symbol names.  Raises
    ClausifyLimit past the monotonic deadline, past NNF_NODE_CAP nodes
    walked, or before distributing or over and into more than
    max_clauses literal lists at once.
    """
    st = _Walk(f, deadline)
    matrix = _matrix(f, False, (), {}, st)
    clauses = dict.fromkeys(map(canonical_clause, _distribute(matrix, deadline, max_clauses)))
    return [c for c in clauses if not is_tautology(c)]


class _Walk:
    """What one clausify walk counts and names as it goes: the source
    formula, whose canonical key seeds the skolem names, its deadline,
    the tag (computed when the first skolem is named), the nodes visited
    and the universals and skolems named so far."""

    __slots__ = ("source", "deadline", "tag", "nodes", "universals_named", "skolems_named")

    def __init__(self, source: Formula, deadline: float):
        self.source = source
        self.deadline = deadline
        self.tag = ""
        self.nodes = self.universals_named = self.skolems_named = 0


def _matrix(
    g: Formula, negate: bool, universals: tuple[Var, ...], ren: dict[Var, Term], st: _Walk
) -> Formula:
    """g's matrix under negate: negation normal form, universals
    renamed and dropped, existentials skolemized."""
    if isinstance(g, Implies):
        g = Or((Not(g.left), g.right))
    elif isinstance(g, Iff):
        g = And((Or((Not(g.left), g.right)), Or((Not(g.right), g.left))))
    st.nodes += 1
    if st.nodes > NNF_NODE_CAP:
        raise ClausifyLimit("nnf_cap")
    if time.monotonic() > st.deadline:
        raise ClausifyLimit("wall_clock")
    if isinstance(g, Atom):
        atom = Atom(g.pred, tuple(substitute_term(a, ren) for a in g.args))
        return Not(atom) if negate else atom
    if isinstance(g, Not):
        return _matrix(g.body, not negate, universals, ren, st)
    if isinstance(g, (And, Or)):
        parts = tuple(_matrix(p, negate, universals, ren, st) for p in g.parts)
        return Or(parts) if isinstance(g, And) == negate else And(parts)
    if not isinstance(g, (Forall, Exists)):
        raise TypeError(f"clausify applies to shadowed formulas only: {g!r}")
    if isinstance(g, Forall) != negate:
        nv = Var(f"u{st.universals_named}", g.var.sort)
        st.universals_named += 1
        return _matrix(g.body, negate, (*universals, nv), {**ren, g.var: nv}, st)
    if not st.tag:
        st.tag = hashlib.blake2b(canonical_key(st.source).encode(), digest_size=5).hexdigest()
    name = f"sk_{st.tag}_{st.skolems_named}"
    st.skolems_named += 1
    sk = App(name, universals, g.var.sort) if universals else Const(name, g.var.sort)
    return _matrix(g.body, negate, universals, {**ren, g.var: sk}, st)


def _distribute(g: Formula, deadline: float, max_clauses: float) -> list[list[Literal]]:
    """The literal lists of the matrix g multiplied out, or over and."""
    if isinstance(g, Atom):
        return [[Literal(True, g)]]
    if isinstance(g, Not):
        return [[Literal(False, g.body)]]
    if isinstance(g, And):
        return [lits for p in g.parts for lits in _distribute(p, deadline, max_clauses)]
    out: list[list[Literal]] = [[]]
    for br in [_distribute(p, deadline, max_clauses) for p in g.parts]:
        # checked before it is built: one product can be huge
        if len(out) * len(br) > max_clauses:
            raise ClausifyLimit("max_clauses")
        if time.monotonic() > deadline:
            raise ClausifyLimit("wall_clock")
        out = [acc + d for acc in out for d in br]
    return out
