"""Clausification of shadowed (modal-free) formulas.

The pipeline is conventional: rewrite iff/implies, push negations to
literals, rename binders apart, skolemize existentials on the
universal prefix, drop universals, distribute or over and.  Skolem
symbol names are derived from the source formula's canonical key plus
a running index, so clausifying the same formula twice -- by the
prover or by an independent proof checker -- yields identical clauses.
That key is computed only when the first skolem symbol is named; a
formula with no existential to skolemize never computes it.

A clause is identified by its canonical clause (canonical_clause), a
frozen value compared and hashed by structure: a variable is never a
constant of the same name, and sorts count.  Literal.key prints a
literal only to order the literals of a canonical clause.  The
canonical clause is not a normal form (see canonical_clause).

Iff expansion and distribution can grow a formula exponentially.  The
NNF pass, which doubles per nested iff, counts its nodes against a
cap, distribution checks each product against a clause budget before
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

    def walk(t: Term) -> str:
        if isinstance(t, Var):
            return "_"
        if isinstance(t, Const):
            return t.name
        return f"({t.fn} {' '.join(walk(a) for a in t.args)})"

    args = " ".join(walk(a) for a in l.atom.args)
    sign = "" if l.positive else "not "
    return f"({sign}{l.atom.pred}{' ' + args if args else ''})"


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


# Nodes the NNF pass may build.  Connective expansion shares each side
# of an iff between two conjuncts, so NNF doubles per nested iff.
NNF_NODE_CAP = 100_000


class _Meter:
    """NNF nodes built so far, against NNF_NODE_CAP and a deadline."""

    def __init__(self, deadline: float) -> None:
        self.nodes = 0
        self.deadline = deadline

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > NNF_NODE_CAP:
            raise ClausifyLimit("nnf_cap")
        if time.monotonic() > self.deadline:
            raise ClausifyLimit("wall_clock")


def _expand_connectives(f: Formula) -> Formula:
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(_expand_connectives(f.body))
    if isinstance(f, And):
        return And(tuple(_expand_connectives(p) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(_expand_connectives(p) for p in f.parts))
    if isinstance(f, Implies):
        return Or((Not(_expand_connectives(f.left)), _expand_connectives(f.right)))
    if isinstance(f, Iff):
        l = _expand_connectives(f.left)
        r = _expand_connectives(f.right)
        return And((Or((Not(l), r)), Or((Not(r), l))))
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, _expand_connectives(f.body))
    raise TypeError(f"clausify applies to shadowed formulas only: {f!r}")


def _nnf(f: Formula, negate: bool, meter: _Meter) -> Formula:
    meter.tick()
    if isinstance(f, Atom):
        return Not(f) if negate else f
    if isinstance(f, Not):
        return _nnf(f.body, not negate, meter)
    if isinstance(f, And):
        parts = tuple(_nnf(p, negate, meter) for p in f.parts)
        return Or(parts) if negate else And(parts)
    if isinstance(f, Or):
        parts = tuple(_nnf(p, negate, meter) for p in f.parts)
        return And(parts) if negate else Or(parts)
    if isinstance(f, Forall):
        inner = _nnf(f.body, negate, meter)
        return Exists(f.var, inner) if negate else Forall(f.var, inner)
    if isinstance(f, Exists):
        inner = _nnf(f.body, negate, meter)
        return Forall(f.var, inner) if negate else Exists(f.var, inner)
    raise TypeError(f"unexpected node in NNF: {f!r}")


def clausify(
    f: Formula,
    deadline: float = math.inf,
    max_clauses: float = math.inf,
) -> list[Clause]:
    """Distinct non-tautological clauses of a shadowed formula, in a
    deterministic order.

    The formula's canonical key seeds the skolem symbol names.  Raises
    ClausifyLimit past the monotonic deadline, past NNF_NODE_CAP NNF
    nodes, or before distributing or over and into more than
    max_clauses literal lists at once.
    """
    tag: list[str] = []  # computed when the first skolem is named
    counter = [0]

    def skolem_name() -> str:
        if not tag:
            seed = canonical_key(f)
            tag.append(hashlib.blake2b(seed.encode(), digest_size=5).hexdigest())
        idx = counter[0]
        counter[0] += 1
        return f"sk_{tag[0]}_{idx}"

    nnf = _nnf(_expand_connectives(f), False, _Meter(deadline))

    # rename binders apart and skolemize in one pass
    used_names = [0]

    def walk(g: Formula, universals: list[Var], ren: dict[Var, Term]) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(substitute_term(a, ren) for a in g.args))
        if isinstance(g, Not):
            return Not(walk(g.body, universals, ren))
        if isinstance(g, (And, Or)):
            return type(g)(tuple(walk(p, universals, ren) for p in g.parts))
        if isinstance(g, Forall):
            nv = Var(f"u{used_names[0]}", g.var.sort)
            used_names[0] += 1
            inner = dict(ren)
            inner[g.var] = nv
            return Forall(nv, walk(g.body, universals + [nv], inner))
        if isinstance(g, Exists):
            name = skolem_name()
            if universals:
                sk: Term = App(name, tuple(universals), g.var.sort)
            else:
                sk = Const(name, g.var.sort)
            inner = dict(ren)
            inner[g.var] = sk
            return walk(g.body, universals, inner)
        raise TypeError(f"unexpected node in skolemization: {g!r}")

    matrix = walk(nnf, [], {})

    # distribute or over and -> list of literal lists
    def distribute(g: Formula) -> list[list[Literal]]:
        if isinstance(g, Atom):
            return [[Literal(True, g)]]
        if isinstance(g, Not):
            assert isinstance(g.body, Atom)
            return [[Literal(False, g.body)]]
        if isinstance(g, And):
            out: list[list[Literal]] = []
            for p in g.parts:
                out.extend(distribute(p))
            return out
        if isinstance(g, Or):
            branches = [distribute(p) for p in g.parts]
            out = [[]]
            for br in branches:
                # checked before it is built: one product can be huge
                if len(out) * len(br) > max_clauses:
                    raise ClausifyLimit("max_clauses")
                if time.monotonic() > deadline:
                    raise ClausifyLimit("wall_clock")
                out = [acc + d for acc in out for d in br]
            return out
        if isinstance(g, Forall):
            return distribute(g.body)
        raise TypeError(f"unexpected node in distribution: {g!r}")

    clauses = dict.fromkeys(map(canonical_clause, distribute(matrix)))
    return [c for c in clauses if not is_tautology(c)]
