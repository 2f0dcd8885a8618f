"""Shadowing: modal subformulas become opaque first-order atoms.

Each maximal modal subformula is replaced by a fresh predicate atom
over the subformula's free variables, taken in first-occurrence order.
The predicate name is a hash of the subformula's canonical key with
its free variables renamed to numbered holes h0, h1, ... (the key of
its generalization), so the same name is recomputed by any party given
the same formula -- proof verification relies on that.  A hole stays a
free variable and prints as one, ?h0:S, which no constant's name prints
as (syntax.key_name): a constant named h0 keys apart from the hole h0.
Alpha-equivalent subformulas share an atom; distinct ones never collide.

A ShadowMap names each structurally distinct subformula once: a
subformula it has seen before gets its atom back without being printed
and hashed again.  The memo lives and dies with the map, and a fresh
map computes the same atoms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .syntax import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Modal,
    Not,
    Or,
    Var,
    canonical_key,
    free_vars,
    substitute,
)


@dataclass(frozen=True)
class ShadowEntry:
    name: str
    pattern: str  # canonical key of the generalization, holes ?h0:S, ?h1:S, ...


@dataclass
class ShadowMap:
    """Bijection between modal-subformula generalizations and atom names."""

    entries: dict[str, ShadowEntry] = field(default_factory=dict)
    atoms: dict[Modal, Atom] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def intern(self, m: Modal) -> Atom:
        atom = self.atoms.get(m)
        if atom is None:
            atom = self.atoms[m] = self._name(m)
        return atom

    def _name(self, m: Modal) -> Atom:
        fvs = free_vars(m)
        holes = {v: Var(f"h{i}", v.sort) for i, v in enumerate(fvs)}
        pattern = canonical_key(substitute(m, holes) if holes else m)
        digest = hashlib.blake2b(pattern.encode(), digest_size=6).hexdigest()
        name = f"sh_{digest}"
        prior = self.entries.get(name)
        if prior is None:
            self.entries[name] = ShadowEntry(name, pattern)
        elif prior.pattern != pattern:
            raise RuntimeError(f"shadow name collision on {name}")
        return Atom(name, fvs)


def shadow(f: Formula, smap: ShadowMap) -> Formula:
    """Replace every maximal modal subformula of f by its shadow atom."""
    if isinstance(f, Modal):
        return smap.intern(f)
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(shadow(f.body, smap))
    if isinstance(f, And):
        return And(tuple(shadow(p, smap) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(shadow(p, smap) for p in f.parts))
    if isinstance(f, Implies):
        return Implies(shadow(f.left, smap), shadow(f.right, smap))
    if isinstance(f, Iff):
        return Iff(shadow(f.left, smap), shadow(f.right, smap))
    if isinstance(f, Forall):
        return Forall(f.var, shadow(f.body, smap))
    if isinstance(f, Exists):
        return Exists(f.var, shadow(f.body, smap))
    raise TypeError(f"not a formula: {f!r}")
