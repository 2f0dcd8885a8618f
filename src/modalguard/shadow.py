"""Shadowing: modal subformulas become opaque first-order atoms.

Each maximal modal subformula is replaced by a fresh predicate atom
over the subformula's free variables, taken in first-occurrence order.
The predicate name is derived from the alpha-normal form of the
subformula's generalization (free variables replaced by numbered
holes), so the same name is recomputed by any party given the same
formula -- proof verification relies on that.  Alpha-equivalent
subformulas share an atom; distinct ones never collide.

A ShadowMap names each structurally distinct subformula once: a
subformula it has seen before gets its atom back without being
normalized, printed and hashed again.  The memo lives and dies with the
map, and a fresh map computes the same atoms.
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
    alpha_normal,
    free_vars,
    print_formula,
    substitute,
)


@dataclass(frozen=True)
class ShadowEntry:
    name: str
    pattern: Formula  # alpha-normal generalization with hole variables
    holes: tuple[Var, ...]


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
        holes = tuple(Var(f"h{i}", v.sort) for i, v in enumerate(fvs))
        pattern = alpha_normal(substitute(m, dict(zip(fvs, holes))))
        key = print_formula(pattern)
        digest = hashlib.blake2b(key.encode(), digest_size=6).hexdigest()
        name = f"sh_{digest}"
        prior = self.entries.get(name)
        if prior is None:
            self.entries[name] = ShadowEntry(name, pattern, holes)
        elif print_formula(prior.pattern) != key:
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
