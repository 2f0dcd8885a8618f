"""Shadowing: modal subformulas become opaque first-order atoms.

Each maximal modal subformula is replaced by a fresh predicate atom
over the subformula's free variables, taken in first-occurrence order.
The predicate name is a hash of the subformula's canonical key with
numbered holes h0, h1, ... put for its free variables (the key of its
generalization), so the same name is recomputed by any party given
the same formula -- proof verification relies on that.  The key puts
the holes in place without building the generalization, and prints
binders by position, so no binder of the subformula captures a hole.
A hole is a free variable and prints as one, ?h0:S, which no constant's
name prints as (syntax.key_name): a constant named h0 keys apart from
the hole h0.  Alpha-equivalent subformulas share an atom; distinct
ones never collide.
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
)


@dataclass(frozen=True)
class ShadowEntry:
    name: str
    pattern: str  # canonical key of the generalization, holes ?h0:S, ?h1:S, ...


@dataclass
class ShadowMap:
    """Bijection between modal-subformula generalizations and atom names."""

    entries: dict[str, ShadowEntry] = field(default_factory=dict)

    def intern(self, m: Modal) -> Atom:
        """m's shadow atom; its generalization is filed under the name."""
        fvs = free_vars(m)
        holes = {v: Var(f"h{i}", v.sort) for i, v in enumerate(fvs)}
        pattern = canonical_key(m, holes)
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
