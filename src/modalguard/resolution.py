"""Saturation by binary resolution and factoring.

Given-clause loop: the passive queue is ordered by ascending clause
weight with first-in-first-out tie-breaking; inferences run between the
selected clause and every retained active clause (and the clause with
itself).  Unification is sorted: a variable only binds a term whose
sort widens to the variable's sort.  Forward subsumption discards
clauses subsumed by retained ones.  The search stops at the empty
clause (refutation), an exhausted queue (saturation), or the budget.

Before the loop, input clauses with a pure literal are deleted, and
deletion repeats until nothing changes (Davis & Putnam, JACM 1960).  A
literal is pure when no remaining input holds its predicate with the
opposite sign.  Every descendant of a deleted clause keeps an instance
of some pure literal, so it can never be resolved to the empty clause;
and since no kept clause holds that predicate at all, it can neither
subsume nor duplicate a descendant of the kept clauses.  The kept
clauses are therefore selected and combined exactly as they would be
with the deleted ones present: every refutation, and so every proof,
is unchanged, and so is every saturation.  The same fixpoint
(pure_clauses) also runs on whole formulas before clausification
(prover.pure_formulas), so most pure clauses never reach saturate.

max_clauses bounds the clauses pushed, inputs included, so it counts
only the clauses that enter the search: those of formulas prove() did
not drop, pure or not.  A clause equal to one already pushed, as a
canonical clause, is not pushed again.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .clauses import Clause, Literal, canonical_clause, clause_vars, is_tautology
from .syntax import App, Atom, Const, Signature, Term, Var, match_term


class BudgetStop(Exception):
    """Raised inside saturation when a budget limit is reached; its
    argument names the limit, max_clauses or wall_clock."""


Subst = dict[Var, Term]


def apply_subst(t: Term, s: Subst) -> Term:
    if isinstance(t, Var):
        b = s.get(t)
        return apply_subst(b, s) if b is not None else t
    if isinstance(t, App):
        return App(t.fn, tuple(apply_subst(a, s) for a in t.args), t.sort)
    return t


def _occurs(v: Var, t: Term, s: Subst) -> bool:
    t = apply_subst(t, s)
    if isinstance(t, Var):
        return t == v
    if isinstance(t, App):
        return any(_occurs(v, a, s) for a in t.args)
    return False


def unify_terms(a: Term, b: Term, s: Subst, sig: Signature) -> Optional[Subst]:
    a = apply_subst(a, s)
    b = apply_subst(b, s)
    if a == b:
        return s
    if isinstance(a, Var):
        if _occurs(a, b, s):
            return None
        if not sig.widens(b.sort, a.sort):
            if isinstance(b, Var) and sig.widens(a.sort, b.sort):
                s[b] = a
                return s
            return None
        s[a] = b
        return s
    if isinstance(b, Var):
        return unify_terms(b, a, s, sig)
    if isinstance(a, Const) or isinstance(b, Const):
        return None  # distinct constants, or constant vs application
    if a.fn != b.fn or len(a.args) != len(b.args):
        return None
    for x, y in zip(a.args, b.args):
        if unify_terms(x, y, s, sig) is None:
            return None
    return s


def unify_atoms(a: Atom, b: Atom, sig: Signature) -> Optional[Subst]:
    if a.pred != b.pred or len(a.args) != len(b.args):
        return None
    s: Subst = {}
    for x, y in zip(a.args, b.args):
        if unify_terms(x, y, s, sig) is None:
            return None
    return s


def _rename_apart(c: Clause, suffix: str) -> Clause:
    ren: dict[Var, Term] = {v: Var(v.name + suffix, v.sort) for v in clause_vars(c)}
    if not ren:
        return c
    return Clause(tuple(l.substituted(ren) for l in c.literals))


def _apply_to_literal(l: Literal, s: Subst) -> Literal:
    return Literal(l.positive, Atom(l.atom.pred, tuple(apply_subst(a, s) for a in l.atom.args)))


def resolvents(c1: Clause, c2: Clause, sig: Signature) -> list[Clause]:
    """All binary resolvents of c1 against c2, deterministic order."""
    c2r = _rename_apart(c2, "r")
    out: list[Clause] = []
    for i, l1 in enumerate(c1.literals):
        for j, l2 in enumerate(c2r.literals):
            if l1.positive == l2.positive:
                continue
            s = unify_atoms(l1.atom, l2.atom, sig)
            if s is None:
                continue
            rest = [
                _apply_to_literal(l, s)
                for k, l in enumerate(c1.literals)
                if k != i
            ] + [
                _apply_to_literal(l, s)
                for k, l in enumerate(c2r.literals)
                if k != j
            ]
            out.append(canonical_clause(rest))
    return out


def factors(c: Clause, sig: Signature) -> list[Clause]:
    """All binary factors of c, deterministic order."""
    out: list[Clause] = []
    for i, l1 in enumerate(c.literals):
        for j in range(i + 1, len(c.literals)):
            l2 = c.literals[j]
            if l1.positive != l2.positive:
                continue
            s = unify_atoms(l1.atom, l2.atom, sig)
            if s is None:
                continue
            lits = [_apply_to_literal(l, s) for k, l in enumerate(c.literals) if k != j]
            out.append(canonical_clause(lits))
    return out


def subsumes(general: Clause, specific: Clause, sig: Signature) -> bool:
    """True when a substitution sends every literal of general into specific."""
    if len(general.literals) > len(specific.literals):
        return False
    gen = _rename_apart(general, "s")

    def extend(idx: int, s: Subst) -> bool:
        if idx == len(gen.literals):
            return True
        lit = gen.literals[idx]
        for cand in specific.literals:
            if cand.positive != lit.positive or cand.atom.pred != lit.atom.pred:
                continue
            trial = dict(s)
            ok = True
            for x, y in zip(lit.atom.args, cand.atom.args):
                if match_term(x, y, trial, sig) is None:
                    ok = False
                    break
            if ok and extend(idx + 1, trial):
                return True
        return False

    return extend(0, {})


# ---------------------------------------------------------------------------
# Saturation


Shape = frozenset[tuple[str, bool]]


def pure_clauses(
    shapes: Sequence[Shape], musts: Optional[Sequence[Shape]] = None
) -> set[int]:
    """Indices of the items deleted by the pure-literal rule, applied
    until nothing changes.

    shapes[i] holds every (predicate, sign) item i may hold, and
    musts[i] (default shapes[i]) those it holds in every clause.  Item i
    goes once a pair of musts[i] has no complement left among the shapes
    of the items not yet deleted.  A clause is an item whose must-set is
    its shape; prover.pure_formulas passes whole formulas."""
    musts = shapes if musts is None else musts
    holders: dict[tuple[str, bool], set[int]] = {}
    for i, shape in enumerate(shapes):
        for key in shape:
            holders.setdefault(key, set()).add(i)
    needers: dict[tuple[str, bool], list[int]] = {}
    for i, must in enumerate(musts):
        for key in must:
            needers.setdefault(key, []).append(i)
    pure: set[int] = set()
    todo = [
        i for i, must in enumerate(musts)
        if any((p, not s) not in holders for p, s in must)
    ]
    while todo:
        i = todo.pop()
        if i in pure:
            continue
        pure.add(i)
        for p, s in shapes[i]:
            left = holders[(p, s)]
            left.discard(i)
            if not left:
                # every item that needs the complement just became pure
                todo.extend(needers.get((p, not s), ()))
    return pure


@dataclass(frozen=True)
class Inference:
    clause: Clause
    rule: str  # input | resolve | factor
    parents: tuple[int, ...]
    source: Optional[int] = None  # input formula index for rule == input


@dataclass
class SaturationResult:
    status: str  # refutation | saturated | budget
    nodes: list[Inference]
    empty_index: Optional[int] = None
    generated: int = 0
    limit: Optional[str] = None  # the budget limit that stopped it

    def used_nodes(self) -> list[int]:
        """Indices contributing to the refutation, topologically ordered."""
        if self.empty_index is None:
            return []
        seen: set[int] = set()
        order: list[int] = []

        def visit(i: int) -> None:
            if i in seen:
                return
            seen.add(i)
            for p in self.nodes[i].parents:
                visit(p)
            order.append(i)

        visit(self.empty_index)
        return order


def saturate(
    inputs: Sequence[tuple[Clause, int]],
    sig: Signature,
    deadline: Optional[float] = None,
    max_clauses: int = 200000,
) -> SaturationResult:
    """Run the given-clause loop over (clause, source formula index) inputs."""
    nodes: list[Inference] = []
    seen: dict[Clause, int] = {}
    passive: list[tuple[int, int, int]] = []  # (weight, seq, node index)
    active: list[int] = []
    # (predicate, sign) -> active node indices holding such a literal;
    # a pair with no complementary predicate has no resolvents, so
    # pairing through this index generates exactly the same clauses
    by_literal: dict[tuple[str, bool], list[int]] = {}
    generated = 0

    # (pred, sign) multiset signature per node, for cheap subsumption
    # pre-filtering: a subsumer's literal signature must be a subset
    shapes: list[Shape] = []

    def push(c: Clause, rule: str, parents: tuple[int, ...], source: Optional[int]) -> Optional[int]:
        nonlocal generated
        known = seen.get(c)
        if known is not None:
            return known
        if is_tautology(c):
            return None
        generated += 1
        if generated > max_clauses:
            raise BudgetStop("max_clauses")
        idx = len(nodes)
        nodes.append(Inference(c, rule, parents, source))
        shapes.append(frozenset((l.atom.pred, l.positive) for l in c.literals))
        seen[c] = idx
        heapq.heappush(passive, (c.weight(), idx, idx))
        return idx

    try:
        for c, src in inputs:
            idx = push(c, "input", (), src)
            if idx is not None and nodes[idx].clause.empty:
                return SaturationResult("refutation", nodes, idx, generated)
        # the deletion may empty the queue, so poll the clock once first
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetStop("wall_clock")
        pure = pure_clauses(shapes)
        passive[:] = [entry for entry in passive if entry[2] not in pure]
        heapq.heapify(passive)

        steps = 0
        while passive:
            steps += 1
            if deadline is not None and steps % 32 == 0 and time.monotonic() > deadline:
                raise BudgetStop("wall_clock")
            _, _, gi = heapq.heappop(passive)
            given = nodes[gi].clause
            gshape = shapes[gi]
            if any(
                shapes[a] <= gshape and subsumes(nodes[a].clause, given, sig)
                for a in active
            ):
                continue
            candidates: set[int] = {gi}
            for l in given.literals:
                candidates.update(by_literal.get((l.atom.pred, not l.positive), ()))
            for ai in sorted(candidates):
                # resolvents() tries every opposite-sign literal pair, so one
                # orientation of the clause pair covers both
                for r in resolvents(given, nodes[ai].clause, sig):
                    ridx = push(r, "resolve", (gi, ai), None)
                    if ridx is not None and r.empty:
                        return SaturationResult("refutation", nodes, ridx, generated)
            for r in factors(given, sig):
                ridx = push(r, "factor", (gi,), None)
                if ridx is not None and r.empty:
                    return SaturationResult("refutation", nodes, ridx, generated)
            active.append(gi)
            for l in given.literals:
                by_literal.setdefault((l.atom.pred, l.positive), []).append(gi)
        return SaturationResult("saturated", nodes, None, generated)
    except BudgetStop as stop:
        return SaturationResult("budget", nodes, None, generated, stop.args[0])
