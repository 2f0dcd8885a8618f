"""Proof search: grounding, modal expansion, shadowing, resolution.

prove() runs a refutation pipeline.  Quantifiers whose variables reach
into modal subformulas are instantiated first, over a finite domain of
constants (see below), because modal subformulas are later replaced by
content-addressed propositional atoms and only identical instances can
connect.  Quantifiers with no modal content stay symbolic and are
handled by unification inside the resolution core.

Modal reasoning happens on the positive side: the closure rules are
applied to the assumptions before shadowing, so goals whose proof
would need modal rules applied underneath the negated goal are
reported as no_proof rather than proved.

Before grounding, two reductions make the work follow what the problem
touches rather than the size of the signature.

Pure roots.  The pure-literal fixpoint (resolution.pure_clauses) runs
first on the root formulas, the assumptions and the negated goal, at
predicate level (_pure_roots); the negated goal, which the reductio
cites, is always kept.  A modal subformula adds nothing to a formula's
must-set or shape (_polarity): its shadow atom is a predicate no
ordinary formula holds, so it never makes a root pure, and
pure_formulas still decides about it after shadowing.  S1 asserts the
body of a knows formula, after S3 and S4 have taken it apart, and no
rule asserts the body of any other modal, so the pairs of every knows
body in a root join that root's shape.  A root is pure when a pair of
its must-set has no complement left.  Grounding and substitution keep
each predicate's sign, and expansion produces no predicate-level pair
outside the shapes of the roots it starts from, so every clause of
every formula derived from a pure root holds the pure pair, with no
complement left: pure_formulas would delete it after shadowing.  A
pure root is therefore never grounded, expanded or shadowed.  Witness
names are still chosen clear of the names of every assumption.

Two things of a pure root reach further than its clauses, and a pure
root that has either is kept after all.  One is a join target: the
conjunction an S4 join builds from kept parts can serve a kept root, as
the antecedent S3 looks up by body key, or as a part of a larger
conjunction to join.  Either way a kept root holds that conjunction
inside a modal body.  Where a kept root holds it as the whole body of a
join target, the target is that root's own as well; and S1 brings out
of a joined formula only the clauses of its parts.  So a pure root is
kept when one of its targets' bodies has the skeleton (the formula with
its terms erased) of a conjunction inside a kept root's modal body,
other than a target's whole body (_joins).  Equal keys give equal
skeletons, whatever grounding substitutes.  The other is a witness,
which joins the domains of its sort.  A pure root is kept when it could
introduce a witness of a sort with no declared constant; any other
witness merges into a constant of its sort, as below.  A root kept
either way counts for the others, so the fixpoint runs again until it
keeps no more.  Adding to a problem a pure root that has neither
changes nothing else.

Mentioned constants.  A domain holds the constants the closure
mentions: those of the kept roots and the goal, and the witnesses.  It
adds one representative, the first declared constant by name, for
each exact sort whose declared constants the closure does not mention.
Equality and temporal order are free predicates (see models), so
merging every unmentioned constant into a constant of the closure, or
the representative, of its exact sort, and every witness of a pure
root likewise into one of its sort or a subsort, is a homomorphism.  It sends every grounding
instance, expansion record and shadow pattern of the closure over all
declared constants onto one of the reduced closure, and so maps a
refutation of the full clause set onto one of the reduced set; the
reduced set lies in the full one.  Refutability is the same either way.

A search over a grounding cut short by GROUNDING_INSTANCE_CAP, or over
a modal expansion that refused a new formula for depth, is not complete:
when it ends without a refutation the status is incomplete, never
no_proof.

A proof search holds one store of derivations: the grounding
closure's records, keyed by canonical key.  Modal expansion extends
that dict in place, and the proof is replayed from it.  A root formula
is keyed by canonical_key; a grounding instance by splicing its
constant into its quantifier's template (see _Prep), without walking
the instance.  The expansion keys no formula handed in again: it prints
keys only for the formulas it derives and for the bodies, antecedents
and join-target parts it looks up.

After shadowing, the formulas whose every clause the pure-literal rule
would delete are dropped before they are clausified (pure_formulas), so
the search sees exactly the clauses it kept before.  Budget.max_clauses
counts only clauses that enter the search: clauses of dropped formulas
are never built, so they do not count against it.  clausify also
stops before distributing a product of more than max_clauses literal
lists (the formula then has more clauses than that, duplicates and
tautologies included), past its NNF node cap, or past the deadline;
the search then ends as timeout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

from .clauses import ClausifyLimit, clausify
from .proofs import (
    Proof,
    ProofStep,
    RULE_CLAUSIFY,
    RULE_EXISTS_ANTECEDENT,
    RULE_EXISTS_ELIM,
    RULE_FACTOR,
    RULE_FORALL_ELIM,
    RULE_NEG_EXISTS_ELIM,
    RULE_NEG_FORALL_ELIM,
    RULE_NEGATED_GOAL,
    RULE_REDUCTIO,
    RULE_RESOLVE,
    clause_to_formula,
)
from .resolution import Shape, pure_clauses, saturate
from .schemata import (
    Derivation,
    RULE_ASSUMPTION,
    expand_modal,
    harvest_join_targets,
    is_join_target,
)
from .shadow import ShadowMap, shadow
from .syntax import (
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    KNOWS,
    Modal,
    Not,
    Or,
    Signature,
    Var,
    canonical_key,
    constants_in_formula,
    free_vars,
    is_moment_literal,
    key_name,
    maximal_modal_subformulas,
    moment_value,
    substitute,
    symbol_names,
)

GROUNDING_INSTANCE_CAP = 5000


@dataclass(frozen=True)
class Budget:
    timeout_ms: int = 10000
    depth: int = 4
    max_clauses: int = 200000

    def __post_init__(self) -> None:
        for name in ("timeout_ms", "depth", "max_clauses"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class ProveResult:
    status: str  # "proof" | "no_proof" | "incomplete" | "timeout"
    proof: Optional[Proof] = None
    stats: dict = field(default_factory=dict)


# Stands for the constant in an instance template.  Identifiers match
# [A-Za-z_][A-Za-z0-9_'-]* and generated names use letters, digits and
# '_', so no printed name or sort contains it.
_HOLE = "#"


class _Plan(NamedTuple):
    """How close() grounds a formula: wrap(body) with var replaced by a
    constant, derived by rule; over the whole domain when universal, by
    one fresh witness otherwise.  template is the canonical key of
    wrap(body) with var printed as _HOLE (see _Prep)."""

    var: Var
    body: Formula
    wrap: Callable[[Formula], Formula]
    rule: str
    universal: bool
    template: str


def _grounding_plan(f: Formula) -> Optional[_Plan]:
    """f's plan, or None when f has no quantifier whose variable reaches
    into a modal subformula."""
    if isinstance(f, Forall):
        plan = (f.var, f.body, _same, RULE_FORALL_ELIM, True)
    elif isinstance(f, Exists):
        plan = (f.var, f.body, _same, RULE_EXISTS_ELIM, False)
    elif isinstance(f, Not) and isinstance(f.body, Exists):
        plan = (f.body.var, f.body.body, Not, RULE_NEG_EXISTS_ELIM, True)
    elif isinstance(f, Not) and isinstance(f.body, Forall):
        plan = (f.body.var, f.body.body, Not, RULE_NEG_FORALL_ELIM, False)
    elif (
        isinstance(f, Implies)
        and isinstance(f.left, Exists)
        # the template holes var wherever wrap(body) has it free, so an
        # open consequent that has it free too is not grounded
        and f.left.var not in free_vars(f.right)
    ):
        rhs = f.right
        plan = (
            f.left.var,
            f.left.body,
            lambda g: Implies(g, rhs),
            RULE_EXISTS_ANTECEDENT,
            True,
        )
    else:
        return None
    var, body, wrap, rule, universal = plan
    if any(var in free_vars(m) for m in maximal_modal_subformulas(body)):
        template = canonical_key(wrap(body), {var: _HOLE})
        return _Plan(var, body, wrap, rule, universal, template)
    return None


def _same(g: Formula) -> Formula:
    return g


def _domain_order(consts: set[Const]) -> list[Const]:
    moments = sorted(
        (c for c in consts if is_moment_literal(c)), key=moment_value
    )
    named = sorted(
        (c for c in consts if not is_moment_literal(c)), key=lambda c: c.name
    )
    return moments + named


class _Prep:
    """Grounding closure over one set of root formulas.

    A root formula is keyed by canonical_key.  A grounding instance is
    keyed from its quantifier's template instead: the canonical key of
    wrap(body) with the bound variable printed as _HOLE.  Substituting
    a constant commutes with keying (binders are renamed by position
    whatever their names, and a constant keys as a named variable does,
    see syntax.key_name), so splicing the constant's key print into the
    template gives the instance's canonical key without building it.
    """

    def __init__(self, sig: Signature, named: Sequence[Formula]):
        self.sig = sig
        # insertion-ordered; modal expansion later extends it in place
        self.records: dict[str, Derivation] = {}
        self.named = named  # the assumptions, pruned ones included, and the goal
        self.consts: set[Const] = set()
        # record key -> names of the constants it was grounded at
        self.done: dict[str, set[str]] = {}
        self.witness_intro: dict[str, str] = {}
        self.instances = 0
        self.capped = False
        self.plans: dict[str, Optional[_Plan]] = {}
        self.domains: dict[str, list[Const]] = {}
        self.domains_at = 0  # len(consts) the cached domains were built from
        # names of the declared constants a domain left out
        self.left_out: set[str] = set()

    def add(self, f: Formula, rule: str, premises: tuple[str, ...]) -> str:
        key = canonical_key(f)
        if key not in self.records:
            self.records[key] = Derivation(f, rule, premises, 0)
            self.consts |= set(constants_in_formula(f))
        return key

    def _add_instance(self, key: str, c: Const) -> str:
        """Add the instance of record key's plan at c; its key."""
        var, body, wrap, rule, _, template = self.plans[key]
        ikey = template.replace(_HOLE, key_name(c.name))
        if ikey not in self.records:
            f = wrap(substitute(body, {var: c}, self.sig))
            self.records[ikey] = Derivation(f, rule, (key,), 0)
            # the instance's constants are its quantifier's (already
            # recorded) plus c, when var occurs free in body
            if _HOLE in template:
                self.consts.add(c)
        return ikey

    def _fresh_witness(self, sort: str) -> Const:
        """A constant w<n> named apart from the named formulas, the
        closure's constants and the earlier witnesses.  An instance adds
        no other name: a binder renamed by capture avoidance ends in "'"."""
        taken = {c.name for c in self.consts} | self.witness_intro.keys()
        taken = taken.union(*map(symbol_names, self.named))
        n = 1
        while f"w{n}" in taken:
            n += 1
        return Const(f"w{n}", sort)

    def _domain(self, sort: str) -> list[Const]:
        if len(self.consts) != self.domains_at:
            self.domains.clear()
            self.domains_at = len(self.consts)
        dom = self.domains.get(sort)
        if dom is None:
            consts = {c for c in self.consts if self.sig.widens(c.sort, sort)}
            # one representative, the first by name, per exact sort the
            # closure does not mention (see the module docstring)
            mentioned = {c.sort for c in consts}
            for c in self.sig.constants_of_sort(sort):
                if c.sort in mentioned:
                    if c not in consts:
                        self.left_out.add(c.name)
                else:
                    mentioned.add(c.sort)
                    consts.add(c)
            dom = self.domains[sort] = _domain_order(consts)
        return dom

    def _instantiate(self, key: str, sort: str) -> bool:
        added = False
        seen = self.done.setdefault(key, set())
        for c in self._domain(sort):
            if c.name in seen:
                continue
            seen.add(c.name)
            if self.instances >= GROUNDING_INSTANCE_CAP:
                self.capped = True
                return added
            self.instances += 1
            self._add_instance(key, c)
            added = True
        return added

    def _witness(self, key: str, sort: str) -> bool:
        if key in self.done:
            return False
        w = self._fresh_witness(sort)
        self.done[key] = {w.name}
        self.witness_intro[w.name] = self._add_instance(key, w)
        return True

    def close(self, deadline: float) -> None:
        changed = True
        while changed and not self.capped:
            if time.monotonic() > deadline:
                return
            changed = False
            for key in list(self.records):
                if key not in self.plans:
                    self.plans[key] = _grounding_plan(self.records[key].formula)
                plan = self.plans[key]
                if plan is None:
                    continue
                if plan.universal:
                    grew = self._instantiate(key, plan.var.sort)
                else:
                    grew = self._witness(key, plan.var.sort)
                if grew:
                    changed = True


def _polarity(f: Formula) -> tuple[Shape, Shape]:
    """(must-set, shape) of a formula: the (predicate, sign) pairs on its
    top-level disjunction, which every one of its clauses holds, and
    every pair any of its clauses can hold.  A modal subformula adds
    nothing to either, except that the pairs of a knows body, which S1
    can bring out, join the shape."""
    must: set[tuple[str, bool]] = set()
    shape: set[tuple[str, bool]] = set()

    def walk(g: Formula, sign: int, top: bool) -> None:
        # sign: 1 positive, -1 negative, 0 both (under an iff);
        # top: g lies on the top-level disjunction, so sign != 0
        if isinstance(g, Atom):
            if sign >= 0:
                shape.add((g.pred, True))
            if sign <= 0:
                shape.add((g.pred, False))
            if top:
                must.add((g.pred, sign > 0))
        elif isinstance(g, Not):
            walk(g.body, -sign, top)
        elif isinstance(g, (And, Or)):
            disjunction = top and isinstance(g, Or) == (sign > 0)
            for p in g.parts:
                walk(p, sign, disjunction)
        elif isinstance(g, Implies):
            disjunction = top and sign > 0
            walk(g.left, -sign, disjunction)
            walk(g.right, sign, disjunction)
        elif isinstance(g, Iff):
            # both directions become clauses: every atom takes both
            # signs, and no literal lies in every clause
            walk(g.left, 0, False)
            walk(g.right, 0, False)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body, sign, top)
        elif isinstance(g, Modal):
            # S1 asserts a knows body whatever the knows formula's sign;
            # no other operator's body is ever asserted
            if g.op == KNOWS:
                walk(g.body, 1, False)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f, 1, True)
    return frozenset(must), frozenset(shape)


def pure_formulas(formulas: Sequence[Formula]) -> set[int]:
    """Indices of the formulas whose every clause the pure-literal rule
    deletes (resolution.pure_clauses), found before clausifying them.

    A formula goes once a pair of its must-set has no complement left
    among the kept formulas' shapes (_polarity).  Every clause of such a
    formula holds that pair, and no clause of a kept formula holds its
    complement, so clause-level deletion removes all of them too; it
    keeps the same clauses whether or not it sees them.  prove() runs it
    on the shadowed formulas; _pure_roots runs the same fixpoint on the
    root formulas before grounding.
    """
    polarities = [_polarity(f) for f in formulas]
    return pure_clauses([s for _, s in polarities], [m for m, _ in polarities])


def _joins(f: Formula) -> tuple[set[tuple], set[tuple]]:
    """The skeletons of f's join targets' bodies, and of the conjunctions
    inside f's modal bodies but for the whole body of a join target:
    where a formula joined by S4 can serve f (see the module docstring).
    A skeleton is a formula with its terms erased, so formulas with one
    canonical key have one skeleton, whatever grounding put into them."""
    targets: set[tuple] = set()
    uses: set[tuple] = set()

    def walk(g: Formula, inside: bool) -> tuple:
        if isinstance(g, Atom):
            return (g.pred,)
        if isinstance(g, Modal):
            if is_join_target(g):
                body = ("And", *(walk(p, True) for p in g.body.parts))
                targets.add(body)
            else:
                body = walk(g.body, True)
            return (g.op, body)
        if isinstance(g, (And, Or)):
            skeleton = (type(g).__name__, *(walk(p, inside) for p in g.parts))
            if inside and isinstance(g, And):
                uses.add(skeleton)
            return skeleton
        if isinstance(g, (Implies, Iff)):
            return (type(g).__name__, walk(g.left, inside), walk(g.right, inside))
        return (type(g).__name__, walk(g.body, inside))  # Not, Forall, Exists

    walk(f, False)
    return targets, uses


def _witness_sorts(f: Formula) -> list[str]:
    """Sorts of the witnesses _Prep.close could introduce grounding f:
    its quantifiers _grounding_plan takes apart, whether or not their
    variables reach a modal."""
    out = []
    while True:
        if isinstance(f, Forall):
            f = f.body
        elif isinstance(f, Exists):
            out.append(f.var.sort)
            f = f.body
        elif isinstance(f, Not) and isinstance(f.body, Exists):
            f = Not(f.body.body)
        elif isinstance(f, Not) and isinstance(f.body, Forall):
            out.append(f.body.var.sort)
            f = Not(f.body.body)
        elif isinstance(f, Implies) and isinstance(f.left, Exists):
            f = Implies(f.left.body, f.right)
        else:
            return out


def _pure_roots(roots: Sequence[Formula], sig: Signature) -> set[int]:
    """Indices of the roots prove() leaves out (see the module
    docstring).  The last root, the negated goal, is always kept.  A
    pure root is kept after all when it could introduce a witness of a
    sort with no declared constant, or when one of its join targets has
    the skeleton of a conjunction a kept root can use (_joins); it then
    counts for the others, and the fixpoint runs again."""
    polarities = [_polarity(f) for f in roots]
    shapes = [s for _, s in polarities]
    musts = [m for m, _ in polarities]
    musts[-1] = frozenset()  # the reductio cites the negated goal
    joins: Optional[list[tuple[set[tuple], set[tuple]]]] = None
    while True:
        pruned = pure_clauses(shapes, musts)
        if not pruned:
            return pruned
        if joins is None:
            joins = [_joins(f) for f in roots]
        used = set().union(*(u for i, (_, u) in enumerate(joins) if i not in pruned))
        kept = {
            i
            for i in pruned
            if joins[i][0] & used
            or any(not sig.constants_of_sort(s) for s in _witness_sorts(roots[i]))
        }
        if not kept:
            return pruned
        for i in kept:
            musts[i] = frozenset()


def prove(
    assumptions: Sequence[Formula],
    goal: Formula,
    budget: Optional[Budget] = None,
    sig: Optional[Signature] = None,
) -> ProveResult:
    budget = budget if budget is not None else Budget()
    sig = sig if sig is not None else Signature()
    start = time.monotonic()
    deadline = start + budget.timeout_ms / 1000.0
    stats: dict = {}

    def finish(
        status: str, proof: Optional[Proof] = None, limit: Optional[str] = None
    ) -> ProveResult:
        stats["elapsed_ms"] = (time.monotonic() - start) * 1000.0
        if limit is not None:
            stats["limit"] = limit
        return ProveResult(status, proof, stats)

    # grounding closure over the kept assumptions and the negated goal
    # together; formulas rooted at the negated goal are all negations, so
    # the modal closure rules below never fire on that side
    ng = Not(goal)
    pruned = _pure_roots([*assumptions, ng], sig)
    prep = _Prep(sig, [*assumptions, goal])
    for i, a in enumerate(assumptions):
        if i not in pruned:
            prep.add(a, RULE_ASSUMPTION, ())
    ng_key = prep.add(ng, RULE_NEGATED_GOAL, ())
    prep.close(deadline)
    stats["pruned_roots"] = len(pruned)
    stats["grounding_instances"] = prep.instances
    stats["grounding_capped"] = prep.capped
    stats["domain_dropped"] = len(prep.left_out)
    if time.monotonic() > deadline:
        return finish("timeout", limit="wall_clock")

    targets = harvest_join_targets(d.formula for d in prep.records.values())
    truncated = expand_modal(prep.records, depth=budget.depth, join_targets=targets)
    stats["expansion_size"] = len(prep.records)
    stats["expansion_truncated"] = truncated

    steps: list[ProofStep] = []
    index_of: dict[str, int] = {}

    def emit(key: str) -> int:
        if key in index_of:
            return index_of[key]
        rec = prep.records[key]
        prems = tuple(emit(k) for k in rec.premises)
        # a witness constant may only appear after the step that introduced
        # it, so pull the introducing record in front of any other use
        for c in constants_in_formula(rec.formula):
            intro = prep.witness_intro.get(c.name)
            if intro is not None and intro != key:
                emit(intro)
        steps.append(ProofStep(rec.formula, rec.rule, prems))
        index_of[key] = len(steps) - 1
        return index_of[key]

    goal_key = canonical_key(goal)
    if goal_key in prep.records:
        emit(goal_key)
        stats["route"] = "closure"
        return finish("proof", Proof(tuple(steps)))

    flist = list(prep.records)
    smap = ShadowMap()
    shadowed = [shadow(prep.records[key].formula, smap) for key in flist]
    dead = pure_formulas(shadowed)
    inputs = []
    try:
        for fi, f in enumerate(shadowed):
            if fi in dead:
                continue
            for c in clausify(f, deadline=deadline, max_clauses=budget.max_clauses):
                inputs.append((c, fi))
    except ClausifyLimit as stop:
        return finish("timeout", limit=stop.args[0])

    sat = saturate(inputs, sig, deadline, budget.max_clauses)
    stats["generated_clauses"] = sat.generated
    if sat.status == "budget":
        return finish("timeout", limit=sat.limit)
    if sat.status == "saturated":
        if prep.capped:
            return finish("incomplete", limit="grounding_cap")
        if truncated:
            return finish("incomplete", limit="modal_depth")
        return finish("no_proof")

    # refutation: rebuild the used derivation as checkable steps
    node_step: dict[int, int] = {}
    for ni in sat.used_nodes():
        node = sat.nodes[ni]
        if node.rule == "input":
            src = emit(flist[node.source])
            steps.append(
                ProofStep(clause_to_formula(node.clause), RULE_CLAUSIFY, (src,))
            )
        elif node.rule == "resolve":
            prems = tuple(node_step[p] for p in node.parents)
            steps.append(ProofStep(clause_to_formula(node.clause), RULE_RESOLVE, prems))
        else:
            prems = tuple(node_step[p] for p in node.parents)
            steps.append(ProofStep(clause_to_formula(node.clause), RULE_FACTOR, prems))
        node_step[ni] = len(steps) - 1

    falsum_step = node_step[sat.empty_index]
    ng_step = emit(ng_key)
    steps.append(ProofStep(goal, RULE_REDUCTIO, (falsum_step, ng_step)))
    stats["route"] = "refutation"
    return finish("proof", Proof(tuple(steps)))
