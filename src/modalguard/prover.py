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
names are still chosen clear of the names of every assumption.  The
witness a pure root would introduce merges into an element of its sort
or a subsort, which every domain holds (see Mentioned constants).

One thing of a pure root reaches further than its clauses, and a pure
root that has it is kept after all: a join target.  The conjunction an
S4 join builds from kept parts can serve a kept root, as the antecedent
S3 looks up by body key, or as a part of a larger conjunction to join.
Either way a kept root holds that conjunction inside a modal body.
Where a kept root holds it as the whole body of a join target, the
target is that root's own as well; and S1 brings out of a joined
formula only the clauses of its parts.  So a pure root is kept when one
of its targets' bodies has the skeleton (the formula with its terms
erased) of a conjunction inside a kept root's modal body, other than a
target's whole body (_joins).  Equal keys give equal skeletons,
whatever grounding substitutes.  A root kept so counts for the others,
so the fixpoint runs again until it keeps no more.  Adding to a problem
a pure root that has no such target changes nothing else.

Mentioned constants.  A domain holds the constants the closure
mentions: those of the kept roots and the goal, and the witnesses.  It
adds one representative, the first declared constant by name, for
each exact sort whose declared constants the closure does not mention.
A sort that no constant of the closure or the signature widens to gets
one anonymous element, a constant named as a witness is
(_fresh_witness), which joins the domain of every sort it widens to:
as in clausifying and in the oracle (models._domains), no sort is
empty.  Equality and temporal order are free predicates (see models),
so merging every unmentioned constant into a constant of the closure,
or the representative, of its exact sort, and every witness of a pure
root into an element of its sort or a subsort, is a homomorphism.  It
sends every grounding instance, expansion record and shadow pattern of
the closure over all declared constants onto one of the reduced
closure, and so maps a refutation of the full clause set onto one of
the reduced set; the reduced set lies in the full one, once each
anonymous element is named as a witness of its sort where the full
closure has one.  Refutability is the same either way.

Pure instances.  The term-level pure-literal rule runs on grounding
instances before they are built.  Every literal a clause of the closure
can hold outside a shadow atom is an instance of a literal of a kept
root, at the same sign (_literals, _patterns): grounding substitutes
constants and keeps each atom's sign, S1 brings out a knows body, whose
atoms a root's walk takes at their sign in the body, S3 and S4 bring
out parts of such bodies only, and clausifying puts variables or Skolem
terms for bound variables.  Before _Prep builds a universal instance it
fills the constant into the literals of the instance's must-set that
are then ground (_Plan.must).  When one of them unifies
(resolution.unify_atoms) with no literal of opposite sign of a kept
root, the instance is pure and is not built.  Each of its clauses holds
that ground literal, and it unifies with no complementary literal of
any clause derived from the kept roots: a constant unifies with an
instance of a variable only if its sort widens to the variable's.  So
no clause of the instance, nor any clause derived from one, takes part
in a refutation, and a clause such a clause subsumes takes part in none
either.  Dropping clauses that take part in no refutation leaves the
order in which the given-clause loop selects and combines the others
unchanged, and the predicate-level passes below drop only such clauses
too: the search ends the same way with the same proof, unless the
clauses it no longer sees were what ran its budget out.  An instance
derived from a pure one holds an instance of its pure literal, so the
quantifiers below a pure instance are never ground.  A pure instance is
not a modal formula (see below), so the modal expansion derives
nothing from it; the constant it would add is in the domain already.
The exception of pure roots holds for instances too: an instance whose
join target has the skeleton of a conjunction a kept root uses is built
anyway.  Substitution changes no skeleton, so the exception is decided
once per record.

The maximal modal subformulas on the must-set are checked too
(_Plan.modals).  Each is one shadow atom in every clause of the
instance, named after the modal with its free variables as holes, so
it resolves only against the shadow atom of a modal of the opposite
sign that is the same but where either holds a variable there.  Such a
modal meets (_meet) a modal of the kept roots or one the expansion
derives from them, at that sign (_patterns):
  - the roots' maximal modals outside modals, and those in knows
    bodies at their sign in the body, as for atoms: grounding and
    clausifying only put terms for variables;
  - M(a,t,s) for each positive epistemic modal record M(a,t,B) and
    each s that S4-split and S3 reach from B through conjuncts and
    implication consequents, where a record is a root that is a modal
    under its quantifiers, a modal S1 brings out of a knows record, or
    such an M(a,t,s).
Expansion derives no negative modal, and no positive one but those and
what S4-join and S2 build; so a negative modal is also supported when
S4 can join it, every part M(a,t,p) being supported (_joinable), or
when it is a believes formula whose knows twin is supported.  A modal
of the must-set that is not supported at the instance's constant makes
the instance pure, by the argument above.  The check fills nothing in:
_met finds, once per plan, the names of the constants at which each
modal meets a pattern, the hole meeting a pattern's constant there.
Meeting is structural, binders by position, and a variable on either
side meets any term: it stands for whatever grounding, Skolem terms or
unification put there.  That over-approximates resolution and needs no
sort intersection, which unify_atoms lacks: it fails on two variables
whose sorts meet only at a subsort such as Goal, and would refuse an
instance that is live.  Two exceptions keep instances the argument
would drop.  A plan whose wrap(body) is a modal under its quantifiers
takes no modal literal: its instances are modal formulas, whose
expansion is not bound by their clauses.  And an instance that holds a
join target S4 can join is built, so that no join is lost.  Then, but
for the instances the modal check keeps out, those below them and the
witnesses they would name, the closure is the one built without the
check; and pure_formulas would drop those instances after shadowing, a
shadow atom of the opposite sign meeting their pure modal otherwise.
So the search sees the same clauses.

Only the atoms ground but for the bound variable are checked.  Sorted
unification binds a variable to a term of its sort or a subsort, so two
variables of incomparable sorts never unify although their instances
may meet at a common subsort (Goal lies below both Event and Fluent): a
literal that holds a variable could be found pure when it is not.
Meeting ignores sorts, so modals are checked whatever else they hold.

GROUNDING_INSTANCE_CAP counts the instances built, not the pure ones
refused.  A search over a grounding cut short by the cap, or over
a modal expansion that refused a new formula for depth, is not complete:
when it ends without a refutation the status is incomplete, never
no_proof.

A proof search holds one store of derivations: the grounding
closure's records, keyed by canonical key.  Modal expansion extends
that dict in place, and the proof is replayed from it.  Every record
is keyed by canonical_key; a grounding instance by its quantifier's
body keyed under the constant's name (see _Prep), so the instance is
keyed before it is built.  The expansion keys no formula handed in
again: it prints keys only for the formulas it derives and for the
bodies, antecedents and join-target parts it looks up.

One theory, many goals.  prove works through a Premises, which keeps
what it derives from the assumptions alone: each assumption's
canonical key and constants, and the roots _pure_roots leaves out.
Its pruning is cached under the negated goal's shape and the
conjunction skeletons it uses (_joins).  That is exact: _pure_roots
empties the negated goal's must-set, so never prunes it and never asks
for its join targets, and reads nothing else of the goal and no
signature.  Any other sequence is wrapped in a fresh Premises, so one
question takes the same path; check_dde and epistemic_query
hand one Premises to every goal they ask of one theory.  A goal the
theory assumes takes the assumption route: before _Prep is built,
prove looks among the kept assumptions for one keyed as the goal is,
and answers with the first one's assumption step.  That is the proof
the closure route would emit: _Prep.add records the first kept
assumption of each key under RULE_ASSUMPTION before anything is
derived, and emit pulls in no witness step for it, since a witness is
named apart from every assumption.  No such assumption is ever pruned.
It has the goal's literals, so every pair of its must-set is a literal
on the goal's top-level disjunction, outside any modal; that literal
lies in Not(goal) at the other sign, so Not(goal)'s shape holds the
pair's complement, and Not(goal) is never pruned.  The route keys no
assumption that the closure would not key anyway.

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
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

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
from .resolution import Shape, pure_clauses, saturate, unify_atoms
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
    App,
    Atom,
    BELIEVES,
    Const,
    EPISTEMIC_OPS,
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
    Term,
    Var,
    canonical_key,
    constant_sorts,
    constants_in_formula,
    domain_order,
    free_vars,
    maximal_modal_subformulas,
    subformulas,
    substitute,
    substitute_term,
    symbol_names,
    term_vars,
    unspoofed,
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


class _Plan(NamedTuple):
    """How close() grounds a formula: wrap(body) with var replaced by a
    constant, derived by rule; over the whole domain when universal, by
    one fresh witness otherwise.  var is free in a modal subformula of
    body.  must holds the literals of wrap(body)'s must-set that are
    ground but for var, as (atom, positive); modals the maximal modal
    subformulas on that must-set below no binder of var, as (modal,
    positive), none when wrap(body) is a modal under its quantifiers
    (see the module docstring)."""

    var: Var
    body: Formula
    wrap: Callable[[Formula], Formula]
    rule: str
    universal: bool
    must: tuple[tuple[Atom, bool], ...]
    modals: tuple[tuple[Modal, bool], ...]


def _quantifier(
    f: Formula,
) -> Optional[tuple[Var, Formula, Callable[[Formula], Formula], str, bool]]:
    """The quantifier _Prep takes apart at the top of f, as (var, body,
    wrap, rule, universal): f is wrap(Q var body), with Q universal in
    effect or not; None when f has none."""
    if isinstance(f, Forall):
        return f.var, f.body, _same, RULE_FORALL_ELIM, True
    if isinstance(f, Exists):
        return f.var, f.body, _same, RULE_EXISTS_ELIM, False
    if isinstance(f, Not) and isinstance(f.body, Exists):
        return f.body.var, f.body.body, Not, RULE_NEG_EXISTS_ELIM, True
    if isinstance(f, Not) and isinstance(f.body, Forall):
        return f.body.var, f.body.body, Not, RULE_NEG_FORALL_ELIM, False
    if isinstance(f, Implies) and isinstance(f.left, Exists):
        rhs = f.right
        return f.left.var, f.left.body, lambda g: Implies(g, rhs), RULE_EXISTS_ANTECEDENT, True
    return None


def _grounding_plan(f: Formula) -> Optional[_Plan]:
    """f's plan, or None when f has no quantifier whose variable reaches
    into a modal subformula."""
    q = _quantifier(f)
    if q is None:
        return None
    var, body, wrap, rule, universal = q
    # an instance key names var wherever wrap(body) has it free, so an
    # open consequent that has it free too is not grounded
    if rule == RULE_EXISTS_ANTECEDENT and var in free_vars(f.right):
        return None
    if any(var in free_vars(m) for m in maximal_modal_subformulas(body)):
        f = wrap(body)
        core = _core(f)
        must: dict[tuple[Atom, bool], None] = {}
        modals: list[tuple[Modal, bool]] = []
        for lit, sign, top, bound in _literals(f):
            if not top:
                continue
            # below a binder of var itself, var is not the one filled in
            if isinstance(lit, Atom):
                held: list[Var] = []
                for t in lit.args:
                    term_vars(t, held)
                if all(v == var and v not in bound for v in held):
                    must[(lit, sign > 0)] = None
            elif not isinstance(core, Modal) and var not in bound:
                modals.append((lit, sign > 0))
        return _Plan(var, body, wrap, rule, universal, tuple(must), tuple(modals))
    return None


def _same(g: Formula) -> Formula:
    return g


def _core(f: Formula) -> Formula:
    """f without the quantifiers at its top."""
    while isinstance(f, (Forall, Exists)):
        f = f.body
    return f


# the names of some constants; None stands for every constant
Names = Optional[frozenset[str]]


def _either(a: Names, b: Names) -> Names:
    return None if a is None or b is None else a | b


def _both(a: Names, b: Names) -> Names:
    return b if a is None else a if b is None else a & b


class _Prep:
    """Grounding closure over one set of root formulas.

    A root formula is keyed by canonical_key.  A grounding instance at
    a constant c is keyed as wrap(body) with the bound variable named
    c.name: binders key by position whatever their names, and a named
    variable keys as a constant of that name does, quoted when the name
    is not plain (syntax.key_name), so that is the instance's canonical
    key, found before the instance is built.
    """

    def __init__(
        self, sig: Signature, named: Sequence[Formula], roots: Sequence[Formula]
    ):
        self.sig = sig
        # insertion-ordered; modal expansion later extends it in place
        self.records: dict[str, Derivation] = {}
        self.named = named  # the assumptions, pruned ones included, and the goal
        # the kept roots: each literal derived is an instance of theirs
        self.roots = roots
        self.consts: set[Const] = set()
        # record key -> names of the constants it was grounded at
        self.done: dict[str, set[str]] = {}
        self.witness_intro: dict[str, str] = {}
        self.instances = 0
        self.pure = 0  # instances not built, being pure
        self.capped = False
        # filled by the purity checks: the kept roots' literals and the
        # modals the closure can hold (_patterns), whether a ground
        # literal meets one of the opposite sign, by record key the
        # constants at which every modal of its plan is supported and
        # those at which S4 can join a join target of its plan, the
        # conjunction skeletons the kept roots use (_joins), and whether
        # the exception of _pure_roots builds the pure instances of a
        # record's plan anyway
        self.patterns: Optional[_Patterns] = None
        self.supported: dict[tuple[Atom, bool], bool] = {}
        self.met: dict[str, Names] = {}
        self.joined: dict[str, Names] = {}
        self.used: Optional[set[tuple]] = None
        self.exempt: dict[str, bool] = {}
        self.plans: dict[str, Optional[_Plan]] = {}
        self.domains: dict[str, list[Const]] = {}
        self.domains_at = 0  # len(consts) the cached domains were built from
        # names of the declared constants a domain left out
        self.left_out: set[str] = set()

    def add(self, key: str, f: Formula, rule: str, consts: Sequence[Const]) -> None:
        """Record root formula f under its canonical key, with its constants."""
        if key not in self.records:
            self.records[key] = Derivation(f, rule, (), 0)
            self.consts.update(consts)

    def _add_instance(self, key: str, c: Const) -> str:
        """Add the instance of record key's plan at c; its key."""
        var, body, wrap, rule = self.plans[key][:4]
        ikey = canonical_key(wrap(body), {var: c.name})
        if ikey not in self.records:
            f = wrap(substitute(body, {var: c}, self.sig))
            self.records[ikey] = Derivation(f, rule, (key,), 0)
            # the instance's constants are its quantifier's (already
            # recorded) plus c
            self.consts.add(c)
        return ikey

    def _fresh_witness(self, sort: str) -> Const:
        """A constant w<n>, a witness or an anonymous element, named
        apart from the named formulas, the closure's constants and the
        earlier witnesses.  An instance adds
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
            # one anonymous element per sort that no constant of the
            # closure or the signature widens to (see the module docstring)
            held = {c.sort for c in self.consts}.union(self.sig.constants.values())
            empty = [
                s
                for s in self.sig.sorts
                if self.sig.widens(s, sort)
                and not any(self.sig.widens(h, s) for h in held)
            ]
            for s in empty:
                self.consts.add(self._fresh_witness(s))
            if empty:
                self.domains.clear()
                self.domains_at = len(self.consts)
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
            dom = self.domains[sort] = domain_order(consts)
        return dom

    def _patterns(self) -> _Patterns:
        if self.patterns is None:
            self.patterns = _patterns(self.roots)
        return self.patterns

    def _supported(self, atom: Atom, positive: bool) -> bool:
        """Whether the ground literal unifies with a kept root's literal
        of the opposite sign."""
        known = self.supported.get((atom, positive))
        if known is None:
            known = self.supported[(atom, positive)] = any(
                unify_atoms(atom, p, self.sig) is not None
                for p in self._patterns().atoms.get((atom.pred, not positive), ())
            )
        return known

    def _met(self, m: Modal, positive: bool, hole: Var) -> Names:
        """The names of the constants c at which m, with hole filled by
        c, is supported (see the module docstring)."""
        names: Names = frozenset()
        for p in self._patterns().modals.get((m.op, not positive, _head(m.body)), ()):
            need: set[str] = set()
            if _meet(m, p, hole, need) and len(need) <= 1:
                names = _either(names, frozenset(need) or None)
                if names is None:
                    return None
        if not positive and m.op in EPISTEMIC_OPS:
            if isinstance(m.body, And):
                names = _either(names, self._joinable(m, hole))
            if m.op == BELIEVES:
                # S2 derives it from its knows twin
                twin = Modal(KNOWS, m.agent, m.time, m.body)
                names = _either(names, self._met(twin, False, hole))
        return names

    def _joinable(self, m: Modal, hole: Var) -> Names:
        """The names of the constants c at which S4 can join the join
        target m, with hole filled by c: every part is supported."""
        names: Names = None
        for part in m.body.parts:
            names = _both(names, self._met(Modal(m.op, m.agent, m.time, part), False, hole))
        return names

    def _pure(self, key: str, c: Const) -> bool:
        """Whether the instance of record key's plan at c is pure: a
        literal of its must-set meets no complement, and neither a join
        target it holds nor the exception of _pure_roots keeps it (see
        the module docstring)."""
        plan = self.plans[key]
        if not plan.must and not plan.modals:
            return False
        hole = {plan.var: c}
        if all(
            self._supported(
                Atom(a.pred, tuple(substitute_term(t, hole) for t in a.args)), positive
            )
            for a, positive in plan.must
        ):
            if key not in self.met:
                names: Names = None
                for m, positive in plan.modals:
                    names = _both(names, self._met(m, positive, plan.var))
                self.met[key] = names
            if self.met[key] is None or c.name in self.met[key]:
                return False
            if key not in self.joined:
                names = frozenset()
                for g in subformulas(plan.wrap(plan.body)):
                    if is_join_target(g):
                        names = _either(names, self._joinable(g, plan.var))
                self.joined[key] = names
            if self.joined[key] is None or c.name in self.joined[key]:
                return False
        exempt = self.exempt.get(key)
        if exempt is None:
            if self.used is None:
                self.used = set().union(*(_joins(f)[1] for f in self.roots))
            # substitution changes no skeleton of a formula, so the
            # instance has the record's
            f = self.records[key].formula
            exempt = self.exempt[key] = bool(_joins(f)[0] & self.used)
        return not exempt

    def _instantiate(self, key: str, sort: str) -> bool:
        added = False
        seen = self.done.setdefault(key, set())
        for c in self._domain(sort):
            if c.name in seen:
                continue
            seen.add(c.name)
            if self._pure(key, c):
                self.pure += 1
                continue
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


def _literals(f: Formula) -> list[tuple[Atom | Modal, int, bool, tuple[Var, ...]]]:
    """The atoms and maximal modal subformulas a clause of f, or of a
    formula derived from f, can hold, a modal as its shadow atom:
    (literal, sign, top, bound), where sign is 1 positive, -1 negative
    or 0 both (under an iff), top says that the literal lies on f's
    top-level disjunction, which every clause of f holds, and bound
    lists the variables bound above it.  The literals inside a modal
    are not f's, except that those of a knows body, which S1 can bring
    out, come at their sign within the body."""
    out: list[tuple[Atom | Modal, int, bool, tuple[Var, ...]]] = []

    def walk(g: Formula, sign: int, top: bool, bound: tuple[Var, ...]) -> None:
        # top implies sign != 0
        if isinstance(g, Atom):
            out.append((g, sign, top, bound))
        elif isinstance(g, Not):
            walk(g.body, -sign, top, bound)
        elif isinstance(g, (And, Or)):
            disjunction = top and isinstance(g, Or) == (sign > 0)
            for p in g.parts:
                walk(p, sign, disjunction, bound)
        elif isinstance(g, Implies):
            disjunction = top and sign > 0
            walk(g.left, -sign, disjunction, bound)
            walk(g.right, sign, disjunction, bound)
        elif isinstance(g, Iff):
            # both directions become clauses: every literal takes both
            # signs, and no literal lies in every clause
            walk(g.left, 0, False, bound)
            walk(g.right, 0, False, bound)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body, sign, top, (*bound, g.var))
        elif isinstance(g, Modal):
            out.append((g, sign, top, bound))
            # S1 asserts a knows body whatever the knows formula's sign;
            # no other operator's body is ever asserted
            if g.op == KNOWS:
                walk(g.body, 1, False, bound)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f, 1, True, ())
    return out


def _polarity(f: Formula) -> tuple[Shape, Shape]:
    """(must-set, shape) of a formula: the (predicate, sign) pairs on its
    top-level disjunction, which every one of its clauses holds, and
    every pair any of its clauses can hold (see _literals).  A modal
    adds no pair."""
    must: set[tuple[str, bool]] = set()
    shape: set[tuple[str, bool]] = set()
    for atom, sign, top, _ in _literals(f):
        if not isinstance(atom, Atom):
            continue
        if sign >= 0:
            shape.add((atom.pred, True))
        if sign <= 0:
            shape.add((atom.pred, False))
        if top:
            must.add((atom.pred, sign > 0))
    return frozenset(must), frozenset(shape)


class _Patterns(NamedTuple):
    """What the closure over some roots can hold: atoms by (predicate,
    positive), each literal an instance of one, and modals by (operator,
    positive, _head of the body), each maximal modal of a clause met by
    one (see the module docstring)."""

    atoms: dict[tuple[str, bool], list[Atom]]
    modals: dict[tuple[str, bool, str], list[Modal]]


def _head(f: Formula) -> str:
    """What two formulas that meet (_meet) have alike at their top."""
    if isinstance(f, Atom):
        return f.pred
    if isinstance(f, Modal):
        return f.op
    return type(f).__name__


def _patterns(roots: Sequence[Formula]) -> _Patterns:
    """The roots' literals (_literals), and the epistemic modals S3 and
    S4-split derive (see the module docstring)."""
    atoms: dict[tuple[str, bool], dict[Atom, None]] = {}
    modals: dict[tuple[str, bool, str], list[Modal]] = {}
    for f in roots:
        for lit, sign, _, _ in _literals(f):
            if isinstance(lit, Atom):
                if sign >= 0:
                    atoms.setdefault((lit.pred, True), {})[lit] = None
                if sign <= 0:
                    atoms.setdefault((lit.pred, False), {})[lit] = None
            else:
                head = _head(lit.body)
                if sign >= 0:
                    modals.setdefault((lit.op, True, head), []).append(lit)
                if sign <= 0:
                    modals.setdefault((lit.op, False, head), []).append(lit)
    # the epistemic modal records: the roots that are one under their
    # quantifiers, what S1 brings out of a knows record, and what S3 and
    # S4-split derive from a record; each is a pattern already, or is
    # added here
    records = [g for g in map(_core, roots) if isinstance(g, Modal)]
    while records:
        m = records.pop()
        if m.op not in EPISTEMIC_OPS:
            continue
        for s in _reached(m.body):
            if s is not m.body:
                product = Modal(m.op, m.agent, m.time, s)
                modals.setdefault((m.op, True, _head(s)), []).append(product)
            if m.op == KNOWS and isinstance(s, Modal):
                records.append(s)
    return _Patterns({k: list(v) for k, v in atoms.items()}, modals)


def _reached(body: Formula) -> Iterator[Formula]:
    """body, and what S4-split and S3 can take out of a modal with that
    body: its conjuncts and its implication's consequent, repeatedly."""
    yield body
    if isinstance(body, And):
        for p in body.parts:
            yield from _reached(p)
    elif isinstance(body, Implies):
        yield from _reached(body.right)


def _meet(f: Formula, p: Formula, hole: Optional[Var], need: set[str]) -> bool:
    """Whether f meets p: the two are alike but where either holds a
    variable, which meets any term.  hole, a variable of f, is to be
    filled with a constant; the names of the constants of p it meets
    go into need."""
    kind = type(f)
    if kind is not type(p):
        return False
    if kind is Atom:
        return f.pred == p.pred and _meet_terms(f.args, p.args, hole, need)
    if kind is Modal:
        return (
            f.op == p.op
            and _meet_terms((f.agent, f.time), (p.agent, p.time), hole, need)
            and (f.situation is None or _meet_terms((f.situation,), (p.situation,), hole, need))
            and _meet(f.body, p.body, hole, need)
        )
    if kind is And or kind is Or:
        if len(f.parts) != len(p.parts):
            return False
        for g, q in zip(f.parts, p.parts):
            if not _meet(g, q, hole, need):
                return False
        return True
    if kind is Implies or kind is Iff:
        return _meet(f.left, p.left, hole, need) and _meet(f.right, p.right, hole, need)
    if kind is Not:
        return _meet(f.body, p.body, hole, need)
    # Forall, Exists: below a binder of its own, hole is not the one filled
    return _meet(f.body, p.body, None if f.var == hole else hole, need)


def _meet_terms(
    ts: Sequence[Term], us: Sequence[Term], hole: Optional[Var], need: set[str]
) -> bool:
    """Whether each of the terms ts meets its term of us (see _meet).
    Names are compared, not sorts: a name is a constant of one sort."""
    if len(ts) != len(us):
        return False
    for t, u in zip(ts, us):
        if type(u) is Var:
            continue
        if type(t) is Var:
            if hole is None or t.name != hole.name or t.sort != hole.sort:
                continue
            if type(u) is not Const:
                return False  # a constant is no function term
            need.add(u.name)
        elif type(t) is Const:
            if type(u) is not Const or t.name != u.name:
                return False
        elif type(u) is not App or t.fn != u.fn or not _meet_terms(t.args, u.args, hole, need):
            return False
    return True


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


def _pure_roots(roots: Sequence[Formula]) -> set[int]:
    """Indices of the roots prove() leaves out (see the module
    docstring).  The last root, the negated goal, is always kept.  A
    pure root is kept after all when one of its join targets has the
    skeleton of a conjunction a kept root can use (_joins); it then
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
        kept = {i for i in pruned if joins[i][0] & used}
        if not kept:
            return pruned
        for i in kept:
            musts[i] = frozenset()


class Premises(Sequence[Formula]):
    """A read-only sequence of assumption formulas that keeps what prove
    derives from them alone, so that several goals asked of one theory
    pay for it once: each assumption's canonical key and constants, and
    the roots _pure_roots leaves out (see the module docstring)."""

    def __init__(self, formulas: Iterable[Formula]):
        self._formulas = tuple(formulas)
        self._keyed: dict[int, tuple[str, list[Const]]] = {}
        self._pruned: dict[tuple, frozenset[int]] = {}

    def __len__(self) -> int:
        return len(self._formulas)

    def __getitem__(self, i):
        return self._formulas[i]

    def __iter__(self) -> Iterator[Formula]:
        return iter(self._formulas)

    def keyed(self, i: int) -> tuple[str, list[Const]]:
        """The canonical key and the constants of assumption i; raises
        ValueError when the key holds a generated name (unspoofed)."""
        got = self._keyed.get(i)
        if got is None:
            f = self._formulas[i]
            got = self._keyed[i] = (unspoofed(canonical_key(f)), constants_in_formula(f))
        return got

    def pruned(self, ng: Formula) -> frozenset[int]:
        """_pure_roots over the assumptions and the negated goal ng.

        Besides the assumptions, _pure_roots reads only ng's shape (its
        must-set is emptied) and the conjunction skeletons ng uses (ng is
        never pruned, so its join targets are never asked for); the two
        are the key."""
        memo = (_polarity(ng)[1], frozenset(_joins(ng)[1]))
        got = self._pruned.get(memo)
        if got is None:
            got = self._pruned[memo] = frozenset(_pure_roots([*self._formulas, ng]))
        return got


def _assumed(premises: Premises, kept: Sequence[int], goal_key: str) -> Optional[int]:
    """The first kept assumption keyed goal_key, or None: the assumption
    route (see the module docstring)."""
    return next((i for i in kept if premises.keyed(i)[0] == goal_key), None)


def prove(
    assumptions: Sequence[Formula],
    goal: Formula,
    budget: Optional[Budget] = None,
    sig: Optional[Signature] = None,
) -> ProveResult:
    """Search for a proof of goal from the assumptions.  Pass one
    Premises to ask several goals of one theory; any other sequence is
    wrapped in a fresh Premises.  Raises ValueError when the goal, or a
    kept assumption it keys, holds a name spelled like a shadow atom or
    a skolem symbol (syntax.unspoofed), and when one name is a constant
    of two sorts in sig, the goal and the assumptions a proof may cite
    (syntax.constant_sorts)."""
    budget = budget if budget is not None else Budget()
    sig = sig if sig is not None else Signature()
    premises = assumptions if isinstance(assumptions, Premises) else Premises(assumptions)
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
    pruned = premises.pruned(ng)
    stats["pruned_roots"] = len(pruned)
    kept = [i for i in range(len(premises)) if i not in pruned]
    goal_key = unspoofed(canonical_key(goal))
    goal_consts = constants_in_formula(goal)
    assumed = _assumed(premises, kept, goal_key)
    used = kept if assumed is None else [assumed]
    constant_sorts([*(premises.keyed(i)[1] for i in used), goal_consts], sig.constants)
    if assumed is not None:
        stats["route"] = "assumption"
        return finish("proof", Proof((ProofStep(premises[assumed], RULE_ASSUMPTION, ()),)))
    prep = _Prep(sig, [*premises, goal], [*(premises[i] for i in kept), ng])
    for i in kept:
        key, consts = premises.keyed(i)
        prep.add(key, premises[i], RULE_ASSUMPTION, consts)
    ng_key = canonical_key(ng)
    prep.add(ng_key, ng, RULE_NEGATED_GOAL, goal_consts)
    prep.close(deadline)
    stats["grounding_instances"] = prep.instances
    stats["pure_instances"] = prep.pure
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
