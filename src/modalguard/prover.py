"""Proof search: grounding, modal expansion, shadowing, resolution.

prove() runs a refutation pipeline.  Quantifiers whose variables reach
into modal subformulas are instantiated first, over a finite domain of
constants (see below), because modal subformulas are later replaced by
content-addressed propositional atoms and only identical instances can
connect.  Quantifiers with no modal content stay symbolic and are
handled by unification inside the resolution core.  A formula a
quantifier rule opens (proofs.quantifier_rule) is ground when its
variable is free in a modal literal of the opened formula below no
binder of that variable: the one _literals walk that gives the purity
check its must-set (_grounding_plan).  Those literals are the maximal
modals with the binders above them, and the modals of knows bodies; a
variable that reaches a nested one reaches the maximal modal around
it.  A body that binds the variable again above every modal it occurs
in is not ground: an instance would differ from it outside the modals
only, and the formula is clausified with the variable symbolic.

Modal reasoning happens on the positive side: the closure rules are
applied to the assumptions before shadowing, so goals whose proof
would need modal rules applied underneath the negated goal are
reported as no_proof rather than proved.

Before grounding, two reductions make the work follow what the problem
touches rather than the size of the signature: the purity check, on
grounding instances and on the roots, and the domains.

Pure instances.  The term-level pure-literal rule runs on grounding
instances before they are built.  Before _Prep builds a universal
instance it checks the literals of the instance's must-set below no
binder of the bound variable (_Plan.must, _must): its atoms and its
maximal modal subformulas, each modal one shadow atom in every clause
of the instance, named after the modal with its free variables as
holes.  Every clause of the instance holds each such literal, with
variables or Skolem terms for the variables bound below it.  An atom
resolves only against an atom of the opposite sign that it unifies
with, a shadow atom only against that of a modal of the opposite sign
that is the same but where either holds a variable there.  Either way
the two literals meet (_meet): they are alike, binders by position, but
where either holds a variable, which meets any term, standing for
whatever grounding, Skolem terms or unification put there.  Meeting
ignores sorts, so it over-approximates sorted unification, which fails
on two variables whose sorts meet only at a subsort (Goal lies below
Event and Fluent) though their instances at a constant of it resolve.

Every atom of a clause of the closure, and the modal of every shadow
atom, meets a pattern of its sign, a literal that the kept roots or
the expansion hold (_supplies):
  - the roots' atoms and maximal modals outside modals, and those in
    knows bodies at their sign in the body (_literals): grounding and
    clausifying only put terms for variables and keep each literal's
    sign, S1 brings out a knows body, and S3 and S4 bring out parts of
    such bodies only;
  - M(a,t,s) for each positive epistemic modal record M(a,t,B) and
    each s that S4-split and S3 reach from B through conjuncts and
    implication consequents, where a record is a root that is a modal
    under its quantifiers, a modal S1 brings out of a knows record, or
    such an M(a,t,s).
Expansion derives no negative modal, and no positive one but those and
what S4-join and S2 build; so a negative modal is also supported when
S4 can join it, every part M(a,t,p) being supported (_parts), or when
it is a believes formula whose knows twin is supported.  The check
fills nothing in: _met finds, once per plan, the names of the constants
at which a literal meets a pattern of the opposite sign, the hole
meeting a pattern's constant there.

A literal not supported at the instance's constant makes the instance
pure, and it is not built: each of its clauses holds that literal,
which meets no complementary literal of any clause derived from the
kept roots.  So no clause of the instance, nor any clause derived from
one, takes part in a refutation, and a clause such a clause subsumes
takes part in none either.  Dropping clauses that take part in no
refutation leaves the order in which the given-clause loop selects and
combines the others unchanged, and the one pass after shadowing,
pure_formulas, drops only such clauses too: the search ends the same
way with the same proof, unless the clauses it no longer sees were what
ran its budget out.  An instance derived from a pure one holds an
instance of its pure literal, so the quantifiers below a pure instance
are never ground.

Three exceptions keep formulas the argument would drop (_Purity._kept).
The modal rules derive from knows and believes formulas only, so one
that is such a modal under its quantifiers takes no modal literal, its
expansion not being bound by its clauses; a desires, intends,
perceives or obligated formula is one shadow atom, checked as an atom
is.  A pure instance is therefore no epistemic modal formula, and the
constant it would add is in the domain already.  Second, the
conjunction an S4 join builds from kept parts can serve a kept root, as
the antecedent S3 looks up by body key, or as a part of a larger
conjunction to join; either way a kept root holds it inside a modal
body, and where it is the whole body of a join target, the target is
that root's own as well.  S1 brings out of a joined formula only the
clauses of its parts.  A formula derived from a kept root holds such a
conjunction with terms put only for its variables, so kept roots give
those in modal bodies, but a target's whole body, as patterns
(schemata.joins), and a formula is kept where a join target's body
meets one.  Third, a formula whose atoms are all supported, but a
modal is not, is kept when it holds a join target S4 can join, so that
no join is lost.  Then, but for the formulas the modal literals keep
out, those below them and the witnesses they would name, the closure
is the one built with atoms checked alone; and pure_formulas would
drop those formulas after shadowing, a shadow atom of the opposite
sign meeting their pure modal otherwise.  So the search sees the same
clauses as with atoms checked alone.

Pure roots.  The same check runs first on the root formulas, the
assumptions and the negated goal, with no hole (_pure_roots): a root
goes when a literal of its must-set meets no pattern of the opposite
sign among those the kept roots give, and no exception keeps it.  A
root that goes gives no patterns, so the check runs again over the
roots left until none goes; the negated goal, which the reductio cites,
is always kept.  A root is its own instance, so the argument above
holds as it stands, and a pure root is never grounded, expanded or
shadowed.  Witness names are still chosen clear of the names of every
assumption, and the witness a pure root would introduce merges into an
element of its sort or a subsort, which every domain holds.

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

GROUNDING_INSTANCE_CAP counts the instances built, not the pure ones
refused.  A search over a grounding cut short by the cap, or over
a modal expansion that refused a new formula for depth, is not complete:
when it ends without a refutation the status is incomplete, never
no_proof.

A proof search holds one store of derivations: the grounding
closure's records, keyed by canonical key.  Modal expansion extends
that dict in place, and the proof is replayed from it.  Every record
is keyed by canonical_key; a grounding instance by its quantifier's
body keyed with the constant put for the variable (see _Prep), so the
instance is keyed before it is built, and built by syntax.bind, as the
oracle grounds.  The expansion keys no formula handed in
again: it prints keys only for the formulas it derives and for the
bodies, antecedents and join-target parts it looks up.

One theory, many goals.  prove works through a Premises, which keeps
what it derives from the assumptions alone: each assumption's
canonical key and constants, the first assumption of each key, filed
by head, and what the purity check reads of each assumption (_read):
what it gives the patterns, its must-set and its join targets, from
one _literals walk and one schemata.joins walk.  Any other sequence is
wrapped in a fresh Premises, so one question takes the same path;
check_dde and epistemic_query hand one Premises to every goal they
ask of one theory.  A prefix of a Premises (Premises.prefix) shares
its keys and reads, so one adjudication reads each assumption once:
the obligation question asks the theory with its norms, and the
double-effect check asks its base-theory prefix.  Sharing runs only
toward a prefix, where an index names the same formula (see
Premises).  A goal the theory assumes takes the assumption route
before anything else is computed: prove answers with the assumption
step of the first assumption keyed as the goal is (_assumed), keying
only the assumptions with the goal's head.  That is
the proof the closure route would emit: _Prep.add records the first
kept assumption of each key under RULE_ASSUMPTION before anything is
derived, _emit pulls in no witness step for it, since a witness is
named apart from every assumption, and that assumption is never
pruned: each literal of its must-set lies on the goal's top-level
disjunction, and Not(goal), always kept, holds it at the other sign.
Any other question reads its negated goal once, and the check the root
pass last built over the kept roots (Premises.purity) is the one _Prep
asks of their instances.  Nothing a question derives from its goal is
kept for the next.

After shadowing, the root check runs once more, on the shadowed
formulas' top-level conjuncts (pure_formulas), and a formula goes
before it is clausified when all of its conjuncts go.  A shadowed
formula holds no modal, so only its atoms are met.  Every clause of a
conjunct that goes holds a literal that meets no literal of the
opposite sign of a kept conjunct, so, as for a pure instance, none of
them takes part in a refutation: the search sees a subset of the
clauses it kept before, and ends the same way with the same proof.
Budget.max_clauses counts only clauses that enter the search:
clauses of dropped formulas are never built, so they do not count
against it.  clausify also stops before distributing a product of more
than max_clauses literal lists (the formula then has more clauses than
that, duplicates and tautologies included), past its NNF node cap, or
past the deadline; the search then ends as timeout.

No self-referencing closure on the request path: the recursive walks
(_literals, schemata.joins) and proof replay (_emit) are module-level
functions handed their output and state, as are those of syntax,
clauses, resolution and parser.  A nested emit that called itself
would be a reference cycle through its closure cell holding the whole
_Prep, its records, derivations and formulas, alive past the search
until the cyclic collector ran; without one, reference counting frees
the search when prove returns.
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
    RULE_FACTOR,
    RULE_NEGATED_GOAL,
    RULE_REDUCTIO,
    RULE_RESOLVE,
    WITNESS_RULES,
    clause_to_formula,
    quantifier_rule,
)
from .resolution import saturate
from .schemata import (
    Derivation,
    RULE_ASSUMPTION,
    expand_modal,
    harvest_join_targets,
    joins,
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
    bind,
    canonical_key,
    conjuncts,
    constant_sorts,
    constants_in_formula,
    domain_order,
    free_vars,
    symbol_names,
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
            # not "<= 0": a NaN limit compares false both ways
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class ProveResult:
    status: str  # "proof" | "no_proof" | "incomplete" | "timeout"
    proof: Optional[Proof] = None
    stats: dict = field(default_factory=dict)  # deterministic counters only
    elapsed_ms: float = 0.0


class _Plan(NamedTuple):
    """How close() grounds a formula: wrap(body) with var replaced by a
    constant, derived by rule (proofs.quantifier_rule); by one fresh
    witness when the rule is a witness rule (proofs.WITNESS_RULES), over
    the whole domain otherwise.  var is free in a modal literal of
    wrap(body) below no binder of var (_literals).  must holds the
    literals of wrap(body)'s must-set that the purity check reads
    (_must)."""

    rule: str
    var: Var
    body: Formula
    wrap: Callable[[Formula], Formula]
    must: list[tuple[Atom | Modal, bool]]


def _grounding_plan(f: Formula) -> Optional[_Plan]:
    """f's plan, or None when no quantifier rule takes f apart
    (proofs.quantifier_rule) or its variable reaches, free, into no modal
    literal of wrap(body) (_literals), one walk that also gives the
    must-set."""
    q = quantifier_rule(f)
    if q is None:
        return None
    rule, var, body, wrap = q
    g = wrap(body)
    lits = _literals(g)
    if any(type(m) is Modal and var not in b and var in free_vars(m) for m, _, _, b in lits):
        return _Plan(rule, var, body, wrap, _must(g, lits, var))
    return None


def _must(f: Formula, lits: list, var: Optional[Var] = None) -> list[tuple[Atom | Modal, bool]]:
    """The atoms and the maximal modal subformulas of f's must-set below
    no binder of var, each as (literal, positive), from f's _literals; no
    modal when f is an epistemic modal under its quantifiers (see the
    module docstring)."""
    core = _core(f)
    epistemic = isinstance(core, Modal) and core.op in EPISTEMIC_OPS
    return [
        (lit, sign > 0)
        for lit, sign, top, bound in lits
        # below a binder of var itself, var is not the one filled in
        if top and var not in bound and (isinstance(lit, Atom) or not epistemic)
    ]


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


class _Read(NamedTuple):
    """What the purity check reads of one root formula: what it gives the
    patterns (_supplies, and the conjunctions it uses, schemata.joins),
    its must-set with no hole (_must), and its join targets
    (schemata.joins)."""

    supplies: list[tuple[tuple, Formula]]
    must: list[tuple[Atom | Modal, bool]]
    targets: list[Modal]


def _read(f: Formula) -> _Read:
    """What the purity check reads of root f, from one _literals walk and
    one schemata.joins walk."""
    lits = _literals(f)
    targets, uses = joins(f)
    supplies = _supplies(f, lits) + [(_index(u, True), u) for u in uses]
    return _Read(supplies, _must(f, lits), targets)


class _Purity:
    """The purity check over some kept roots' reads (see the module
    docstring), with what the closure over them can hold (_patterns),
    filed once, when the check is built."""

    def __init__(self, reads: Iterable[_Read]):
        self.patterns = _patterns(r.supplies for r in reads)

    def _met(self, lit: Formula, positive: bool, hole: Optional[Var]) -> Names:
        """The names of the constants c at which the literal (or a join target's
        body), with hole filled by c, is supported (see the module docstring)."""
        names: Names = frozenset()
        for p in self.patterns.get(_index(lit, not positive), ()):
            need: set[str] = set()
            if _meet(lit, p, hole, need) and len(need) <= 1:
                names = _either(names, frozenset(need) or None)
                if names is None:
                    return None
        if not positive and type(lit) is Modal and lit.op in EPISTEMIC_OPS:
            if isinstance(lit.body, And):
                names = _either(names, self._met_all(_parts(lit), hole))
            if lit.op == BELIEVES:
                # S2 derives it from its knows twin
                twin = Modal(KNOWS, lit.agent, lit.time, lit.body)
                names = _either(names, self._met(twin, False, hole))
        return names

    def _met_all(self, lits: Iterable[tuple[Atom | Modal, bool]], hole: Optional[Var]) -> Names:
        """The names of the constants at which every literal, given as
        (literal, positive), is supported."""
        names: Names = None
        for lit, positive in lits:
            names = _both(names, self._met(lit, positive, hole))
        return names

    def _kept(self, must: Sequence, targets: Sequence[Modal], hole: Optional[Var]) -> Names:
        """The names of the constants c at which a formula, with hole
        filled by c, is not pure, must being its must-set (_must) and
        targets its join targets (schemata.joins): every literal is
        supported, or every atom is and S4 can join a join target it
        holds, or a join target's body meets a conjunction a kept root
        uses (see the module docstring)."""
        names = self._met_all([m for m in must if type(m[0]) is Atom], hole)
        if names is None or names:
            joined = self._met_all([m for m in must if type(m[0]) is Modal], hole)
            if joined is not None:
                for g in targets:
                    joined = _either(joined, self._met_all(_parts(g), hole))
            names = _both(names, joined)
        for g in targets:
            names = _either(names, self._met(g.body, False, hole))
        return names


class _Prep:
    """Grounding closure over one set of root formulas.

    A root formula is keyed by canonical_key.  A grounding instance at
    a constant c is keyed as wrap(body) with the bound variable named
    c.name: binders key by position whatever their names, and a named
    variable keys as a constant of that name does, quoted when the name
    is not plain (syntax.key_name), so that is the instance's canonical
    key, found before the instance is built.  The purity check the root
    pass built (_pure_roots) is asked of every planned record's instances.
    """

    def __init__(self, sig: Signature, named: Sequence[Formula], check: _Purity):
        self.sig = sig
        self.check = check  # the purity check over the kept roots
        # insertion-ordered; modal expansion later extends it in place
        self.records: dict[str, Derivation] = {}
        self.named = named  # the assumptions, pruned ones included, and the goal
        self.consts: set[Const] = set()
        # record key -> names of the constants it was grounded at
        self.done: dict[str, set[str]] = {}
        self.witness_intro: dict[str, str] = {}
        self.instances = 0
        self.pure = 0  # instances not built, being pure
        self.capped = False
        # record key -> the constants its plan's instances are kept at
        self.kept: dict[str, Names] = {}
        self.plans: dict[str, Optional[_Plan]] = {}
        self.domains: dict[str, list[Const]] = {}
        self.domains_at = 0  # len(consts) the cached domains were built from
        # names of the declared constants a domain left out
        self.left_out: set[str] = set()

    def add(self, key: str, f: Formula, rule: str, consts: Sequence[Const]) -> None:
        """Record root formula f under its canonical key, with its
        constants."""
        if key not in self.records:
            self.records[key] = Derivation(f, rule, (), 0)
            self.consts.update(consts)

    def _add_instance(self, key: str, c: Const) -> str:
        """Add the instance of record key's plan at c; its key."""
        rule, var, body, wrap = self.plans[key][:4]
        ikey = canonical_key(wrap(body), {var: c})
        if ikey not in self.records:
            f = wrap(bind(body, {var: c}))
            self.records[ikey] = Derivation(f, rule, (key,), 0)
            # the instance's constants are its quantifier's (already
            # recorded) plus c
            self.consts.add(c)
        return ikey

    def _fresh_witness(self, sort: str) -> Const:
        """A constant w<n>, a witness or an anonymous element, named
        apart from the named formulas (the names in their terms and
        their binders' names), the closure's constants and the earlier
        witnesses.  So no binder above an instance at the witness, not
        even one that binds nothing, prints under the witness's name."""
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

    def _pure(self, key: str, c: Const) -> bool:
        """Whether the instance of record key's plan at c is pure (_kept)."""
        if key not in self.kept:
            plan = self.plans[key]
            targets = joins(self.records[key].formula)[0]
            self.kept[key] = self.check._kept(plan.must, targets, plan.var)
        names = self.kept[key]
        return names is not None and c.name not in names

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
                if plan.rule in WITNESS_RULES:
                    grew = self._witness(key, plan.var.sort)
                else:
                    grew = self._instantiate(key, plan.var.sort)
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
    _literal_walk(f, 1, True, (), out)
    return out


def _literal_walk(g: Formula, sign: int, top: bool, bound: tuple[Var, ...], out: list) -> None:
    """Append g's literals to out (see _literals); top implies sign != 0."""
    if isinstance(g, Atom):
        out.append((g, sign, top, bound))
    elif isinstance(g, Not):
        _literal_walk(g.body, -sign, top, bound, out)
    elif isinstance(g, (And, Or)):
        disjunction = top and isinstance(g, Or) == (sign > 0)
        for p in g.parts:
            _literal_walk(p, sign, disjunction, bound, out)
    elif isinstance(g, Implies):
        disjunction = top and sign > 0
        _literal_walk(g.left, -sign, disjunction, bound, out)
        _literal_walk(g.right, sign, disjunction, bound, out)
    elif isinstance(g, Iff):
        # both directions become clauses: every literal takes both
        # signs, and no literal lies in every clause
        _literal_walk(g.left, 0, False, bound, out)
        _literal_walk(g.right, 0, False, bound, out)
    elif isinstance(g, (Forall, Exists)):
        _literal_walk(g.body, sign, top, (*bound, g.var), out)
    elif isinstance(g, Modal):
        out.append((g, sign, top, bound))
        # S1 asserts a knows body whatever the knows formula's sign;
        # no other operator's body is ever asserted
        if g.op == KNOWS:
            _literal_walk(g.body, 1, False, bound, out)
    else:
        raise TypeError(f"not a formula: {g!r}")


def _head(f: Formula) -> str:
    """What two formulas that meet (_meet) have alike at their top."""
    if isinstance(f, Atom):
        return f.pred
    if isinstance(f, Modal):
        return f.op
    return type(f).__name__


def _index(lit: Formula, positive: bool) -> tuple:
    """Where _patterns files a literal or a used conjunction
    (schemata.joins): by its head and sign, a modal by the head of its
    body too."""
    if type(lit) is Modal:
        return lit.op, positive, _head(lit.body)
    return _head(lit), positive


def _supplies(f: Formula, lits: list) -> list[tuple[tuple, Formula]]:
    """What f gives the patterns, from f's _literals, as (index,
    literal): its literals at each sign they take, and the epistemic
    modals S3 and S4-split derive from it (see the module docstring)."""
    out = [
        (_index(lit, s > 0), lit) for lit, sign, _, _ in lits for s in (1, -1) if sign in (s, 0)
    ]
    # the epistemic modal records (see the module docstring): each is a
    # pattern already, or is added here
    records = [_core(f)]
    while records:
        m = records.pop()
        if not isinstance(m, Modal) or m.op not in EPISTEMIC_OPS:
            continue
        for s in _reached(m.body):
            if s is not m.body:
                product = Modal(m.op, m.agent, m.time, s)
                out.append((_index(product, True), product))
            if m.op == KNOWS:
                records.append(s)
    return out


def _patterns(supplies: Iterable[list[tuple[tuple, Formula]]]) -> dict[tuple, list]:
    """What the closure over some roots can hold, from what they give the
    patterns (_read), filed by _index: each literal of a clause meets one
    filed under its index (see the module docstring)."""
    patterns: dict[tuple, list] = {}
    for entries in supplies:
        for index, lit in entries:
            patterns.setdefault(index, []).append(lit)
    return patterns


def _parts(m: Modal) -> list[tuple[Modal, bool]]:
    """The negated parts M(a,t,p) of the join target m, as (literal,
    positive): S4 joins m from them."""
    return [(Modal(m.op, m.agent, m.time, p), False) for p in m.body.parts]


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
        parts = zip(f.parts, p.parts)
        return len(f.parts) == len(p.parts) and all(_meet(g, q, hole, need) for g, q in parts)
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
    deletes, found before clausifying them.

    The items are the formulas' top-level conjuncts, read as roots are
    (_read) and checked by the root pass (_pure_roots), with an empty
    read last in the place of the negated goal: it gives no patterns and
    is always kept.  A formula goes when all of its conjuncts do.  Every
    clause of a formula is a clause of one of its conjuncts, so every
    clause of a conjunct that goes holds a literal of its must-set, which
    meets (_meet) no literal of the opposite sign of a kept conjunct: as
    for a pure instance (see the module docstring), no such clause takes
    part in a refutation.  prove() runs it on the shadowed formulas,
    which hold no modal.
    """
    items = [(i, _read(c)) for i, f in enumerate(formulas) for c in conjuncts(f)]
    pure = _pure_roots([*(r for _, r in items), _Read([], [], [])])[0]
    kept = {i for j, (i, _) in enumerate(items) if j not in pure}
    return set(range(len(formulas))) - kept


def _pure_roots(reads: Sequence[_Read]) -> tuple[set[int], _Purity]:
    """The indices of the roots prove() leaves out, given by their reads:
    those pure over the kept roots (_Purity._kept, with no hole), until
    none is (see the module docstring); and the purity check over the
    roots kept, which _Prep runs on their instances.  The last root is
    always kept: prove() puts the negated goal there, and pure_formulas
    an empty read, which gives no patterns."""
    kept = list(range(len(reads)))
    while True:
        check = _Purity(reads[i] for i in kept)
        pure = {
            i for i in kept[:-1] if check._kept(reads[i].must, reads[i].targets, None) is not None
        }
        if not pure:
            return set(range(len(reads))).difference(kept), check
        kept = [i for i in kept if i not in pure]


class Premises(tuple[Formula, ...]):
    """A tuple of assumption formulas that keeps what prove derives from
    them alone, so that several goals asked of one theory pay for it once:
    each assumption's canonical key and constants, the first assumption
    of each key, and what the purity check reads of each (_read).  The
    check itself belongs to one question (purity).

    A prefix shares the keys and the reads, both filed by index, with
    the Premises it is cut from, whichever of the two computes them
    first: an index names the same formula in both, and a prefix adds
    none.  Sharing runs only that way: two theories that extend one
    base would file different formulas under the same index.  The
    first assumption of each key is not shared: the parent's may lie
    past the prefix's end."""

    def __init__(self, formulas: Iterable[Formula]):
        self._keyed: dict[int, tuple[str, list[Const]]] = {}
        # head (_head) -> canonical key -> the first assumption so keyed
        self._first: dict[str, dict[str, int]] = {}
        # the reads of the first assumptions, as many as some question
        # of this Premises or of one it shares them with has needed
        self._reads: list[_Read] = []

    def prefix(self, n: int) -> Premises:
        """A Premises over the first n assumptions, sharing their keys
        and reads with this one."""
        cut = Premises(self[:n])
        cut._keyed, cut._reads = self._keyed, self._reads
        return cut

    def keyed(self, i: int) -> tuple[str, list[Const]]:
        """The canonical key and the constants of assumption i; raises
        ValueError when the key holds a generated name (unspoofed)."""
        if i not in self._keyed:
            self._keyed[i] = (unspoofed(canonical_key(self[i])), constants_in_formula(self[i]))
        return self._keyed[i]

    def first(self, key: str, head: str) -> Optional[int]:
        """The first assumption keyed key, or None; only the assumptions
        with head (_head), that of a formula keyed key, are keyed."""
        if head not in self._first:
            same = [i for i, f in enumerate(self) if _head(f) == head]
            self._first[head] = {self.keyed(i)[0]: i for i in reversed(same)}
        return self._first[head].get(key)

    def purity(self, ng: Formula) -> tuple[set[int], _Purity]:
        """The assumptions prove leaves out when the negated goal is ng,
        and the purity check over the roots it keeps (_pure_roots), from
        each assumption's read, read once, and that of ng."""
        self._reads.extend(_read(f) for f in self[len(self._reads):])
        return _pure_roots([*self._reads[: len(self)], _read(ng)])


def _assumed(premises: Premises, goal: Formula, sig: Signature) -> Optional[int]:
    """The first assumption keyed as goal is, or None: the assumption
    route (see the module docstring).  Raises ValueError as prove does,
    for the goal and that assumption."""
    i = premises.first(unspoofed(canonical_key(goal)), _head(goal))
    if i is not None:
        constant_sorts([premises.keyed(i)[1], constants_in_formula(goal)], sig.constants)
    return i


def _emit(key: str, prep: _Prep, steps: list[ProofStep], index_of: dict[str, int]) -> int:
    """The index in steps of record key's step, appended after the steps
    of its premises unless index_of, the index of each record emitted so
    far, has it."""
    if key in index_of:
        return index_of[key]
    rec = prep.records[key]
    prems = tuple(_emit(k, prep, steps, index_of) for k in rec.premises)
    # a witness constant may only appear after the step that introduced
    # it, so pull the introducing record in front of any other use
    for c in constants_in_formula(rec.formula):
        intro = prep.witness_intro.get(c.name)
        if intro is not None and intro != key:
            _emit(intro, prep, steps, index_of)
    steps.append(ProofStep(rec.formula, rec.rule, prems))
    index_of[key] = len(steps) - 1
    return index_of[key]


def prove(
    assumptions: Sequence[Formula],
    goal: Formula,
    budget: Budget = Budget(),
    sig: Optional[Signature] = None,
) -> ProveResult:
    """Search for a proof of goal from the assumptions.  Pass one
    Premises to ask several goals of one theory; any other sequence is
    wrapped in a fresh Premises.  Raises ValueError when the goal, or an
    assumption it keys, holds a name spelled like a shadow atom or a
    skolem symbol (syntax.unspoofed), and when one name is a constant of
    two sorts in sig, the goal and the assumptions a proof may cite
    (syntax.constant_sorts)."""
    sig = sig if sig is not None else Signature()
    premises = assumptions if isinstance(assumptions, Premises) else Premises(assumptions)
    start = time.monotonic()
    deadline = start + budget.timeout_ms / 1000.0
    stats: dict = {}

    def finish(
        status: str, proof: Optional[Proof] = None, limit: Optional[str] = None
    ) -> ProveResult:
        if limit is not None:
            stats["limit"] = limit
        return ProveResult(status, proof, stats, (time.monotonic() - start) * 1000.0)

    assumed = _assumed(premises, goal, sig)
    if assumed is not None:
        stats["route"] = "assumption"
        return finish("proof", Proof((ProofStep(premises[assumed], RULE_ASSUMPTION, ()),)))
    # grounding closure over the kept assumptions and the negated goal
    # together; formulas rooted at the negated goal are all negations, so
    # the modal closure rules below never fire on that side
    ng = Not(goal)
    pruned, check = premises.purity(ng)
    stats["pruned_roots"] = len(pruned)
    kept = [i for i in range(len(premises)) if i not in pruned]
    goal_key = unspoofed(canonical_key(goal))
    goal_consts = constants_in_formula(goal)
    constant_sorts([*(premises.keyed(i)[1] for i in kept), goal_consts], sig.constants)
    prep = _Prep(sig, [*premises, goal], check)
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
    if goal_key in prep.records:
        _emit(goal_key, prep, steps, index_of)
        stats["route"] = "closure"
        return finish("proof", Proof(tuple(steps)))

    flist = list(prep.records)
    smap = ShadowMap()
    shadowed = [shadow(prep.records[key].formula, smap) for key in flist]
    dead = pure_formulas(shadowed)
    stats["shadowed_formulas"] = len(shadowed)
    stats["clausified_formulas"] = len(shadowed) - len(dead)
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
            src = _emit(flist[node.source], prep, steps, index_of)
            steps.append(
                ProofStep(clause_to_formula(node.clause), RULE_CLAUSIFY, (src,))
            )
        else:
            rule = RULE_RESOLVE if node.rule == "resolve" else RULE_FACTOR
            prems = tuple(node_step[p] for p in node.parents)
            steps.append(ProofStep(clause_to_formula(node.clause), rule, prems))
        node_step[ni] = len(steps) - 1

    falsum_step = node_step[sat.empty_index]
    ng_step = _emit(ng_key, prep, steps, index_of)
    steps.append(ProofStep(goal, RULE_REDUCTIO, (falsum_step, ng_step)))
    stats["route"] = "refutation"
    return finish("proof", Proof(tuple(steps)))
