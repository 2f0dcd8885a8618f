"""Shared problem corpus for prover, verifier, and oracle tests.

Each problem carries the status the prover is expected to return and a
flag saying whether the finite-model oracle's named-domain semantics
agrees with that status.  Problems marked oracle_ok stay within the
oracle's comfort zone: at most three constants per sort, moments drawn
from 1..3, and no reliance on witnesses outside the named domain.

It also holds substitute, the capture-avoiding substitution that the
differentials compare syntax.bind and canonical_key's names against,
and the walks the checker's quantifier rule, the join-target harvest
and the name walk were compared against when each became one shared
walk: opened_reference, harvest_join_targets_reference and
binder_names with term_names.  project_reference is
eventcalc.project as it was before it sorted each moment's effects
once: it sorts each kind's fluents, then the whole trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from modalguard.eventcalc import (
    ECTheory,
    Effect,
    INITIATED,
    ProjectionConflict,
    Trace,
)
from modalguard.parser import parse_formula, parse_formulas
from typing import Callable, Iterator, Mapping, Optional

from modalguard.proofs import (
    RULE_EXISTS_ANTECEDENT,
    RULE_EXISTS_ELIM,
    RULE_FORALL_ELIM,
    RULE_NEG_EXISTS_ELIM,
    RULE_NEG_FORALL_ELIM,
)
from modalguard.schemata import is_join_target

from modalguard.syntax import (
    ACTION_TYPE,
    AGENT,
    App,
    FLUENT,
    GOAL,
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Modal,
    Not,
    Or,
    Signature,
    SortError,
    Term,
    Var,
    alpha_equivalent,
    canonical_key,
    free_vars,
    match_term,
    print_term,
    substitute_term,
)

CHAIN_LENGTHS = (2, 3, 4, 5, 6, 7, 8, 9)


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every subformula of f, f itself included, in pre-order."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, (And, Or)):
            stack.extend(reversed(g.parts))
        elif isinstance(g, (Implies, Iff)):
            stack.extend((g.right, g.left))
        elif not isinstance(g, Atom):
            stack.append(g.body)


def substitute(
    f: Formula,
    mapping: Mapping[Var, Term],
    sig: Optional[Signature] = None,
) -> Formula:
    """Capture-avoiding substitution of free variables: the reference
    that syntax.bind and the keys canonical_key prints with names in
    place are compared against.  A binder whose name occurs in a
    replacement term is renamed apart with trailing primes.  Each
    replacement term's sort must widen to the variable's sort (exact
    match when no signature is supplied)."""
    for v, t in mapping.items():
        ok = sig.widens(t.sort, v.sort) if sig is not None else t.sort == v.sort
        if not ok:
            raise SortError(
                f"cannot bind {v.name} : {v.sort} to {print_term(t)} : {t.sort}"
            )
    taken: set[str] = set()
    for t in mapping.values():
        _names_in_term(t, taken)
    return _substitute(f, dict(mapping), taken)


def _names_in_term(t: Term, acc: set[str]) -> None:
    if isinstance(t, (Var, Const)):
        acc.add(t.name)
    else:
        for a in t.args:
            _names_in_term(a, acc)


def _fresh(name: str, avoid: set[str]) -> str:
    cand = name
    while cand in avoid:
        cand += "'"
    return cand


def _substitute(g: Formula, m: dict[Var, Term], taken: set[str]) -> Formula:
    if isinstance(g, Atom):
        return Atom(g.pred, tuple(substitute_term(t, m) for t in g.args))
    if isinstance(g, Not):
        return Not(_substitute(g.body, m, taken))
    if isinstance(g, (And, Or)):
        return type(g)(tuple(_substitute(p, m, taken) for p in g.parts))
    if isinstance(g, (Implies, Iff)):
        return type(g)(_substitute(g.left, m, taken), _substitute(g.right, m, taken))
    if isinstance(g, (Forall, Exists)):
        v = g.var
        inner = {k: t for k, t in m.items() if k != v}
        if not inner:
            return g
        if v.name in taken:
            body_names = {w.name for w in free_vars(g.body)}
            nv = Var(_fresh(v.name, taken | body_names), v.sort)
            body = _substitute(_substitute(g.body, {v: nv}, taken), inner, taken)
            return type(g)(nv, body)
        return type(g)(v, _substitute(g.body, inner, taken))
    if isinstance(g, Modal):
        return Modal(
            g.op,
            substitute_term(g.agent, m),
            substitute_term(g.time, m),
            _substitute(g.body, m, taken),
            None if g.situation is None else substitute_term(g.situation, m),
        )
    raise TypeError(f"not a formula: {g!r}")


def opened_reference(premise: Formula) -> Optional[tuple[str, Var, Formula, Callable]]:
    """(rule, var, body, part) for a premise a quantifier rule takes
    apart, as the checker read it before proofs.quantifier_rule: the
    rule its shape calls for, the bound variable and its body, and part,
    which maps a conclusion to the formula that must be an instance of
    body (None when the conclusion has the wrong shape).  None when no
    quantifier rule takes the premise apart.  An existential antecedent
    is opened even when its variable is free in the consequent."""
    whole = lambda c: c
    if isinstance(premise, Forall):
        return RULE_FORALL_ELIM, premise.var, premise.body, whole
    if isinstance(premise, Exists):
        return RULE_EXISTS_ELIM, premise.var, premise.body, whole
    negated = lambda c: c.body if isinstance(c, Not) else None
    if isinstance(premise, Not) and isinstance(premise.body, Exists):
        return RULE_NEG_EXISTS_ELIM, premise.body.var, premise.body.body, negated
    if isinstance(premise, Not) and isinstance(premise.body, Forall):
        return RULE_NEG_FORALL_ELIM, premise.body.var, premise.body.body, negated
    if isinstance(premise, Implies) and isinstance(premise.left, Exists):
        right = premise.right
        antecedent = lambda c: (
            c.left if isinstance(c, Implies) and alpha_equivalent(c.right, right) else None
        )
        return RULE_EXISTS_ANTECEDENT, premise.left.var, premise.left.body, antecedent
    return None


def harvest_join_targets_reference(formulas) -> dict[str, Modal]:
    """The join targets anywhere in the formulas, by canonical key, the
    first of each key in pre-order, found by the stack walk subformulas
    runs: schemata.harvest_join_targets before it read schemata.joins."""
    out: dict[str, Modal] = {}
    for f in formulas:
        for g in subformulas(f):
            if is_join_target(g):
                out.setdefault(canonical_key(g), g)
    return out


def binder_names(f: Formula) -> set[str]:
    """The names of the variables f's quantifiers bind, modal bodies
    included."""
    if isinstance(f, (Forall, Exists)):
        return {f.var.name} | binder_names(f.body)
    if isinstance(f, (Not, Modal)):
        return binder_names(f.body)
    if isinstance(f, (And, Or)):
        return set().union(*map(binder_names, f.parts))
    if isinstance(f, (Implies, Iff)):
        return binder_names(f.left) | binder_names(f.right)
    return set()


def term_names(f: Formula) -> set[str]:
    """The names of every variable, constant and function symbol in the
    terms of f's atoms and modals (agent, time and situation), binders
    left out: symbol_names before it listed binders."""
    stack: list[Term] = []
    for g in subformulas(f):
        if isinstance(g, Atom):
            stack.extend(g.args)
        elif isinstance(g, Modal):
            stack.extend((g.agent, g.time))
            if g.situation is not None:
                stack.append(g.situation)
    names: set[str] = set()
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            names.add(t.fn)
            stack.extend(t.args)
        else:
            names.add(t.name)
    return names


def project_reference(theory: ECTheory, sig: Optional[Signature] = None) -> Trace:
    """eventcalc.project before it sorted each moment's effects once, as
    they leave the moment: it sorts each kind's fluents by print as it
    appends them, and the whole trace by Effect.key at the end."""
    sig = sig if sig is not None else Signature()
    state = frozenset(theory.initial)
    states = [state]
    all_effects: list[Effect] = []
    true_source: dict[Term, Optional[Effect]] = {}
    false_source: dict[Term, Optional[Effect]] = {}

    for m in range(theory.horizon):
        events = sorted(
            (ev for ev, em in theory.occurrences if em == m), key=print_term
        )
        pending_init: dict[Term, Effect] = {}
        pending_term: dict[Term, Effect] = {}
        waiting = [
            (ax, ev, b)
            for ax in theory.axioms
            for ev in events
            if (b := match_term(ax.event, ev, {}, sig)) is not None
        ]
        while waiting:
            unfired = []
            for match in waiting:
                ax, ev, b = match
                sources: list[Optional[Effect]] = []
                for lit in ax.guard:
                    f = substitute_term(lit.fluent, b)
                    if f in state:
                        held, src = True, true_source.get(f)
                    elif lit.positive and f in pending_init:
                        held, src = True, pending_init[f]
                    else:
                        held, src = False, false_source.get(f)
                    if held != lit.positive:
                        unfired.append(match)
                        break
                    sources.append(src)
                else:
                    eff = Effect(substitute_term(ax.fluent, b), ax.kind, ev, m, tuple(sources))
                    pending = pending_init if ax.kind == INITIATED else pending_term
                    pending.setdefault(eff.fluent, eff)
            if len(unfired) == len(waiting):
                break
            waiting = unfired

        both = sorted(set(pending_init) & set(pending_term), key=print_term)
        if both:
            f = both[0]
            raise ProjectionConflict(f, m, pending_init[f].event, pending_term[f].event)

        for f in sorted(pending_init, key=print_term):
            all_effects.append(pending_init[f])
            true_source[f] = pending_init[f]
        for f in sorted(pending_term, key=print_term):
            all_effects.append(pending_term[f])
            false_source[f] = pending_term[f]

        nxt = {f for f in state if f not in pending_term}
        nxt |= set(pending_init)
        state = frozenset(nxt)
        states.append(state)

    all_effects.sort(key=Effect.key)
    return Trace(tuple(states), tuple(all_effects))


def corpus_signature() -> Signature:
    sig = Signature()
    for a in ("alice", "bob", "carol"):
        sig.declare_constant(a, AGENT)
    sig.declare_constant("go", ACTION_TYPE)
    sig.declare_constant("wet", FLUENT)
    sig.declare_constant("g1", GOAL)
    sig.declare_function("happy", (AGENT,), FLUENT)
    sig.declare_predicate("P", (AGENT,))
    sig.declare_predicate("Q", (AGENT,))
    sig.declare_predicate("R", (AGENT, AGENT))
    for i in range(10):
        sig.declare_predicate(f"C{i}", (AGENT,))
    sig.declare_predicate("rains", ())
    sig.declare_predicate("pours", ())
    sig.declare_predicate("floods", ())
    # no constant is a Relic or a Weapon
    sig.declare_sort("Relic")
    sig.declare_sort("Thing")
    sig.declare_sort("Weapon", ("Thing",))
    sig.declare_constant("crate", "Thing")
    sig.declare_predicate("Shiny", ("Relic",))
    sig.declare_predicate("Armed", ("Thing",))
    return sig


@dataclass(frozen=True)
class Problem:
    name: str
    assumptions: tuple[str, ...]
    goal: str
    provable: bool
    oracle_ok: bool = True

    def load(self, sig: Signature) -> tuple[list[Formula], Formula]:
        text = "\n".join(self.assumptions)
        return parse_formulas(text, sig), parse_formula(self.goal, sig)


def _chain(n: int) -> Problem:
    # C0(alice) plus n symbolic implication links, goal Cn(alice).
    assumptions = ["(C0 alice)"]
    for i in range(n):
        assumptions.append(
            f"(forall x : Agent (implies (C{i} x) (C{i + 1} x)))"
        )
    return Problem(
        name=f"chain-{n}",
        assumptions=tuple(assumptions),
        goal=f"(C{n} alice)",
        provable=True,
    )


def _hops() -> list[Problem]:
    out = []
    pairs = [("alice", "bob"), ("bob", "carol"), ("carol", "alice"),
             ("alice", "carol"), ("bob", "alice"), ("carol", "bob")]
    for x, y in pairs:
        out.append(Problem(
            name=f"hop-{x}-{y}",
            assumptions=(f"(R {x} {y})",),
            goal=f"(exists z : Agent (R {x} z))",
            provable=True,
        ))
    return out


PROBLEMS: list[Problem] = [
    # Ground propositional resolution.
    Problem("modus-ponens", ("(rains)", "(implies (rains) (pours))"),
            "(pours)", True),
    Problem("modus-tollens", ("(not (pours))", "(implies (rains) (pours))"),
            "(not (rains))", True),
    Problem("disj-elim", ("(or (rains) (pours))", "(not (rains))"),
            "(pours)", True),
    Problem("iff-forward", ("(iff (rains) (pours))", "(rains)"),
            "(pours)", True),
    Problem("iff-backward", ("(iff (rains) (pours))", "(pours)"),
            "(rains)", True),
    Problem("case-split",
            ("(or (rains) (pours))",
             "(implies (rains) (floods))",
             "(implies (pours) (floods))"),
            "(floods)", True),
    Problem("double-negation", ("(not (not (rains)))",), "(rains)", True),
    Problem("contrapositive-chain",
            ("(implies (rains) (pours))",
             "(implies (pours) (floods))",
             "(not (floods))"),
            "(not (rains))", True),

    # Quantifier instantiation and witnesses.
    Problem("forall-elim",
            ("(forall x : Agent (P x))",), "(P bob)", True),
    Problem("forall-two-step",
            ("(forall x : Agent (implies (P x) (Q x)))", "(P carol)"),
            "(Q carol)", True),
    Problem("exists-goal", ("(P alice)",),
            "(exists x : Agent (P x))", True),
    Problem("exists-goal-fn", ("(holds (happy bob) 1)",),
            "(exists x : Agent (holds (happy x) 1))", True),
    Problem("witness-pipe",
            ("(exists x : Agent (P x))",
             "(forall x : Agent (implies (P x) (Q x)))"),
            "(exists y : Agent (Q y))", True),
    Problem("exists-antecedent",
            ("(implies (exists x : Agent (P x)) (rains))", "(P bob)"),
            "(rains)", True),
    Problem("relational-transitivity",
            ("(R alice bob)", "(R bob carol)",
             "(forall x : Agent (forall y : Agent (forall z : Agent "
             "(implies (and (R x y) (R y z)) (R x z)))))"),
            "(R alice carol)", True),
    Problem("relational-symmetry",
            ("(R alice bob)",
             "(forall x : Agent (forall y : Agent "
             "(implies (R x y) (R y x))))"),
            "(R bob alice)", True),
    Problem("factoring",
            ("(forall x : Agent (or (P x) (P alice)))",),
            "(P alice)", True),
    Problem("unit-through-disj",
            ("(forall x : Agent (or (P x) (Q x)))",
             "(not (P bob))"),
            "(Q bob)", True),

    # Knowledge veridicality (S1).
    Problem("k-veridical", ("(knows alice 1 (rains))",), "(rains)", True),
    Problem("k-veridical-atomic",
            ("(knows bob 2 (P carol))",), "(P carol)", True),
    Problem("k-veridical-compound",
            ("(knows alice 1 (implies (rains) (pours)))", "(rains)"),
            "(pours)", True),
    Problem("k-nested", ("(knows alice 1 (knows bob 1 (rains)))",),
            "(rains)", True),
    Problem("k-nested-target",
            ("(knows alice 1 (knows bob 1 (rains)))",),
            "(knows bob 1 (rains))", True),

    # Knowledge implies belief (S2).
    Problem("k-to-b", ("(knows alice 1 (rains))",),
            "(believes alice 1 (rains))", True),
    Problem("k-to-b-compound", ("(knows carol 3 (and (rains) (pours)))",),
            "(believes carol 3 (and (rains) (pours)))", True),

    # Closure under known implication (S3).
    Problem("s3-knowledge",
            ("(knows alice 1 (implies (rains) (pours)))",
             "(knows alice 1 (rains))"),
            "(knows alice 1 (pours))", True),
    Problem("s3-belief",
            ("(believes bob 2 (implies (rains) (pours)))",
             "(believes bob 2 (rains))"),
            "(believes bob 2 (pours))", True),
    Problem("s3-then-s1",
            ("(knows alice 1 (implies (rains) (pours)))",
             "(knows alice 1 (rains))"),
            "(pours)", True),

    # Conjunction inside an epistemic operator (S4 both directions).
    Problem("s4-split-left", ("(knows alice 1 (and (rains) (pours)))",),
            "(knows alice 1 (rains))", True),
    Problem("s4-split-right", ("(knows alice 1 (and (rains) (pours)))",),
            "(knows alice 1 (pours))", True),
    Problem("s4-join",
            ("(knows alice 1 (rains))", "(knows alice 1 (pours))"),
            "(knows alice 1 (and (rains) (pours)))", True),
    Problem("s4-join-belief",
            ("(believes bob 1 (P alice))", "(believes bob 1 (Q alice))"),
            "(believes bob 1 (and (P alice) (Q alice)))", True),

    # Grounding into modal bodies.
    Problem("forall-knows",
            ("(forall x : Agent (knows x 1 (rains)))",),
            "(rains)", True),
    Problem("forall-knows-instance",
            ("(forall x : Agent (knows x 1 (P x)))",),
            "(P bob)", True),
    Problem("knows-of-exists",
            ("(knows alice 1 (exists x : Agent (P x)))",),
            "(exists x : Agent (P x))", True),
    # The finite-model check grounds the existential to a disjunction of
    # named knowers and cannot case-split it, so it misses these two.
    Problem("exists-knows",
            ("(exists x : Agent (knows x 1 (rains)))",),
            "(rains)", True, oracle_ok=False),
    Problem("exists-knows-about",
            ("(exists x : Agent (knows x 1 (P alice)))",),
            "(P alice)", True, oracle_ok=False),
    Problem("exists-knows-goal",
            ("(knows alice 1 (rains))",),
            "(exists x : Agent (knows x 1 (rains)))", True),
    Problem("exists-antecedent-modal",
            ("(implies (exists x : Agent (knows x 1 (pours))) (rains))",
             "(knows bob 1 (pours))"),
            "(rains)", True),
    Problem("neg-forall-witness",
            ("(forall x : Agent (knows x 1 (pours)))",
             "(forall x : Agent (knows x 1 (implies (pours) (rains))))"),
            "(forall x : Agent (knows x 1 (rains)))", True),

    # A sort with no constant has one element, in its supersorts too.
    Problem("empty-sort-known",
            ("(forall x : Relic (knows alice 1 (Shiny x)))",),
            "(exists x : Relic (Shiny x))", True),
    Problem("empty-subsort-of-known",
            ("(forall x : Thing (knows alice 1 (Armed x)))",
             "(forall v : Weapon (not (Armed v)))"),
            "(floods)", True),

    # Non-epistemic operators resolve by shadow identity.
    Problem("obligation-identity",
            ("(obligated alice 1 sigma_default (not (happens (action alice go) 1)))",),
            "(obligated alice 1 sigma_default (not (happens (action alice go) 1)))",
            True),
    Problem("desire-identity",
            ("(desires bob 2 (holds wet 3))",),
            "(desires bob 2 (holds wet 3))", True),
    Problem("intend-detach",
            ("(implies (intends carol 1 (happens g1 2)) (rains))",
             "(intends carol 1 (happens g1 2))"),
            "(rains)", True),
    Problem("perceive-detach",
            ("(implies (perceives alice 1 (holds wet 1)) (pours))",
             "(perceives alice 1 (holds wet 1))"),
            "(pours)", True),

    # Event-calculus vocabulary used as plain predicates.
    Problem("prior-chain",
            ("(prior 1 2)", "(prior 2 3)",
             "(forall t : Moment (forall u : Moment (forall v : Moment "
             "(implies (and (prior t u) (prior u v)) (prior t v)))))"),
            "(prior 1 3)", True),
    Problem("holds-propagation",
            ("(holds wet 1)",
             "(forall t : Moment (forall u : Moment "
             "(implies (and (holds wet t) (prior t u)) (holds wet u))))",
             "(prior 1 2)"),
            "(holds wet 2)", True),

    # Mixed modal and quantified reasoning.
    Problem("known-rule-applied",
            ("(knows alice 1 (implies (P bob) (Q bob)))",
             "(P bob)"),
            "(Q bob)", True),
    Problem("s1-inside-conj",
            ("(knows alice 1 (and (P bob) (implies (P bob) (Q bob))))",),
            "(Q bob)", True),

    # Expected failures: the prover must saturate without a refutation.
    Problem("wrong-constant", ("(P alice)",), "(P bob)", False),
    Problem("belief-not-veridical", ("(believes alice 1 (rains))",),
            "(rains)", False),
    Problem("no-k-introduction", ("(rains)",),
            "(knows alice 1 (rains))", False),
    Problem("disj-no-pick", ("(knows alice 1 (or (rains) (pours)))",),
            "(knows alice 1 (rains))", False),
    Problem("witness-anonymous", ("(exists x : Agent (P x))",),
            "(P alice)", False),
    Problem("converse-implication",
            ("(implies (rains) (pours))", "(pours)"),
            "(rains)", False),
    Problem("desire-not-intent", ("(desires alice 1 (holds wet 2))",),
            "(intends alice 1 (holds wet 2))", False),
    Problem("no-obligation", ("(rains)",),
            "(obligated alice 1 sigma_default (not (rains)))", False),

    # The prover does not enumerate a finite domain to close a universal
    # goal, but the oracle's named-domain semantics does entail it.
    Problem("forall-goal-finite",
            ("(P alice)", "(P bob)", "(P carol)"),
            "(forall x : Agent (P x))", False, oracle_ok=False),
]

PROBLEMS.extend(_chain(n) for n in CHAIN_LENGTHS)
PROBLEMS.extend(_hops())


def provable_problems() -> list[Problem]:
    return [p for p in PROBLEMS if p.provable]


def oracle_problems() -> list[Problem]:
    return [p for p in PROBLEMS if p.oracle_ok]
