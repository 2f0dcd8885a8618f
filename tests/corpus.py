"""Shared problem corpus for prover, verifier, and oracle tests.

Each problem carries the status the prover is expected to return and a
flag saying whether the finite-model oracle's named-domain semantics
agrees with that status.  Problems marked oracle_ok stay within the
oracle's comfort zone: at most three constants per sort, moments drawn
from 1..3, and no reliance on witnesses outside the named domain.
"""

from __future__ import annotations

from dataclasses import dataclass

from modalguard.parser import parse_formula, parse_formulas
from modalguard.syntax import (
    ACTION_TYPE,
    AGENT,
    FLUENT,
    GOAL,
    Formula,
    Signature,
)

CHAIN_LENGTHS = (2, 3, 4, 5, 6, 7, 8, 9)


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
