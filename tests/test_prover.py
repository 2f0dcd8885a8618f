"""End-to-end prover behaviour: routes, budgets, statistics, determinism."""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from modalguard import proofs, prover
from modalguard.clauses import Clause, clausify
from modalguard.guard import adjudicate, adjudication_theory, obligation_goal
from modalguard.parser import parse_formula
from modalguard.proofs import verify_proof, verify_proof_detailed
from modalguard.prover import Budget, prove
from modalguard.resolution import pure_clauses
from modalguard.scenario import load_bundled_scenario, parse_scenario
from modalguard.syntax import (
    ACTION_TYPE,
    AGENT,
    FLUENT,
    GOAL,
    KNOWS,
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Iff,
    Implies,
    Modal,
    Not,
    Or,
    Signature,
    Var,
    alpha_equivalent,
    canonical_key,
    free_vars,
    moment,
    print_formula,
    symbol_names,
)

import corpus
from test_clauses import iff_chain
from test_parser import RandomFormulas, round_trip_sig

SIG = corpus.corpus_signature()

CLOSURE_RULES = {
    "assumption", "forall-elim", "exists-elim", "neg-exists-elim",
    "neg-forall-elim", "exists-antecedent-elim",
    "S1", "S2", "S3", "S4-split", "S4-join",
}


def load(name: str):
    prob = next(p for p in corpus.PROBLEMS if p.name == name)
    return prob.load(SIG)


def run(name: str, **budget_kw):
    fs, g = load(name)
    budget = Budget(**budget_kw) if budget_kw else None
    return prove(fs, g, budget=budget, sig=SIG), fs, g


# ---------------------------------------------------------------------------
# budgets

@pytest.mark.parametrize("field", ["timeout_ms", "depth", "max_clauses"])
def test_budget_rejects_non_positive(field):
    with pytest.raises(ValueError):
        Budget(**{field: 0})
    with pytest.raises(ValueError):
        Budget(**{field: -3})


def test_budget_defaults():
    b = Budget()
    assert b.timeout_ms == 10000
    assert b.depth == 4
    assert b.max_clauses == 200000


def test_clause_budget_exhaustion_is_timeout():
    r, _, _ = run("modus-ponens", max_clauses=1)
    assert r.status == "timeout"
    assert r.stats["limit"] == "max_clauses"
    assert r.proof is None


# seven iffs distribute into more literal lists than the clause budget;
# twenty-four double the NNF walk past its cap first
BLOW_UP_LIMITS = {7: "max_clauses", 24: "nnf_cap"}


@pytest.mark.parametrize("depth", [7, 24])
def test_a_clausification_blow_up_is_timeout_within_the_budget(depth):
    sig = Signature()
    sig.declare_predicate("p", ())
    sig.declare_predicate("q", ())
    budget = Budget(timeout_ms=5000)
    t0 = time.monotonic()
    r = prove([iff_chain(depth)], Atom("q"), budget=budget, sig=sig)
    assert r.status == "timeout"
    assert r.stats["limit"] == BLOW_UP_LIMITS[depth]
    assert time.monotonic() - t0 < budget.timeout_ms / 1000


def test_depth_budget_limits_modal_closure():
    shallow, _, _ = run("k-nested", depth=1)
    assert shallow.status == "incomplete"
    assert shallow.stats["limit"] == "modal_depth"
    deep, fs, g = run("k-nested", depth=2)
    assert deep.status == "proof"
    ok, reason = verify_proof_detailed(deep.proof, fs, g, SIG)
    assert ok, reason


# ---------------------------------------------------------------------------
# routes

def test_closure_route_for_modal_goal():
    r, fs, g = run("s3-then-s1")
    assert r.status == "proof"
    assert r.stats["route"] == "closure"
    assert all(s.rule in CLOSURE_RULES for s in r.proof.steps)


def test_refutation_route_ends_in_reductio():
    r, _, _ = run("modus-ponens")
    assert r.status == "proof"
    assert r.stats["route"] == "refutation"
    assert r.proof.steps[-1].rule == "reductio"


def test_an_assumed_goal_takes_the_assumption_route(monkeypatch):
    # an alpha-variant of two assumptions: the first is cited, in one
    # step, and no grounding closure is built
    preps = spy_preps(monkeypatch)
    fs = [parse_formula(t, SIG) for t in (
        "(rains)",
        "(forall x : Agent (knows x 1 (P x)))",
        "(forall z : Agent (knows z 1 (P z)))",
    )]
    goal = parse_formula("(forall y : Agent (knows y 1 (P y)))", SIG)
    r = prove(fs, goal, sig=SIG)
    assert r.status == "proof"
    assert r.proof.steps == (proofs.ProofStep(fs[1], "assumption", ()),)
    assert verify_proof(r.proof, fs, goal, SIG)
    assert r.stats["route"] == "assumption"
    assert r.stats["pruned_roots"] == 1
    assert set(r.stats) == {"pruned_roots", "route", "elapsed_ms"}
    assert preps == []
    # the closure route finds the same proof
    monkeypatch.setattr(prover, "_assumed", lambda premises, kept, key: None)
    closed = prove(fs, goal, sig=SIG)
    assert closed.stats["route"] == "closure"
    assert closed.proof.steps == r.proof.steps
    assert len(preps) == 1


def test_tautology_needs_no_assumptions():
    taut = parse_formula("(implies (rains) (rains))", SIG)
    r = prove([], taut, sig=SIG)
    assert r.status == "proof"
    ok, reason = verify_proof_detailed(r.proof, [], taut, SIG)
    assert ok, reason


def test_saturation_reports_no_proof():
    r, _, _ = run("belief-not-veridical")
    assert r.status == "no_proof"
    assert r.proof is None
    assert r.stats["generated_clauses"] >= 0


# ---------------------------------------------------------------------------
# statistics

def test_stats_shape_on_proof():
    r, _, _ = run("modus-ponens")
    for key in ("pruned_roots", "grounding_instances", "grounding_capped",
                "domain_dropped", "expansion_size", "elapsed_ms", "route"):
        assert key in r.stats
    assert r.stats["grounding_capped"] is False
    assert r.stats["elapsed_ms"] >= 0
    # a search that was not cut short names no limit
    assert "limit" not in r.stats


def test_grounding_counts_instances():
    r, fs, g = run("forall-knows-instance")
    # one universal to ground over the Agents the closure mentions: the
    # goal's bob.  alice and carol, declared but mentioned nowhere, are
    # left out of the domain; bob stands for them
    assert r.stats["grounding_instances"] == 1
    assert r.stats["domain_dropped"] == 2
    assert r.status == "proof"
    ok, reason = verify_proof_detailed(r.proof, fs, g, SIG)
    assert ok, reason


# ---------------------------------------------------------------------------
# the limit that stopped a search short

def test_limit_names_the_wall_clock():
    sc = load_bundled_scenario("sim1")
    assumptions, _ = adjudication_theory(sc)
    r = prove(assumptions, obligation_goal(sc), Budget(timeout_ms=1), sc.sig)
    assert (r.status, r.stats["limit"]) == ("timeout", "wall_clock")


def test_limit_names_the_grounding_cap(monkeypatch):
    sc = load_bundled_scenario("sim1")
    assumptions, _ = adjudication_theory(sc)
    needed = prove(assumptions, obligation_goal(sc), sig=sc.sig).stats["grounding_instances"]
    assert needed >= 4  # the deprivation rule's p, g, t1 and t2
    # one instance short of the deprivation rule's refuting instance
    monkeypatch.setattr(prover, "GROUNDING_INSTANCE_CAP", needed - 1)
    r = prove(assumptions, obligation_goal(sc), sig=sc.sig)
    assert (r.status, r.stats["limit"]) == ("incomplete", "grounding_cap")


# ---------------------------------------------------------------------------
# proof shape

def test_premises_always_point_backwards():
    for name in ("modus-ponens", "forall-elim", "s4-join", "neg-forall-witness",
                 "exists-antecedent", "chain-5"):
        r, _, _ = run(name)
        assert r.status == "proof", name
        for i, s in enumerate(r.proof.steps):
            assert all(0 <= p < i for p in s.premises), (name, i)


def test_final_step_is_goal():
    for name in ("modus-ponens", "s3-then-s1", "k-nested", "exists-goal"):
        r, _, g = run(name)
        assert alpha_equivalent(r.proof.steps[-1].formula, g), name


def test_witness_steps_precede_uses():
    # a witness constant may appear only after the step that introduced it
    r, fs, g = run("neg-forall-witness")
    assert r.status == "proof"
    ok, reason = verify_proof_detailed(r.proof, fs, g, SIG)
    assert ok, reason
    intro_rules = {"exists-elim", "neg-forall-elim"}
    first = next(
        i for i, s in enumerate(r.proof.steps)
        if "w1" in {c.name for c in _consts(s.formula)}
    )
    assert r.proof.steps[first].rule in intro_rules


def _consts(f):
    from modalguard.syntax import constants_in_formula
    return constants_in_formula(f)


# ---------------------------------------------------------------------------
# determinism

@pytest.mark.parametrize("name", ["modus-ponens", "neg-forall-witness",
                                  "forall-knows", "s4-join", "chain-7"])
def test_same_input_same_proof(name):
    a, _, _ = run(name)
    b, _, _ = run(name)
    assert a.status == b.status == "proof"
    assert a.proof.serialize() == b.proof.serialize()
    sa = {k: v for k, v in a.stats.items() if k != "elapsed_ms"}
    sb = {k: v for k, v in b.stats.items() if k != "elapsed_ms"}
    assert sa == sb


# ---------------------------------------------------------------------------
# pure formulas are dropped before clausification

_X, _Y, _A = Var("x", AGENT), Var("y", AGENT), Const("a", AGENT)
_ATOMS = (
    Atom("p"), Atom("q"), Atom("r"),
    Atom("P", (_X,)), Atom("P", (_A,)), Atom("R", (_X, _Y)),
)
shadowed_formulas = st.recursive(
    st.sampled_from(_ATOMS),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(lambda a, b: And((a, b)), sub, sub),
        st.builds(lambda a, b: Or((a, b)), sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Implies, sub, st.builds(lambda a, b: And((a, b)), sub, sub)),
        st.builds(Iff, sub, sub),
        st.builds(Forall, st.sampled_from((_X, _Y)), sub),
        st.builds(Exists, st.sampled_from((_X, _Y)), sub),
    ),
    max_leaves=6,
)


def kept_clauses(formulas, skip=frozenset()):
    """(clause, first source formula) of the clauses the clause-level
    pure-literal rule keeps, pushing clauses as saturate does."""
    first: dict[Clause, int] = {}
    pushed = []
    for fi, f in enumerate(formulas):
        if fi in skip:
            continue
        for c in clausify(f):
            if c not in first:
                first[c] = fi
                pushed.append(c)
    dead = pure_clauses(
        [frozenset((l.atom.pred, l.positive) for l in c.literals) for c in pushed]
    )
    return [(c, first[c]) for i, c in enumerate(pushed) if i not in dead]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(shadowed_formulas, min_size=1, max_size=6))
def test_dropping_pure_formulas_keeps_the_same_clauses(formulas):
    dead = prover.pure_formulas(formulas)
    assert kept_clauses(formulas, dead) == kept_clauses(formulas)


def test_pure_formulas_examples():
    def pure(*texts):
        return prover.pure_formulas([parse_formula(t, SIG) for t in texts])

    # an iff holds both signs of both atoms: (pours) keeps its complement
    assert pure("(iff (rains) (pours))", "(pours)") == set()
    # (floods) is in every clause of the first formula and never negated;
    # once it goes, nothing holds (not (rains)) and the second goes too
    assert pure("(or (floods) (not (rains)))", "(rains)") == {0, 1}
    # a conjunctive consequent puts only (not (rains)) in every clause
    assert pure("(implies (rains) (and (pours) (floods)))", "(rains)") == set()
    # a formula holding both signs of a predicate complements itself
    assert pure("(forall x : Agent (implies (P x) (P alice)))") == set()
    # unshadowed roots: a modal adds nothing but the pairs of a knows
    # body, which S1 asserts
    assert pure("(or (rains) (believes bob 1 (not (rains))))") == {0}
    assert pure("(or (rains) (knows bob 1 (not (rains))))") == set()
    # a knows body belongs to its root's shape: it keeps the disjunction
    # while its root is kept, and goes with it when the root is pure
    assert pure("(or (P alice) (rains))", "(knows bob 1 (not (P alice)))",
                "(not (rains))") == set()
    assert pure("(or (P alice) (rains))",
                "(or (floods) (knows bob 1 (not (P alice))))") == {0, 1}


# ---------------------------------------------------------------------------
# relevance before grounding: pure roots are never grounded, and a
# domain holds the constants the closure mentions

RF_SIG = round_trip_sig()
RF_BUDGET = Budget(timeout_ms=60000, max_clauses=3000)


@st.composite
def random_problems(draw):
    """Assumptions and a goal built by RandomFormulas.  Half the problems
    also assume that their last assumption implies the goal, so that
    about half of them are proved."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    gen = RandomFormulas(seed)
    fs = [gen.formula([], rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    goal = gen.formula([], rng.randint(0, 2))
    if rng.random() < 0.5:
        fs.append(Implies(fs[-1], goal))
    return fs, goal


def assert_same_answer(a, b):
    assert a.status == b.status
    if a.proof is not None:
        assert a.proof.serialize() == b.proof.serialize()


# named after every constant of its sort, or of a sort of its own, so no
# representative changes
UNMENTIONED = (
    ("zz1", AGENT), ("zz2", AGENT), ("zz_go", ACTION_TYPE),
    ("zz_wet", FLUENT), ("zz_g", GOAL), ("zz_tool", "Tool"),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_problems())
def test_unmentioned_constants_change_no_answer(problem):
    fs, goal = problem
    wide = round_trip_sig()
    wide.declare_sort("Tool")
    for name, sort in UNMENTIONED:
        wide.declare_constant(name, sort)
    base = prove(fs, goal, RF_BUDGET, RF_SIG)
    more = prove(fs, goal, RF_BUDGET, wide)
    assert_same_answer(base, more)
    if more.proof is not None:
        ok, reason = verify_proof_detailed(more.proof, fs, goal, wide)
        assert ok, reason


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_problems(), st.integers(0, 2**32 - 1), st.booleans())
def test_a_root_with_a_fresh_positive_predicate_changes_no_answer(
    problem, seed, quantified
):
    fs, goal = problem
    gen = RandomFormulas(seed)
    if quantified:
        x = Var("x", AGENT)
        extra = Forall(x, Or((Atom("Fresh", (x,)), gen.formula([x], 2))))
    else:
        extra = Implies(gen.formula([], 2), Atom("Fresh"))
    base = prove(fs, goal, RF_BUDGET, RF_SIG)
    more = prove([*fs, extra], goal, RF_BUDGET, RF_SIG)
    assert_same_answer(base, more)
    assert more.stats["pruned_roots"] == base.stats["pruned_roots"] + 1
    if more.proof is not None:
        ok, reason = verify_proof_detailed(more.proof, [*fs, extra], goal, RF_SIG)
        assert ok, reason


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_problems(), st.integers(0, 2**32 - 1))
def test_an_assumption_keyed_as_the_goal_is_never_pruned(problem, pick):
    fs, _ = problem
    goal = fs[pick % len(fs)]
    premises = prover.Premises(fs)
    key = canonical_key(goal)
    assert not [i for i in premises.pruned(Not(goal)) if premises.keyed(i)[0] == key]
    r = prove(premises, goal, RF_BUDGET, RF_SIG)
    first = next(f for f in fs if canonical_key(f) == key)
    assert r.stats["route"] == "assumption"
    assert r.proof.steps == (proofs.ProofStep(first, "assumption", ()),)
    assert verify_proof(r.proof, fs, goal, RF_SIG)


def test_a_root_is_kept_by_a_complement_in_a_knows_body():
    # (P alice) occurs negatively only inside the knows body, which S1
    # asserts; without it the disjunction would be pure and no proof found
    fs = [parse_formula(t, SIG) for t in
          ("(or (P alice) (Q alice))", "(knows bob 1 (not (P alice)))")]
    goal = parse_formula("(Q alice)", SIG)
    r = prove(fs, goal, sig=SIG)
    assert r.status == "proof"
    assert r.stats["pruned_roots"] == 0
    assert "S1" in {s.rule for s in r.proof.steps}
    ok, reason = verify_proof_detailed(r.proof, fs, goal, SIG)
    assert ok, reason


def test_a_pure_root_is_kept_for_a_join_target_a_kept_root_uses():
    # (floods) occurs only positively, so the disjunction is pure, but
    # its join target is the antecedent S3 needs: S4 joins it from the
    # two kept parts, and S3 then derives the goal
    texts = (
        "(knows bob 1 (P alice))",
        "(knows bob 1 (Q alice))",
        "(knows bob 1 (implies (and (P alice) (Q alice)) (R alice bob)))",
        "(or (floods) (knows bob 1 (and (P alice) (Q alice))))",
    )
    fs = [parse_formula(t, SIG) for t in texts]
    goal = parse_formula("(knows bob 1 (R alice bob))", SIG)
    r = prove(fs, goal, sig=SIG)
    assert r.status == "proof"
    assert r.stats["pruned_roots"] == 0
    assert {"S4-join", "S3"} <= {s.rule for s in r.proof.steps}
    ok, reason = verify_proof_detailed(r.proof, fs, goal, SIG)
    assert ok, reason
    # a target no kept root can use still goes with its root
    other = parse_formula("(or (floods) (knows bob 1 (and (Q alice) (C1 alice))))", SIG)
    again = prove([*fs[:3], other], goal, sig=SIG)
    assert again.stats["pruned_roots"] == 1
    assert again.status == "no_proof"


def test_a_pure_roots_witness_merges_into_the_anonymous_element_of_its_sort():
    sig = corpus.corpus_signature()
    sig.declare_sort("Tool")
    sig.declare_predicate("Sharp", ("Tool",))
    fs = [parse_formula(t, sig) for t in (
        "(exists x : Tool (or (floods) (knows alice 1 (Sharp x))))",
        "(forall x : Tool (knows alice 1 (Sharp x)))",
    )]
    goal = parse_formula("(exists x : Tool (Sharp x))", sig)
    # Tool has no constant, so the domain gives it one anonymous
    # element; the pure root's witness merges into it, and the root goes
    r = prove(fs, goal, sig=sig)
    assert r.status == "proof"
    assert r.stats["pruned_roots"] == 1
    ok, reason = verify_proof_detailed(r.proof, fs, goal, sig)
    assert ok, reason
    # with a declared Tool the witness merges into it, and the root goes
    # as well
    sig.declare_constant("wrench", "Tool")
    again = prove(fs, goal, sig=sig)
    assert again.stats["pruned_roots"] == 1
    assert again.status == "proof"


def answer(r) -> tuple:
    """A prove result but for its wall clock."""
    stats = {k: v for k, v in r.stats.items() if k != "elapsed_ms"}
    return r.status, None if r.proof is None else r.proof.serialize(), stats


def test_one_premises_prunes_by_the_goals_join_uses():
    # both goals negate an intention, whose body adds nothing to their
    # shape; only the second uses the conjunction that the pure root's
    # join target joins, so only the second keeps that root
    fs = [parse_formula(t, SIG) for t in (
        "(knows bob 1 (P alice))",
        "(or (floods) (knows bob 1 (and (P alice) (Q alice))))",
    )]
    goals = [parse_formula(t, SIG) for t in (
        "(intends bob 1 (P alice))",
        "(intends bob 1 (not (and (P alice) (Q alice))))",
        "(intends bob 1 (P alice))",
    )]
    premises = prover.Premises(fs)
    pruned = []
    for goal in goals:
        r = prove(premises, goal, sig=SIG)
        assert answer(r) == answer(prove(fs, goal, sig=SIG))
        pruned.append(r.stats["pruned_roots"])
    assert pruned == [1, 0, 1]
    # a root that could make a witness of a sort with no declared
    # constant goes whether or not the signature declares one: the
    # witness merges into the declared constant or into the anonymous
    # element.  A Premises reads no signature, so it answers under each
    # as a fresh one would
    sig = corpus.corpus_signature()
    sig.declare_sort("Tool")
    sig.declare_predicate("Sharp", ("Tool",))
    tools = copy.deepcopy(sig)
    tools.declare_constant("wrench", "Tool")
    fs = [parse_formula(t, sig) for t in (
        "(exists x : Tool (or (floods) (knows alice 1 (Sharp x))))",
        "(forall x : Tool (knows alice 1 (Sharp x)))",
    )]
    goal = parse_formula("(exists x : Tool (Sharp x))", sig)
    premises = prover.Premises(fs)
    pruned = []
    for s in (sig, tools, sig):
        r = prove(premises, goal, sig=s)
        assert answer(r) == answer(prove(fs, goal, sig=s))
        pruned.append(r.stats["pruned_roots"])
    assert pruned == [1, 1, 1]


def test_a_sort_mentioned_nowhere_is_grounded_at_its_first_constant():
    sig = corpus.corpus_signature()
    sig.declare_sort("Tool")
    sig.declare_predicate("Sharp", ("Tool",))
    sig.declare_constant("wrench", "Tool")
    fs = [parse_formula("(forall x : Tool (knows alice 1 (Sharp x)))", sig)]
    goal = parse_formula("(exists x : Tool (Sharp x))", sig)
    r = prove(fs, goal, sig=sig)
    # no formula mentions a Tool: the one declared stands for the sort
    assert r.status == "proof"
    assert r.stats["grounding_instances"] == 1
    assert r.stats["domain_dropped"] == 0
    ok, reason = verify_proof_detailed(r.proof, fs, goal, sig)
    assert ok, reason
    # a second Tool, later by name, is left out
    sig.declare_constant("xacto", "Tool")
    again = prove(fs, goal, sig=sig)
    assert again.proof.serialize() == r.proof.serialize()
    assert again.stats["domain_dropped"] == 1


def test_a_sort_with_no_constant_is_grounded_at_an_anonymous_element():
    # no constant is an S, so the domain gives S one element, as
    # clausifying the goal's negation takes it to have
    sig = Signature()
    sig.declare_constant("a", AGENT)
    sig.declare_sort("S")
    sig.declare_predicate("P", ("S",))
    fs = [parse_formula("(forall x : S (knows a 1 (P x)))", sig)]
    goal = parse_formula("(exists x : S (P x))", sig)
    r = prove(fs, goal, sig=sig)
    assert r.status == "proof"
    assert r.stats["grounding_instances"] == 1
    ok, reason = verify_proof_detailed(r.proof, fs, goal, sig)
    assert ok, reason


def test_an_empty_subsorts_anonymous_element_joins_its_supersorts_domain():
    # c is a Thing, but no constant is a Weapon: Weapon's anonymous
    # element is a Thing too, where what a knows of every Thing meets
    # what holds of every Weapon
    sig = Signature()
    sig.declare_constant("a", AGENT)
    sig.declare_sort("Thing")
    sig.declare_sort("Weapon", ("Thing",))
    sig.declare_constant("c", "Thing")
    sig.declare_predicate("R", ("Thing",))
    sig.declare_predicate("Q", ())
    fs = [parse_formula(t, sig) for t in (
        "(forall x : Thing (knows a 1 (R x)))",
        "(forall v : Weapon (not (R v)))",
    )]
    goal = parse_formula("(Q)", sig)
    r = prove(fs, goal, sig=sig)
    assert r.status == "proof"
    assert r.stats["grounding_instances"] == 2  # at c and at the Weapon
    ok, reason = verify_proof_detailed(r.proof, fs, goal, sig)
    assert ok, reason


# ---------------------------------------------------------------------------
# a grounding instance is keyed as its quantifier's body with the bound
# variable named as the constant


def spy_preps(monkeypatch) -> list:
    preps: list = []

    class Spy(prover._Prep):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            preps.append(self)

    monkeypatch.setattr(prover, "_Prep", Spy)
    return preps


GROUNDING_RULES = {
    "forall-elim", "exists-elim", "neg-exists-elim", "neg-forall-elim",
    "exists-antecedent-elim",
}
WITNESS_RULES = {"exists-elim", "neg-forall-elim"}
# binders named like the constant substituted for the bound variable, a
# variable re-bound inside its own modal, and every grounding rule
TEMPLATE_EDGES = (
    "(forall x : Agent (knows x 1 (exists alice : Agent (R x alice))))",
    "(forall x : Agent (forall x : Agent (knows x 1 (P x))))",
    "(exists y : Agent (knows y 1 (forall w1 : Agent (P y))))",
    "(not (forall y : Agent (believes y 1 (exists w2 : Agent (R y w2)))))",
    "(not (exists z : Agent (knows z 1 (forall bob : Agent (R bob z)))))",
    "(implies (exists v : Agent (knows v 1 (forall b0 : Agent (R v b0)))) (rains))",
)
# positive knows formulas that the edges' modals meet at every agent, so
# that the purity check refuses none of their instances; inside a knows
# body, they are not ground themselves
EDGE_COMPLEMENTS = (
    "(knows alice 1 (forall y : Agent (and (knows y 1 (forall w : Agent (R w y)))"
    " (knows y 1 (forall w : Agent (R y w))))))"
)


def check_closure_keys(preps) -> tuple[int, int]:
    """Every closure key equals canonical_key of its formula; returns the
    numbers of grounding and witness instances checked."""
    grounded = witnessed = 0
    for prep in preps:
        for key, rec in prep.records.items():
            assert canonical_key(rec.formula) == key
            grounded += rec.rule in GROUNDING_RULES
            witnessed += rec.rule in WITNESS_RULES
    return grounded, witnessed


# A root that is never pure (an iff holds both signs of its atoms) and
# mentions every declared Agent, so that each Agent quantifier of a
# problem is grounded at all three
MENTIONS_EVERY_AGENT = "(iff (floods) (and (C9 alice) (C9 bob) (C9 carol)))"


def test_spliced_keys_equal_canonical_keys_on_the_corpus(monkeypatch):
    preps = spy_preps(monkeypatch)
    mention = parse_formula(MENTIONS_EVERY_AGENT, SIG)
    for prob in corpus.PROBLEMS:
        fs, g = prob.load(SIG)
        prove(fs, g, sig=SIG)
        prove([*fs, mention], g, sig=SIG)
    # text may not bind the name of a declared constant, so the edges
    # are read without SIG's constants, as Python code could build them
    unbound = dataclasses.replace(SIG, constants={})
    edges = [parse_formula(t, unbound) for t in TEMPLATE_EDGES]
    edges.append(parse_formula(EDGE_COMPLEMENTS, SIG))
    # the goal (rains) keeps the last edge, whose consequent is (rains),
    # from being pure
    prove(edges, parse_formula("(rains)", SIG), sig=SIG)
    grounded, witnessed = check_closure_keys(preps)
    assert grounded > 40 and witnessed >= 3
    edge_rules = {rec.rule for rec in preps[-1].records.values()}
    assert GROUNDING_RULES <= edge_rules


def test_spliced_keys_equal_canonical_keys_on_an_open_consequent(monkeypatch):
    # v is free in the consequent as well as bound in the antecedent; an
    # instance key names v wherever it is free, so this root is not grounded
    preps = spy_preps(monkeypatch)
    v = Var("v", AGENT)
    knows_v = parse_formula("(exists v : Agent (knows v 1 (P v)))", SIG)
    assert knows_v.var == v
    roots = [Implies(knows_v, Atom("Q", (v,))), parse_formula("(P alice)", SIG)]
    # the goal (Q alice) keeps the first root from being pure
    prove(roots, parse_formula("(Q alice)", SIG), sig=SIG)
    check_closure_keys(preps)
    assert canonical_key(roots[0]) in preps[0].records


def test_spliced_keys_equal_canonical_keys_on_the_guard_scenarios(monkeypatch):
    texts = load_guardbench_texts()
    sim1, sim2 = texts.bundled_text("sim1"), texts.bundled_text("sim2")
    sim1_cases = [sim1, texts.sim1_guilty(sim1)]
    sim1_cases += [texts.sim1_idle(sim1, k) for k in (1, 2, 3)]
    # with the general norm the prevention bridge is kept and grounded
    normed = list(map(with_general_norm, sim1_cases))
    cases = [sim2, *sim1_cases, *normed, *map(with_live_instances, [sim2, *normed])]
    preps = spy_preps(monkeypatch)
    grounded = {}
    for i, text in enumerate(cases):
        start = len(preps)
        adjudicate(parse_scenario(text, f"case{i}"))
        grounded[text] = check_closure_keys(preps[start:])[0]
    assert sum(grounded.values()) > 500
    # the bridge is grounded only at the agents and goals the closure
    # mentions, so idle ones add no instance
    live = [grounded[with_live_instances(sim1_normed_idle(k))] for k in (1, 3)]
    assert live[0] == live[1] > 50


def test_a_constant_named_like_a_binder_splices_as_its_key_print(monkeypatch):
    # formulas built in Python may hold such a constant; its key print
    # carries a leading ', and so must the instance key
    preps = spy_preps(monkeypatch)
    b0 = Const("b0", AGENT)
    root = parse_formula("(forall x : Agent (knows x 1 (P x)))", SIG)
    goal = Modal(KNOWS, b0, moment(1), Atom("P", (b0,)))
    r = prove([root], goal, sig=SIG)
    assert r.status == "proof" and r.stats["route"] == "closure"
    assert check_closure_keys(preps)[0] > 0
    assert canonical_key(goal) in preps[0].records


def test_an_instance_at_a_constant_named_unlike_an_identifier_keys_apart():
    # formulas built in Python may hold the constant #; the instance of
    # (forall y (knows a 1 (R # y))) at a is (knows a 1 (R # a)), keyed
    # apart from the assumption (knows a 1 (R a a)) whatever else is
    # assumed, so it is recorded and proves the goal
    sig = Signature()
    sig.declare_constant("a", AGENT)
    sig.declare_predicate("R", (AGENT, AGENT))
    a, hash_, y = Const("a", AGENT), Const("#", AGENT), Var("y", AGENT)
    knows = lambda body: Modal(KNOWS, a, moment(1), body)
    quant = Forall(y, knows(Atom("R", (hash_, y))))
    goal = knows(Atom("R", (hash_, a)))
    for assumptions in ([quant], [quant, knows(Atom("R", (a, a)))]):
        r = prove(assumptions, goal, sig=sig)
        assert r.status == "proof"
        assert verify_proof(r.proof, assumptions, goal, sig)


def test_no_closure_record_has_a_free_variable(monkeypatch):
    # a join target harvested from inside a quantifier is open; keyed
    # like a ground target, S4-join once stored it as one (sim1 with a
    # moment named t2, a variable of the deprivation rule)
    texts = load_guardbench_texts()
    sim1 = texts.bundled_text("sim1")
    cases = [sim1, texts.bundled_text("sim2"), texts.sim1_guilty(sim1)]
    # with live instances every deprivation instance is built, and each
    # holds open join targets until its last moment is filled in
    cases += [sim1_with_moment_named("t2"), with_live_instances(sim1_with_moment_named("t2"))]
    preps = spy_preps(monkeypatch)
    for i, text in enumerate(cases):
        adjudicate(parse_scenario(text, f"case{i}"))
    for prob in corpus.PROBLEMS:
        fs, g = prob.load(SIG)
        prove(fs, g, sig=SIG)
    records = [rec.formula for prep in preps for rec in prep.records.values()]
    assert len(records) > 500
    assert [print_formula(f) for f in records if free_vars(f)] == []


def test_sim1_obligation_walks_no_assumption_for_names(monkeypatch):
    # witness freshness needs the assumptions' names only where a
    # witness is made, and sim1's obligation makes none
    sc = load_bundled_scenario("sim1")
    assumptions, _ = adjudication_theory(sc)
    goal = obligation_goal(sc)
    walked: list = []

    def counting(f):
        walked.append(f)
        return symbol_names(f)

    monkeypatch.setattr(prover, "symbol_names", counting)
    monkeypatch.setattr(proofs, "symbol_names", counting)
    res = prover.prove(assumptions, goal, sig=sc.sig)
    assert res.status == "proof"
    assert verify_proof(res.proof, assumptions, goal, sc.sig)
    assert not set(walked) & set(assumptions)


def test_sim1_obligation_keys_no_instance_and_clausifies_few_formulas(monkeypatch):
    # the general norm and live instances keep the prevention bridge and
    # ground it; idle agents and goals add no instance
    preps = spy_preps(monkeypatch)
    keyed: list = []
    clausified: list = []

    def counting_key(f, names=None):
        keyed.append(f)
        return canonical_key(f, names)

    def counting_clausify(f, *args, **kwargs):
        clausified.append(f)
        return clausify(f, *args, **kwargs)

    monkeypatch.setattr(prover, "canonical_key", counting_key)
    monkeypatch.setattr(prover, "clausify", counting_clausify)
    counts = []
    for k in (1, 3):
        sc = parse_scenario(with_live_instances(sim1_normed_idle(k)), f"sim1+norm+idle{k}+live")
        assumptions, _ = adjudication_theory(sc)
        start = len(preps)
        keyed.clear()
        clausified.clear()
        res = prover.prove(assumptions, obligation_goal(sc), sig=sc.sig)
        assert res.status == "proof"
        instances = [
            rec.formula
            for prep in preps[start:]
            for rec in prep.records.values()
            if rec.rule in GROUNDING_RULES
        ]
        keyed_set = set(keyed)
        assert not [f for f in instances if f in keyed_set]
        assert 0 < len(clausified) < 20
        counts.append(len(instances))
    assert counts[0] == counts[1] > 50


def load_guardbench_texts():
    path = Path(__file__).resolve().parents[1] / "guardbench" / "texts.py"
    spec = importlib.util.spec_from_file_location("guardbench_texts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sim2's norm stated for sim1's shooter: blocking anyone's goal obliges
# refraining.  It holds Prevents negatively, so the prevention bridge,
# which holds it positively, is not pure and is grounded.
GENERAL_NORM = (
    "  (forall y : Agent (forall g : Goal (implies (Prevents shooter y g fire 1)"
    " (obligated shooter 1 (not (happens (action shooter fire) 1))))))\n"
)


def with_general_norm(sim1_text: str) -> str:
    anchor = "  (innocent victim)\n"
    if anchor not in sim1_text:  # sim1_guilty
        anchor = "  (prior 1 2)\n"
    assert sim1_text.count(anchor) == 1
    return sim1_text.replace(anchor, anchor + GENERAL_NORM)


def sim1_normed_idle(k: int) -> str:
    texts = load_guardbench_texts()
    return texts.sim1_idle(with_general_norm(texts.bundled_text("sim1")), k)


# Universal innocence, a total temporal order, and a requester who knows
# that they know every victim's desire, intention and plan and the block
# at every goal and moment.  Every literal on the must-set of a
# deprivation or prevention-bridge instance, modals included, then meets
# a complement, so the purity check refuses no grounding instance.  The
# inner knows facts lie in a knows body, so they are not ground: S1
# brings each out whole, and pure_formulas still drops the ground
# instances, whose shadow atoms none of the quantified ones meets.  The
# facts name the requester and the requested action type, taken from
# the text's request line.
LIVE_INSTANCES = (
    "  (forall p : Agent (innocent p))\n"
    "  (forall t : Moment (forall u : Moment (prior t u)))\n"
    "  (knows {x} 1 (forall p : Agent (forall g : Goal (forall u : Moment (and"
    " (knows {x} 1 (and (desires p 1 (holds g u)) (intends p 1 (happens g u))))"
    " (knows {x} 1 (exists a' : ActionType (and (intends p u (happens (action p a') u))"
    " (implies (and (happens (action p a') u) (not (Block {x} p g {a} 1)))"
    " (happens g u)))))"
    " (knows {x} 1 (implies (happens (action {x} {a}) 1) (Block {x} p g {a} 1))))))))\n"
)


def with_live_instances(text: str) -> str:
    anchor = "  (prior 1 2)\n"
    assert text.count(anchor) == 1
    x, a = re.search(r"^\(request (\S+) (\S+) 1\)$", text, re.M).groups()
    return text.replace(anchor, anchor + LIVE_INSTANCES.format(x=x, a=a))


def sim1_with_moment_named(name: str) -> str:
    """sim1 with the moment 3 in its facts, (prior 2 3) and every
    (holds g_live 3) and (happens g_live 3), replaced by a declared
    Moment constant of the given name."""
    text = load_guardbench_texts().bundled_text("sim1")
    text = text.replace("  (g_live Goal))\n", f"  (g_live Goal) ({name} Moment))\n")
    for atom in ("(prior 2 3)", "(holds g_live 3)", "(happens g_live 3)"):
        assert atom in text
        text = text.replace(atom, atom.replace(" 3)", f" {name})"))
    assert f"({name} Moment)" in text
    return text
