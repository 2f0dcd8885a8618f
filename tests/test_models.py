"""Finite-model oracle: satisfiability, entailment, documented limits."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from modalguard import models
from modalguard.eventcalc import project
from modalguard.guard import prevents_body, trace_atoms
from modalguard.models import entails, satisfiable
from modalguard.parser import parse_formula
from modalguard.proofs import verify_proof
from modalguard.prover import prove
from modalguard.scenario import parse_scenario
from modalguard.schemata import assumed, expand_modal, harvest_join_targets
from modalguard.syntax import (
    ACTION,
    AGENT,
    EVENT,
    GOAL,
    KNOWS,
    Atom,
    Const,
    Exists,
    Forall,
    Modal,
    Not,
    Signature,
    Var,
    moment,
    symbol_names,
)

import corpus
from test_parser import RandomFormulas, round_trip_sig
from test_prover import load_guardbench_texts

SIG = corpus.corpus_signature()


def F(text: str):
    return parse_formula(text, SIG)


def load(name: str):
    prob = next(p for p in corpus.PROBLEMS if p.name == name)
    return prob.load(SIG)


# ---------------------------------------------------------------------------
# satisfiability

def test_a_sort_with_no_constant_has_an_anonymous_element():
    # no constant is an Action: the universal over Action once read as
    # vacuous here, and the oracle found the countermodel [] while prove
    # proved (P g1) and the checker accepted the proof
    sig = Signature()
    sig.declare_constant("a", AGENT)
    sig.declare_constant("g1", GOAL)
    sig.declare_predicate("P", (EVENT,))
    sig.declare_predicate("Q", ())
    f = parse_formula(
        "(and (exists x : Goal (not (knows a 1 (Q))))"
        " (forall y : Action (knows a 1 (Q))))",
        sig,
    )
    goal = parse_formula("(P g1)", sig)
    r = prove([f], goal, sig=sig)
    assert r.status == "proof" and verify_proof(r.proof, [f], goal, sig)
    assert entails([f], goal, sig) == (True, None)
    domains = models._domains([f], sig)
    (anonymous,) = domains[ACTION]
    assert anonymous.name not in symbol_names(f) | set(sig.constants)
    assert anonymous in domains[EVENT]


def test_an_atom_is_identified_by_its_key_not_its_print():
    # the nullary predicate named "P g1" prints as (P g1), as P of g1
    # does; the oracle once identified the two atoms by that print, found
    # the pair unsatisfiable and entailed any goal, where prove found
    # no proof
    sig = Signature()
    sig.declare_constant("g1", GOAL)
    sig.declare_predicate("P", (GOAL,))
    sig.declare_predicate("Q", ())
    fs = [Atom("P g1"), Not(Atom("P", (Const("g1", GOAL),)))]
    goal = Atom("Q")
    assert satisfiable(fs, sig) is not None
    assert entails(fs, goal, sig)[0] is False
    assert prove(fs, goal, sig=sig).status == "no_proof"


def test_empty_theory_has_empty_model():
    assert satisfiable([], SIG) == []


def test_model_lists_true_atoms_sorted():
    model = satisfiable([F("(rains)"), F("(implies (rains) (pours))")], SIG)
    assert model == ["(pours)", "(rains)"]


def test_contradiction_unsat():
    assert satisfiable([F("(rains)"), F("(not (rains))")], SIG) is None


def test_falsum_is_pinned_false():
    assert satisfiable([F("(false)")], SIG) is None
    model = satisfiable([F("(or (rains) (false))")], SIG)
    assert model == ["(rains)"]


def test_grounding_universal_over_named_agents():
    model = satisfiable([F("(forall x : Agent (P x))")], SIG)
    assert model is not None
    for name in ("alice", "bob", "carol"):
        assert f"(P {name})" in model


def test_existential_needs_one_named_witness():
    model = satisfiable([F("(exists x : Agent (P x))")], SIG)
    assert model is not None
    assert any(a.startswith("(P ") for a in model)


# ---------------------------------------------------------------------------
# entailment

def test_entails_modus_ponens():
    fs, g = load("modus-ponens")
    ok, cm = entails(fs, g, SIG)
    assert ok and cm is None


def test_countermodel_on_failure():
    fs, g = load("belief-not-veridical")
    ok, cm = entails(fs, g, SIG)
    assert not ok
    assert cm is not None
    # belief is not veridical: the believed fact is absent from the model
    assert "(rains)" not in cm


def test_modal_closure_runs_inside_oracle():
    ok, _ = entails([F("(knows alice 1 (rains))")], F("(rains)"), SIG)
    assert ok


def test_universal_modal_fact_splits_into_instances():
    # grounding a universal yields a conjunction; the closure must still
    # reach inside it to apply the modal rules per instance
    fs, g = load("forall-knows")
    ok, _ = entails(fs, g, SIG)
    assert ok
    fs, g = load("forall-knows-instance")
    ok, _ = entails(fs, g, SIG)
    assert ok


def test_depth_limits_modal_closure():
    fs, g = load("k-nested")
    assert entails(fs, g, SIG, depth=1)[0] is False
    assert entails(fs, g, SIG, depth=2)[0] is True


# ---------------------------------------------------------------------------
# documented limits, pinned so a change shows up as a test failure

def test_limit_universal_goal_over_finite_domain():
    # the oracle grounds the goal over named agents and accepts; the prover
    # must not, because unnamed agents could falsify it
    fs, g = load("forall-goal-finite")
    assert entails(fs, g, SIG)[0] is True
    assert prove(fs, g, sig=SIG).status == "no_proof"


def test_limit_disjunction_of_modal_atoms():
    # a grounded existential of epistemic facts becomes a disjunction of
    # shadow atoms; the oracle cannot case-split knowers, the prover can
    fs, g = load("exists-knows")
    assert entails(fs, g, SIG)[0] is False
    assert prove(fs, g, sig=SIG).status == "proof"


# ---------------------------------------------------------------------------
# the closure stops at its fixpoint and returns what depth + 1 rounds do


def closure_in_every_round(formulas, sig, depth) -> tuple[list, int]:
    """models._closure as it was before it stopped at a fixpoint: it runs
    depth + 1 rounds unless a round grounds nothing.  Returns the closure
    and the number of rounds run."""
    dom = models._domains(formulas, sig)
    current = []
    for f in formulas:
        g = models._ground(f, dom, sig)
        if g is not models._TRUE:
            current.extend(models._conjuncts(g))
    rounds = 0
    for _ in range(depth + 1):
        rounds += 1
        targets = harvest_join_targets(current)
        records = assumed(current)
        expand_modal(records, depth=depth, join_targets=targets)
        out = []
        again = False
        for f in (d.formula for d in records.values()):
            if models._has_quantifier_outside_modal(f):
                f = models._ground(f, dom, sig)
                again = True
            if f is not models._TRUE:
                out.extend(models._conjuncts(f))
        current = out
        if not again:
            break
    return current, rounds


def closure_rounds(formulas, sig, depth, monkeypatch) -> tuple[list, int]:
    """models._closure and the number of rounds it ran."""
    rounds = []

    def counting(*args, **kwargs):
        rounds.append(1)
        return expand_modal(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(models, "expand_modal", counting)
        return models._closure(formulas, sig, depth), len(rounds)


def query_mix_no_theories() -> dict[str, tuple[list, object]]:
    """The formulas the oracle closes for each "no" prevention query of
    the benchmark's query_mix: facts, trace atoms and the negated
    condition, with their signature."""
    texts = load_guardbench_texts()
    sim1 = texts.bundled_text("sim1")
    queries = {"shooter-ai": (sim1, "ai")}
    for name in texts.SIM1_ABLATIONS:
        queries[name] = (texts.sim1_ablation(sim1, name), "victim")
    out = {}
    for label, (text, victim) in queries.items():
        sc = parse_scenario(text, label)
        c = {n: Const(n, s) for n, s in sc.sig.constants.items()}
        goal = prevents_body(c["shooter"], c[victim], c["g_live"], c["fire"], moment(1))
        trace = project(sc.theory, sc.sig)
        fs = [*sc.facts, *trace_atoms(trace, sc.theory.occurrences), Not(goal)]
        out[label] = (fs, sc.sig)
    return out


def test_the_closure_of_each_query_mix_no_theory_is_unchanged(monkeypatch):
    early = []
    for label, (fs, sig) in query_mix_no_theories().items():
        got, rounds = closure_rounds(fs, sig, 4, monkeypatch)
        want, every = closure_in_every_round(fs, sig, 4)
        assert got == want, label
        assert entails(fs[:-1], fs[-1].body, sig)[0] is False
        early.append(rounds < every)
    # four of the five reach their fixpoint before round 5
    assert early.count(True) == 4


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.booleans())
def test_the_closure_of_a_random_theory_is_unchanged(seed, depth, known):
    rng = random.Random(seed)
    gen = RandomFormulas(seed)
    fs = [gen.formula([], rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
    if known:
        # S1 brings out a quantified body in every round, the case where
        # a round can return its input
        x = Var("x", AGENT)
        body = rng.choice((Forall, Exists))(x, gen.formula([x], rng.randint(0, 2)))
        fs.append(Modal(KNOWS, Const("a", AGENT), moment(1), body))
    sig = round_trip_sig()
    with pytest.MonkeyPatch.context() as mp:
        got, _ = closure_rounds(fs, sig, depth, mp)
    assert got == closure_in_every_round(fs, sig, depth)[0]
