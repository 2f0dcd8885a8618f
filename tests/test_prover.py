"""End-to-end prover behaviour: routes, budgets, statistics, determinism."""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from modalguard import prover
from modalguard.clauses import Clause, clausify
from modalguard.guard import adjudicate, adjudication_theory, obligation_goal
from modalguard.parser import parse_formula
from modalguard.proofs import verify_proof_detailed
from modalguard.prover import Budget, prove
from modalguard.resolution import pure_clauses
from modalguard.scenario import load_bundled_scenario, parse_scenario
from modalguard.syntax import (
    AGENT,
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    Var,
    alpha_equivalent,
    canonical_key,
)

import corpus
from test_clauses import iff_chain

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
    assert r.proof is None


@pytest.mark.parametrize("depth", [7, 24])
def test_a_clausification_blow_up_is_timeout_within_the_budget(depth):
    sig = Signature()
    sig.declare_predicate("p", ())
    sig.declare_predicate("q", ())
    budget = Budget(timeout_ms=5000)
    t0 = time.monotonic()
    r = prove([iff_chain(depth)], Atom("q"), budget=budget, sig=sig)
    assert r.status == "timeout"
    assert time.monotonic() - t0 < budget.timeout_ms / 1000


def test_depth_budget_limits_modal_closure():
    shallow, _, _ = run("k-nested", depth=1)
    assert shallow.status == "incomplete"
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
    for key in ("grounding_instances", "grounding_capped", "expansion_size",
                "elapsed_ms", "route"):
        assert key in r.stats
    assert r.stats["grounding_capped"] is False
    assert r.stats["elapsed_ms"] >= 0


def test_grounding_counts_instances():
    r, _, _ = run("forall-knows-instance")
    # three declared agents, one universal to ground
    assert r.stats["grounding_instances"] >= 3


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


# ---------------------------------------------------------------------------
# grounding instances are keyed from their quantifier's template


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


def test_spliced_keys_equal_canonical_keys_on_the_corpus(monkeypatch):
    preps = spy_preps(monkeypatch)
    for prob in corpus.PROBLEMS:
        fs, g = prob.load(SIG)
        prove(fs, g, sig=SIG)
    edges = [parse_formula(t, SIG) for t in TEMPLATE_EDGES]
    prove(edges, parse_formula("(floods)", SIG), sig=SIG)
    grounded, witnessed = check_closure_keys(preps)
    assert grounded > 40 and witnessed >= 3
    edge_rules = {rec.rule for rec in preps[-1].records.values()}
    assert GROUNDING_RULES <= edge_rules


def test_spliced_keys_equal_canonical_keys_on_an_open_consequent(monkeypatch):
    # v is free in the consequent as well as bound in the antecedent; a
    # template holes v wherever it is free, so this root is not grounded
    preps = spy_preps(monkeypatch)
    v = Var("v", AGENT)
    knows_v = parse_formula("(exists v : Agent (knows v 1 (P v)))", SIG)
    assert knows_v.var == v
    roots = [Implies(knows_v, Atom("Q", (v,))), parse_formula("(P alice)", SIG)]
    prove(roots, parse_formula("(floods)", SIG), sig=SIG)
    check_closure_keys(preps)


def test_spliced_keys_equal_canonical_keys_on_the_guard_scenarios(monkeypatch):
    texts = load_guardbench_texts()
    sim1, sim2 = texts.bundled_text("sim1"), texts.bundled_text("sim2")
    cases = [sim1, sim2, texts.sim1_guilty(sim1)]
    cases += [texts.sim1_idle(sim1, k) for k in (1, 2, 3)]
    preps = spy_preps(monkeypatch)
    for i, text in enumerate(cases):
        adjudicate(parse_scenario(text, f"case{i}"))
    grounded, _ = check_closure_keys(preps)
    assert grounded > 1000


def test_sim1_obligation_keys_no_instance_and_clausifies_few_formulas(monkeypatch):
    sc = load_bundled_scenario("sim1")
    assumptions, _ = adjudication_theory(sc)
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
    res = prover.prove(assumptions, obligation_goal(sc), sig=sc.sig)
    assert res.status == "proof"
    instances = [
        rec.formula
        for prep in preps
        for rec in prep.records.values()
        if rec.rule in GROUNDING_RULES
    ]
    assert len(instances) > 100
    keyed_set = set(keyed)
    assert not [f for f in instances if f in keyed_set]
    assert 0 < len(clausified) < 20


def load_guardbench_texts():
    path = Path(__file__).resolve().parents[1] / "guardbench" / "texts.py"
    spec = importlib.util.spec_from_file_location("guardbench_texts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
