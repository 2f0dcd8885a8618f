"""End-to-end prover behaviour: routes, budgets, statistics, determinism."""

from __future__ import annotations

import pytest

from modalguard.parser import parse_formula
from modalguard.proofs import verify_proof_detailed
from modalguard.prover import Budget, prove
from modalguard.syntax import alpha_equivalent

import corpus

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
