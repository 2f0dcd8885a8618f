"""Proof objects: serialization, clause encoding, and the checker itself."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from modalguard import proofs
from modalguard.clauses import Clause, Literal, clausify
from modalguard.parser import parse_formula
from modalguard.proofs import (
    Proof,
    ProofStep,
    clause_to_formula,
    formula_to_clause,
    verify_proof,
    verify_proof_detailed,
)
from modalguard.prover import prove
from modalguard.syntax import (
    AGENT,
    FALSUM,
    FLUENT,
    GOAL,
    MOMENT,
    Atom,
    Const,
    Forall,
    Not,
    Signature,
    Var,
    canonical_key,
    substitute,
)

import corpus
import corruptions
from test_parser import RandomFormulas, round_trip_sig

SIG = corpus.corpus_signature()
CASES = corruptions.corruption_cases(SIG)


def proved(name: str):
    prob = next(p for p in corpus.PROBLEMS if p.name == name)
    fs, g = prob.load(SIG)
    r = prove(fs, g, sig=SIG)
    assert r.status == "proof"
    return r.proof, fs, g


# ---------------------------------------------------------------------------
# clause encoding

def test_clause_roundtrip_ground():
    c = formula_to_clause(parse_formula("(or (not (rains)) (pours))", SIG))
    assert c is not None
    back = clause_to_formula(c)
    assert formula_to_clause(back) == c


def test_clause_roundtrip_variables():
    f = parse_formula("(forall x : Agent (or (not (P x)) (Q x)))", SIG)
    c = formula_to_clause(f)
    assert c is not None
    assert formula_to_clause(clause_to_formula(c)) == c


def test_empty_clause_is_falsum():
    assert clause_to_formula(Clause(())) == FALSUM
    assert formula_to_clause(FALSUM) == Clause(())


def test_unit_clause_forms():
    pos = formula_to_clause(parse_formula("(rains)", SIG))
    neg = formula_to_clause(parse_formula("(not (rains))", SIG))
    assert pos == Clause((Literal(True, Atom("rains")),))
    assert neg == Clause((Literal(False, Atom("rains")),))


def test_non_clause_returns_none():
    assert formula_to_clause(parse_formula("(implies (rains) (pours))", SIG)) is None
    assert formula_to_clause(parse_formula("(and (rains) (pours))", SIG)) is None
    assert formula_to_clause(parse_formula("(or (rains) (and (pours) (floods)))", SIG)) is None
    assert formula_to_clause(parse_formula("(knows alice 1 (rains))", SIG)) is None


# ---------------------------------------------------------------------------
# serialization

def test_serialize_layout():
    proof, _, _ = proved("modus-ponens")
    lines = proof.serialize().splitlines()
    assert len(lines) == len(proof.steps)
    assert lines[0].startswith("1. ")
    # premise references are 1-indexed step numbers
    assert lines[-1].endswith("]")
    assert "[reductio" in lines[-1]


def test_serialize_premise_numbering():
    proof, _, _ = proved("modus-ponens")
    for i, (step, line) in enumerate(zip(proof.steps, proof.serialize().splitlines())):
        assert line.startswith(f"{i + 1}. ")
        for p in step.premises:
            assert f" {p + 1}" in line.rsplit("[", 1)[1]


def test_len_counts_steps():
    proof, _, _ = proved("modus-ponens")
    assert len(proof) == len(proof.steps)


# ---------------------------------------------------------------------------
# checker accepts honest proofs

def test_accepts_machine_proof():
    proof, fs, g = proved("modus-ponens")
    ok, reason = verify_proof_detailed(proof, fs, g, SIG)
    assert ok, reason
    assert verify_proof(proof, fs, g, SIG)


def test_accepts_modal_closure_proof():
    proof, fs, g = proved("s3-then-s1")
    ok, reason = verify_proof_detailed(proof, fs, g, SIG)
    assert ok, reason


def test_accepts_alpha_renamed_clause_variables():
    # clause steps are compared up to variable renaming, so a proof whose
    # universal clause uses a different bound name is still the same proof
    proof, fs, g = proved("forall-elim")
    steps = list(proof.steps)
    original = parse_formula("(forall V0 : Agent (P V0))", SIG)
    idx = next(i for i, s in enumerate(steps) if s.formula == original)
    renamed = parse_formula("(forall y' : Agent (P y'))", SIG)
    steps[idx] = ProofStep(renamed, steps[idx].rule, steps[idx].premises)
    ok, reason = verify_proof_detailed(Proof(tuple(steps)), fs, g, SIG)
    assert ok, reason


def test_accepts_fresh_witness_rename():
    # eigenvariables are arbitrary: renaming the witness to another unused
    # name keeps the proof valid, which is why the corruption cases rename
    # it to a name that already occurs instead
    import dataclasses

    from modalguard.syntax import AGENT, Const

    proof, fs, g = proved("exists-knows-about")
    w1, u9 = Const("w1", AGENT), Const("u9", AGENT)
    steps = []
    for s in proof.steps:
        f = s.formula
        if getattr(f, "agent", None) == w1:
            f = dataclasses.replace(f, agent=u9)
        steps.append(ProofStep(f, s.rule, s.premises))
    assert any(s.formula != t.formula for s, t in zip(steps, proof.steps))
    ok, reason = verify_proof_detailed(Proof(tuple(steps)), fs, g, SIG)
    assert ok, reason


# ---------------------------------------------------------------------------
# checker rejects corrupted proofs

def forged_proof(assumption, negated_goal):
    """assumption, negated goal, their clauses, the empty resolvent and
    reductio: accepted only when each step is what its rule says."""
    clause = lambda f: clause_to_formula(clausify(f)[0])
    goal = negated_goal.body if isinstance(negated_goal, Not) else None
    return Proof((
        ProofStep(assumption, "assumption", ()),
        ProofStep(clause(assumption), "clausify", (0,)),
        ProofStep(negated_goal, "negated-goal", ()),
        ProofStep(clause(negated_goal), "clausify", (2,)),
        ProofStep(FALSUM, "resolve", (1, 3)),
        ProofStep(goal, "reductio", (4, 2)),
    ))


def test_rejects_a_variable_in_place_of_the_goal_constant():
    # (not (P b)) with b a variable clausifies to the universal clause
    # (not (P V0)), which refutes any (P c)
    P_a, goal = parse_formula("(P alice)", SIG), parse_formula("(P bob)", SIG)
    forged = forged_proof(P_a, Not(Atom("P", (Var("bob", AGENT),))))
    assert verify_proof_detailed(forged, [P_a], goal, SIG) == (
        False, "step 3: negated-goal formula is not the goal's negation")
    honest = forged_proof(P_a, Not(goal))
    assert not verify_proof(honest, [P_a], goal, SIG)


def test_rejects_a_variable_in_place_of_an_assumed_constant():
    # assuming (P a) with a variable a would assume (forall x (P x))
    P_a, goal = parse_formula("(P alice)", SIG), parse_formula("(P bob)", SIG)
    forged = forged_proof(Atom("P", (Var("alice", AGENT),)), Not(goal))
    assert verify_proof_detailed(forged, [P_a], goal, SIG) == (
        False, "step 1: formula is not a declared assumption")


def witness_forgery(rule: str, witness):
    """A proof of the unrelated (Q) from satisfiable assumptions: the
    quantifier taken apart at the given witness by rule, then resolution
    against the other assumption, which names _vacuous.  Returns the
    checker's answer."""
    sig = Signature()
    sig.declare_constant("_vacuous", AGENT)
    sig.declare_predicate("P", (AGENT,))
    sig.declare_predicate("Q", ())
    inst = Atom("P", (witness,))
    if rule == "exists-elim":
        quant = parse_formula("(exists x : Agent (P x))", sig)
        other = Not(Atom("P", (Const("_vacuous", AGENT),)))
    else:
        quant = parse_formula("(not (forall x : Agent (P x)))", sig)
        other, inst = Atom("P", (Const("_vacuous", AGENT),)), Not(inst)
    clause = lambda f: clause_to_formula(clausify(f)[0])
    goal = parse_formula("(Q)", sig)
    proof = Proof((
        ProofStep(quant, "assumption"),
        ProofStep(inst, rule, (0,)),
        ProofStep(other, "assumption"),
        ProofStep(clause(inst), "clausify", (1,)),
        ProofStep(clause(other), "clausify", (2,)),
        ProofStep(FALSUM, "resolve", (3, 4)),
        ProofStep(Not(goal), "negated-goal"),
        ProofStep(goal, "reductio", (5, 6)),
    ))
    return verify_proof_detailed(proof, [quant, other], goal, sig)


@pytest.mark.parametrize("rule", ["exists-elim", "neg-forall-elim"])
def test_a_constant_named_like_an_internal_marker_is_no_fresh_witness(rule):
    # _vacuous is a legal identifier; the checker once took it for its
    # own mark of a vacuous binder and skipped the freshness check
    assert witness_forgery(rule, Const("_vacuous", AGENT)) == (
        False, "step 2: witness _vacuous is not fresh")


def test_a_witness_named_like_the_key_hole_is_no_wildcard():
    # the witness # is no identifier; (R # y) over y must not take
    # (R a a) for an instance: its only instance at a is (R # a)
    sig = Signature()
    sig.declare_constant("a", AGENT)
    sig.declare_predicate("R", (AGENT, AGENT))
    quant = parse_formula("(exists x : Agent (forall y : Agent (R x y)))", sig)
    y, hole = Var("y", AGENT), Const("#", AGENT)
    goal = parse_formula("(R a a)", sig)
    clause = lambda f: clause_to_formula(clausify(f)[0])
    proof = Proof((
        ProofStep(quant, "assumption"),
        ProofStep(Forall(y, Atom("R", (hole, y))), "exists-elim", (0,)),
        ProofStep(goal, "forall-elim", (1,)),
        ProofStep(clause(goal), "clausify", (2,)),
        ProofStep(Not(goal), "negated-goal"),
        ProofStep(clause(Not(goal)), "clausify", (4,)),
        ProofStep(FALSUM, "resolve", (3, 5)),
        ProofStep(goal, "reductio", (6, 4)),
    ))
    assert verify_proof_detailed(proof, [quant], goal, sig) == (
        False, "step 3: conclusion is not an instance of the premise")
    # the true instance is still one
    assert proofs._is_instance(y, Atom("R", (hole, y)), Atom("R", (hole, Const("a", AGENT))), sig) == Const("a", AGENT)


@pytest.mark.parametrize("rule", ["exists-elim", "neg-forall-elim"])
def test_a_variable_is_no_witness(rule):
    # (P x) with x free clausifies to a universal clause, so the bound
    # variable left free would turn an existential into a universal
    assert witness_forgery(rule, Var("x", AGENT)) == (
        False, "step 2: witness is not a constant")


@pytest.mark.parametrize("label", [c[0] for c in CASES])
def test_rejects_corruption(label):
    _, proof, assumptions, goal = next(c for c in CASES if c[0] == label)
    ok, reason = verify_proof_detailed(proof, assumptions, goal, SIG)
    assert not ok
    assert reason
    assert not verify_proof(proof, assumptions, goal, SIG)


def test_corruption_catalogue_size():
    assert len(CASES) >= 20
    assert len({c[0] for c in CASES}) == len(CASES)


# ---------------------------------------------------------------------------
# clause steps are compared by canonical clause


def v0_signature() -> Signature:
    sig = Signature()
    sig.declare_constant("V0", AGENT)
    sig.declare_constant("a", AGENT)
    sig.declare_predicate("P", (AGENT,))
    sig.declare_predicate("Q", ())
    sig.declare_predicate("R", (AGENT, AGENT))
    return sig


def test_rejects_a_variable_claimed_for_a_constant_of_its_name():
    # (P V0) about the constant V0 does not clausify to (forall V0 (P V0));
    # text may not bind V0, the name of a declared constant, so the
    # forged step is built in Python
    sig = v0_signature()
    p = lambda text: parse_formula(text, sig)
    v0 = Var("V0", AGENT)
    assumptions = [p("(P V0)"), p("(not (P a))")]
    goal = p("(Q)")
    forged = Proof((
        ProofStep(p("(P V0)"), "assumption"),
        ProofStep(Forall(v0, Atom("P", (v0,))), "clausify", (0,)),
        ProofStep(p("(not (P a))"), "assumption"),
        ProofStep(p("(not (P a))"), "clausify", (2,)),
        ProofStep(FALSUM, "resolve", (1, 3)),
        ProofStep(p("(not (Q))"), "negated-goal"),
        ProofStep(goal, "reductio", (4, 5)),
    ))
    ok, reason = verify_proof_detailed(forged, assumptions, goal, sig)
    assert not ok
    assert reason.startswith("step 2:")
    assert prove(assumptions, goal, sig=sig).status == "no_proof"


def test_rejects_a_free_variable_cited_as_a_constant_spelled_like_its_key():
    # a free variable x keys as ?x:Agent, and formulas built in Python
    # may hold a constant of that name; cited as the assumption
    # (P ?x:Agent), (P x) would clausify to (forall x (P x)) and prove
    # (P bob)
    sig = Signature()
    sig.declare_constant("bob", AGENT)
    sig.declare_predicate("P", (AGENT,))
    x = Var("x", AGENT)
    assumption = Atom("P", (Const("?x:Agent", AGENT),))
    goal = Atom("P", (Const("bob", AGENT),))
    clause = lambda f: clause_to_formula(clausify(f)[0])
    forged = Proof((
        ProofStep(Atom("P", (x,)), "assumption"),
        ProofStep(clause(Atom("P", (x,))), "clausify", (0,)),
        ProofStep(Not(goal), "negated-goal"),
        ProofStep(clause(Not(goal)), "clausify", (2,)),
        ProofStep(FALSUM, "resolve", (1, 3)),
        ProofStep(goal, "reductio", (4, 2)),
    ))
    assert verify_proof_detailed(forged, [assumption], goal, sig) == (
        False, "step 1: formula is not a declared assumption")
    assert prove([assumption], goal, sig=sig).status == "no_proof"


def test_accepts_a_clause_whose_canonical_clause_renumbers_it():
    # the clause of the first assumption is canonical as
    # (P V0) | (R V0 V3) | (R V1 V2), whose own canonical clause numbers
    # its variables (P V0) | (R V0 V1) | (R V2 V3)
    sig = v0_signature()
    assumptions = [
        parse_formula(text, sig)
        for text in (
            "(forall x : Agent (forall q : Agent (forall z : Agent"
            " (forall w : Agent (or (P z) (R x q) (R z w))))))",
            "(forall x : Agent (not (P x)))",
            "(forall x : Agent (forall y : Agent (not (R x y))))",
        )
    ]
    goal = parse_formula("(Q)", sig)
    r = prove(assumptions, goal, sig=sig)
    assert r.status == "proof"
    assert "(or (P V0) (R V0 V3) (R V1 V2))" in r.proof.serialize()
    ok, reason = verify_proof_detailed(r.proof, assumptions, goal, sig)
    assert ok, reason


# ---------------------------------------------------------------------------
# instance steps key the body with the bound variable named as each
# candidate


def instance_by_substitution(var, body, conclusion, sig):
    """proofs._is_instance as it was: substitute each candidate constant
    into body, then key the instance."""
    want = canonical_key(conclusion)
    if canonical_key(body) == want:
        return var
    for c in proofs._instance_candidates(conclusion, var.sort, sig):
        if canonical_key(substitute(body, {var: c}, sig)) == want:
            return c
    return None


# per sort of the bound variable, constants to put for it: names of the
# generator's binders, a binder's key shape, and a Goal for a Fluent
PUT_FOR = {
    AGENT: (Const("a", AGENT), Const("y", AGENT), Const("u", AGENT), Const("b0", AGENT)),
    MOMENT: (Const("1", MOMENT), Const("3", MOMENT)),
    FLUENT: (Const("wet", FLUENT), Const("g1", GOAL)),
}
IS_SIG = round_trip_sig()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(PUT_FOR)),
    st.sampled_from(("x", "y", "t'")),
    st.sampled_from(("instance", "body", "other")),
)
@example(0, AGENT, "x", "instance")
def test_spliced_instances_equal_substituted_ones(seed, sort, name, conclusion_kind):
    rng = random.Random(seed)
    gen = RandomFormulas(seed)
    var = Var(name, sort)
    body = gen.formula([var], rng.randint(0, 3))
    if conclusion_kind == "instance":
        conclusion = substitute(body, {var: rng.choice(PUT_FOR[sort])}, IS_SIG)
    elif conclusion_kind == "body":
        conclusion = body
    else:
        conclusion = gen.formula([], rng.randint(0, 3))
    got = proofs._is_instance(var, body, conclusion, IS_SIG)
    assert got == instance_by_substitution(var, body, conclusion, IS_SIG)


def test_spliced_instances_of_a_captured_name_and_a_subsort():
    x, y = Var("x", AGENT), Var("y", AGENT)
    # the constant y is put under a binder named y, which is renamed
    body = Forall(y, Atom("R", (x, y)))
    conclusion = substitute(body, {x: Const("y", AGENT)}, IS_SIG)
    assert proofs._is_instance(x, body, conclusion, IS_SIG) == Const("y", AGENT)
    # a Goal is a Fluent, so g1 is a candidate for a Fluent variable
    f = Var("f", FLUENT)
    holds = Atom("holds", (f, Const("1", MOMENT)))
    g1 = Const("g1", GOAL)
    assert proofs._is_instance(f, holds, substitute(holds, {f: g1}, IS_SIG), IS_SIG) == g1
    assert proofs._is_instance(f, holds, holds, IS_SIG) == f
