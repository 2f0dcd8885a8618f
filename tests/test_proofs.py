"""Proof objects: serialization, clause encoding, and the checker itself."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from modalguard import proofs
from modalguard.clauses import Clause, Literal, clausify
from modalguard.parser import parse_formula, parse_formulas
from modalguard.proofs import (
    Proof,
    ProofStep,
    clause_to_formula,
    formula_to_clause,
    verify_proof,
    verify_proof_detailed,
)
from modalguard.models import satisfiable
from modalguard.prover import prove
from modalguard.syntax import (
    ACTION,
    AGENT,
    FALSUM,
    FLUENT,
    GOAL,
    KNOWS,
    MOMENT,
    Atom,
    Const,
    Exists,
    Forall,
    Implies,
    Modal,
    Not,
    Signature,
    Var,
    canonical_key,
    free_vars,
    moment,
    print_formula,
)

import corpus
import corruptions
from corpus import substitute
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


@pytest.mark.parametrize("rule", ["exists-elim", "neg-forall-elim"])
def test_a_witness_spelled_like_a_skolem_constant_is_refused(rule):
    # the witness is sk_f778790efe_0, the skolem constant of the other
    # assumption (exists x : Agent (P x)): fresh by name, yet a later
    # clausify step of that assumption names it too, and (Q) followed
    # from satisfiable assumptions.  The oracle's one-element domain
    # entails (Q) as well, so only the checker can refuse the proof.
    sig = Signature()
    sig.declare_constant("a", AGENT)
    sig.declare_predicate("P", (AGENT,))
    sig.declare_predicate("Q", ())
    sk = Atom("P", (Const("sk_f778790efe_0", AGENT),))
    if rule == "exists-elim":
        quant = parse_formula("(exists x : Agent (not (P x)))", sig)
    else:
        quant = parse_formula("(not (forall x : Agent (P x)))", sig)
    other = parse_formula("(exists x : Agent (P x))", sig)
    goal = parse_formula("(Q)", sig)
    proof = Proof((
        ProofStep(quant, "assumption"),
        ProofStep(Not(sk), rule, (0,)),
        ProofStep(other, "assumption"),
        ProofStep(sk, "clausify", (2,)),
        ProofStep(Not(sk), "clausify", (1,)),
        ProofStep(Not(goal), "negated-goal"),
        ProofStep(FALSUM, "resolve", (3, 4)),
        ProofStep(goal, "reductio", (6, 5)),
    ))
    assert verify_proof_detailed(proof, [quant, other], goal, sig) == (
        False, "step 2: witness sk_f778790efe_0 has a skolem symbol's shape")


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


def test_a_witness_named_like_a_vacuous_binder_of_an_assumption_is_not_fresh():
    # the prover names its witnesses apart from every binder's name, even
    # one that binds nothing, and the checker reads the same names
    sig = family_signature()
    some = parse_formula("(exists y : Agent (P y))", sig)
    vacuous = parse_formula("(forall w1 : Agent (R))", sig)
    proof = Proof((
        ProofStep(some, "assumption"),
        ProofStep(Atom("P", (Const("w1", AGENT),)), "exists-elim", (0,)),
        ProofStep(vacuous, "assumption"),
    ))
    assert verify_proof_detailed(proof, [some, vacuous], vacuous, sig) == (
        False, "step 2: witness w1 is not fresh")


@pytest.mark.parametrize("label", [c[0] for c in CASES])
def test_rejects_corruption(label):
    _, proof, assumptions, goal = next(c for c in CASES if c[0] == label)
    ok, reason = verify_proof_detailed(proof, assumptions, goal, SIG)
    assert not ok
    assert reason
    assert not verify_proof(proof, assumptions, goal, SIG)


# corruptions whose reason no other test pins
REASONS = {
    "negated-goal-with-premises": "step 6: negated-goal takes no premises",
    "witness-of-a-subsort": "step 2: witness sort mismatch",
    "reductio-one-premise": "step 9: reductio needs two premises",
    "reductio-second-premise-not-negated-goal": "step 9: reductio needs the negated goal second",
}


@pytest.mark.parametrize("label", sorted(REASONS))
def test_a_corruption_is_refused_for_its_reason(label):
    _, proof, assumptions, goal = next(c for c in CASES if c[0] == label)
    assert verify_proof_detailed(proof, assumptions, goal, SIG) == (False, REASONS[label])


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


def test_rejects_a_step_that_gives_a_constant_another_sort():
    # every step compares keys, which print a constant by its name alone:
    # S1 turned the Action x into a Goal, which the Goal universal then
    # refuted, so (Q) followed from satisfiable assumptions
    a, y = Const("a", AGENT), Var("y", GOAL)
    x_action, x_goal = Const("x", ACTION), Const("x", GOAL)
    assumptions = [
        Modal(KNOWS, a, moment(1), Atom("R", (x_action,))),
        Forall(y, Not(Atom("R", (y,)))),
    ]
    goal = Atom("Q")
    clause = lambda f: clause_to_formula(clausify(f)[0])
    forged = Proof((
        ProofStep(assumptions[0], "assumption"),
        ProofStep(Atom("R", (x_goal,)), "S1", (0,)),
        ProofStep(assumptions[1], "assumption"),
        ProofStep(Not(Atom("R", (x_goal,))), "forall-elim", (2,)),
        ProofStep(Not(goal), "negated-goal"),
        ProofStep(clause(Atom("R", (x_goal,))), "clausify", (1,)),
        ProofStep(clause(Not(Atom("R", (x_goal,)))), "clausify", (3,)),
        ProofStep(FALSUM, "resolve", (5, 6)),
        ProofStep(goal, "reductio", (7, 4)),
    ))
    assert verify_proof_detailed(forged, assumptions, goal) == (
        False, "x is a constant of two sorts, Action and Goal")
    assert satisfiable(assumptions) is not None


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


# premise shapes a quantifier rule takes apart, as (build, wrap): build
# makes the premise from var, body and a consequent, and wrap makes what
# the rule derives from an instance of body and that consequent
SHAPES = {
    "forall": (lambda v, b, r: Forall(v, b), lambda g, r: g),
    "exists": (lambda v, b, r: Exists(v, b), lambda g, r: g),
    "neg-exists": (lambda v, b, r: Not(Exists(v, b)), lambda g, r: Not(g)),
    "neg-forall": (lambda v, b, r: Not(Forall(v, b)), lambda g, r: Not(g)),
    "antecedent": (lambda v, b, r: Implies(Exists(v, b), r), lambda g, r: Implies(g, r)),
}


def opened_by_table(premise, conclusion, sig):
    """(rule, witness) of the checker's quantifier branch: wrap(body)
    keyed at each candidate (proofs.quantifier_rule)."""
    q = proofs.quantifier_rule(premise)
    if q is None:
        return None
    rule, var, body, wrap = q
    return rule, proofs._is_instance(var, wrap(body), conclusion, sig)


def opened_by_reference(premise, conclusion, sig):
    """(rule, witness) as the checker found them before the rule table:
    body keyed against the part of the conclusion (corpus.opened_reference)."""
    opened = corpus.opened_reference(premise)
    if opened is None:
        return None
    rule, var, body, part = opened
    target = part(conclusion)
    return rule, None if target is None else proofs._is_instance(var, body, target, sig)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(PUT_FOR)),
    st.sampled_from(("x", "y", "t'")),
    st.sampled_from(sorted(SHAPES)),
)
def test_the_rule_table_opens_a_premise_as_the_checker_did(seed, sort, name, shape):
    rng = random.Random(seed)
    gen = RandomFormulas(seed)
    var = Var(name, sort)
    body = gen.formula([var], rng.randint(0, 3))
    rhs = gen.formula([var], rng.randint(0, 2))  # var may be free in it
    build, wrap = SHAPES[shape]
    premise = build(var, body, rhs)
    instances = [substitute(body, {var: c}, IS_SIG) for c in PUT_FOR[sort]]
    _, other_wrap = SHAPES[rng.choice(sorted(set(SHAPES) - {shape}))]
    mutated = rng.choice(instances)
    conclusions = [
        *(wrap(g, rhs) for g in instances),
        premise,
        other_wrap(mutated, rhs),
        wrap(mutated, gen.formula([], rng.randint(0, 2))),
        Not(wrap(mutated, rhs)),
    ]
    for conclusion in conclusions:
        got = opened_by_table(premise, conclusion, IS_SIG)
        if shape == "antecedent" and var in free_vars(rhs):
            # the one exception: no rule opens an existential antecedent
            # whose variable is free in the consequent
            assert got is None
        else:
            assert got == opened_by_reference(premise, conclusion, IS_SIG), conclusion


def test_an_instance_below_a_vacuous_binder_named_like_its_witness_verifies():
    # witnesses are named apart from the binders of the assumptions too,
    # even one that binds nothing: the witness is w2, so the instance
    # keeps the binder w1 and prints unambiguously
    sig = Signature()
    sig.declare_predicate("P", (AGENT,))
    sig.declare_predicate("Q", (AGENT,))
    assumptions = parse_formulas(
        "(exists y : Agent (knows y 1 (P y)))"
        "(forall x : Agent (forall w1 : Agent (implies (knows x 1 (P x)) (knows x 1 (Q x)))))",
        sig,
    )
    goal = parse_formula("(exists z : Agent (knows z 1 (Q z)))", sig)
    r = prove(assumptions, goal, sig=sig)
    assert r.status == "proof"
    w2 = Const("w2", AGENT)
    (step,) = [s for s in r.proof.steps if s.rule == "forall-elim"]
    assert print_formula(step.formula) == (
        "(forall w1 : Agent (implies (knows w2 1 (P w2)) (knows w2 1 (Q w2))))"
    )
    x = assumptions[1].var
    assert canonical_key(step.formula) == canonical_key(
        substitute(assumptions[1].body, {x: w2}, sig)
    )
    assert verify_proof_detailed(r.proof, assumptions, goal, sig) == (True, "ok")


# ---------------------------------------------------------------------------
# each rule of the modal, quantifier and clause families: a one-step
# proof of the goal is accepted; with a premise more or fewer, with a
# premise of another rule's shape, or with another conclusion, the step
# is rejected


def family_signature() -> Signature:
    sig = Signature()
    sig.declare_constant("a", AGENT)
    sig.declare_predicate("P", (AGENT,))
    sig.declare_predicate("Q", (AGENT,))
    sig.declare_predicate("R", ())
    return sig


# rule -> (premises, conclusion, premises of another rule's shape);
# exists-elim and neg-forall-elim open a vacuous binder, since a witness
# in the goal would not be fresh
FAMILY_STEPS = {
    "S1": (["(knows a 1 (P a))"], "(P a)", ["(believes a 1 (P a))"]),
    "S2": (["(knows a 1 (P a))"], "(believes a 1 (P a))", ["(believes a 1 (P a))"]),
    "S3": (
        ["(knows a 1 (implies (P a) (Q a)))", "(knows a 1 (P a))"],
        "(knows a 1 (Q a))",
        ["(knows a 1 (and (P a) (Q a)))", "(knows a 1 (P a))"],
    ),
    "S4-split": (
        ["(knows a 1 (and (P a) (Q a)))"],
        "(knows a 1 (Q a))",
        ["(knows a 1 (implies (P a) (Q a)))"],
    ),
    "S4-join": (
        ["(knows a 1 (P a))", "(knows a 1 (Q a))"],
        "(knows a 1 (and (P a) (Q a)))",
        ["(knows a 1 (P a))", "(believes a 1 (Q a))"],
    ),
    "forall-elim": (["(forall x : Agent (P x))"], "(P a)", ["(exists x : Agent (P x))"]),
    "exists-elim": (["(exists x : Agent (R))"], "(R)", ["(forall x : Agent (R))"]),
    "neg-exists-elim": (
        ["(not (exists x : Agent (P x)))"],
        "(not (P a))",
        ["(not (forall x : Agent (P x)))"],
    ),
    "neg-forall-elim": (
        ["(not (forall x : Agent (R)))"],
        "(not (R))",
        ["(not (exists x : Agent (R)))"],
    ),
    "exists-antecedent-elim": (
        ["(implies (exists x : Agent (P x)) (R))"],
        "(implies (P a) (R))",
        ["(exists x : Agent (implies (P x) (R)))"],
    ),
    "clausify": (
        ["(implies (R) (P a))"],
        "(or (not (R)) (P a))",
        ["(knows a 1 (implies (R) (P a)))"],
    ),
    "resolve": (["(or (not (R)) (P a))", "(R)"], "(P a)", ["(implies (R) (P a))", "(R)"]),
    "factor": (
        ["(forall x : Agent (or (P x) (P a)))"],
        "(P a)",
        ["(forall x : Agent (implies (P x) (P a)))"],
    ),
}


def one_step(rule, premises, conclusion, cited=None):
    """The premises assumed, then conclusion by rule from the steps
    cited (all of them by default); the checker's answer for the goal
    conclusion."""
    steps = [ProofStep(p, "assumption") for p in premises]
    cited = tuple(range(len(premises))) if cited is None else cited
    proof = Proof((*steps, ProofStep(conclusion, rule, cited)))
    return verify_proof_detailed(proof, premises, conclusion, family_signature())


@pytest.mark.parametrize("rule", list(FAMILY_STEPS))
def test_each_rule_derives_only_its_own_conclusion(rule):
    sig = family_signature()
    texts, conclusion_text, other_texts = FAMILY_STEPS[rule]
    premises = [parse_formula(t, sig) for t in texts]
    conclusion = parse_formula(conclusion_text, sig)
    assert one_step(rule, premises, conclusion) == (True, "ok")
    last = f"step {len(premises) + 1}:"
    all_cited = tuple(range(len(premises)))
    for cited in (all_cited[:-1], all_cited + (0,)):
        ok, reason = one_step(rule, premises, conclusion, cited)
        assert not ok and reason.startswith(last), (cited, reason)
    other = [parse_formula(t, sig) for t in other_texts]
    ok, reason = one_step(rule, other, conclusion)
    assert not ok and reason.startswith(last), reason
    ok, reason = one_step(rule, premises, Not(conclusion))
    assert not ok and reason.startswith(last), reason


def test_an_existential_antecedent_is_not_opened_under_its_free_consequent():
    # putting a for x would put it in the consequent too; the prover
    # grounds no such formula, and the checker opens none
    x, a = Var("x", AGENT), Const("a", AGENT)
    premise = Implies(Exists(x, Atom("P", (x,))), Atom("Q", (x,)))
    conclusion = Implies(Atom("P", (a,)), Atom("Q", (x,)))
    assert one_step("exists-antecedent-elim", [premise], conclusion) == (
        False, "step 2: exists-antecedent-elim needs one premise of its shape")
