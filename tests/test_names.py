"""Names a formula built in Python may hold change no proof's soundness.

A declared symbol may not spell a name the engine generates (binders
b<n>, shadow holes h<n>, shadow atoms sh_..., skolem symbols sk_...),
but a formula built in Python is not declared.  Small theories over
constants named like generated names, reserved words and arbitrary
text, within the finite-model oracle's bounds: every proof prove
returns must pass verify_proof, and the oracle must entail its goal.
A predicate or constant spelled exactly as a shadow atom or a skolem
symbol (syntax.SHADOW_NAME, SKOLEM_NAME) is refused: prove and the
oracle raise ValueError and the checker rejects the proof.  So is a
name that is a constant of two sorts, which a key reads as one.  A sort
may be spelled so, since the engine generates no sort.
"""

from __future__ import annotations

import random
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from modalguard import prover
from modalguard.clauses import ClausifyLimit, clausify
from modalguard.guard import ALLOW, adjudicate
from modalguard.models import entails, satisfiable
from modalguard.proofs import Proof, ProofStep, clause_to_formula, verify_proof_detailed
from modalguard.prover import Budget, prove
from modalguard.scenario import parse_scenario
from modalguard.shadow import ShadowMap, shadow
from modalguard.syntax import (
    ACTION,
    AGENT,
    BELIEVES,
    EVENT,
    GOAL,
    KNOWS,
    RESERVED_WORDS,
    SHADOW_NAME,
    SKOLEM_NAME,
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    Implies,
    Modal,
    Not,
    Or,
    Signature,
    Var,
    canonical_key,
    moment,
    symbol_names,
    unspoofed,
)
from corpus import subformulas
from test_parser import RandomFormulas, with_join_targets

# one declared constant per sort a formula quantifies over; the oracle
# would give a sort with none one anonymous element
DECLARED = {"a": AGENT, "g1": GOAL, "act": ACTION}
BUDGET = Budget(timeout_ms=60000, max_clauses=3000)

# the shapes of generated names, reserved words and arbitrary text
NAMES = st.one_of(
    st.sampled_from(("h0", "h1")),
    st.from_regex(r"[hbw][0-9]", fullmatch=True),
    st.from_regex(r"s[hk]_[0-9a-f]{0,3}", fullmatch=True),
    st.sampled_from(sorted(RESERVED_WORDS)),
    st.text(min_size=1, max_size=3),
).filter(lambda name: name not in DECLARED)


def names_sig() -> Signature:
    sig = Signature()
    for name, sort in DECLARED.items():
        sig.declare_constant(name, sort)
    sig.declare_predicate("P", (EVENT,))
    sig.declare_predicate("R", (EVENT, EVENT))
    sig.declare_predicate("Q", ())
    return sig


SIG = names_sig()


class NamedFormulas:
    """Random formulas over the given constants, Goals and Actions, with
    binders named from var_names."""

    def __init__(self, seed: int, consts: list[Const], var_names: list[str]):
        self.rng = random.Random(seed)
        self.consts = consts
        self.var_names = var_names

    def term(self, env: list[Var]) -> Var | Const:
        return self.rng.choice([*env, *self.consts])

    def atom(self, env: list[Var]) -> Atom:
        kind = self.rng.randrange(3)
        if kind == 0:
            return Atom("P", (self.term(env),))
        if kind == 1:
            return Atom("R", (self.term(env), self.term(env)))
        return Atom("Q")

    def formula(self, env: list[Var], depth: int) -> Formula:
        rng = self.rng
        pick = rng.randrange(10) if depth > 0 else 0
        if pick == 0:
            return self.atom(env)
        if pick == 1:
            return Not(self.formula(env, depth - 1))
        if pick in (2, 3):
            parts = (self.formula(env, depth - 1), self.formula(env, depth - 1))
            return (And if pick == 2 else Or)(parts)
        if pick == 4:
            return Implies(self.formula(env, depth - 1), self.formula(env, depth - 1))
        if pick in (5, 6):
            v = Var(rng.choice(self.var_names), rng.choice((GOAL, ACTION)))
            env = [u for u in env if u.name != v.name]
            body = self.formula([*env, v], depth - 1)
            return rng.choice((Forall, Exists))(v, body)
        if pick == 7:
            return self.open_modal()
        op = rng.choice((KNOWS, BELIEVES))
        return Modal(op, Const("a", AGENT), moment(1), self.formula(env, depth - 1))

    def open_modal(self) -> Formula:
        """A quantified modal literal: shadowed, its modal is open, and
        its hole sits beside the constants."""
        rng = self.rng
        v = Var(rng.choice(self.var_names), rng.choice((GOAL, ACTION)))
        body = Modal(KNOWS, Const("a", AGENT), moment(1), self.atom([v]))
        return rng.choice((Forall, Exists))(v, rng.choice((body, Not(body))))


@st.composite
def named_problems(draw):
    """Assumptions and a goal over one to three constants named from
    NAMES, each a Goal or an Action.  Half the problems assume open
    modals only; of the others, half have join targets put in their
    assumptions (with_join_targets), and half also assume that their
    last assumption implies the goal."""
    names = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    consts = [Const(n, draw(st.sampled_from((GOAL, ACTION)))) for n in names]
    var_names = draw(st.lists(NAMES, min_size=1, max_size=2, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    gen = NamedFormulas(seed, consts, var_names)
    if rng.random() < 0.5:
        # open modals alone: a proof of the goal then rests on two of
        # their shadows meeting
        fs = [gen.open_modal() for _ in range(rng.randint(2, 3))]
        return fs, gen.atom([])
    fs = [gen.formula([], rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    goal = gen.formula([], rng.randint(0, 2))
    if rng.random() < 0.5:
        fs = [with_join_targets(f, rng) for f in fs]
    if rng.random() < 0.5:
        fs.append(Implies(fs[-1], goal))
    return fs, goal


def hole_named_problem() -> tuple[list[Formula], Formula]:
    """Two open modals that shadowed alike while a hole printed as the
    constant h0 does."""
    y, h0 = Var("y", GOAL), Const("h0", ACTION)
    knows = lambda body: Modal(KNOWS, Const("a", AGENT), moment(1), body)
    fs = [
        Forall(y, knows(Atom("R", (y, h0)))),
        Forall(y, Not(knows(Atom("R", (y, y))))),
    ]
    return fs, Atom("Q")


def test_a_constant_named_like_a_shadow_hole_shadows_apart_from_it():
    # the open modals (knows a 1 (R y h0)) and (knows a 1 (R y y)) once
    # shadowed alike, their hole printed as h0: (Q) was proved and its
    # proof verified although the oracle finds a countermodel
    fs, goal = hole_named_problem()
    assert entails(fs, goal, SIG)[0] is False
    assert prove(fs, goal, BUDGET, SIG).status == "no_proof"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(named_problems())
@example(hole_named_problem())
def test_every_proof_over_generated_names_verifies_and_is_entailed(problem):
    fs, goal = problem
    r = prove(fs, goal, BUDGET, SIG)
    if r.status == "proof":
        ok, reason = verify_proof_detailed(r.proof, fs, goal, SIG)
        assert ok, reason
        assert entails(fs, goal, SIG)[0]


# ---------------------------------------------------------------------------
# a name spelled exactly as a generated one is refused

KNOWS_Q = Modal(KNOWS, Const("a", AGENT), moment(1), Atom("Q"))
KNOWS_Q_SHADOW = "sh_dce38993a3cb"  # the shadow atom of KNOWS_Q


def unchecked_proof(fs, goal, sig):
    """prove's answer with its generated-name check turned off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prover, "unspoofed", lambda key: key)
        return prove(fs, goal, BUDGET, sig)


def test_shadow_and_clausify_generate_the_two_shapes():
    skolems = 0
    for seed in range(300):
        f = RandomFormulas(seed).formula([], 1 + seed % 5)
        smap = ShadowMap()
        g = shadow(Not(f) if seed % 2 else f, smap)
        assert all(SHADOW_NAME.fullmatch(name) for name in smap.entries)
        if smap.entries:
            with pytest.raises(ValueError, match="sh_"):
                unspoofed(canonical_key(g))
        try:
            found = clausify(g, max_clauses=5000)
        except ClausifyLimit:
            continue
        for c in found:
            h = clause_to_formula(c)
            named = [n for n in symbol_names(h) if n.startswith("sk_")]
            assert all(SKOLEM_NAME.fullmatch(n) for n in named)
            if named:
                skolems += 1
                with pytest.raises(ValueError, match="s[hk]_"):
                    unspoofed(canonical_key(h))
    assert skolems
    assert shadow(KNOWS_Q, ShadowMap()) == Atom(KNOWS_Q_SHADOW)


def test_a_predicate_spelled_like_a_shadow_atom_is_refused():
    # the three assumptions are satisfiable, but the predicate read as
    # the shadow atom of (knows a 1 (Q)): (P g1) was proved, the checker
    # accepted the proof and the oracle agreed
    sh = Atom(KNOWS_Q_SHADOW)
    fs, goal = [KNOWS_Q, Not(sh), Or((sh, Not(sh)))], Atom("P", (Const("g1", GOAL),))
    with pytest.raises(ValueError, match=KNOWS_Q_SHADOW):
        prove(fs, goal, BUDGET, SIG)
    r = unchecked_proof(fs, goal, SIG)
    assert r.status == "proof"
    assert verify_proof_detailed(r.proof, fs, goal, SIG) == (
        False, f"{KNOWS_Q_SHADOW} has the shape of a generated name")
    with pytest.raises(ValueError, match=KNOWS_Q_SHADOW):
        entails(fs, goal, SIG)


def test_a_sort_spelled_like_a_shadow_atom_is_no_generated_name():
    # the engine generates no sort, so a scenario may declare one spelled
    # like a shadow atom; the checker keys every assumption and once
    # refused the universal over it, which locked sim2 on a sound proof
    text = (resources.files("modalguard") / "scenarios" / "sim2.scn").read_text()
    assert text.count("(facts\n") == 1
    text = text.replace("(facts\n", (
        f"(sorts {KNOWS_Q_SHADOW})\n(predicates (Z {KNOWS_Q_SHADOW}))\n"
        f"(facts\n  (forall s : {KNOWS_Q_SHADOW} (Z s))\n"
    ))
    v = adjudicate(parse_scenario(text, "sim2+sort"))
    assert (v.decision, v.prove_status, v.proof_verified) == (ALLOW, "proof", True)
    s = Var("s", KNOWS_Q_SHADOW)
    key = canonical_key(Forall(s, Atom("Z", (s,))))
    assert key == f"(forall b0 : {KNOWS_Q_SHADOW} (Z b0))"
    assert unspoofed(key) == key
    assert unspoofed(canonical_key(Atom("Z", (s,)))) == f"(Z ?s:{KNOWS_Q_SHADOW})"
    # a predicate or a constant spelled so is still refused
    for spoofed in (Atom(KNOWS_Q_SHADOW), Atom("Z", (Const(KNOWS_Q_SHADOW, KNOWS_Q_SHADOW),))):
        with pytest.raises(ValueError, match=KNOWS_Q_SHADOW):
            unspoofed(canonical_key(Forall(s, And((Atom("Z", (s,)), spoofed)))))


def test_a_constant_spelled_like_a_skolem_constant_is_refused():
    # sk_f778790efe_0 is the skolem constant of (exists x : Agent (P x)):
    # (Q) was proved in 7 steps and the checker accepted the proof,
    # though the oracle found the countermodel ['(P a)']
    sig = Signature()
    sig.declare_constant("a", AGENT)
    sig.declare_predicate("P", (AGENT,))
    sig.declare_predicate("Q", ())
    x, sk = Var("x", AGENT), Const("sk_f778790efe_0", AGENT)
    fs, goal = [Exists(x, Atom("P", (x,))), Not(Atom("P", (sk,)))], Atom("Q")
    with pytest.raises(ValueError, match=sk.name):
        prove(fs, goal, BUDGET, sig)
    r = unchecked_proof(fs, goal, sig)
    assert r.status == "proof" and len(r.proof) == 7
    assert verify_proof_detailed(r.proof, fs, goal, sig) == (
        False, f"{sk.name} has the shape of a generated name")
    with pytest.raises(ValueError, match=sk.name):
        entails(fs, goal, sig)
    # in the goal too
    with pytest.raises(ValueError, match=sk.name):
        prove(fs[:1], Atom("P", (sk,)), BUDGET, sig)


# predicate names: generated shapes, real generated names, near misses,
# declared predicates, reserved words and arbitrary text
PREDICATE_NAMES = st.one_of(
    st.sampled_from((KNOWS_Q_SHADOW, "sk_f778790efe_0", "P", "Q", "R")),
    st.from_regex(SHADOW_NAME.pattern, fullmatch=True),
    st.from_regex(SKOLEM_NAME.pattern, fullmatch=True),
    st.from_regex(r"s[hk]_[0-9a-f]{0,3}", fullmatch=True),
    st.sampled_from(sorted(RESERVED_WORDS)),
    st.text(min_size=1, max_size=3),
)


class PredicateFormulas(NamedFormulas):
    """NamedFormulas whose atoms are now and then the nullary predicate
    pred, and whose modals are now and then (knows a 1 (Q))."""

    def __init__(self, seed: int, pred: str):
        super().__init__(seed, [Const("g1", GOAL), Const("act", ACTION)], ["x", "y"])
        self.pred = pred

    def atom(self, env: list[Var]) -> Atom:
        if self.rng.random() < 0.3:
            return Atom(self.pred)
        return super().atom(env)

    def formula(self, env: list[Var], depth: int) -> Formula:
        if self.rng.random() < 0.1:
            return KNOWS_Q
        return super().formula(env, depth)


@st.composite
def predicate_problems(draw):
    """Assumptions and a goal that may hold a nullary predicate named
    from PREDICATE_NAMES; the predicate's excluded middle is assumed now
    and then, which no pure-literal pass drops.  Half the problems have
    join targets put in their assumptions (with_join_targets)."""
    pred = draw(PREDICATE_NAMES)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    gen = PredicateFormulas(seed, pred)
    fs = [gen.formula([], rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        fs = [with_join_targets(f, rng) for f in fs]
    if rng.random() < 0.5:
        fs.append(Or((Atom(pred), Not(Atom(pred)))))
    goal = gen.formula([], rng.randint(0, 2))
    if rng.random() < 0.5:
        fs.append(Implies(fs[-1], goal))
    return pred, fs, goal


def test_a_constant_of_two_sorts_is_refused():
    # a key prints a constant by its name alone: R(x : Goal) was proved
    # from R(x : Action) by the assumption step, the checker accepted the
    # proof and the oracle agreed, while resolution keeps the two apart
    fact, goal = Atom("R", (Const("x", ACTION),)), Atom("R", (Const("x", GOAL),))
    assert canonical_key(fact) == canonical_key(goal)
    with pytest.raises(ValueError, match="x is a constant of two sorts"):
        prove([fact], goal, BUDGET)
    one_step = Proof((ProofStep(fact, "assumption", ()),))
    assert verify_proof_detailed(one_step, [fact], goal) == (
        False, "x is a constant of two sorts, Action and Goal")
    with pytest.raises(ValueError, match="x is a constant of two sorts"):
        entails([fact], goal)
    with pytest.raises(ValueError, match="x is a constant of two sorts"):
        satisfiable([fact, goal])
    # a declared sort counts as one of the two
    sig = Signature()
    sig.declare_constant("x", AGENT)
    with pytest.raises(ValueError, match="x is a constant of two sorts"):
        prove([goal], goal, BUDGET, sig)
    assumed = Proof((ProofStep(goal, "assumption", ()),))
    assert not verify_proof_detailed(assumed, [goal], goal, sig)[0]
    with pytest.raises(ValueError, match="x is a constant of two sorts, Agent and Goal"):
        satisfiable([goal], sig)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(predicate_problems())
@example((
    KNOWS_Q_SHADOW,
    [KNOWS_Q, Not(Atom(KNOWS_Q_SHADOW)), Or((Atom(KNOWS_Q_SHADOW), Not(Atom(KNOWS_Q_SHADOW))))],
    Atom("P", (Const("g1", GOAL),)),
))
def test_a_predicate_named_like_a_generated_name_is_refused_or_sound(problem):
    pred, fs, goal = problem
    spoofed = (SHADOW_NAME.fullmatch(pred) or SKOLEM_NAME.fullmatch(pred)) and any(
        isinstance(g, Atom) and g.pred == pred for f in (*fs, goal) for g in subformulas(f)
    )
    if spoofed:
        with pytest.raises(ValueError, match=pred):
            entails(fs, goal, SIG)
    try:
        r = prove(fs, goal, BUDGET, SIG)
    except ValueError:
        assert spoofed
        return
    if r.status == "proof":
        ok, reason = verify_proof_detailed(r.proof, fs, goal, SIG)
        if spoofed:
            assert reason == f"{pred} has the shape of a generated name"
        else:
            assert ok, reason
            assert entails(fs, goal, SIG)[0]
