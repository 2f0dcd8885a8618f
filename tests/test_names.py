"""Names a formula built in Python may hold change no proof's soundness.

A declared symbol may not spell a name the engine generates (binders
b<n>, shadow holes h<n>, shadow atoms sh_..., skolem symbols sk_...),
but a Const built in Python is not checked.  Small theories over such
constants, reserved words and arbitrary text, within the finite-model
oracle's bounds: every proof prove returns must pass verify_proof, and
the oracle must entail its goal.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings, strategies as st

from modalguard.models import entails
from modalguard.proofs import verify_proof_detailed
from modalguard.prover import Budget, prove
from modalguard.syntax import (
    ACTION,
    AGENT,
    BELIEVES,
    EVENT,
    GOAL,
    KNOWS,
    RESERVED_WORDS,
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
    moment,
)

# one declared constant per sort a formula quantifies over: the oracle
# reads a quantifier over a sort with no constant as vacuous
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
    modals only; of the others, half also assume that their last
    assumption implies the goal."""
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
