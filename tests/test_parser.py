"""Surface syntax: parse/print round trips and diagnostics."""

from __future__ import annotations

import random

import pytest

from modalguard.parser import (
    MAX_NESTING,
    ParseError,
    parse_formula,
    parse_formulas,
    parse_term,
)
from modalguard.scenario import bundled_scenario_names, load_bundled_scenario, parse_scenario
from modalguard.syntax import (
    ACTION_TYPE,
    AGENT,
    BELIEVES,
    DESIRES,
    FLUENT,
    GOAL,
    INTENDS,
    KNOWS,
    MOMENT,
    OBLIGATED,
    PERCEIVES,
    SIGMA_DEFAULT,
    SITUATION,
    And,
    App,
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
    Var,
    print_formula,
    print_term,
)

N_RANDOM = 220


def round_trip_sig() -> Signature:
    sig = Signature()
    for a in ("a", "b", "a'"):
        sig.declare_constant(a, AGENT)
    sig.declare_constant("go", ACTION_TYPE)
    sig.declare_constant("wet", FLUENT)
    sig.declare_constant("g1", GOAL)
    sig.declare_function("happy", (AGENT,), FLUENT)
    sig.declare_predicate("P", (AGENT,))
    sig.declare_predicate("R", (AGENT, AGENT))
    sig.declare_predicate("rains", ())
    return sig


SIG = round_trip_sig()


class RandomFormulas:
    """Well-sorted random ASTs exercising every construct."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.var_names = ("x", "y", "z", "t'", "u")

    def term(self, sort: str, env: list[Var], depth: int):
        rng = self.rng
        scoped = [v for v in env if v.sort == sort]
        if scoped and rng.random() < 0.4:
            return rng.choice(scoped)
        if sort == AGENT:
            return Const(rng.choice(("a", "b", "a'")), AGENT)
        if sort == MOMENT:
            return Const(str(rng.randrange(4)), MOMENT)
        if sort == FLUENT:
            if depth > 0 and rng.random() < 0.5:
                return App("happy", (self.term(AGENT, env, depth - 1),), FLUENT)
            # g1 exercises the case of a Goal constant in a Fluent slot
            name = rng.choice(("wet", "g1"))
            return Const(name, GOAL if name == "g1" else FLUENT)
        raise AssertionError(sort)

    def atom(self, env: list[Var], depth: int) -> Atom:
        rng = self.rng
        kind = rng.choice(("P", "R", "rains", "holds", "happens", "prior"))
        if kind == "P":
            return Atom("P", (self.term(AGENT, env, depth),))
        if kind == "R":
            return Atom("R", (self.term(AGENT, env, depth),
                              self.term(AGENT, env, depth)))
        if kind == "rains":
            return Atom("rains", ())
        if kind == "holds":
            return Atom("holds", (self.term(FLUENT, env, depth),
                                  self.term(MOMENT, env, depth)))
        if kind == "happens":
            return Atom("happens", (Const("g1", GOAL),
                                    self.term(MOMENT, env, depth)))
        return Atom("prior", (self.term(MOMENT, env, depth),
                              self.term(MOMENT, env, depth)))

    def formula(self, env: list[Var], depth: int) -> Formula:
        rng = self.rng
        if depth <= 0:
            return self.atom(env, 0)
        pick = rng.randrange(9)
        if pick == 0:
            return self.atom(env, depth)
        if pick == 1:
            return Not(self.formula(env, depth - 1))
        if pick == 2:
            n = rng.randint(2, 3)
            return And(tuple(self.formula(env, depth - 1) for _ in range(n)))
        if pick == 3:
            n = rng.randint(2, 3)
            return Or(tuple(self.formula(env, depth - 1) for _ in range(n)))
        if pick == 4:
            return Implies(self.formula(env, depth - 1),
                           self.formula(env, depth - 1))
        if pick == 5:
            return Iff(self.formula(env, depth - 1),
                       self.formula(env, depth - 1))
        if pick in (6, 7):
            free = [n for n in self.var_names if all(v.name != n for v in env)]
            if not free:
                return self.atom(env, depth)
            v = Var(rng.choice(free), rng.choice((AGENT, MOMENT)))
            body = self.formula(env + [v], depth - 1)
            return (Forall if pick == 6 else Exists)(v, body)
        op = rng.choice((KNOWS, BELIEVES, DESIRES, INTENDS, PERCEIVES, OBLIGATED))
        agent = self.term(AGENT, env, depth)
        time = self.term(MOMENT, env, depth)
        body = self.formula(env, depth - 1)
        if op == OBLIGATED:
            return Modal(op, agent, time, body, Const(SIGMA_DEFAULT, SITUATION))
        return Modal(op, agent, time, body)


def test_random_formulas_round_trip():
    gen = RandomFormulas(seed=20260816)
    for i in range(N_RANDOM):
        f = gen.formula([], depth=1 + i % 4)
        SIG.check_formula(f)
        text = print_formula(f)
        back = parse_formula(text, SIG)
        assert back == f, text
        # printing is a fixed point
        assert print_formula(back) == text


def test_bundled_scenario_formulas_round_trip():
    for name in bundled_scenario_names():
        sc = load_bundled_scenario(name)
        assert sc.facts
        for f in sc.facts:
            assert parse_formula(print_formula(f), sc.sig) == f


def test_parse_term_round_trip():
    t = parse_term("(happy a')", SIG)
    assert print_term(t) == "(happy a')"
    assert t.sort == FLUENT


def test_integer_literals_are_moments():
    f = parse_formula("(prior 0 3)", SIG)
    assert f.args[0].sort == MOMENT
    assert print_formula(f) == "(prior 0 3)"


def test_quantifier_annotation_binds_sort():
    f = parse_formula("(forall x : Agent (P x))", SIG)
    assert f.var.sort == AGENT
    assert f.body.args[0] == Var("x", AGENT)


def test_obligated_accepts_three_or_four_arguments():
    short = parse_formula("(obligated a 1 (rains))", SIG)
    full = parse_formula("(obligated a 1 sigma_default (rains))", SIG)
    assert short == full
    assert print_formula(short) == "(obligated a 1 sigma_default (rains))"


@pytest.mark.parametrize("text, col, want", [
    ("(obligated 1 a (rains))", 12, "expected Agent, got Moment"),
    ("(obligated a a (rains))", 14, "expected Moment, got Agent"),
    ("(obligated 1 a sigma_default (rains))", 12, "expected Agent, got Moment"),
    ("(obligated a 1 go (rains))", 16, "expected Situation, got ActionType"),
    ("(obligated a 1 a (rains))", 16, "expected Situation, got Agent"),
])
def test_every_modal_argument_sort_is_checked(text, col, want):
    with pytest.raises(ParseError) as e:
        parse_formula(text, SIG)
    assert want in e.value.message
    assert (e.value.line, e.value.col) == (1, col)


def test_check_formula_checks_the_situation_sort():
    body = Atom("rains", ())
    f = Modal(OBLIGATED, Const("a", AGENT), Const("1", MOMENT), body, Const("go", ACTION_TYPE))
    with pytest.raises(SortError, match="Situation"):
        SIG.check_formula(f)
    SIG.check_formula(parse_formula("(obligated a 1 (rains))", SIG))


@pytest.mark.parametrize("name, shape", [
    ("b0", "b<digits>"),
    ("b17", "b<digits>"),
    ("h0", "h<digits>"),
    ("h3", "h<digits>"),
    ("sh_f080124340a4", "sh_"),
    ("sh_", "sh_"),
    ("sk_f778790efe_0", "sk_"),
])
@pytest.mark.parametrize("kind", ["constant", "function", "predicate"])
def test_generated_name_shapes_are_reserved(kind, name, shape):
    sig = Signature()
    declare = {
        "constant": lambda: sig.declare_constant(name, AGENT),
        "function": lambda: sig.declare_function(name, (AGENT,), FLUENT),
        "predicate": lambda: sig.declare_predicate(name, (AGENT,)),
    }[kind]
    with pytest.raises(SortError, match=f"{name} has the reserved shape {shape}"):
        declare()


def test_names_near_the_reserved_shapes_are_free():
    sig = Signature()
    for name in ("b", "bob", "b0x", "B0", "h", "h1'", "hx1", "sh", "shx", "x_sh_1", "sky"):
        sig.declare_constant(name, AGENT)


def test_a_scenario_declaring_a_reserved_shape_is_refused():
    with pytest.raises(SortError, match="h0 has the reserved shape h<digits>"):
        parse_scenario(
            """
            (sorts (Sub Agent))
            (constants (h0 Agent) (go ActionType))
            (horizon 1)
            (hierarchy (categories forbidden neutral))
            (request h0 go 0)
            """,
            "reserved",
        )


def test_single_part_and_collapses():
    assert parse_formula("(and (rains))", SIG) == Atom("rains", ())


def test_parse_formulas_reads_a_sequence():
    fs = parse_formulas("(rains)\n(P a)  (P b)", SIG)
    assert [print_formula(f) for f in fs] == ["(rains)", "(P a)", "(P b)"]


def test_comments_are_ignored():
    fs = parse_formulas("; a remark\n(rains) ; trailing\n", SIG)
    assert len(fs) == 1


@pytest.mark.parametrize("text", [
    "(P a",
    "(P a))",
    "()",
    "rains",
    "(P zzz)",
    "(forall x (P x))",
    "(forall x : Nope (P x))",
    "(knows a (rains))",
    "(not (rains) (rains))",
    "(iff (rains))",
])
def test_malformed_input_raises_parse_error(text):
    with pytest.raises(ParseError):
        parse_formula(text, SIG)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_formula("(P\n  zzz)", SIG)
    assert e.value.line == 2
    assert e.value.col == 3


@pytest.mark.parametrize("depth", [600, 2000])
def test_deep_nesting_is_a_parse_error_at_the_offending_paren(depth):
    with pytest.raises(ParseError) as e:
        parse_formula("(not " * depth + "(rains)" + ")" * depth, SIG)
    assert (e.value.line, e.value.col) == (1, 1 + len("(not ") * MAX_NESTING)


def test_sort_mismatch_is_a_parse_error_with_location():
    with pytest.raises(ParseError) as e:
        parse_formula("(P 3)", SIG)
    assert "Agent" in str(e.value)


def test_unknown_predicate_rejected():
    with pytest.raises((ParseError, SortError)):
        parse_formula("(mystery a)", SIG)
