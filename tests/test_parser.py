"""Surface syntax: parse/print round trips and diagnostics."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from modalguard.parser import (
    MAX_NESTING,
    ParseError,
    parse_formula,
    parse_formulas,
    parse_term,
    SAtom,
    read_sexprs,
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


@pytest.mark.parametrize("name, shape", [
    ("b0", "b<digits>"),
    ("b17", "b<digits>"),
    ("h0", "h<digits>"),
    ("h3", "h<digits>"),
    ("sh_f080124340a4", "sh_"),
    ("sh_", "sh_"),
    ("sk_f778790efe_0", "sk_"),
    ("_", "_"),
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
    for name in ("b", "bob", "b0x", "B0", "h", "h1'", "hx1", "sh", "shx", "x_sh_1", "sky",
                 "_Agent", "__", "x_"):
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


@pytest.mark.parametrize("kind", ["constant", "function", "predicate"])
def test_a_name_starting_with_a_question_mark_is_reserved(kind):
    # a scenario's axioms read ?v as a variable; a constant ?v would take
    # its place there (a regex metacharacter, so not a row above)
    sig = Signature()
    declare = {
        "constant": lambda: sig.declare_constant("?v", AGENT),
        "function": lambda: sig.declare_function("?v", (AGENT,), FLUENT),
        "predicate": lambda: sig.declare_predicate("?v", (AGENT,)),
    }[kind]
    with pytest.raises(SortError, match=re.escape("?v has the reserved shape ?<anything>")):
        declare()


def test_a_scenario_declaring_a_question_mark_name_is_refused():
    with pytest.raises(SortError, match=re.escape("?v has the reserved shape")):
        parse_scenario(
            """
            (constants (?v Agent) (go ActionType))
            (functions (alive Agent Fluent))
            (axioms ((action ?v go) initiates (alive ?v)))
            (horizon 1)
            (hierarchy (categories forbidden neutral))
            (request ?v go 0)
            """,
            "reserved",
        )


def test_a_scenario_declaring_the_utility_wildcard_is_refused():
    # a declared constant _ was read as the wildcard in every utility
    # pattern, so (alive _) priced (alive victim) at 5 too
    with pytest.raises(SortError, match="_ has the reserved shape _"):
        parse_scenario(
            """
            (constants (_ Agent) (victim Agent) (go ActionType))
            (functions (alive Agent Fluent))
            (horizon 1)
            (hierarchy (categories forbidden neutral))
            (utilities ((alive _) pos 5) (gamma 0))
            (request victim go 0)
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


@pytest.mark.parametrize("text, message, line, col", [
    ("; a remark\n(P a)\n  (P !)", "unexpected character '!'", 3, 6),
    ("(P\t#)", "unexpected character '#'", 1, 4),
    ("(P a)\r\n  @", "unexpected character '@'", 2, 3),
    ("(P ? a)", "unexpected character '?'", 1, 4),
    ("(P a)\n )", "unbalanced )", 2, 2),
    ("((a)\n (b", "unclosed (", 2, 2),
    # every character is read before any list, so a bad character
    # anywhere wins over an error of nesting before it
    (")\n  (P a) $", "unexpected character '$'", 2, 9),
    # a moment literal is ASCII digits: other scripts' digits are no token
    ("(prior \u0661 2)", "unexpected character '\u0661'", 1, 8),
])
def test_every_reader_error_carries_its_position(text, message, line, col):
    with pytest.raises(ParseError) as e:
        read_sexprs(text)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


# The reader's alphabet: identifiers with ?, ' and -, ASCII digits, :
# and =, whitespace and comments between them, lists of them, and at
# most one stray character: !, or a lone paren.
READER_ATOMS = ("a", "x1", "?v", "b'", "c-d", "0", "17", ":", "=")
READER_GAPS = ("", " ", "\t", "\n", "; note\n", "; end")
READER_LISTS = st.recursive(
    st.builds(str.__add__, st.sampled_from(READER_ATOMS), st.sampled_from(READER_GAPS)),
    lambda inner: st.lists(inner, max_size=4).map(lambda xs: "(" + "".join(xs) + ")"),
    max_leaves=16,
)
READER_TEXTS = st.builds(
    lambda parts, stray, at: parts[:at] + stray + parts[at:],
    st.lists(READER_LISTS, min_size=1, max_size=3).map(" ".join),
    st.sampled_from(("", "", "!", "(", ")")),
    st.integers(0, 200),
)
SPEC_ATOM = re.compile(r"[0-9]+|\??[A-Za-z_][A-Za-z0-9_'-]*|[:=]")


def spec_atoms(text: str) -> list[str]:
    """The atoms of a text, by a spec apart from the reader's: drop the
    comments, cut at whitespace and parens, and split each piece into
    its longest atoms from the left."""
    pieces = re.split(r"[\s()]+", re.sub(r";[^\n]*", " ", text))
    return [a for piece in pieces for a in SPEC_ATOM.findall(piece)]


def nodes(trees):
    """Every node of the trees, in the order of the text."""
    for t in trees:
        yield t
        if not isinstance(t, SAtom):
            yield from nodes(t.items)


def shown(t) -> str:
    return t.text if isinstance(t, SAtom) else "(" + " ".join(shown(i) for i in t.items) + ")"


def shape(t):
    return t.text if isinstance(t, SAtom) else tuple(shape(i) for i in t.items)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(READER_TEXTS)
def test_the_reader_keeps_every_token_where_the_text_has_it(text):
    try:
        trees = read_sexprs(text)
    except ParseError:
        return
    lines = text.split("\n")
    for n in nodes(trees):
        at = lines[n.line - 1][n.col - 1:]
        assert at.startswith(n.text if isinstance(n, SAtom) else "("), (text, n.line, n.col)
    assert [n.text for n in nodes(trees) if isinstance(n, SAtom)] == spec_atoms(text)
    again = read_sexprs(" ".join(shown(t) for t in trees))
    assert [shape(t) for t in again] == [shape(t) for t in trees]


@pytest.mark.parametrize("depth", [600, 2000])
def test_deep_nesting_is_a_parse_error_at_the_offending_paren(depth):
    with pytest.raises(ParseError) as e:
        parse_formula("(not " * depth + "(rains)" + ")" * depth, SIG)
    assert (e.value.line, e.value.col) == (1, 1 + len("(not ") * MAX_NESTING)


def test_sort_mismatch_is_a_parse_error_with_location():
    with pytest.raises(ParseError) as e:
        parse_formula("(P 3)", SIG)
    assert "Agent" in str(e.value)


@pytest.mark.parametrize("text, line, col, want", [
    ("(P 3)", 1, 4, "expected Agent, got Moment"),
    ("(holds (happy 3) 1)", 1, 15, "expected Agent, got Moment"),
    ("(P (happy a))", 1, 4, "expected Agent, got Fluent"),
    ("(R a\n  (happy b))", 2, 3, "expected Agent, got Fluent"),
    ("(holds wet a)", 1, 12, "expected Moment, got Agent"),
])
def test_every_argument_sort_is_checked_at_the_argument(text, line, col, want):
    # predicate and function arguments, as the modal arguments above
    with pytest.raises(ParseError) as e:
        parse_formula(text, SIG)
    assert e.value.message == f"sort mismatch: {want}"
    assert (e.value.line, e.value.col) == (line, col)


def test_unknown_predicate_rejected():
    with pytest.raises((ParseError, SortError)):
        parse_formula("(mystery a)", SIG)
