"""Core term and formula layer: sorts, printing, alpha handling."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st
from corpus import binder_names, subformulas, substitute, term_names
from test_parser import RandomFormulas, round_trip_sig

from modalguard.parser import ParseError, parse_formula

from modalguard.syntax import (
    ACTION_TYPE,
    AGENT,
    EVENT,
    FALSUM,
    FLUENT,
    GOAL,
    KNOWS,
    MOMENT,
    SIGMA_DEFAULT,
    SITUATION,
    And,
    App,
    Atom,
    Const,
    Exists,
    Forall,
    Implies,
    Modal,
    Not,
    Or,
    Signature,
    SortError,
    Var,
    alpha_equivalent,
    bind,
    canonical_key,
    conj,
    free_vars,
    is_moment_literal,
    match_term,
    moment,
    moment_value,
    obligated,
    print_formula,
    print_term,
    symbol_names,
)

A = Const("a", AGENT)
B = Const("b", AGENT)
X = Var("x", AGENT)
Y = Var("y", AGENT)
RAINS = Atom("rains", ())


def base_sig() -> Signature:
    sig = Signature()
    sig.declare_constant("a", AGENT)
    sig.declare_constant("b", AGENT)
    sig.declare_constant("g", GOAL)
    sig.declare_constant("go", ACTION_TYPE)
    sig.declare_predicate("rains", ())
    sig.declare_predicate("P", (AGENT,))
    sig.declare_predicate("R", (AGENT, AGENT))
    return sig


def test_builtin_sorts_present():
    sig = Signature()
    for s in ("Agent", "Moment", "ActionType", "Event", "Action",
              "Fluent", "Boolean", "Goal", "Situation"):
        assert s in sig.sorts
    assert sig.sorts["Action"] == ("Event",)
    assert set(sig.sorts["Goal"]) == {"Event", "Fluent"}


def test_widens_follows_sort_parents():
    sig = Signature()
    assert sig.widens("Goal", "Fluent")
    assert sig.widens("Goal", "Event")
    assert sig.widens("Action", "Event")
    assert sig.widens("Agent", "Agent")
    assert not sig.widens("Agent", "Event")
    assert not sig.widens("Event", "Action")


def test_goal_usable_as_fluent_and_event():
    sig = base_sig()
    g = Const("g", GOAL)
    assert parse_formula("(holds g 1)", sig) == Atom("holds", (g, moment(1)))
    assert parse_formula("(happens g 1)", sig) == Atom("happens", (g, moment(1)))


def test_action_not_usable_as_fluent():
    sig = base_sig()
    act = App("action", (A, Const("go", ACTION_TYPE)), "Action")
    assert parse_formula("(happens (action a go) 1)", sig) == Atom("happens", (act, moment(1)))
    with pytest.raises(ParseError, match="expected Fluent, got Action"):
        parse_formula("(holds (action a go) 1)", sig)


def test_unknown_predicate_rejected():
    sig = base_sig()
    with pytest.raises(ParseError, match="unknown predicate nosuch"):
        parse_formula("(nosuch)", sig)


def test_arity_mismatch_rejected():
    sig = base_sig()
    with pytest.raises(ParseError, match="predicate P takes 1 arguments, got 2"):
        parse_formula("(P a b)", sig)


def test_duplicate_declarations_rejected():
    sig = base_sig()
    with pytest.raises(SortError):
        sig.declare_constant("a", AGENT)
    with pytest.raises(SortError):
        sig.declare_sort("Agent")
    with pytest.raises(SortError):
        sig.declare_predicate("P", (AGENT,))


def test_reserved_words_rejected_as_names():
    sig = Signature()
    for w in ("forall", "exists", "and", "not", "knows"):
        with pytest.raises(SortError):
            sig.declare_constant(w, AGENT)


def test_moment_literals():
    m = moment(7)
    assert m.sort == MOMENT
    assert is_moment_literal(m)
    assert moment_value(m) == 7
    assert print_term(m) == "7"
    assert not is_moment_literal(A)


@pytest.mark.parametrize("name", ["\u0661", "\u00b2", "1\u0661"])
def test_only_ascii_digits_make_a_moment_literal(name):
    # str.isdigit takes these; int() reads the first two as 1 and 2
    c = Const(name, MOMENT)
    assert not is_moment_literal(c)
    with pytest.raises(SortError):
        moment_value(c)


def test_print_term_nested_application():
    t = App("action", (A, Const("go", ACTION_TYPE)), "Action")
    assert print_term(t) == "(action a go)"
    assert print_term(A) == "a"


def test_print_formula_connectives():
    f = Implies(And((RAINS, Not(Atom("p", ())))), Or((RAINS, FALSUM)))
    assert print_formula(f) == "(implies (and (rains) (not (p))) (or (rains) (false)))"


def test_print_modal_and_quantifier():
    f = Forall(X, Modal(KNOWS, X, moment(1), Atom("P", (X,))))
    assert print_formula(f) == "(forall x : Agent (knows x 1 (P x)))"


def test_obligated_helper_carries_situation():
    f = obligated(A, moment(1), Const(SIGMA_DEFAULT, SITUATION), Not(RAINS))
    assert f.situation is not None
    assert print_formula(f) == "(obligated a 1 sigma_default (not (rains)))"


def test_conj_flattening():
    assert print_formula(conj([RAINS])) == "(rains)"
    assert print_formula(conj([RAINS, FALSUM])) == "(and (rains) (false))"
    with pytest.raises(ValueError):
        conj([])


def test_free_vars_respect_binders():
    f = Implies(Atom("P", (X,)), Exists(X, Atom("P", (X,))))
    assert {v.name for v in free_vars(f)} == {"x"}
    g = Forall(X, Atom("R", (X, Y)))
    assert {v.name for v in free_vars(g)} == {"y"}


def test_substitute_renames_capturing_binder():
    f = Forall(Y, Atom("R", (X, Y)))
    g = substitute(f, {X: Y})
    # the binder must move out of the way of the free y we substituted in
    assert print_formula(g) == "(forall y' : Agent (R y y'))"


def test_substitute_checks_sorts():
    f = Atom("P", (X,))
    with pytest.raises(SortError):
        substitute(f, {X: moment(1)})


def test_alpha_equivalence_and_canonical_key():
    f = Forall(X, Implies(Atom("P", (X,)), Exists(Y, Atom("R", (X, Y)))))
    g = Forall(Y, Implies(Atom("P", (Y,)), Exists(X, Atom("R", (Y, X)))))
    assert alpha_equivalent(f, g)
    assert canonical_key(f) == canonical_key(g)
    h = Forall(X, Implies(Atom("P", (X,)), Exists(Y, Atom("R", (Y, X)))))
    assert not alpha_equivalent(f, h)
    assert canonical_key(f) != canonical_key(h)


def test_alpha_equivalence_tells_variables_from_constants_and_binders():
    # a free variable keys apart from a constant of its name, so neither
    # the prover nor the proof checker takes one for the other
    b_var = Var("b", AGENT)
    assert canonical_key(Atom("P", (b_var,))) != canonical_key(Atom("P", (B,)))
    assert not alpha_equivalent(Atom("P", (b_var,)), Atom("P", (B,)))
    assert not alpha_equivalent(Atom("P", (b_var,)), Atom("P", (Var("b", GOAL),)))
    assert alpha_equivalent(Atom("P", (b_var,)), Atom("P", (Var("b", AGENT),)))
    # nor a constant or a free variable named like a numbered binder
    for b0 in (Const("b0", AGENT), Var("b0", AGENT)):
        f = Forall(X, Atom("R", (X, X)))
        g = Forall(X, Atom("R", (X, b0)))
        assert canonical_key(f) != canonical_key(g)
        assert not alpha_equivalent(f, g)


def test_canonical_key_parses_back_to_itself():
    sig = round_trip_sig()
    for seed in range(300):
        f = RandomFormulas(seed).formula([], 1 + seed % 5)
        key = canonical_key(f)
        assert canonical_key(parse_formula(key, sig)) == key, seed


# sha256 over canonical_key(f) and print_formula(f) for RandomFormulas
# seeds 0-4999 at depth 5.  Shadow names, skolem names and proofs are
# printed through these two, so they must not drift.
KEY_PRINT_DIGEST = "c3b813651bd2ed2f9334727a2e94b29b1dc40e9728ada4051dc82a4598ef2008"


def test_keys_and_prints_match_the_recorded_digest():
    h = hashlib.sha256()
    for seed in range(5000):
        f = RandomFormulas(seed).formula([], 5)
        h.update((canonical_key(f) + "\n" + print_formula(f) + "\n").encode())
    assert h.hexdigest() == KEY_PRINT_DIGEST


def test_named_free_variables_key_as_constants_of_those_names():
    # the names clash with a constant, the variable itself, a canonical
    # binder name and a binder name the generator uses
    names = ("a", "x", "b0", "y")
    mismatches = []
    for seed in range(3000):
        x = Var("x", (AGENT, MOMENT)[seed // 4 % 2])
        f = RandomFormulas(seed).formula([x], 1 + seed % 5)
        n = names[seed % 4]
        c = Const(n, x.sort)
        if canonical_key(f, {x: c}) != canonical_key(substitute(f, {x: c})):
            mismatches.append(seed)
    assert mismatches == []
    # a binder of the named variable hides the name in its scope, and
    # binders are numbered outermost first
    f = And((Forall(X, Exists(Y, Atom("R", (X, Y)))), Atom("P", (X,))))
    assert canonical_key(f, {X: Const("n", AGENT)}) == (
        "(and (forall b0 : Agent (exists b1 : Agent (R b0 b1))) (P n))"
    )


# what to put for x, per sort of x: constants named like a constant, a
# binder the generator draws (so capture-avoiding substitution renames
# it), a key's binder and a hole; variables named like generator
# binders and a key's binder; a Goal for a Fluent; and a term that holds
# a variable the generator binds
PUT_FOR_X = {
    AGENT: (Const("a", AGENT), Const("y", AGENT), Const("u", AGENT), Const("b0", AGENT),
            Const("h0", AGENT), Var("y", AGENT), Var("u", AGENT), Var("b0", AGENT)),
    MOMENT: (Const("2", MOMENT), Const("z", MOMENT), Var("z", MOMENT), Var("t'", MOMENT)),
    FLUENT: (Const("wet", FLUENT), Const("g1", GOAL), Var("y", FLUENT),
             App("happy", (Var("y", AGENT),), FLUENT)),
}
PUT_SIG = round_trip_sig()


def binder_names(f) -> set[str]:
    return {g.var.name for g in subformulas(f) if isinstance(g, (Forall, Exists))}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.sampled_from(sorted(PUT_FOR_X)), st.data())
def test_a_key_with_a_term_in_place_is_the_key_of_the_substitution(seed, depth, sort, data):
    x = Var("x", sort)
    t = data.draw(st.sampled_from(PUT_FOR_X[sort]))
    f = RandomFormulas(seed).formula([x], depth)
    assert canonical_key(f, {x: t}) == canonical_key(substitute(f, {x: t}, PUT_SIG))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.sampled_from(sorted(PUT_FOR_X)), st.data())
def test_binding_a_constant_is_substituting_it_up_to_binder_names(seed, depth, sort, data):
    x = Var("x", sort)
    c = data.draw(st.sampled_from([t for t in PUT_FOR_X[sort] if isinstance(t, Const)]))
    f = RandomFormulas(seed).formula([x], depth)
    bound, substituted = bind(f, {x: c}), substitute(f, {x: c}, PUT_SIG)
    assert canonical_key(bound) == canonical_key(substituted)
    # substitution renames a binder only when it has the constant's name
    if c.name not in binder_names(f):
        assert bound == substituted


def test_binding_leaves_a_binder_named_like_the_constant():
    f = Forall(Y, Atom("R", (X, Y)))
    y = Const("y", AGENT)
    assert print_formula(bind(f, {X: y})) == "(forall y : Agent (R y y))"
    assert print_formula(substitute(f, {X: y})) == "(forall y' : Agent (R y y'))"
    assert canonical_key(bind(f, {X: y})) == canonical_key(substitute(f, {X: y}))
    # a binder of the variable hides it
    assert bind(Forall(X, Atom("P", (X,))), {X: y}) == Forall(X, Atom("P", (X,)))


# names only a formula built in Python can hold: a binder's shape, the
# key prints of a binder-shaped constant ('b0), a free variable
# (?x:Agent) and a quoted name ("a"), the empty name, reserved words and
# the quote and escape characters; "a" is plain
ODD_NAMES = ("a", "b0", "'b0", "?x:Agent", '"a"', "#", "", "not", "knows", "x y", "\\", '"')


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(ODD_NAMES) | st.text(max_size=6), min_size=2, max_size=2, unique=True))
def test_distinct_names_give_distinct_keys(names):
    n, m = names
    # every place a key prints a name: a constant, a given name, a
    # predicate, a function, a free variable's name and sort, a binder's sort
    places = (
        lambda s: Atom("P", (Const(s, AGENT),)),
        lambda s: canonical_key(Atom("P", (X,)), {X: Const(s, AGENT)}),
        lambda s: Atom(s, (A,)),
        lambda s: Atom("P", (App(s, (A,), AGENT),)),
        lambda s: Atom("P", (Var(s, AGENT),)),
        lambda s: Atom("P", (Var("x", s),)),
        lambda s: Forall(Var("x", s), Atom("P", (Var("x", s),))),
    )
    key = lambda f: f if isinstance(f, str) else canonical_key(f)
    for place in places:
        assert key(place(n)) != key(place(m))
    # a constant prints as neither a free variable nor a binder
    bound = canonical_key(Forall(X, Atom("R", (X, X))))
    for s in names:
        const = canonical_key(Atom("P", (Const(s, AGENT),)))
        assert all(const != canonical_key(Atom("P", (Var(t, AGENT),))) for t in names)
        assert canonical_key(Forall(X, Atom("R", (X, Const(s, AGENT))))) != bound


def test_a_predicate_named_like_an_operator_keys_apart_from_it():
    atom = Atom(KNOWS, (A, moment(1), App("rains", (), FLUENT)))
    assert print_formula(atom) == print_formula(Modal(KNOWS, A, moment(1), RAINS))
    assert canonical_key(atom) != canonical_key(Modal(KNOWS, A, moment(1), RAINS))
    assert canonical_key(Atom("P", (B,))) == "(P b)"


def test_falsum_prints_as_false():
    assert print_formula(FALSUM) == "(false)"


# ---------------------------------------------------------------------------
# symbol names and one-way matching


def test_symbol_names_cover_terms_but_not_predicates():
    k = Var("k", AGENT)
    f = Forall(
        X,
        Implies(
            Atom("R", (X, App("boss", (B,), AGENT))),
            Exists(
                k,
                Modal(
                    KNOWS,
                    k,
                    App("later", (moment(2),), MOMENT),
                    Not(obligated(A, moment(1), Const("s1", SITUATION), RAINS)),
                ),
            ),
        ),
    )
    assert symbol_names(f) == {"x", "boss", "b", "k", "later", "2", "a", "1", "s1"}
    assert symbol_names(RAINS) == set()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_symbol_names_are_the_term_names_and_the_binder_names(seed, depth):
    f = RandomFormulas(seed).formula([], depth)
    assert symbol_names(f) == term_names(f) | binder_names(f)


def test_match_term_rejects_arity_mismatch_and_narrowing_sorts():
    sig = base_sig()
    g = Const("g", GOAL)
    assert match_term(App("f", (X,), AGENT), App("f", (A, B), AGENT), {}, sig) is None
    # a Goal widens to an Event, but an Event does not narrow to a Goal
    assert match_term(Var("e", EVENT), g, {}, sig) == {Var("e", EVENT): g}
    assert match_term(Var("v", GOAL), Const("pour", EVENT), {}, sig) is None


def test_match_term_binds_a_repeated_variable_consistently():
    sig = base_sig()
    pattern = App("pair", (X, X), AGENT)
    assert match_term(pattern, App("pair", (A, A), AGENT), {}, sig) == {X: A}
    assert match_term(pattern, App("pair", (A, B), AGENT), {}, sig) is None
    # bindings already in the substitution constrain the match
    assert match_term(X, A, {X: B}, sig) is None
