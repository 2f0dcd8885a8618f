"""Core term and formula layer: sorts, printing, alpha handling."""

from __future__ import annotations

import hashlib

import pytest
from test_parser import RandomFormulas, round_trip_sig

from modalguard.parser import parse_formula

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
    canonical_key,
    conj,
    free_vars,
    is_moment_literal,
    match_term,
    maximal_modal_subformulas,
    moment,
    moment_value,
    obligated,
    print_formula,
    print_term,
    substitute,
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
    sig.check_formula(Atom("holds", (g, moment(1))))
    sig.check_formula(Atom("happens", (g, moment(1))))


def test_action_not_usable_as_fluent():
    sig = base_sig()
    act = App("action", (A, Const("go", ACTION_TYPE)), "Action")
    sig.check_formula(Atom("happens", (act, moment(1))))
    with pytest.raises(SortError):
        sig.check_formula(Atom("holds", (act, moment(1))))


def test_unknown_predicate_rejected():
    sig = base_sig()
    with pytest.raises(SortError):
        sig.check_formula(Atom("nosuch", ()))


def test_arity_mismatch_rejected():
    sig = base_sig()
    with pytest.raises(SortError):
        sig.check_formula(Atom("P", (A, B)))


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
        if canonical_key(f, {x: n}) != canonical_key(substitute(f, {x: Const(n, x.sort)})):
            mismatches.append(seed)
    assert mismatches == []
    # a binder of the named variable hides the name in its scope, and
    # binders are numbered outermost first
    f = And((Forall(X, Exists(Y, Atom("R", (X, Y)))), Atom("P", (X,))))
    assert canonical_key(f, {X: "n"}) == (
        "(and (forall b0 : Agent (exists b1 : Agent (R b0 b1))) (P n))"
    )


def test_maximal_modal_subformulas_stop_at_outermost():
    inner = Modal("believes", B, moment(1), RAINS)
    outer = Modal(KNOWS, A, moment(1), inner)
    assert maximal_modal_subformulas(outer) == [outer]
    both = Implies(outer, Not(Modal(KNOWS, B, moment(2), RAINS)))
    got = [print_formula(m) for m in maximal_modal_subformulas(both)]
    assert got == [
        "(knows a 1 (believes b 1 (rains)))",
        "(knows b 2 (rains))",
    ]


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
