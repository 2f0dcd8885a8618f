"""Core term and formula layer: sorts, printing, alpha handling."""

from __future__ import annotations

import pytest

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
    alpha_normal,
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


def test_alpha_normal_is_stable():
    f = Forall(X, Exists(Y, Atom("R", (X, Y))))
    n1 = alpha_normal(f)
    assert alpha_normal(n1) == n1


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
