"""Clausification: CNF, skolemization, canonical clause forms."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from modalguard import clauses
from modalguard.clauses import (
    Clause,
    ClausifyLimit,
    Literal,
    _literal_shape,
    canonical_clause,
    clause_vars,
    clausify,
    is_tautology,
)
from modalguard.parser import parse_formula
from modalguard.syntax import AGENT, App, Atom, Const, Iff, Signature, Var


def make_sig() -> Signature:
    sig = Signature()
    sig.declare_constant("a", AGENT)
    sig.declare_constant("b", AGENT)
    for p in ("p", "q", "r"):
        sig.declare_predicate(p, ())
    sig.declare_predicate("P", (AGENT,))
    sig.declare_predicate("R", (AGENT, AGENT))
    return sig


SIG = make_sig()


def cl(text: str) -> list[Clause]:
    return clausify(parse_formula(text, SIG))


def lits(c: Clause) -> set[tuple[bool, str]]:
    return {(l.positive, l.atom.pred) for l in c.literals}


def test_implication_becomes_one_clause():
    cs = cl("(implies (p) (q))")
    assert len(cs) == 1
    assert lits(cs[0]) == {(False, "p"), (True, "q")}


def test_iff_becomes_two_clauses():
    cs = cl("(iff (p) (q))")
    assert len(cs) == 2
    assert {frozenset(lits(c)) for c in cs} == {
        frozenset({(False, "p"), (True, "q")}),
        frozenset({(False, "q"), (True, "p")}),
    }


def test_conjunction_splits():
    cs = cl("(and (p) (q))")
    assert [lits(c) for c in cs] == [{(True, "p")}, {(True, "q")}]


def test_disjunction_distributes_over_conjunction():
    cs = cl("(or (p) (and (q) (r)))")
    assert {frozenset(lits(c)) for c in cs} == {
        frozenset({(True, "p"), (True, "q")}),
        frozenset({(True, "p"), (True, "r")}),
    }


def test_universal_variables_renamed_canonically():
    c = cl("(forall x : Agent (P x))")[0]
    (lit,) = c.literals
    assert lit.atom.args == (Var("V0", AGENT),)
    assert clause_vars(c) == [Var("V0", AGENT)]


def test_existential_skolemizes_to_constant():
    c = cl("(exists x : Agent (P x))")[0]
    (lit,) = c.literals
    sk = lit.atom.args[0]
    assert isinstance(sk, Const)
    assert sk.name.startswith("sk_")
    assert sk.sort == AGENT


def test_skolem_under_universal_becomes_function():
    c = cl("(forall x : Agent (exists y : Agent (R x y)))")[0]
    (lit,) = c.literals
    x, fy = lit.atom.args
    assert isinstance(x, Var)
    assert isinstance(fy, App)
    assert fy.fn.startswith("sk_")
    assert fy.args == (x,)


def test_alpha_variants_share_skolem_names():
    a = cl("(exists x : Agent (P x))")
    b = cl("(exists y : Agent (P y))")
    assert a == b


def test_negated_existential_is_a_universal_clause():
    c = cl("(not (exists x : Agent (P x)))")[0]
    (lit,) = c.literals
    assert not lit.positive
    assert isinstance(lit.atom.args[0], Var)


def test_tautologies_are_dropped():
    assert cl("(or (p) (not (p)))") == []
    assert cl("(implies (p) (p))") == []


def test_is_tautology_direct():
    p = Atom("p", ())
    assert is_tautology(Clause((Literal(True, p), Literal(False, p))))
    assert not is_tautology(Clause((Literal(True, p),)))


def test_canonical_clause_dedups_and_orders():
    p = Atom("P", (Var("zz", AGENT),))
    c = canonical_clause([Literal(True, p), Literal(True, p)])
    assert len(c.literals) == 1
    assert clause_vars(c) == [Var("V0", AGENT)]


def test_duplicate_literal_collapse_via_clausify():
    cs = cl("(or (p) (p))")
    assert len(cs) == 1
    assert len(cs[0].literals) == 1


def test_nested_negation_normalizes():
    cs = cl("(not (not (p)))")
    assert [lits(c) for c in cs] == [{(True, "p")}]


def test_negated_conjunction_de_morgan():
    cs = cl("(not (and (p) (q)))")
    assert len(cs) == 1
    assert lits(cs[0]) == {(False, "p"), (False, "q")}


def test_deterministic_order():
    a = cl("(and (implies (p) (q)) (iff (q) (r)) (forall x : Agent (P x)))")
    b = cl("(and (implies (p) (q)) (iff (q) (r)) (forall x : Agent (P x)))")
    assert a == b


def test_no_salt_is_computed_without_a_skolem(monkeypatch):
    def refuse(f):
        raise AssertionError("salt computed for a formula with no existential")

    monkeypatch.setattr(clauses, "canonical_key", refuse)
    for text in (
        "(and (implies (p) (q)) (iff (q) (r)))",
        "(forall x : Agent (implies (P x) (forall y : Agent (R x y))))",
        "(not (exists x : Agent (P x)))",
    ):
        assert cl(text)
    with pytest.raises(AssertionError, match="salt computed"):
        cl("(exists x : Agent (P x))")


def test_ground_clause_is_ordered_by_print():
    a, b = Const("a", AGENT), Const("b", AGENT)
    c = canonical_clause([
        Literal(True, Atom("R", (b, a))),
        Literal(False, Atom("P", (a,))),
        Literal(True, Atom("P", (b,))),
        Literal(False, Atom("P", (a,))),
    ])
    assert [l.key() for l in c.literals] == ["(P b)", "(R b a)", "(not P a)"]


def test_skolem_names_are_stable():
    # the checker recomputes these names, so they must not drift
    got = [
        [" | ".join(l.key() for l in c.literals) for c in cl(text)]
        for text in (
            "(forall x : Agent (exists y : Agent (R x y)))",
            "(and (exists x : Agent (P x))"
            " (not (forall y : Agent (exists z : Agent (R y z)))))",
        )
    ]
    assert got == [
        ["(R V0 (sk_7c932e0db6_0 V0))"],
        ["(P sk_5d25cbae50_0)", "(not R sk_5d25cbae50_1 V0)"],
    ]


def iff_chain(depth: int) -> Iff:
    """(iff (p) (iff (p) ... (p))) with depth iffs."""
    f = Atom("p")
    for _ in range(depth):
        f = Iff(Atom("p"), f)
    return f


def test_clausify_stops_at_its_budget():
    # seven iffs distribute into more literal lists than the budget
    with pytest.raises(ClausifyLimit):
        clausify(iff_chain(7), max_clauses=200000)
    # twenty-four double the NNF walk past its cap before distribution
    # starts, whatever the clause budget
    with pytest.raises(ClausifyLimit):
        clausify(iff_chain(24))


def test_clausify_stops_at_its_deadline():
    with pytest.raises(ClausifyLimit):
        clausify(iff_chain(2), deadline=time.monotonic() - 1)
    # without limits, as the proof checker calls it, nothing changes
    later = time.monotonic() + 60
    assert clausify(iff_chain(2)) == clausify(iff_chain(2), deadline=later, max_clauses=10**6)


# ---------------------------------------------------------------------------
# one clause identity: the canonical clause

# variables and constants share the names V0 and V1, which a canonical
# clause also gives its variables
_TERMS = (
    Var("V0", AGENT), Var("V1", AGENT), Var("x", AGENT),
    Const("V0", AGENT), Const("V1", AGENT), Const("a", AGENT),
)
_terms = st.recursive(
    st.sampled_from(_TERMS),
    lambda sub: st.builds(lambda t: App("f", (t,), AGENT), sub),
    max_leaves=2,
)
_literals = st.builds(
    Literal,
    st.booleans(),
    st.one_of(
        st.builds(lambda t: Atom("P", (t,)), _terms),
        st.builds(lambda s, t: Atom("R", (s, t)), _terms, _terms),
    ),
)


def substituted(lits, mapping) -> list[Literal]:
    return [l.substituted(mapping) for l in lits]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(_literals, min_size=1, max_size=5), st.data())
def test_canonical_clause_is_one_identity(lits, data):
    c = canonical_clause(lits)
    assert canonical_clause(data.draw(st.permutations(lits))) == c
    found = clause_vars(Clause(tuple(lits)))
    apart = {v: Var(v.name + "r", v.sort) for v in found}
    assert canonical_clause(substituted(lits, apart)) == c
    for v in found:
        assert canonical_clause(substituted(lits, {v: Const(v.name, v.sort)})) != c
    # literals that print alike come out in the order of their shapes
    assert list(c.literals) == sorted(c.literals, key=lambda l: (l.key(), _literal_shape(l)))


def test_a_variable_is_never_a_constant_of_its_name():
    var = Literal(True, Atom("P", (Var("V0", AGENT),)))
    const = Literal(True, Atom("P", (Const("V0", AGENT),)))
    c = canonical_clause([var, const])
    assert len(c.literals) == 2
    assert c.literals == (const, var)  # the constant's shape sorts first
    assert not is_tautology(Clause((var, const.negated())))
    assert is_tautology(Clause((var, var.negated())))


def test_sorts_count_in_the_clause_identity():
    agent = canonical_clause([Literal(True, Atom("P", (Var("x", AGENT),)))])
    other = canonical_clause([Literal(True, Atom("P", (Var("x", "Sub"),)))])
    assert agent != other
    assert [l.key() for l in agent.literals] == [l.key() for l in other.literals]


def test_clausify_keeps_a_constant_and_a_variable_printed_alike():
    sig = make_sig()
    sig.declare_constant("V0", AGENT)
    f = parse_formula("(and (P V0) (forall x : Agent (P x)))", sig)
    assert clausify(f) == [
        Clause((Literal(True, Atom("P", (Const("V0", AGENT),))),)),
        Clause((Literal(True, Atom("P", (Var("V0", AGENT),))),)),
    ]
