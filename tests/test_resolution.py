"""Unification, binary resolution, factoring, subsumption, saturation."""

from __future__ import annotations

import itertools
import time

from hypothesis import given, settings, strategies as st

from modalguard.clauses import Clause, Literal, canonical_clause, clausify
from modalguard.parser import parse_formula
from modalguard.resolution import (
    factors,
    pure_clauses,
    resolvents,
    saturate,
    subsumes,
    unify_atoms,
    unify_terms,
)
from modalguard.syntax import AGENT, MOMENT, App, Atom, Const, Signature, Var


def make_sig() -> Signature:
    sig = Signature()
    sig.declare_constant("a", AGENT)
    sig.declare_constant("b", AGENT)
    sig.declare_predicate("P", (AGENT,))
    sig.declare_predicate("Q", (AGENT,))
    sig.declare_predicate("R", (AGENT, AGENT))
    sig.declare_predicate("p", ())
    sig.declare_predicate("q", ())
    return sig


SIG = make_sig()
A = Const("a", AGENT)
B = Const("b", AGENT)
X = Var("x", AGENT)
Y = Var("y", AGENT)


def cl(text: str) -> list[Clause]:
    return clausify(parse_formula(text, SIG))


def inputs(*texts: str) -> list[tuple[Clause, int]]:
    out = []
    for t in texts:
        for c in cl(t):
            out.append((c, len(out)))
    return out


def test_unify_variable_against_constant():
    s = unify_terms(X, A, {}, SIG)
    assert s == {X: A}


def test_unify_respects_bindings():
    s = unify_terms(X, A, {}, SIG)
    assert unify_terms(X, B, s, SIG) is None
    assert unify_terms(X, A, s, SIG) == s


def test_occurs_check():
    assert unify_terms(X, App("sk_f", (X,), AGENT), {}, SIG) is None


def test_unify_requires_compatible_sorts():
    assert unify_terms(Var("t", MOMENT), A, {}, SIG) is None


def test_unify_atoms_same_predicate_only():
    s = unify_atoms(Atom("P", (X,)), Atom("P", (A,)), SIG)
    assert s == {X: A}
    assert unify_atoms(Atom("P", (X,)), Atom("Q", (A,)), SIG) is None


def test_resolvents_ground_instance():
    rule = cl("(forall x : Agent (implies (P x) (Q x)))")[0]
    fact = cl("(P a)")[0]
    got = resolvents(rule, fact, SIG)
    assert len(got) == 1
    (lit,) = got[0].literals
    assert lit.positive and lit.atom == Atom("Q", (A,))


def test_resolvents_both_orientations():
    c1 = cl("(or (p) (q))")[0]
    c2 = cl("(or (not (p)) (not (q)))")[0]
    got = resolvents(c1, c2, SIG)
    # resolving on p leaves q | not q; on q leaves p | not p; both tautologies
    # may be kept or dropped by the caller, but resolution itself reports them
    assert len(got) == 2


def test_no_resolvents_without_complementary_pair():
    assert resolvents(cl("(P a)")[0], cl("(Q a)")[0], SIG) == []
    assert resolvents(cl("(P a)")[0], cl("(P b)")[0], SIG) == []


def test_factors_collapse_unifiable_literals():
    c = Clause((Literal(True, Atom("P", (X,))),
                Literal(True, Atom("P", (A,)))))
    got = factors(c, SIG)
    assert len(got) == 1
    assert got[0].literals == (Literal(True, Atom("P", (A,))),)


def test_factors_nothing_on_distinct_predicates():
    c = Clause((Literal(True, Atom("P", (X,))),
                Literal(True, Atom("Q", (X,)))))
    assert factors(c, SIG) == []


def test_subsumption():
    general = cl("(forall x : Agent (P x))")[0]
    specific = Clause((Literal(True, Atom("P", (A,))),
                       Literal(True, Atom("Q", (B,)))))
    assert subsumes(general, specific, SIG)
    assert not subsumes(specific, general, SIG)


def test_subsumption_respects_sign():
    pos = cl("(P a)")[0]
    neg = cl("(not (P a))")[0]
    assert not subsumes(pos, neg, SIG)


def test_saturate_finds_refutation():
    res = saturate(inputs(
        "(forall x : Agent (implies (P x) (Q x)))",
        "(P a)",
        "(not (Q a))",
    ), SIG)
    assert res.status == "refutation"
    assert res.empty_index is not None
    used = res.used_nodes()
    assert res.nodes[used[-1]].clause.literals == ()


def test_saturate_proof_dag_is_grounded_in_inputs():
    res = saturate(inputs(
        "(forall x : Agent (implies (P x) (Q x)))",
        "(P a)",
        "(not (Q a))",
    ), SIG)
    seen = set(res.used_nodes())
    for n in res.used_nodes():
        node = res.nodes[n]
        if node.rule == "input":
            assert node.parents == ()
            assert node.source is not None
        else:
            assert all(p in seen and p < n for p in node.parents)


def test_saturate_reports_saturation():
    res = saturate(inputs("(P a)", "(Q b)"), SIG)
    assert res.status == "saturated"
    assert res.empty_index is None


def test_saturate_respects_clause_budget():
    res = saturate(inputs(
        "(forall x : Agent (implies (P x) (Q x)))",
        "(P a)",
        "(not (Q a))",
    ), SIG, max_clauses=2)
    assert res.status == "budget"


def test_saturate_respects_deadline():
    # the clock is polled every few dozen steps, so feed it a long chain
    sig = make_sig()
    for i in range(61):
        sig.declare_predicate(f"C{i}", (AGENT,))
    texts = ["(C0 a)"] + [
        f"(forall x : Agent (implies (C{i} x) (C{i + 1} x)))"
        for i in range(60)
    ]
    ins: list[tuple[Clause, int]] = []
    for t in texts:
        for c in clausify(parse_formula(t, sig)):
            ins.append((c, len(ins)))
    res = saturate(ins, sig, deadline=time.monotonic() - 1.0)
    assert res.status == "budget"


def test_saturate_is_deterministic():
    texts = ("(forall x : Agent (implies (P x) (Q x)))",
             "(or (P a) (P b))",
             "(not (Q b))",
             "(not (Q a))")
    r1 = saturate(inputs(*texts), SIG)
    r2 = saturate(inputs(*texts), SIG)
    assert r1.status == r2.status == "refutation"
    assert r1.used_nodes() == r2.used_nodes()
    assert [str(r1.nodes[n].clause) for n in r1.used_nodes()] == \
        [str(r2.nodes[n].clause) for n in r2.used_nodes()]


def test_unit_conflict():
    res = saturate(inputs("(p)", "(not (p))"), SIG)
    assert res.status == "refutation"
    assert len(res.used_nodes()) == 3


# ---------------------------------------------------------------------------
# pure-literal deletion

REFUTABLE = (
    "(forall x : Agent (implies (P x) (Q x)))",
    "(P a)",
    "(not (Q a))",
)
# (R a b) never occurs negated, so the first clause is pure at once; the
# second turns pure only once the first, the one holder of (not (q)), is gone
PURE_CHAIN = ("(implies (q) (R a b))", "(or (q) (not (P b)))", "(R b a)")


def used_clauses(res) -> list[tuple[str, Clause]]:
    return [(res.nodes[n].rule, res.nodes[n].clause) for n in res.used_nodes()]


def shapes_of(ins: list[tuple[Clause, int]]) -> list[frozenset[tuple[str, bool]]]:
    return [frozenset((l.atom.pred, l.positive) for l in c.literals) for c, _ in ins]


def test_pure_deletion_repeats_until_nothing_changes():
    ins = inputs(*REFUTABLE, *PURE_CHAIN)
    assert pure_clauses(shapes_of(ins)) == {3, 4, 5}
    assert pure_clauses(shapes_of(inputs(*REFUTABLE))) == set()


def test_pure_inputs_leave_the_refutation_unchanged():
    base = saturate(inputs(*REFUTABLE), SIG)
    padded = saturate(inputs(*REFUTABLE, *PURE_CHAIN), SIG)
    assert base.status == padded.status == "refutation"
    assert used_clauses(padded) == used_clauses(base)
    # no inference ever takes a deleted input as a parent
    assert all(not {3, 4, 5} & set(node.parents) for node in padded.nodes)


def test_all_pure_inputs_saturate_without_inferences():
    ins = inputs(*PURE_CHAIN)
    res = saturate(ins, SIG, deadline=time.monotonic() + 60.0)
    assert res.status == "saturated"
    assert [node.rule for node in res.nodes] == ["input"] * len(ins)
    # an expired deadline is still reported, with nothing left to search
    assert saturate(ins, SIG, deadline=time.monotonic() - 1.0).status == "budget"


def test_pure_inputs_count_against_the_clause_budget():
    ins = inputs(*PURE_CHAIN)
    assert saturate(ins, SIG, max_clauses=len(ins)).status == "saturated"
    assert saturate(ins, SIG, max_clauses=len(ins) - 1).status == "budget"


GROUND_ATOMS = (
    Atom("p", ()),
    Atom("q", ()),
    Atom("P", (A,)),
    Atom("P", (B,)),
    Atom("R", (A, B)),
)
ground_clauses = st.lists(
    st.lists(st.builds(Literal, st.booleans(), st.sampled_from(GROUND_ATOMS)), max_size=3),
    max_size=8,
)


def satisfiable_by_truth_table(clauses: list[Clause]) -> bool:
    for values in itertools.product((False, True), repeat=len(GROUND_ATOMS)):
        model = dict(zip(GROUND_ATOMS, values))
        if all(any(model[l.atom] == l.positive for l in c.literals) for c in clauses):
            return True
    return False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ground_clauses)
def test_saturation_refutes_exactly_the_unsatisfiable_ground_sets(literal_lists):
    clauses = [canonical_clause(lits) for lits in literal_lists]
    res = saturate([(c, i) for i, c in enumerate(clauses)], SIG)
    assert res.status != "budget"
    assert (res.status == "refutation") == (not satisfiable_by_truth_table(clauses))


def test_saturate_keeps_a_variable_apart_from_a_constant_of_its_name():
    # (P V0) with the constant V0 must not stand in for (forall x (P x)),
    # the clause (P V0) with the variable V0; only the latter refutes (not (P b))
    const = canonical_clause([Literal(True, Atom("P", (Const("V0", AGENT),)))])
    var = canonical_clause([Literal(True, Atom("P", (X,)))])
    assert var.literals[0].atom.args == (Var("V0", AGENT),)
    goal = canonical_clause([Literal(False, Atom("P", (B,)))])
    res = saturate([(const, 0), (var, 1), (goal, 2)], SIG)
    assert res.status == "refutation"
    assert [res.nodes[n].rule for n in res.used_nodes()] == ["input", "input", "resolve"]
