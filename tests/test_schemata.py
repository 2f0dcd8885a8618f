"""Modal inference schemata: closure contents and budget behavior."""

from __future__ import annotations

from modalguard import prover, schemata
from modalguard.guard import adjudication_theory, obligation_goal
from modalguard.parser import parse_formula, parse_formulas
from modalguard.scenario import load_bundled_scenario
from modalguard.schemata import (
    RULE_ASSUMPTION,
    RULE_S1,
    RULE_S2,
    RULE_S3,
    RULE_S4_JOIN,
    RULE_S4_SPLIT,
    expand_modal,
    harvest_join_targets,
)
from modalguard.syntax import AGENT, Signature, canonical_key, print_formula


def sig_with(*preds: str) -> Signature:
    sig = Signature()
    sig.declare_constant("a", AGENT)
    sig.declare_constant("b", AGENT)
    for p in preds:
        sig.declare_predicate(p, ())
    return sig


SIG = sig_with("p", "q", "r")


def forms(exp) -> set[str]:
    return {print_formula(f) for f in exp.formulas()}


def test_depth_zero_returns_inputs_only():
    fs = parse_formulas("(knows a 1 (p)) (q)", SIG)
    assert forms(expand_modal(fs, depth=0)) == {"(knows a 1 (p))", "(q)"}


def test_depth_one_exact_contents():
    fs = parse_formulas("(knows a 1 (p)) (knows a 1 (implies (p) (q)))", SIG)
    got = forms(expand_modal(fs, depth=1))
    assert got == {
        "(knows a 1 (p))",
        "(knows a 1 (implies (p) (q)))",
        "(p)",
        "(implies (p) (q))",
        "(believes a 1 (p))",
        "(believes a 1 (implies (p) (q)))",
        "(knows a 1 (q))",
    }


def test_depth_two_closes_the_derived_layer():
    fs = parse_formulas("(knows a 1 (p)) (knows a 1 (implies (p) (q)))", SIG)
    d2 = forms(expand_modal(fs, depth=2))
    assert "(q)" in d2
    assert "(believes a 1 (q))" in d2
    # fixpoint reached: extra depth adds nothing
    assert forms(expand_modal(fs, depth=3)) == d2
    assert forms(expand_modal(fs, depth=9)) == d2


def test_expansion_is_inflationary_and_monotone_in_depth():
    fs = parse_formulas(
        "(knows a 1 (knows b 1 (p))) (knows a 2 (implies (p) (q)))", SIG
    )
    seen = set()
    prev: set[str] = set()
    for d in range(5):
        cur = forms(expand_modal(fs, depth=d))
        assert {print_formula(f) for f in fs} <= cur
        assert prev <= cur
        prev = cur
        seen |= cur
    assert seen == prev


def test_expansion_monotone_in_assumptions():
    base = parse_formulas("(knows a 1 (p))", SIG)
    more = parse_formulas("(knows a 1 (p)) (knows a 1 (q))", SIG)
    assert forms(expand_modal(base, 2)) <= forms(expand_modal(more, 2))


def test_idempotent_on_its_own_output():
    fs = parse_formulas("(knows a 1 (p)) (knows a 1 (implies (p) (q)))", SIG)
    once = list(expand_modal(fs, depth=2).formulas())
    twice = expand_modal(once, depth=2)
    assert forms(twice) == {print_formula(f) for f in once}


def test_s4_split_on_conjunction_body():
    fs = parse_formulas("(knows a 1 (and (p) (q)))", SIG)
    got = forms(expand_modal(fs, depth=1))
    assert "(knows a 1 (p))" in got
    assert "(knows a 1 (q))" in got


def test_s4_join_requires_a_harvested_target():
    fs = parse_formulas("(knows a 1 (p)) (knows a 1 (q))", SIG)
    target = parse_formula("(knows a 1 (and (p) (q)))", SIG)
    without = forms(expand_modal(fs, depth=2))
    assert "(knows a 1 (and (p) (q)))" not in without
    with_t = forms(expand_modal(fs, depth=2, join_targets=[target]))
    assert "(knows a 1 (and (p) (q)))" in with_t


def test_harvest_finds_conjunction_bodied_epistemic_modals():
    fs = parse_formulas(
        "(not (knows a 1 (and (p) (q))))"
        "(knows a 1 (or (p) (r)))"
        "(desires a 1 (and (p) (q)))",
        SIG,
    )
    got = {print_formula(t) for t in harvest_join_targets(fs)}
    assert got == {"(knows a 1 (and (p) (q)))"}


def test_non_epistemic_operators_are_inert():
    fs = parse_formulas(
        "(obligated a 1 (p)) (desires a 1 (p))"
        "(intends a 1 (p)) (perceives a 1 (p))",
        SIG,
    )
    assert forms(expand_modal(fs, depth=3)) == {print_formula(f) for f in fs}


def test_nested_chain_needs_matching_depth():
    fs = parse_formulas("(knows a 1 (knows a 1 (knows a 1 (p))))", SIG)
    assert "(p)" not in forms(expand_modal(fs, depth=2))
    assert "(p)" in forms(expand_modal(fs, depth=3))


def test_records_carry_rule_and_premises():
    fs = parse_formulas("(knows a 1 (p)) (knows a 1 (implies (p) (q)))", SIG)
    exp = expand_modal(fs, depth=2)
    by_rule: dict[str, int] = {}
    keys = set(exp.records)
    for key, rec in exp.records.items():
        by_rule[rec.rule] = by_rule.get(rec.rule, 0) + 1
        assert canonical_key(rec.formula) == key
        for p in rec.premises:
            assert p in keys
        if rec.rule == RULE_ASSUMPTION:
            assert rec.depth == 0
            assert rec.premises == ()
        else:
            assert rec.depth >= 1
            assert rec.premises
    assert by_rule[RULE_ASSUMPTION] == 2
    assert RULE_S1 in by_rule
    assert RULE_S2 in by_rule
    assert RULE_S3 in by_rule


def test_split_and_join_rules_recorded():
    fs = parse_formulas("(knows a 1 (and (p) (q)))", SIG)
    exp = expand_modal(fs, depth=1)
    assert any(r.rule == RULE_S4_SPLIT for r in exp.records.values())
    fs = parse_formulas("(knows a 1 (p)) (knows a 1 (q))", SIG)
    target = parse_formula("(knows a 1 (and (p) (q)))", SIG)
    exp = expand_modal(fs, depth=1, join_targets=[target])
    assert any(r.rule == RULE_S4_JOIN for r in exp.records.values())


def test_truncation_is_recorded_only_for_refused_new_formulas():
    fs = parse_formulas("(knows a 1 (knows a 1 (knows a 1 (p))))", SIG)
    assert expand_modal(fs, depth=2).truncated
    assert not expand_modal(fs, depth=3).truncated
    assert not expand_modal(fs, depth=9).truncated
    # at depth 1, (p) and (believes a 1 (p)) are derived at depth 2 but
    # are already assumptions: refusing them loses nothing
    fs = parse_formulas("(knows a 1 (knows a 1 (p))) (p) (believes a 1 (p))", SIG)
    assert not expand_modal(fs, depth=1).truncated
    assert expand_modal(fs, depth=0).truncated


def test_seeded_keys_give_the_same_expansion():
    fs = parse_formulas(
        "(knows a 1 (and (p) (implies (p) (q)))) (knows a 1 (r)) (believes b 1 (p))",
        SIG,
    )
    plain = expand_modal(fs, depth=4)
    seeded = expand_modal(fs, depth=4, keys=[canonical_key(f) for f in fs])
    assert plain.records == seeded.records
    assert list(plain.records) == list(seeded.records)


def test_sim1_obligation_does_not_rekey_the_closure(monkeypatch):
    sc = load_bundled_scenario("sim1")
    assumptions, _ = adjudication_theory(sc)
    seeded: list = []
    keyed: list = []
    expanding = [False]

    def spy_expand(formulas, *args, **kwargs):
        seeded.extend(formulas)
        expanding[0] = True
        try:
            return expand_modal(formulas, *args, **kwargs)
        finally:
            expanding[0] = False

    def counting_key(f):
        if expanding[0]:
            keyed.append(f)
        return canonical_key(f)

    monkeypatch.setattr(prover, "expand_modal", spy_expand)
    monkeypatch.setattr(schemata, "canonical_key", counting_key)
    res = prover.prove(assumptions, obligation_goal(sc), sig=sc.sig)
    assert res.status == "proof"
    assert len(seeded) > 100
    assert keyed, "the counting binding is not reached"
    assert not [f for f in keyed if f in seeded]
    # within the expansion, each structurally distinct formula is keyed once
    assert len(keyed) == len(set(keyed))
