"""Modal inference schemata: closure contents and budget behavior."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st
from test_parser import RandomFormulas
from test_prover import sim1_normed_idle

from modalguard import prover, schemata
from modalguard.guard import adjudication_theory, obligation_goal
from modalguard.parser import parse_formula, parse_formulas
from modalguard.scenario import load_bundled_scenario, parse_scenario
from modalguard.schemata import (
    RULE_ASSUMPTION,
    RULE_S1,
    RULE_S2,
    RULE_S3,
    RULE_S4_JOIN,
    RULE_S4_SPLIT,
    assumed,
    expand_modal,
    harvest_join_targets,
)
from modalguard.syntax import (
    AGENT,
    And,
    BELIEVES,
    Const,
    Implies,
    KNOWS,
    Modal,
    Signature,
    canonical_key,
    print_formula,
)


def sig_with(*preds: str) -> Signature:
    sig = Signature()
    sig.declare_constant("a", AGENT)
    sig.declare_constant("b", AGENT)
    for p in preds:
        sig.declare_predicate(p, ())
    return sig


SIG = sig_with("p", "q", "r")


def expand(fs, depth, join_targets=None):
    """Close assumption records of fs with expand_modal; the join targets
    are harvested from fs unless given.  Returns the records and whether
    the expansion was truncated."""
    if join_targets is None:
        targets = harvest_join_targets(fs)
    else:
        targets = {canonical_key(t): t for t in join_targets}
    records = assumed(fs)
    truncated = expand_modal(records, depth, targets)
    return records, truncated


def forms(expanded) -> set[str]:
    records, _ = expanded
    return {print_formula(d.formula) for d in records.values()}


def test_depth_zero_returns_inputs_only():
    fs = parse_formulas("(knows a 1 (p)) (q)", SIG)
    assert forms(expand(fs, depth=0)) == {"(knows a 1 (p))", "(q)"}


def test_depth_one_exact_contents():
    fs = parse_formulas("(knows a 1 (p)) (knows a 1 (implies (p) (q)))", SIG)
    got = forms(expand(fs, depth=1))
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
    d2 = forms(expand(fs, depth=2))
    assert "(q)" in d2
    assert "(believes a 1 (q))" in d2
    # fixpoint reached: extra depth adds nothing
    assert forms(expand(fs, depth=3)) == d2
    assert forms(expand(fs, depth=9)) == d2


def test_expansion_is_inflationary_and_monotone_in_depth():
    fs = parse_formulas(
        "(knows a 1 (knows b 1 (p))) (knows a 2 (implies (p) (q)))", SIG
    )
    seen = set()
    prev: set[str] = set()
    for d in range(5):
        cur = forms(expand(fs, depth=d))
        assert {print_formula(f) for f in fs} <= cur
        assert prev <= cur
        prev = cur
        seen |= cur
    assert seen == prev


def test_expansion_monotone_in_assumptions():
    base = parse_formulas("(knows a 1 (p))", SIG)
    more = parse_formulas("(knows a 1 (p)) (knows a 1 (q))", SIG)
    assert forms(expand(base, 2)) <= forms(expand(more, 2))


def test_idempotent_on_its_own_output():
    fs = parse_formulas("(knows a 1 (p)) (knows a 1 (implies (p) (q)))", SIG)
    once = [d.formula for d in expand(fs, depth=2)[0].values()]
    twice = expand(once, depth=2)
    assert forms(twice) == {print_formula(f) for f in once}


def test_s4_split_on_conjunction_body():
    fs = parse_formulas("(knows a 1 (and (p) (q)))", SIG)
    got = forms(expand(fs, depth=1))
    assert "(knows a 1 (p))" in got
    assert "(knows a 1 (q))" in got


def test_s4_join_requires_a_harvested_target():
    fs = parse_formulas("(knows a 1 (p)) (knows a 1 (q))", SIG)
    target = parse_formula("(knows a 1 (and (p) (q)))", SIG)
    without = forms(expand(fs, depth=2))
    assert "(knows a 1 (and (p) (q)))" not in without
    with_t = forms(expand(fs, depth=2, join_targets=[target]))
    assert "(knows a 1 (and (p) (q)))" in with_t


def test_harvest_finds_conjunction_bodied_epistemic_modals():
    fs = parse_formulas(
        "(not (knows a 1 (and (p) (q))))"
        "(knows a 1 (or (p) (r)))"
        "(desires a 1 (and (p) (q)))",
        SIG,
    )
    got = {print_formula(t) for t in harvest_join_targets(fs).values()}
    assert got == {"(knows a 1 (and (p) (q)))"}


def test_non_epistemic_operators_are_inert():
    fs = parse_formulas(
        "(obligated a 1 (p)) (desires a 1 (p))"
        "(intends a 1 (p)) (perceives a 1 (p))",
        SIG,
    )
    assert forms(expand(fs, depth=3)) == {print_formula(f) for f in fs}


def test_nested_chain_needs_matching_depth():
    fs = parse_formulas("(knows a 1 (knows a 1 (knows a 1 (p))))", SIG)
    assert "(p)" not in forms(expand(fs, depth=2))
    assert "(p)" in forms(expand(fs, depth=3))


def test_records_carry_rule_and_premises():
    fs = parse_formulas("(knows a 1 (p)) (knows a 1 (implies (p) (q)))", SIG)
    records, _ = expand(fs, depth=2)
    by_rule: dict[str, int] = {}
    keys = set(records)
    for key, rec in records.items():
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
    records, _ = expand(fs, depth=1)
    assert any(r.rule == RULE_S4_SPLIT for r in records.values())
    fs = parse_formulas("(knows a 1 (p)) (knows a 1 (q))", SIG)
    target = parse_formula("(knows a 1 (and (p) (q)))", SIG)
    records, _ = expand(fs, depth=1, join_targets=[target])
    assert any(r.rule == RULE_S4_JOIN for r in records.values())


def test_truncation_is_recorded_only_for_refused_new_formulas():
    fs = parse_formulas("(knows a 1 (knows a 1 (knows a 1 (p))))", SIG)
    assert expand(fs, depth=2)[1]
    assert not expand(fs, depth=3)[1]
    assert not expand(fs, depth=9)[1]
    # at depth 1, (p) and (believes a 1 (p)) are derived at depth 2 but
    # are already assumptions: refusing them loses nothing
    fs = parse_formulas("(knows a 1 (knows a 1 (p))) (p) (believes a 1 (p))", SIG)
    assert not expand(fs, depth=1)[1]
    assert expand(fs, depth=0)[1]


# Keys printed while sim1's obligation search expands its closure: 56
# since pure roots are pruned before grounding (the prevention bridges
# are pure in sim1, and the closure shrank from 125 formulas to 53).  It
# was 62 over the larger closure, and 67 when the expansion copied the
# closure into a store of its own and seeded a Formula -> key memo with
# its keys: hashing each closure formula twice to fill and probe the
# memo cost more than the prints it saved (about 5x slower).
SIM1_EXPANSION_KEYS = 56


def expansion_keys(monkeypatch, sc):
    """The obligation proof of sc, the formulas handed to expand_modal,
    and the formulas it keyed."""
    assumptions, _ = adjudication_theory(sc)
    handed_in: list = []
    keyed: list = []
    expanding = [False]

    def spy_expand(records, *args, **kwargs):
        handed_in.extend(d.formula for d in records.values())
        expanding[0] = True
        try:
            return expand_modal(records, *args, **kwargs)
        finally:
            expanding[0] = False

    def counting_key(f, *args):
        if expanding[0]:
            keyed.append(f)
        return canonical_key(f, *args)

    monkeypatch.setattr(prover, "expand_modal", spy_expand)
    monkeypatch.setattr(schemata, "canonical_key", counting_key)
    res = prover.prove(assumptions, obligation_goal(sc), sig=sc.sig)
    return res, handed_in, keyed


def test_sim1_obligation_does_not_rekey_the_closure(monkeypatch):
    def check(sc):
        res, handed_in, keyed = expansion_keys(monkeypatch, sc)
        assert res.status == "proof"
        assert keyed, "the counting binding is not reached"
        # handed_in holds every formula handed in, so their ids stay unique
        handed_ids = {id(f) for f in handed_in}
        assert not [f for f in keyed if id(f) in handed_ids]
        return handed_in, keyed

    _, keyed = check(load_bundled_scenario("sim1"))
    assert len(keyed) <= SIM1_EXPANSION_KEYS
    # with the general norm and an idle agent the prevention bridges are
    # kept, and more than a hundred formulas are handed in
    handed_in, _ = check(parse_scenario(sim1_normed_idle(1), "sim1+norm+idle1"))
    assert len(handed_in) > 100


RF_AGENTS = (Const("a", AGENT), Const("b", AGENT))


@st.composite
def modal_sets(draw):
    """Epistemic modals over RandomFormulas bodies, with implications
    and conjunctions between those bodies so that S3 and S4 fire."""
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    pool = [RandomFormulas(s).formula([], 1 + s % 3) for s in seeds]
    out = []
    for _ in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from((KNOWS, BELIEVES)))
        agent = draw(st.sampled_from(RF_AGENTS))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            body = draw(st.sampled_from(pool))
        elif kind == 1:
            ante = draw(st.sampled_from(pool))
            body = Implies(ante, draw(st.sampled_from(pool)))
            if draw(st.booleans()):
                out.append(Modal(op, agent, Const("1", "Moment"), ante))
        else:
            body = And(tuple(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3))))
        # nesting under knows puts S1 to work on a modal body
        if draw(st.booleans()):
            body = Modal(KNOWS, agent, Const("1", "Moment"), body)
        out.append(Modal(op, agent, Const("1", "Moment"), body))
    # a join target beyond those the set holds
    parts = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2))
    agent = draw(st.sampled_from(RF_AGENTS))
    return out, [Modal(KNOWS, agent, Const("1", "Moment"), And(tuple(parts)))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(modal_sets(), st.integers(0, 4))
def test_expansion_records_are_keyed_ordered_and_closed(drawn, depth):
    fs, extra_targets = drawn
    targets = harvest_join_targets([*fs, *extra_targets])
    records = assumed(fs)
    truncated = expand_modal(records, depth, targets)
    seen: set[str] = set()
    for key, rec in records.items():
        assert canonical_key(rec.formula) == key
        assert all(p in seen for p in rec.premises)
        seen.add(key)
    if not truncated:
        again = assumed(d.formula for d in records.values())
        expand_modal(again, depth, targets)
        assert list(again) == list(records)
