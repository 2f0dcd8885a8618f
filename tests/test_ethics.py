"""Double-effect checker: hierarchy, utilities, clauses, random agreement."""

from __future__ import annotations

from importlib import resources

import pytest

from modalguard import ethics, prover
from modalguard.eventcalc import (
    ECTheory,
    EffectAxiom,
    GuardLiteral,
    INITIATED,
    TERMINATED,
)
from modalguard.ethics import (
    ClauseResult,
    EthicalHierarchy,
    UtilityEntry,
    UtilityMap,
    check_dde,
    intention_formula,
)
from modalguard.prover import Budget, ProveResult
from modalguard.scenario import parse_scenario
from modalguard.syntax import (
    ACTION,
    ACTION_TYPE,
    AGENT,
    App,
    Atom,
    Const,
    FLUENT,
    Forall,
    INTENDS,
    Modal,
    Not,
    Var,
    moment,
)

import ddeoracle
from ddeoracle import AGENT0, intent_fact

SIM1 = (resources.files("modalguard") / "scenarios" / "sim1.scn").read_text()

HIER = EthicalHierarchy(
    ("forbidden", "neutral", "commendable"),
    {"strike": "forbidden", "aid": "commendable"},
)

TOXIN = Const("toxin", FLUENT)
CROPS = Const("crops_saved", FLUENT)
SUNNY = Const("sunny", FLUENT)
NOISE = Const("noise", FLUENT)


def act(name: str) -> tuple[Const, App]:
    atype = Const(name, ACTION_TYPE)
    return atype, App("action", (AGENT0, atype), ACTION)


def theory(axioms, initial=(), horizon=2) -> ECTheory:
    return ECTheory(frozenset(initial), tuple(axioms), frozenset(), horizon)


def umap(gamma=0, **values) -> UtilityMap:
    entries = tuple(
        UtilityEntry(Const(n, FLUENT), v) for n, v in values.items()
    )
    return UtilityMap(entries, gamma)


# ---------------------------------------------------------------------------
# hierarchy

def test_hierarchy_requires_neutral():
    with pytest.raises(ValueError):
        EthicalHierarchy(("bad", "good"))


def test_hierarchy_rejects_duplicates():
    with pytest.raises(ValueError):
        EthicalHierarchy(("neutral", "neutral"))


def test_hierarchy_rejects_unknown_assignment():
    with pytest.raises(ValueError):
        EthicalHierarchy(("forbidden", "neutral"), {"x": "heroic"})


def test_hierarchy_ranks_worst_first():
    assert HIER.rank("forbidden") < HIER.rank("neutral") < HIER.rank("commendable")
    assert HIER.classify("strike") == "forbidden"
    assert HIER.classify("unlisted") == "neutral"
    assert not HIER.at_least_neutral("strike")
    assert HIER.at_least_neutral("aid")
    assert HIER.at_least_neutral("unlisted")


# ---------------------------------------------------------------------------
# utilities

def test_specificity_counts_symbols_at_any_depth():
    # at (home _) and at (home victim) differ below the top level; the
    # print tie-break would prefer the wildcard entry, as _ sorts before v
    text = SIM1.replace(
        "(functions\n  (alive Agent Fluent))",
        "(sorts Place)\n\n(functions\n"
        "  (alive Agent Fluent) (home Agent Place) (at Place Fluent))",
    ).replace(
        "((alive _) pos 1)",
        "(_ neg 2)\n  ((alive _) pos 1)\n  ((at (home _)) pos 1)\n  ((at (home victim)) neg 9)",
    )
    utilities = parse_scenario(text, "homes").utilities
    victim, shooter = Const("victim", AGENT), Const("shooter", AGENT)

    def at_home(agent: Const) -> App:
        return App("at", (App("home", (agent,), "Place"),), FLUENT)

    assert utilities.fluent_value(at_home(victim)) == -9
    assert utilities.fluent_value(at_home(shooter)) == 1
    # a bare _ holds no symbol, so (alive _) wins over it
    assert [e.specificity() for e in utilities.entries] == [0, 1, 2, 3]
    assert utilities.fluent_value(App("alive", (victim,), FLUENT)) == 1


def test_most_specific_entry_wins():
    wild = Const("_", FLUENT)
    alice = Const("alice", AGENT)
    entries = (
        UtilityEntry(App("safe", (wild,), FLUENT), 1),
        UtilityEntry(App("safe", (alice,), FLUENT), 5),
    )
    m = UtilityMap(entries)
    assert m.fluent_value(App("safe", (alice,), FLUENT)) == 5
    assert m.fluent_value(App("safe", (Const("bob", AGENT),), FLUENT)) == 1


def test_a_specificity_tie_goes_to_the_pattern_that_prints_first():
    wild = Const("_", FLUENT)
    alice, bob = Const("alice", AGENT), Const("bob", AGENT)
    # both hold two symbols; (safe _ alice) prints first, as _ sorts before b
    later = UtilityEntry(App("safe", (bob, wild), FLUENT), 1)
    first = UtilityEntry(App("safe", (wild, alice), FLUENT), 7)
    fluent = App("safe", (bob, alice), FLUENT)
    assert UtilityMap((later, first)).fluent_value(fluent) == 7
    assert UtilityMap((first, later)).fluent_value(fluent) == 7


def test_unmatched_fluent_is_worthless():
    assert umap(toxin=-2).fluent_value(CROPS) == 0


def test_termination_flips_sign():
    from modalguard.eventcalc import Effect

    m = umap(crops_saved=3)
    up = Effect(CROPS, INITIATED, Const("e", "Event"), 0)
    down = Effect(CROPS, TERMINATED, Const("e", "Event"), 0)
    assert m.effect_utility(up) == 3
    assert m.effect_utility(down) == -3


def test_negative_gamma_rejected():
    with pytest.raises(ValueError):
        UtilityMap((), gamma=-1)


# ---------------------------------------------------------------------------
# intention formulas

def test_intention_formula_forms():
    from modalguard.eventcalc import Effect

    atype, event = act("aid")
    init = Effect(CROPS, INITIATED, event, 0)
    term = Effect(TOXIN, TERMINATED, event, 0)
    fi = intention_formula(AGENT0, 0, init)
    ft = intention_formula(AGENT0, 0, term)
    assert fi == Modal("intends", AGENT0, moment(0), Atom("holds", (CROPS, moment(1))))
    assert ft == Modal("intends", AGENT0, moment(0),
                       Not(Atom("holds", (TOXIN, moment(1)))))


# ---------------------------------------------------------------------------
# clause behaviour on a fixed scenario

def test_c1_blocks_forbidden_type():
    atype, event = act("strike")
    th = theory([EffectAxiom(event, INITIATED, CROPS)])
    v = check_dde(th, AGENT0, atype, 0, HIER, umap(crops_saved=2),
                  [intent_fact(INITIATED, CROPS)])
    assert v.clauses["C1"].status == "fail"
    assert not v.compliant


def test_c2_threshold_is_strict():
    atype, event = act("aid")
    th = theory([EffectAxiom(event, INITIATED, CROPS)])
    at_gamma = check_dde(th, AGENT0, atype, 0, HIER, umap(gamma=2, crops_saved=2),
                         [intent_fact(INITIATED, CROPS)])
    assert at_gamma.clauses["C2"].status == "fail"
    above = check_dde(th, AGENT0, atype, 0, HIER, umap(gamma=1, crops_saved=2),
                      [intent_fact(INITIATED, CROPS)])
    assert above.clauses["C2"].status == "pass"
    assert above.net_utility == 2


def test_c3_requires_good_effects_intended():
    atype, event = act("aid")
    th = theory([EffectAxiom(event, INITIATED, CROPS)])
    v = check_dde(th, AGENT0, atype, 0, HIER, umap(crops_saved=2), [])
    assert v.clauses["C3"].status == "fail"
    assert "not provably intended" in v.clauses["C3"].detail


def test_c3_rejects_intended_harm():
    atype, event = act("aid")
    th = theory([
        EffectAxiom(event, INITIATED, CROPS),
        EffectAxiom(event, INITIATED, TOXIN),
    ])
    v = check_dde(th, AGENT0, atype, 0, HIER, umap(crops_saved=2, toxin=-1),
                  [intent_fact(INITIATED, CROPS), intent_fact(INITIATED, TOXIN)])
    assert v.clauses["C3"].status == "fail"
    assert "non-good effect intended" in v.clauses["C3"].detail


def test_c3_rejects_intended_neutral_side_effect():
    atype, event = act("aid")
    th = theory([
        EffectAxiom(event, INITIATED, CROPS),
        EffectAxiom(event, INITIATED, NOISE),
    ])
    v = check_dde(th, AGENT0, atype, 0, HIER, umap(crops_saved=2),
                  [intent_fact(INITIATED, CROPS), intent_fact(INITIATED, NOISE)])
    assert v.clauses["C3"].status == "fail"


def test_c3_unknown_when_intention_query_exhausts_budget():
    atype, event = act("aid")
    th = theory([EffectAxiom(event, INITIATED, CROPS)])
    # assumptions that do not settle the intention and a clause budget too
    # small to saturate: the clause must answer unknown, never pass.  The
    # budget counts only clauses that enter the search, so the filler
    # must not be pure: its clauses resolve with each other
    sig, filler = _unsettling_filler()
    v = check_dde(th, AGENT0, atype, 0, HIER, umap(crops_saved=2), filler,
                  sig=sig, budget=Budget(max_clauses=1))
    assert v.clauses["C3"].status == "unknown"
    assert v.unknown
    assert not v.compliant


def test_c3_fails_when_the_full_budget_saturates_the_same_filler():
    atype, event = act("aid")
    th = theory([EffectAxiom(event, INITIATED, CROPS)])
    # the same query with the default budget completes: the good effect
    # is not provably intended, so the clause fails rather than passing
    sig, filler = _unsettling_filler()
    v = check_dde(th, AGENT0, atype, 0, HIER, umap(crops_saved=2), filler, sig=sig)
    assert v.clauses["C3"].status == "fail"
    assert not v.unknown
    assert not v.compliant


def _unsettling_filler():
    from modalguard.parser import parse_formula
    from modalguard.syntax import Signature

    sig = Signature()
    for p in ("rains", "pours"):
        sig.declare_predicate(p, ())
    filler = [
        parse_formula("(implies (rains) (pours))", sig),
        parse_formula("(implies (pours) (rains))", sig),
        parse_formula("(rains)", sig),
    ]
    return sig, filler


def test_c3_unknown_when_grounding_is_capped(monkeypatch):
    atype, event = act("aid")
    th = theory([EffectAxiom(event, INITIATED, CROPS)])
    x = Var("x", AGENT)
    crops_later = Atom("holds", (CROPS, moment(1)))
    everyone_intends = Forall(x, Modal(INTENDS, x, moment(0), crops_later))
    v = check_dde(th, AGENT0, atype, 0, HIER, umap(crops_saved=2), [everyone_intends])
    assert v.clauses["C3"].status == "pass"
    # with no instance allowed the intention is out of reach, and a search
    # that could not ground its premises must not count it as absent
    monkeypatch.setattr(prover, "GROUNDING_INSTANCE_CAP", 0)
    v = check_dde(th, AGENT0, atype, 0, HIER, umap(crops_saved=2), [everyone_intends])
    assert v.clauses["C3"].status == "unknown"
    assert not v.compliant


def test_c4_blocks_benefit_riding_on_harm():
    atype, event = act("aid")
    th = theory([
        EffectAxiom(event, INITIATED, TOXIN),
        EffectAxiom(event, INITIATED, CROPS, (GuardLiteral(True, TOXIN),)),
    ])
    v = check_dde(th, AGENT0, atype, 0, HIER, umap(crops_saved=2, toxin=-1),
                  [intent_fact(INITIATED, CROPS)])
    assert v.clauses["C4"].status == "fail"
    assert "depends on" in v.clauses["C4"].detail


def test_c4_passes_when_benefit_is_independent():
    # same effects and utilities as the failing case, but the benefit is
    # enabled by a pre-existing fluent instead of the harm
    atype, event = act("aid")
    th = theory(
        [
            EffectAxiom(event, INITIATED, TOXIN),
            EffectAxiom(event, INITIATED, CROPS, (GuardLiteral(True, SUNNY),)),
        ],
        initial=[SUNNY],
    )
    v = check_dde(th, AGENT0, atype, 0, HIER, umap(crops_saved=2, toxin=-1),
                  [intent_fact(INITIATED, CROPS)])
    assert v.clauses["C4"].status == "pass"


def test_compliant_scenario_end_to_end():
    atype, event = act("aid")
    th = theory([
        EffectAxiom(event, INITIATED, CROPS),
        EffectAxiom(event, INITIATED, NOISE),
    ])
    v = check_dde(th, AGENT0, atype, 0, HIER, umap(crops_saved=2),
                  [intent_fact(INITIATED, CROPS)])
    assert {k: c.status for k, c in v.clauses.items()} == {
        "C1": "pass", "C2": "pass", "C3": "pass", "C4": "pass"
    }
    assert v.compliant and not v.unknown


def test_request_occurrence_added_when_missing():
    atype, event = act("aid")
    th = theory([EffectAxiom(event, INITIATED, CROPS)])
    assert (event, 0) not in th.occurrences
    v = check_dde(th, AGENT0, atype, 0, HIER, umap(crops_saved=2),
                  [intent_fact(INITIATED, CROPS)])
    assert any(e.fluent == CROPS for e in v.effects)


# ---------------------------------------------------------------------------
# agreement with the independent oracle on random scenarios

def test_random_scenarios_agree_with_oracle():
    seen = set()
    for seed in range(40):
        case = ddeoracle.random_case(seed)
        v = check_dde(case.theory, case.agent, case.atype, 0,
                      case.hierarchy, case.utilities, case.assumptions)
        expected, net = ddeoracle.oracle_verdict(case)
        got = {k: c.status for k, c in v.clauses.items()}
        assert got == expected, f"seed {seed}: {got} vs {expected}"
        assert v.net_utility == net, f"seed {seed}"
        for k, s in got.items():
            seen.add((k, s))
    # the sample must exercise both outcomes of every clause
    for k in ("C1", "C2", "C3", "C4"):
        assert (k, "pass") in seen and (k, "fail") in seen


def test_each_effect_is_priced_once(monkeypatch):
    # C2's sum, the good and bad effects, C3 and C4 read one utility per
    # effect; each once priced it again
    atype, event = act("aid")
    th = theory([
        EffectAxiom(event, INITIATED, TOXIN),
        EffectAxiom(event, INITIATED, CROPS, (GuardLiteral(True, TOXIN),)),
        EffectAxiom(event, INITIATED, NOISE),
    ])
    args = (th, AGENT0, atype, 0, HIER, umap(crops_saved=2, toxin=-1),
            [intent_fact(INITIATED, CROPS)])
    want = check_dde(*args)
    priced = []
    real = UtilityMap.effect_utility

    def counted(self, e):
        priced.append(e)
        return real(self, e)

    monkeypatch.setattr(UtilityMap, "effect_utility", counted)
    got = check_dde(*args)
    assert (got.clauses, got.net_utility) == (want.clauses, want.net_utility)
    assert [e.key() for e in got.effects] == [e.key() for e in want.effects]
    assert sorted(map(id, priced)) == sorted(map(id, got.effects))
    assert {k: c.status for k, c in got.clauses.items()} == {
        "C1": "pass", "C2": "pass", "C3": "pass", "C4": "fail"
    }


# ---------------------------------------------------------------------------
# C3's status and notes, C4's detail, pinned

SMOKE = Const("smoke", FLUENT)
SHADE = Const("shade", FLUENT)


def test_c4_names_each_good_effects_bad_causes_in_effect_order():
    # crops ride on both harms, shade on the toxin alone; the offenders
    # come good effect by good effect, each one's bad causes in effect
    # order, whatever order the walk meets them in
    atype, event = act("aid")
    th = theory([
        EffectAxiom(event, INITIATED, TOXIN),
        EffectAxiom(event, INITIATED, SMOKE),
        # the walk pops the toxin before the smoke
        EffectAxiom(
            event, INITIATED, CROPS, (GuardLiteral(True, SMOKE), GuardLiteral(True, TOXIN))
        ),
        EffectAxiom(event, INITIATED, SHADE, (GuardLiteral(True, TOXIN),)),
    ])
    v = check_dde(th, AGENT0, atype, 0, HIER, umap(crops_saved=2, shade=1, smoke=-1, toxin=-1),
                  [intent_fact(INITIATED, CROPS), intent_fact(INITIATED, SHADE)])
    assert [e.fluent for e in v.effects] == [CROPS, SHADE, SMOKE, TOXIN]
    assert v.clauses["C4"] == ClauseResult(
        "fail",
        "crops_saved depends on initiated smoke; crops_saved depends on initiated toxin; "
        "shade depends on initiated toxin",
    )


def undecided_on(fluent: Const):
    """ethics.prove, with every intention query about fluent out of time."""
    prove = ethics.prove

    def patched(assumptions, goal, *args):
        if isinstance(goal, Modal) and goal.op == INTENDS and fluent in goal.body.args:
            return ProveResult("timeout")
        return prove(assumptions, goal, *args)

    return patched


@pytest.mark.parametrize(
    "intended, undecided, notes",
    [
        # the good effect is not intended, then the harm's query runs out
        ([], TOXIN,
         "good effect not provably intended: initiated crops_saved; "
         "initiated toxin: intention undecided"),
        # the good effect's query runs out, then the harm is intended
        ([CROPS, TOXIN], CROPS,
         "initiated crops_saved: intention undecided; "
         "non-good effect intended: initiated toxin"),
    ],
)
def test_c3_is_unknown_when_an_undecided_intention_meets_a_wrong_one(
    monkeypatch, intended, undecided, notes
):
    atype, event = act("aid")
    th = theory([EffectAxiom(event, INITIATED, CROPS), EffectAxiom(event, INITIATED, TOXIN)])
    monkeypatch.setattr(ethics, "prove", undecided_on(undecided))
    v = check_dde(th, AGENT0, atype, 0, HIER, umap(crops_saved=2, toxin=-1),
                  [intent_fact(INITIATED, f) for f in intended])
    assert v.clauses["C3"] == ClauseResult("unknown", notes)
    assert v.unknown and not v.compliant
