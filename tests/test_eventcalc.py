"""Event-calculus projection: inertia, cascades, conflicts, attribution."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from modalguard.eventcalc import (
    ECTheory,
    EffectAxiom,
    GuardLiteral,
    INITIATED,
    ProjectionConflict,
    TERMINATED,
    causal_chain,
    effects_of,
    project,
)
from modalguard.syntax import AGENT, App, Const, EVENT, FLUENT, Var

from corpus import project_reference
from test_axiom_order import theories

WET = Const("wet", FLUENT)
FLOODED = Const("flooded", FLUENT)
MOLD = Const("mold", FLUENT)
ALARM = Const("alarm", FLUENT)
BRIGHT = Const("bright", FLUENT)

POUR = Const("pour", EVENT)
DRAIN = Const("drain", EVENT)
SUN = Const("sun", EVENT)
HOSE = Const("hose", EVENT)


def theory(initial=(), axioms=(), occurrences=(), horizon=2):
    return ECTheory(frozenset(initial), tuple(axioms),
                    frozenset(occurrences), horizon)


def test_inertia_without_events():
    tr = project(theory(initial=[WET], horizon=3))
    assert all(s == frozenset([WET]) for s in tr.states)
    assert tr.effects == ()


def test_initiation_changes_next_state():
    ax = EffectAxiom(POUR, INITIATED, WET)
    tr = project(theory(axioms=[ax], occurrences=[(POUR, 0)]))
    assert not tr.holds(WET, 0)
    assert tr.holds(WET, 1)
    assert tr.holds(WET, 2)


def test_termination_changes_next_state():
    ax = EffectAxiom(SUN, TERMINATED, WET)
    tr = project(theory(initial=[WET], axioms=[ax], occurrences=[(SUN, 0)]))
    assert tr.holds(WET, 0)
    assert not tr.holds(WET, 1)


def test_same_moment_cascade_through_positive_guard():
    wet_ax = EffectAxiom(POUR, INITIATED, WET)
    flood_ax = EffectAxiom(POUR, INITIATED, FLOODED,
                           (GuardLiteral(True, WET),))
    tr = project(theory(axioms=[wet_ax, flood_ax], occurrences=[(POUR, 0)]))
    assert tr.holds(FLOODED, 1)
    flood = next(e for e in tr.effects if e.fluent == FLOODED)
    assert any(s is not None and s.fluent == WET for s in flood.sources)


def test_cascade_fires_regardless_of_axiom_order():
    wet_ax = EffectAxiom(POUR, INITIATED, WET)
    flood_ax = EffectAxiom(POUR, INITIATED, FLOODED,
                           (GuardLiteral(True, WET),))
    tr = project(theory(axioms=[flood_ax, wet_ax], occurrences=[(POUR, 0)]))
    assert tr.holds(FLOODED, 1)


def test_termination_invisible_within_its_moment():
    # a positive guard keeps reading the pre-state fluent even while the
    # same moment terminates it
    term_ax = EffectAxiom(DRAIN, TERMINATED, WET)
    alarm_ax = EffectAxiom(DRAIN, INITIATED, ALARM,
                           (GuardLiteral(True, WET),))
    tr = project(theory(initial=[WET], axioms=[term_ax, alarm_ax],
                        occurrences=[(DRAIN, 0)]))
    assert tr.holds(ALARM, 1)
    assert not tr.holds(WET, 1)


def test_negative_guard_blocked_by_prestate():
    term_ax = EffectAxiom(DRAIN, TERMINATED, WET)
    dry_ax = EffectAxiom(DRAIN, INITIATED, ALARM,
                         (GuardLiteral(False, WET),))
    tr = project(theory(initial=[WET], axioms=[term_ax, dry_ax],
                        occurrences=[(DRAIN, 0)]))
    # wet still counts as holding during the moment that terminates it
    assert not tr.holds(ALARM, 1)


def test_conflict_raises():
    init_ax = EffectAxiom(POUR, INITIATED, WET)
    term_ax = EffectAxiom(SUN, TERMINATED, WET)
    th = theory(axioms=[init_ax, term_ax],
                occurrences=[(POUR, 0), (SUN, 0)])
    with pytest.raises(ProjectionConflict) as exc:
        project(th)
    assert exc.value.fluent == WET
    assert exc.value.moment == 0


def test_event_patterns_bind_variables():
    x = Var("x", AGENT)
    splash = App("splash", (x,), EVENT)
    wet_by = App("wet_by", (x,), FLUENT)
    ax = EffectAxiom(splash, INITIATED, wet_by)
    alice = Const("alice", AGENT)
    tr = project(theory(axioms=[ax],
                        occurrences=[(App("splash", (alice,), EVENT), 0)]))
    assert tr.holds(App("wet_by", (alice,), FLUENT), 1)


def test_axiom_rejects_unbound_variables():
    x = Var("x", AGENT)
    with pytest.raises(ValueError):
        EffectAxiom(POUR, INITIATED, App("wet_by", (x,), FLUENT))


def test_axiom_rejects_bad_kind():
    with pytest.raises(ValueError):
        EffectAxiom(POUR, "toggled", WET)


def test_occurrence_outside_horizon_rejected():
    with pytest.raises(ValueError):
        theory(occurrences=[(POUR, 5)], horizon=2)
    with pytest.raises(ValueError):
        theory(horizon=0)


# ---------------------------------------------------------------------------
# counterfactual attribution

def cascade_theory():
    wet_ax = EffectAxiom(POUR, INITIATED, WET)
    flood_ax = EffectAxiom(POUR, INITIATED, FLOODED,
                           (GuardLiteral(True, WET),))
    mold_ax = EffectAxiom(DRAIN, INITIATED, MOLD, (GuardLiteral(True, WET),))
    sun_ax = EffectAxiom(SUN, INITIATED, BRIGHT)
    return theory(axioms=[wet_ax, flood_ax, mold_ax, sun_ax],
                  occurrences=[(POUR, 0), (SUN, 0), (DRAIN, 1)], horizon=3)


def test_effects_of_collects_downstream():
    effs = effects_of(cascade_theory(), POUR, 0)
    fluents = {e.fluent for e in effs}
    # mold at moment 1 exists only because pour made wet hold
    assert fluents == {WET, FLOODED, MOLD}


def test_effects_of_excludes_independent_events():
    effs = effects_of(cascade_theory(), POUR, 0)
    assert all(e.fluent != BRIGHT for e in effs)
    sun_effs = effects_of(cascade_theory(), SUN, 0)
    assert {e.fluent for e in sun_effs} == {BRIGHT}


def test_overdetermined_change_attributed_to_recorded_initiator():
    # one initiation effect is recorded per fluent per moment; when two
    # events overdetermine a change, the recorded initiator carries the
    # attribution and the shadowed event carries none
    wet_pour = EffectAxiom(POUR, INITIATED, WET)
    wet_hose = EffectAxiom(HOSE, INITIATED, WET)
    th = theory(axioms=[wet_pour, wet_hose],
                occurrences=[(POUR, 0), (HOSE, 0)])
    assert [e.event for e in effects_of(th, POUR, 0)] == [POUR]
    assert effects_of(th, HOSE, 0) == []


def test_causal_chain_crosses_moments():
    tr = project(cascade_theory())
    mold = next(e for e in tr.effects if e.fluent == MOLD)
    chain = causal_chain(mold)
    assert [e.fluent for e in chain] == [WET, MOLD]
    assert chain[0].moment == 0 and chain[1].moment == 1


def test_without_removes_one_occurrence():
    th = cascade_theory()
    tr = project(th.without(POUR, 0))
    assert not tr.holds(WET, 1)
    assert tr.holds(BRIGHT, 1)


def test_fluents_are_told_apart_by_term_not_by_print():
    # a constant built in Python may print as an application does; the
    # termination of one must leave the other holding
    alive = App("alive", (Const("victim", AGENT),), FLUENT)
    spelled = Const("(alive victim)", FLUENT)
    th = theory(initial=[alive, spelled], axioms=[EffectAxiom(POUR, TERMINATED, spelled)],
                occurrences=[(POUR, 0)])
    tr = project(th)
    assert tr.states[1] == frozenset([alive])
    assert [(e.kind, e.fluent) for e in effects_of(th, POUR, 0)] == [(TERMINATED, spelled)]
    # nor does a guard on one read the other's initiation this moment
    revive = EffectAxiom(POUR, INITIATED, alive)
    guarded = EffectAxiom(HOSE, INITIATED, WET, (GuardLiteral(True, spelled),))
    th = theory(axioms=[revive, guarded], occurrences=[(POUR, 0), (HOSE, 0)])
    assert project(th).states[1] == frozenset([alive])


# ---------------------------------------------------------------------------
# a projection sorts each moment's effects once, as they leave it, and
# gives what the three sorts of the reference projection gave


def projected(project_fn, th):
    """The states, each effect as (moment, kind, event, fluent) with its
    sources as positions in the trace, or the conflict."""
    try:
        tr = project_fn(th)
    except ProjectionConflict as c:
        return "conflict", (c.fluent, c.moment, c.initiator, c.terminator)
    at = {id(e): i for i, e in enumerate(tr.effects)}
    effects = [
        (e.identity(), tuple(None if s is None else at[id(s)] for s in e.sources))
        for e in tr.effects
    ]
    return tr.states, effects


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(theories())
def test_a_projection_orders_its_effects_as_the_reference_did(th):
    assert projected(project, th) == projected(project_reference, th)
