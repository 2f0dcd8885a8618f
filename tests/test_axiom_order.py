"""A projection does not depend on the order a scenario lists its axioms.

A guard literal reads the pre-state; only a positive literal whose
fluent the pre-state lacks may be met by an initiation fired earlier in
the same moment.  So which initiations and terminations fire, and every
state, is the same in every axiom order, and so is a verdict.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from modalguard.eventcalc import (
    ECTheory,
    EffectAxiom,
    GuardLiteral,
    INITIATED,
    ProjectionConflict,
    TERMINATED,
    project,
)
from modalguard.guard import adjudicate
from modalguard.scenario import parse_scenario
from modalguard.syntax import AGENT, EVENT, FLUENT, App, Const, Var, print_term

from test_prover import load_guardbench_texts

SIM2 = load_guardbench_texts().bundled_text("sim2")
NEUTRALIZE = (
    "  ((action ranger1 shoot) initiates (neutralized assailant) ((pos (alive assailant))))\n"
)
SAFE_UTILITY = "  ((safe _) pos 1)\n"


def edited(text: str, old: str, new: str) -> str:
    assert text.count(old) == 1, old
    return text.replace(old, new)


def with_axioms(text: str, lines: list[str], first: bool) -> str:
    """text with the axiom lines listed before sim2's first axiom, or
    right after it."""
    added = "".join(f"  {line}\n" for line in lines)
    new = added + NEUTRALIZE if first else NEUTRALIZE + added
    return edited(text, NEUTRALIZE, new)


def panic_text(first: bool) -> str:
    """sim2 where the shot panics the overseer unless the assailant is
    already neutralized, at a cost that sinks the net utility."""
    text = edited(SIM2, "  (safe Agent Fluent))\n", "  (safe Agent Fluent)\n  (panic Agent Fluent))\n")
    text = edited(text, SAFE_UTILITY, SAFE_UTILITY + "  ((panic _) neg 9)\n")
    axiom = "((action ranger1 shoot) initiates (panic ai) ((neg (neutralized assailant))))"
    return with_axioms(text, [axiom], first)


def noise_text(noise_first: bool) -> str:
    """sim2 where the shot re-initiates a noise that already holds, and
    makes the overseer safe (an intended good effect) while it holds."""
    text = edited(SIM2, "  (safe Agent Fluent))\n", "  (safe Agent Fluent)\n  (noise Agent Fluent))\n")
    text = edited(text, SAFE_UTILITY, SAFE_UTILITY + "  ((noise _) neg 1)\n")
    text = edited(text, "  (alive assailant))\n", "  (alive assailant) (noise ai))\n")
    text = edited(
        text,
        "  (intends ranger1 1 (holds (safe ranger4) 2)))\n",
        "  (intends ranger1 1 (holds (safe ranger4) 2))\n"
        "  (intends ranger1 1 (holds (safe ai) 2)))\n",
    )
    noise = "((action ranger1 shoot) initiates (noise ai))"
    safe = "((action ranger1 shoot) initiates (safe ai) ((pos (noise ai))))"
    return with_axioms(text, [noise, safe] if noise_first else [safe, noise], True)


def decided(text: str) -> tuple[str, list[str]]:
    v = adjudicate(parse_scenario(text, "order"))
    failing = sorted(k for k, c in v.dde.clauses.items() if c.status != "pass")
    return v.decision, failing


def test_a_negative_guard_ignores_an_initiation_fired_this_moment():
    # the pre-state lacks (neutralized assailant), so the shot panics the
    # overseer whichever axiom is listed first
    assert decided(panic_text(True)) == decided(panic_text(False)) == ("LOCK", ["C2"])


def test_a_positive_guard_the_pre_state_meets_cites_its_holding_source():
    # (noise ai) held before the shot, so (safe ai) rides on that, not
    # on the shot's re-initiation of the noise, a bad effect
    assert decided(noise_text(True)) == decided(noise_text(False)) == ("ALLOW", [])


# ---------------------------------------------------------------------------
# the property over random theories

AGENTS = (Const("a0", AGENT), Const("a1", AGENT))
X = Var("x", AGENT)
EVENTS = (Const("e0", EVENT), Const("e1", EVENT), *(App("act", (a,), EVENT) for a in AGENTS))


def on(t) -> App:
    return App("on", (t,), FLUENT)


GROUND_FLUENTS = (*(Const(n, FLUENT) for n in ("p", "q", "r")), *map(on, AGENTS))


@st.composite
def axioms(draw) -> EffectAxiom:
    lifted = draw(st.booleans())
    event = App("act", (X,), EVENT) if lifted else draw(st.sampled_from(EVENTS))
    fluents = st.sampled_from(GROUND_FLUENTS + ((on(X),) if lifted else ()))
    guard = draw(st.lists(st.builds(GuardLiteral, st.booleans(), fluents), max_size=2))
    kind = draw(st.sampled_from((INITIATED, TERMINATED)))
    return EffectAxiom(event, kind, draw(fluents), tuple(guard))


@st.composite
def theories(draw) -> ECTheory:
    horizon = draw(st.integers(1, 3))
    initial = draw(st.frozensets(st.sampled_from(GROUND_FLUENTS), max_size=3))
    occurrence = st.tuples(st.sampled_from(EVENTS), st.integers(0, horizon - 1))
    occurrences = draw(st.frozensets(occurrence, min_size=1, max_size=4))
    return ECTheory(initial, tuple(draw(st.lists(axioms(), max_size=7))), occurrences, horizon)


def outcome(theory: ECTheory):
    """The states and the (moment, kind, fluent) of each effect, or the
    fluent and moment of the conflict."""
    try:
        tr = project(theory)
    except ProjectionConflict as c:
        return c.fluent, c.moment
    return tr.states, sorted((e.moment, e.kind, print_term(e.fluent)) for e in tr.effects)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(theories(), st.data())
def test_permuting_the_axioms_leaves_the_projection_unchanged(theory, data):
    order = data.draw(st.permutations(theory.axioms))
    assert outcome(dataclasses.replace(theory, axioms=tuple(order))) == outcome(theory)

