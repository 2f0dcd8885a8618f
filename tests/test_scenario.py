"""Scenario files: bundled content, minimal forms, error reporting."""

from __future__ import annotations

from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from modalguard.ethics import WILDCARD
from modalguard.parser import ParseError
from modalguard.scenario import (
    bundled_scenario_names,
    load_bundled_scenario,
    load_scenario,
    parse_scenario,
)
from modalguard.syntax import (
    ACTION_TYPE,
    AGENT,
    EVENT,
    FLUENT,
    GOAL,
    MOMENT,
    App,
    Const,
    Signature,
    Term,
    Var,
    print_formula,
    term_vars,
)

MINIMAL = """
(constants (a Agent) (go ActionType))
(horizon 2)
(hierarchy (categories forbidden neutral))
(request a go 0)
"""

WITH_FN = MINIMAL.replace(
    "(horizon 2)", "(functions (safe Agent Fluent))\n(horizon 2)"
)


def test_bundled_names():
    assert bundled_scenario_names() == ["sim1", "sim2"]


def test_unknown_bundled_name():
    with pytest.raises(KeyError):
        load_bundled_scenario("nope")


def test_sim1_content():
    sc = load_bundled_scenario("sim1")
    assert sc.name == "sim1"
    assert sc.request.agent.name == "shooter"
    assert sc.request.atype.name == "fire"
    assert sc.request.moment == 1
    assert sc.guardian is not None and sc.guardian.name == "ai"
    assert sc.theory.horizon == 3
    assert sc.hierarchy.classify("fire") == "forbidden"
    assert any(print_formula(f) == "(innocent victim)" for f in sc.facts)
    event = App("action", (sc.request.agent, sc.request.atype), "Action")
    assert (event, 1) in sc.theory.occurrences


def test_sim2_content():
    sc = load_bundled_scenario("sim2")
    assert sc.request.agent.name == "ranger1"
    assert sc.request.atype.name == "shoot"
    assert sc.hierarchy.categories[0] == "forbidden"
    assert sc.hierarchy.classify("shoot") == "defensive"
    assert sc.utilities.gamma == 0
    # the wildcard entry prices every agent's safety alike
    for who in ("ranger1", "ranger4"):
        f = App("safe", (Const(who, "Agent"),), "Fluent")
        assert sc.utilities.fluent_value(f) == 1
    assert len(sc.theory.axioms) == 6


def test_minimal_scenario():
    sc = parse_scenario(MINIMAL, "tiny")
    assert sc.name == "tiny"
    assert sc.facts == []
    assert sc.theory.horizon == 2
    assert sc.theory.axioms == ()
    assert sc.request.moment == 0
    assert sc.guardian is None
    assert sc.hierarchy.at_least_neutral("go")


def test_load_scenario_uses_stem(tmp_path):
    p = tmp_path / "mycase.scn"
    p.write_text(MINIMAL)
    assert load_scenario(p).name == "mycase"


def test_axiom_variables_and_guards():
    sc = parse_scenario(
        """
        (constants (a Agent) (go ActionType))
        (functions (safe Agent Fluent) (seen Agent Fluent))
        (axioms ((action ?x go) initiates (safe ?x) ((neg (seen ?x)))))
        (horizon 2)
        (hierarchy (categories forbidden neutral))
        (request a go 0)
        """,
        "vars",
    )
    ax = sc.theory.axioms[0]
    assert isinstance(ax.event.args[0], Var)
    assert ax.event.args[0].sort == "Agent"
    assert ax.fluent.args == ax.event.args[:1]
    assert ax.guard[0].positive is False


@pytest.mark.parametrize("text,fragment", [
    (MINIMAL + "(horizon 2)", "duplicate"),
    (MINIMAL + "(weather sunny)", "unknown section"),
    ("(constants (a Agent) (go ActionType))\n(hierarchy (categories forbidden neutral))\n(request a go 0)",
     "horizon"),
    ("(constants (a Agent) (go ActionType))\n(horizon 2)\n(request a go 0)",
     "hierarchy"),
    ("(constants (a Agent) (go ActionType))\n(horizon 2)\n(hierarchy (categories forbidden neutral))",
     "request"),
    (MINIMAL.replace("forbidden neutral", "neutral forbidden"),
     "first category must be forbidden"),
    (MINIMAL.replace("forbidden neutral", "forbidden safe"),
     "neutral"),
    (MINIMAL.replace("(request a go 0)", "(request b go 0)"),
     "not a declared Agent"),
    (MINIMAL.replace("(request a go 0)", "(request a a 0)"),
     "not a declared ActionType"),
    (MINIMAL.replace("(request a go 0)", "(request a go 5)"),
     "outside"),
    (MINIMAL + "(occurrences ((action a go) 9))", "outside"),
    (MINIMAL + "(facts (holds a 1))", "sort"),
    (MINIMAL + "(facts (launch a))", "launch"),
    (MINIMAL + "(facts (innocent ?x))", "unknown symbol"),
    (WITH_FN + "(utilities ((safe _) up 2))", "pos or neg"),
    (MINIMAL + "(utilities (gamma x))", "threshold"),
    (MINIMAL.replace("(horizon 2)", "(horizon two)"), "horizon"),
    # initial, occurrences and utilities are ground: only axioms read ?x
    (WITH_FN + "(initial (safe ?x))", "unknown symbol ?x"),
    (MINIMAL + "(occurrences ((action ?who go) 0))", "unknown symbol ?who"),
    (WITH_FN + "(utilities ((safe ?p) pos 1))", "unknown symbol ?p"),
    # ?e is an Event from its first place on, which a Goal place refuses
    (MINIMAL.replace("(horizon 2)", "(functions (pursued Goal Fluent))\n(horizon 2)")
     + "(axioms (?e initiates (pursued ?e)))",
     "sort mismatch: expected Goal, got Event"),
])
def test_malformed_scenarios(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_scenario(text, "bad")
    assert fragment in str(exc.value)


SIM2_TEXT = (resources.files("modalguard") / "scenarios" / "sim2.scn").read_text()


def stated_twice(old: str, new: str) -> tuple[str, int, int]:
    """sim2 with the line old followed by the form new, and where new
    starts."""
    assert SIM2_TEXT.count(old) == 1
    text = SIM2_TEXT.replace(old, old + new)
    start = text.index(old) + len(old)
    return text, text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


@pytest.mark.parametrize("old,new,fragment", [
    # neither form may silently win over the other
    ("  (classify shoot defensive)", " (classify shoot forbidden)", "duplicate classify"),
    ("  (categories forbidden harmful neutral defensive)", " (categories forbidden neutral)",
     "duplicate categories"),
    ("  (gamma 0)", " (gamma 9)", "duplicate gamma"),
], ids=["classify", "categories", "gamma"])
def test_a_form_stated_twice_is_refused_at_the_second(old, new, fragment):
    text, line, col = stated_twice(old, new)
    with pytest.raises(ParseError) as exc:
        parse_scenario(text, "twice")
    assert fragment in exc.value.message
    assert (exc.value.line, exc.value.col) == (line, col + 1)


def test_axiom_unbound_variable_rejected():
    text = """
    (constants (a Agent) (go ActionType))
    (functions (safe Agent Fluent))
    (axioms ((action a go) initiates (safe ?x)))
    (horizon 2)
    (hierarchy (categories forbidden neutral))
    (request a go 0)
    """
    with pytest.raises(ParseError) as exc:
        parse_scenario(text, "bad")
    assert "not bound" in str(exc.value)


def test_axiom_bad_keyword_rejected():
    text = MINIMAL + "(axioms ((action a go) toggles (alive a)))"
    with pytest.raises(ParseError):
        parse_scenario(text, "bad")


# A signature with subsorts (Goal < Event, Fluent and Action < Event
# are built in) and names that fit several places or none.
SORTED = """
(constants (a Agent) (go ActionType) (g Goal) (storm Event))
(functions (safe Agent Fluent) (pursued Goal Fluent) (hit Event Fluent))
(horizon 2)
(hierarchy (categories forbidden neutral))
(request a go 0)
"""
# the names and functions that fit each place, by the sort it wants
FITS = {
    AGENT: ["a"],
    ACTION_TYPE: ["go"],
    GOAL: ["g"],
    EVENT: ["storm", "g", "action"],
    FLUENT: ["g", "safe", "pursued", "hit"],
    MOMENT: ["0", "1"],
}
ARGSORTS = {"action": (AGENT, ACTION_TYPE), "safe": (AGENT,), "pursued": (GOAL,), "hit": (EVENT,)}


@st.composite
def terms(draw, want, depth=2):
    """Text of a term that mostly fits a place wanting want; one time in
    five it fits another sort, and ?x, ?y and _ may stand anywhere."""
    if draw(st.integers(0, 4)) == 0:
        want = draw(st.sampled_from(sorted(FITS)))
    choices = [n for n in FITS[want] if depth or n not in ARGSORTS]
    name = draw(st.sampled_from(choices + ["?x", "?y", "_"]))
    if name not in ARGSORTS:
        return name
    args = [draw(terms(s, depth - 1)) for s in ARGSORTS[name]]
    return f"({name} {' '.join(args)})"


@st.composite
def sections(draw):
    kind = draw(st.sampled_from(["axioms", "utilities", "initial", "occurrences"]))
    if kind == "axioms":
        verb = draw(st.sampled_from(["initiates", "terminates"]))
        guard = "".join(
            f" (({draw(st.sampled_from(['pos', 'neg']))} {draw(terms(FLUENT))}))"
            for _ in range(draw(st.integers(0, 1)))
        )
        body = f"({draw(terms(EVENT))} {verb} {draw(terms(FLUENT))}{guard})"
    elif kind == "utilities":
        body = f"({draw(terms(FLUENT))} pos 1)"
    elif kind == "initial":
        body = draw(terms(FLUENT))
    else:
        body = f"({draw(terms(EVENT))} {draw(st.sampled_from(['0', '1']))})"
    return kind, f"({kind} {body})"


def _well_sorted(t: Term, want: str, sig: Signature) -> bool:
    """t's sort widens to want, a constant has its declared sort, and
    every argument's sort widens to the sort its function declares."""
    if not sig.widens(t.sort, want):
        return False
    if isinstance(t, Const) and t.name != WILDCARD:
        return t.sort == (MOMENT if t.name.isdigit() else sig.constants[t.name])
    if isinstance(t, App):
        argsorts, result = sig.functions[t.fn]
        return (
            t.sort == result
            and len(t.args) == len(argsorts)
            and all(_well_sorted(x, s, sig) for x, s in zip(t.args, argsorts))
        )
    return True


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(sections())
@example(("initial", "(initial (safe ?x))"))
@example(("occurrences", "(occurrences ((action ?x go) 0))"))
@example(("utilities", "(utilities ((safe ?x) pos 1))"))
@example(("axioms", "(axioms (?x initiates (pursued ?x)))"))
@example(("axioms", "(axioms ((action ?x go) initiates (hit ?x) ((pos (safe ?x)))))"))
def test_every_scenario_term_is_built_well_sorted(section):
    """Each section either is refused, or builds only well-sorted terms,
    with variables in axioms alone."""
    kind, text = section
    try:
        sc = parse_scenario(SORTED + text, "generated")
    except ParseError:
        return
    th = sc.theory
    if kind == "axioms":
        (ax,) = th.axioms
        places = [(ax.event, EVENT), (ax.fluent, FLUENT)]
        places += [(lit.fluent, FLUENT) for lit in ax.guard]
    elif kind == "utilities":
        places = [(e.pattern, FLUENT) for e in sc.utilities.entries]
    elif kind == "initial":
        places = [(f, FLUENT) for f in th.initial]
    else:
        places = [(ev, EVENT) for ev, _ in th.occurrences]
    assert places
    for t, want in places:
        assert _well_sorted(t, want, sc.sig), (text, t)
        if kind != "axioms":
            found: list[Var] = []
            term_vars(t, found)
            assert not found, (text, t)
