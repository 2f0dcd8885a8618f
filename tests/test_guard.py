"""Adjudication: verdicts, prevention ablations, queries, fail-safes."""

from __future__ import annotations

import dataclasses
import re
import time
from importlib import resources

import pytest

from modalguard import eventcalc, guard, prover
from modalguard.guard import (
    ALLOW,
    LOCK,
    adjudicate,
    adjudication_theory,
    base_theory,
    epistemic_query,
    intention_query,
    obligation_goal,
    prevents_holds,
)
from modalguard.parser import ParseError
from modalguard.proofs import verify_proof
from modalguard.prover import Budget, ProveResult
from modalguard.scenario import load_bundled_scenario, parse_scenario
from modalguard.syntax import (
    App,
    Atom,
    Const,
    Exists,
    Forall,
    Not,
    moment,
    print_formula,
    subformulas,
)

from test_prover import load_guardbench_texts, sim1_with_moment_named

SIM1 = load_bundled_scenario("sim1")
SIM2 = load_bundled_scenario("sim2")

SHOOTER = Const("shooter", "Agent")
VICTIM = Const("victim", "Agent")
G_LIVE = Const("g_live", "Goal")
FIRE = Const("fire", "ActionType")
RANGER1 = Const("ranger1", "Agent")
SHOOT = Const("shoot", "ActionType")


def drop_facts(sc, *fragments):
    keep = [f for f in sc.facts
            if not any(fr in print_formula(f) for fr in fragments)]
    assert len(keep) < len(sc.facts), f"nothing matched {fragments}"
    return dataclasses.replace(sc, facts=keep)


# ---------------------------------------------------------------------------
# verdicts

def test_sim1_locks_with_verified_obligation():
    v = adjudicate(SIM1)
    assert v.decision == LOCK
    assert v.prove_status == "proof"
    assert v.proof_verified is True
    assumptions, _ = adjudication_theory(SIM1)
    assert verify_proof(v.proof, assumptions, v.obligation, SIM1.sig)
    assert v.dde is not None and not v.dde.compliant
    failing = {k for k, c in v.dde.clauses.items() if c.status == "fail"}
    assert failing == {"C1", "C2", "C3"}
    assert v.dde.clauses["C4"].status == "pass"
    assert "C1, C2, C3" in v.reason


def test_sim2_allows_with_full_compliance():
    v = adjudicate(SIM2)
    assert v.decision == ALLOW
    assert v.prove_status == "proof"
    assert v.proof_verified is True
    assert v.dde is not None and v.dde.compliant
    assert all(c.status == "pass" for c in v.dde.clauses.values())
    assert v.dde.net_utility == 3
    assert "overridden" in v.reason


# The benchmark's guard_scaled texts: sim1 plus k agents and k goals
# that no fact mentions.  Such bystanders must neither change a verdict
# nor cut its search short (they once drove it into the grounding cap).


# The bound catches a theory that grows with the signature: with one
# ground prevention bridge per agent and goal, sim1 + 64 idle took 1.1 s
# and sim2 + 32 idle 2.8 s (min of 3, 2-CPU host); with the lifted
# bridge each takes under 50 ms.
IDLE_BOUND_MS = 1000.0


def sim2_idle(k: int) -> str:
    """sim2 plus k agents and k goals that no fact mentions."""
    sim2 = load_guardbench_texts().bundled_text("sim2")
    extra = "".join(f" (idle{i} Agent) (g_idle{i} Goal)" for i in range(1, k + 1))
    assert sim2.count("  (g_harm Goal))\n") == 1
    return sim2.replace("  (g_harm Goal))\n", f"  (g_harm Goal){extra})\n")


@pytest.mark.parametrize("k", [12, 16, 64])
def test_idle_bystanders_leave_the_guilty_shooter_allowed(k):
    texts = load_guardbench_texts()
    text = texts.sim1_idle(texts.sim1_guilty(texts.bundled_text("sim1")), k)
    v = adjudicate(parse_scenario(text, f"sim1_guilty+idle{k}"))
    assert (v.decision, v.prove_status) == (ALLOW, "no_proof")
    assert v.elapsed_ms < IDLE_BOUND_MS


@pytest.mark.parametrize("k", [16, 64])
def test_idle_bystanders_leave_sim1_locked_by_a_verified_proof(k):
    texts = load_guardbench_texts()
    sc = parse_scenario(texts.sim1_idle(texts.bundled_text("sim1"), k), f"sim1+idle{k}")
    v = adjudicate(sc)
    assert (v.decision, v.prove_status) == (LOCK, "proof")
    assert v.elapsed_ms < IDLE_BOUND_MS
    assert v.proof_verified is True
    assumptions, _ = adjudication_theory(sc)
    assert verify_proof(v.proof, assumptions, v.obligation, sc.sig)


def test_idle_bystanders_leave_sim2_allowed_by_a_verified_proof():
    sc = parse_scenario(sim2_idle(32), "sim2+idle32")
    v = adjudicate(sc)
    assert (v.decision, v.prove_status) == (ALLOW, "proof")
    assert v.elapsed_ms < IDLE_BOUND_MS
    assert v.proof_verified is True and v.dde.compliant
    assumptions, _ = adjudication_theory(sc)
    assert verify_proof(v.proof, assumptions, v.obligation, sc.sig)


def test_obligation_goal_shape():
    g = obligation_goal(SIM1)
    assert print_formula(g) == (
        "(obligated shooter 1 sigma_default"
        " (not (happens (action shooter fire) 1)))"
    )


def test_clause_starved_adjudication_fails_safe():
    v = adjudicate(SIM1, Budget(max_clauses=1))
    assert v.decision == LOCK
    assert v.prove_status == "timeout"
    assert "failing safe" in v.reason
    assert v.proof is None


SIM1_TEXT = (resources.files("modalguard") / "scenarios" / "sim1.scn").read_text()


def sim1_with_fact(wrap, depth: int):
    """sim1 plus one fact: wrap applied depth times around (innocent victim)."""
    fact = "(innocent victim)"
    for i in range(depth):
        fact = wrap(i, fact)
    assert SIM1_TEXT.count("  (innocent victim)\n") == 1
    text = SIM1_TEXT.replace("  (innocent victim)\n", f"  (innocent victim)\n  {fact}\n")
    return parse_scenario(text, "sim1")


def test_a_blown_up_fact_locks_within_the_budget():
    sc = sim1_with_fact(lambda i, f: f"(iff (innocent victim) {f})", 6)
    budget = Budget()
    t0 = time.monotonic()
    v = adjudicate(sc, budget)
    assert time.monotonic() - t0 < budget.timeout_ms / 1000
    assert v.decision == LOCK
    assert v.prove_status == "timeout"


@pytest.mark.parametrize("wrap", [
    lambda i, f: f"(not {f})",
    lambda i, f: f"(and (prior 1 2) {f})",
    lambda i, f: f"(implies (prior 1 2) {f})",
    lambda i, f: f"(forall x{i} : Agent {f})",
    lambda i, f: f"(knows ai 1 {f})",
], ids=["not", "and", "implies", "forall", "knows"])
def test_a_fact_nested_100_deep_adjudicates(wrap):
    v = adjudicate(sim1_with_fact(wrap, 100))
    assert v.decision == LOCK
    assert v.proof_verified


def sim1_over_every_goal():
    """sim1 with no Goal declared: its four facts about g_live hold of
    every Goal."""
    text = SIM1_TEXT.replace("\n  (g_live Goal))", ")")
    facts = [line.strip() for line in text.splitlines() if "g_live" in line]
    assert len(facts) == 4
    for fact in facts:
        text = text.replace(fact, f"(forall g : Goal {fact.replace('g_live', 'g')})")
    return parse_scenario(text, "sim1")


def test_sim1_over_every_goal_locks_with_verified_obligation():
    # the facts hold of the anonymous Goal the domain gives the sort, as
    # clausifying and the oracle take it; grounding once left the sort
    # empty, found no obligation and allowed the shot
    sc = sim1_over_every_goal()
    assert not sc.sig.constants_of_sort("Goal")
    v = adjudicate(sc)
    assert v.decision == LOCK
    assert v.prove_status == "proof"
    assert v.proof_verified is True
    failing = {k for k, c in v.dde.clauses.items() if c.status == "fail"}
    assert failing == {"C1", "C2", "C3"}


def sim1_with_innocent(name: str):
    """sim1 with one more agent, name, innocent by a fact about it and by
    a universal fact, in place of (innocent victim)."""
    text = SIM1_TEXT.replace("(ai Agent)", f"(ai Agent) ({name} Agent)")
    text = text.replace(
        "  (innocent victim)\n",
        f"  (innocent {name})\n  (forall p : Agent (innocent p))\n",
    )
    return parse_scenario(text, "sim1")


@pytest.mark.parametrize("name", ["V0", "zed"])
def test_a_constant_named_like_a_clause_variable_still_locks(name):
    # the universal fact's clause (innocent V0) has the variable V0; the
    # constant's fact is the clause (innocent V0) too, but not the same clause
    v = adjudicate(sim1_with_innocent(name))
    assert v.decision == LOCK
    assert v.prove_status == "proof"
    assert v.proof_verified is True


@pytest.mark.parametrize("name", ["t2", "tz"])
def test_a_moment_named_like_a_variable_of_the_deprivation_rule_still_locks(name):
    # t2 is bound in the deprivation rule; a join target holding the
    # variable t2 once shared its key with one holding the constant
    v = adjudicate(parse_scenario(sim1_with_moment_named(name), "sim1"))
    assert (v.decision, v.prove_status, v.proof_verified) == (LOCK, "proof", True)


# The names the guard's own axioms bind (deprivation_axiom,
# prevents_body, prevents_matrix), by sort
GUARD_BINDERS = {"p": "Agent", "g": "Goal", "t1": "Moment", "t2": "Moment",
                 "a'": "ActionType"}


def renamed(text: str, old: str, new: str) -> str:
    return re.sub(rf"(?<![\w'-]){re.escape(old)}(?![\w'-])", new, text)


@pytest.mark.parametrize("case", ["sim1", "sim2", "sim1_guilty"])
def test_renaming_a_constant_to_a_guard_binder_changes_no_verdict(case):
    texts = load_guardbench_texts()
    if case == "sim1_guilty":
        text = texts.sim1_guilty(texts.bundled_text("sim1"))
    else:
        text = texts.bundled_text(case)
    sc = parse_scenario(text, case)
    # a name the facts bind would be captured, so it is refused
    bound = {
        g.var.name
        for f in sc.facts
        for g in subformulas(f)
        if isinstance(g, (Forall, Exists))
    }

    def outcome(v):
        return v.decision, v.prove_status, v.proof_verified

    expected = outcome(adjudicate(sc))
    renames = [
        (old, new)
        for old, sort in sc.sig.constants.items()
        for new, binder_sort in GUARD_BINDERS.items()
        if sort == binder_sort
    ]
    assert len([r for r in renames if r[1] not in bound]) >= 4
    assert [r for r in renames if r[1] in bound]
    for old, new in renames:
        edited = renamed(text, old, new)
        if new in bound:
            with pytest.raises(ParseError, match=f"variable {new} has the name"):
                parse_scenario(edited, case)
            continue
        v = adjudicate(parse_scenario(edited, case))
        assert outcome(v) == expected, (old, new)


@pytest.mark.parametrize("case, old", [("sim1", "fire"), ("sim2", "shoot")])
def test_a_binder_that_would_capture_a_constant_is_a_parse_error(case, old):
    # the overseer's fact binds a' : ActionType; named a', the requested
    # action type was read as that variable inside its scope, and the
    # verdict went to ALLOW by no_proof
    text = load_guardbench_texts().bundled_text(case)
    edited = renamed(text, old, "a'")
    line = next(i for i, l in enumerate(edited.splitlines(), 1) if "(exists a' " in l)
    with pytest.raises(ParseError) as err:
        parse_scenario(edited, case)
    assert err.value.line == line
    assert err.value.message == "variable a' has the name of a declared constant"
    assert edited.splitlines()[line - 1][err.value.col - 1:].startswith("a' : ActionType")


def test_an_exception_on_the_way_locks(monkeypatch):
    text = SIM1_TEXT.replace(
        "  ((action shooter fire) terminates (alive victim) ((pos (alive victim)))))",
        "  ((action shooter fire) terminates (alive victim) ((pos (alive victim))))\n"
        "  ((action shooter fire) initiates (alive victim)))",
    )
    v = adjudicate(parse_scenario(text, "sim1"))
    assert v.decision == LOCK
    assert v.prove_status == "error"
    assert "ProjectionConflict" in v.reason
    assert v.obligation == obligation_goal(SIM1)

    def collide(*args):
        raise RuntimeError("shadow name collision on sh_000000000000")

    monkeypatch.setattr(guard, "prove", collide)
    v = adjudicate(SIM1)
    assert (v.decision, v.prove_status) == (LOCK, "error")
    assert "RuntimeError" in v.reason


def test_an_unjustified_verdict_locks(monkeypatch):
    # an ALLOW resting on an unverified proof breaks done()'s invariant
    def unverified(scenario, budget, goal):
        return guard.Verdict(ALLOW, "unjustified", goal, "proof", None, False)

    monkeypatch.setattr(guard, "_decide", unverified)
    v = adjudicate(SIM1)
    assert (v.decision, v.prove_status) == (LOCK, "error")
    assert "AssertionError" in v.reason


def test_grounding_capped_adjudication_fails_safe(monkeypatch):
    # too few instances to ground the deprivation rule: the search
    # saturates without the obligation, and that must not read as ALLOW
    assumptions, _ = adjudication_theory(SIM1)
    r = prover.prove(assumptions, obligation_goal(SIM1), sig=SIM1.sig)
    assert r.stats["grounding_instances"] >= 4  # p, g, t1 and t2
    monkeypatch.setattr(prover, "GROUNDING_INSTANCE_CAP", r.stats["grounding_instances"] - 1)
    v = adjudicate(SIM1)
    assert v.decision == LOCK
    assert v.prove_status == "incomplete"
    assert "failing safe" in v.reason
    assert v.proof is None
    assert v.dde is None


def test_depth_truncated_adjudication_fails_safe():
    # without the innocence fact nothing obliges the shooter; at depth 1
    # the modal expansion is cut short, so that absence is not established
    guilty = drop_facts(SIM1, "(innocent victim)")
    v = adjudicate(guilty, Budget(depth=1))
    assert v.decision == LOCK
    assert v.prove_status == "incomplete"
    assert "modal depth limit" in v.reason
    assert v.proof is None
    v = adjudicate(guilty)
    assert v.decision == ALLOW
    assert v.prove_status == "no_proof"


def test_incomplete_searches_answer_unknown(monkeypatch):
    monkeypatch.setattr(guard, "prove", lambda *args: ProveResult("incomplete"))

    def no_oracle(*args, **kwargs):
        raise AssertionError("an incomplete search must not consult the oracle")

    monkeypatch.setattr(guard, "oracle_entails", no_oracle)
    assert prevents_holds(SIM1, SHOOTER, VICTIM, G_LIVE, FIRE, 1).answer == "unknown"
    fire = Atom("happens", (App("action", (SHOOTER, FIRE), "Action"), moment(1)))
    pos, neg = intention_query(SHOOTER, 1, fire)
    assert epistemic_query(SIM1, pos, neg).answer == "unknown"


# ---------------------------------------------------------------------------
# theories

def test_base_theory_carries_no_norms():
    assumptions, trace = base_theory(SIM1)
    assert all("obligated" not in print_formula(f) for f in assumptions)
    # trace atoms cover states and the request occurrence
    assert any(print_formula(f) == "(holds (alive victim) 0)" for f in assumptions)
    assert any(
        print_formula(f) == "(happens (action shooter fire) 1)"
        for f in assumptions
    )
    assert not trace.holds(App("alive", (VICTIM,), "Fluent"), 2)


def test_adjudication_theory_adds_rule_and_bridges():
    texts = load_guardbench_texts()
    for k in (0, 3):
        sc = parse_scenario(texts.sim1_idle(texts.bundled_text("sim1"), k), f"sim1+idle{k}")
        base, _ = base_theory(sc)
        adj, _ = adjudication_theory(sc)
        extra = [print_formula(f) for f in adj[len(base):]]
        # one deprivation rule plus one bridge lifted over every goal
        # and victim, however many agents and goals are declared
        assert len(extra) == 2
        assert sum("obligated" in t for t in extra) == 1
        assert sum(
            t.startswith("(forall g : Goal (forall y : Agent (implies")
            and t.endswith("(Prevents shooter y g fire 1))))")
            for t in extra
        ) == 1


def test_adjudication_builds_the_request_theory_once(monkeypatch):
    calls = {"project": 0, "base_theory": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(guard, "project", counting("project", guard.project))
    monkeypatch.setattr(eventcalc, "project", counting("project", eventcalc.project))
    monkeypatch.setattr(
        guard, "base_theory", counting("base_theory", guard.base_theory)
    )
    for sc in (SIM1, SIM2):
        calls.update(project=0, base_theory=0)
        v = adjudicate(sc)
        assert v.dde is not None
        # one projection for the request theory, which effects_of reuses,
        # and one for the theory without the request
        assert calls == {"project": 2, "base_theory": 1}, sc.name


def test_with_occurrence_adds_the_request_once():
    req = SIM1.request
    event = App("action", (req.agent, req.atype), "Action")
    theory = SIM1.theory.without(event, req.moment)
    once = theory.with_occurrence(event, req.moment)
    assert once.occurrences == theory.occurrences | {(event, req.moment)}
    assert once.with_occurrence(event, req.moment) == once
    with pytest.raises(ValueError):
        theory.with_occurrence(event, theory.horizon)


# ---------------------------------------------------------------------------
# the prevention condition and its ablations

def test_prevention_holds_on_sim1():
    r = prevents_holds(SIM1, SHOOTER, VICTIM, G_LIVE, FIRE, 1)
    assert r.answer == "yes"
    assert r.proof is not None


ABLATIONS = {
    "first-ordering-fact": lambda: drop_facts(SIM1, "(prior 1 2)"),
    "second-ordering-fact": lambda: drop_facts(SIM1, "(prior 2 3)"),
    "victim-attitudes": lambda: drop_facts(
        SIM1, "(desires victim", "(intends victim"),
    "nested-knowledge": lambda: drop_facts(SIM1, "(knows ai 1"),
    "blocking-knowledge": lambda: drop_facts(SIM1, "(Block shooter"),
    "occurrence": lambda: dataclasses.replace(
        SIM1,
        theory=SIM1.theory.without(
            App("action", (SHOOTER, FIRE), "Action"), 1
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_prevention_ablation_refuted(name):
    sc = ABLATIONS[name]()
    r = prevents_holds(sc, SHOOTER, VICTIM, G_LIVE, FIRE, 1)
    assert r.answer == "no"
    assert r.countermodel is not None


def test_prevention_positive_on_sim2():
    # the defensive shot still meets the prevention condition; that is
    # exactly why an obligation arises before the override weighs in
    assailant = Const("assailant", "Agent")
    g_harm = Const("g_harm", "Goal")
    r = prevents_holds(SIM2, RANGER1, assailant, g_harm, SHOOT, 1)
    assert r.answer == "yes"


def test_prevention_unknown_outside_oracle_bounds():
    # six agents exceed the bounded-countermodel domain, so a failing
    # query degrades to unknown rather than claiming no
    ranger2 = Const("ranger2", "Agent")
    g_harm = Const("g_harm", "Goal")
    r = prevents_holds(SIM2, RANGER1, ranger2, g_harm, SHOOT, 1)
    assert r.answer == "unknown"
    assert r.countermodel is None


# ---------------------------------------------------------------------------
# attitude queries

def test_kill_intention_provable_in_sim1():
    alive = App("alive", (VICTIM,), "Fluent")
    pos, neg = intention_query(SHOOTER, 1, Not(Atom("holds", (alive, moment(2)))))
    r = epistemic_query(SIM1, pos, neg)
    assert r.answer == "yes"
    assert r.proof is not None


def test_safety_intention_provable_in_sim2():
    safe = App("safe", (Const("ranger2", "Agent"),), "Fluent")
    pos, neg = intention_query(RANGER1, 1, Atom("holds", (safe, moment(2))))
    assert epistemic_query(SIM2, pos, neg).answer == "yes"


def test_obligation_answers_no_for_the_dual():
    act = App("action", (RANGER1, SHOOT), "Action")
    pos, neg = intention_query(RANGER1, 1, Atom("happens", (act, moment(1))))
    assert epistemic_query(SIM2, pos, neg).answer == "no"


def test_unsettled_query_is_unknown():
    alive = App("alive", (SHOOTER,), "Fluent")
    pos, neg = intention_query(SHOOTER, 1, Atom("holds", (alive, moment(2))))
    assert epistemic_query(SIM1, pos, neg).answer == "unknown"


def test_inconsistent_theory_detected():
    sc = parse_scenario(
        """
        (constants (a Agent) (go ActionType) (f Fluent))
        (facts (intends a 0 (holds f 1))
               (obligated a 0 (not (holds f 1))))
        (horizon 2)
        (hierarchy (categories forbidden neutral))
        (request a go 0)
        """,
        "contra",
    )
    pos, neg = intention_query(
        Const("a", "Agent"), 0, Atom("holds", (Const("f", "Fluent"), moment(1)))
    )
    r = epistemic_query(sc, pos, neg)
    assert r.answer == "unknown"
    assert "inconsistent theory" in r.reason


# ---------------------------------------------------------------------------
# the query APIs are total

def sim1_conflicting():
    """sim1 with an axiom that initiates the fluent fire terminates."""
    text = SIM1_TEXT.replace(
        "  ((action shooter fire) terminates (alive victim) ((pos (alive victim)))))",
        "  ((action shooter fire) terminates (alive victim) ((pos (alive victim))))\n"
        "  ((action shooter fire) initiates (alive victim)))",
    )
    return parse_scenario(text, "sim1")


def test_prevention_query_on_a_conflicting_scenario_is_unknown():
    sc = sim1_conflicting()
    assert adjudicate(sc).decision == LOCK
    r = prevents_holds(sc, SHOOTER, VICTIM, G_LIVE, FIRE, 1)
    assert r.answer == "unknown"
    assert r.proof is None and r.countermodel is None
    assert "ProjectionConflict" in r.reason


def test_epistemic_query_on_a_conflicting_scenario_is_unknown():
    sc = sim1_conflicting()
    alive = App("alive", (VICTIM,), "Fluent")
    pos, neg = intention_query(SHOOTER, 1, Not(Atom("holds", (alive, moment(2)))))
    r = epistemic_query(sc, pos, neg)
    assert r.answer == "unknown"
    assert r.proof is None
    assert "ProjectionConflict" in r.reason


def test_prevention_query_reports_an_oracle_disagreement(monkeypatch):
    # a blocking-knowledge ablation is a complete no_proof within the
    # oracle's bounds; an oracle that entails it contradicts the search
    sc = ABLATIONS["blocking-knowledge"]()
    assert prevents_holds(sc, SHOOTER, VICTIM, G_LIVE, FIRE, 1).answer == "no"
    monkeypatch.setattr(guard, "oracle_entails", lambda *args, **kwargs: (True, None))
    r = prevents_holds(sc, SHOOTER, VICTIM, G_LIVE, FIRE, 1)
    assert r.answer == "unknown"
    assert "disagree" in r.reason
