"""Term-level relevance: a grounding instance the purity check refuses
changes no answer.

The sim1 family is edited at random (facts dropped, constants renamed,
idle goals and action types, a fluent, facts that keep more instances
alive), always within the finite-model oracle's bounds.  The obligation
search must give the same status and the same proof with the check
switched off, a proof must verify against the full assumptions, and a
complete no_proof must not be entailed.  Over the same family, the
lifted prevention bridge must give the status the ground bridge list
it replaced gives.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from modalguard import ethics, guard, prover
from modalguard.ethics import check_dde, intention_formula
from modalguard.guard import (
    LOCK,
    _within_oracle_bounds,
    adjudicate,
    adjudication_theory,
    base_theory,
    obligation_goal,
    prevention_bridge,
    prevents_body,
    prevents_holds,
)
from modalguard.models import entails
from modalguard.parser import parse_formula
from modalguard.proofs import verify_proof
from modalguard.prover import prove
from modalguard.scenario import parse_scenario
from modalguard.syntax import (
    AGENT,
    GOAL,
    Atom,
    Const,
    Implies,
    Not,
    Signature,
    canonical_key,
    moment,
    print_formula,
    print_term,
)

import corpus
from test_prover import answer, load_guardbench_texts

SIM1 = load_guardbench_texts().bundled_text("sim1")
FACTS_AT = "(facts\n"
# the fact lines of sim1 that stand alone (the last one also closes the
# section)
FACT_LINES = SIM1[SIM1.index(FACTS_AT):SIM1.index("(initial")].splitlines(keepends=True)
DROPPABLE = [
    line
    for line in FACT_LINES
    if line.startswith("  (") and line.count("(") == line.count(")")
]
# facts that let more instances of the deprivation rule and of the
# prevention bridge meet a complement
EXTRA_FACTS = (
    "(innocent shooter)",
    "(innocent ai)",
    "(prior 1 3)",
    "(prior 3 2)",
    "(forall p : Agent (innocent p))",
    "(forall t : Moment (prior t 3))",
)
# new names for declared constants; none of them is bound by a fact, and
# t1, t2 and g are bound by the guard's own axioms
NEW_NAMES = ("zed", "t1", "t2", "g", "m3")


def renamed(text: str, old: str, new: str) -> str:
    return re.sub(rf"(?<![\w'-]){re.escape(old)}(?![\w'-])", new, text)


@st.composite
def sim1_family(draw, new_names=NEW_NAMES) -> tuple[str, dict[str, str]]:
    """A sim1 variant and the renaming of its constants."""
    text = SIM1
    for line in draw(st.lists(st.sampled_from(DROPPABLE), unique=True, max_size=3)):
        text = text.replace(line, "", 1)
    extra = draw(st.lists(st.sampled_from(EXTRA_FACTS), unique=True, max_size=3))
    text = text.replace(FACTS_AT, FACTS_AT + "".join(f"  {f}\n" for f in extra))
    # idle goals and action types; sim1 already has the most agents the
    # oracle takes
    decls = "".join(f" (g_idle{i} Goal)" for i in range(draw(st.integers(0, 2))))
    decls += "".join(f" (a_idle{i} ActionType)" for i in range(draw(st.integers(0, 2))))
    text = text.replace("  (g_live Goal))\n", f"  (g_live Goal){decls})\n")
    if draw(st.booleans()):
        text = text.replace(
            "  (alive Agent Fluent))", "  (alive Agent Fluent)\n  (armed Agent Fluent))"
        )
        text = text.replace("(initial (alive shooter)", "(initial (armed shooter) (alive shooter)")
    names = ["ai", "shooter", "victim", "fire", "g_live"]
    olds = draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
    news = draw(st.lists(st.sampled_from(new_names), unique=True, min_size=len(olds), max_size=len(olds)))
    renaming = dict(zip(olds, news))
    for old, new in renaming.items():
        text = renamed(text, old, new)
    return text, renaming


def proof_print(r) -> tuple:
    steps = () if r.proof is None else r.proof.steps
    return r.status, tuple((print_formula(s.formula), s.rule, s.premises) for s in steps)


def unchecked(mp: pytest.MonkeyPatch) -> None:
    """Switch the purity check off: every instance is built."""
    mp.setattr(prover._Prep, "_pure", lambda self, key, c: False)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(sim1_family())
def test_the_purity_check_changes_no_obligation_search(variant):
    text, _ = variant
    sc = parse_scenario(text, "sim1-variant")
    assert _within_oracle_bounds(sc)
    assumptions, _ = adjudication_theory(sc)
    goal = obligation_goal(sc)
    checked = prove(assumptions, goal, sig=sc.sig)
    with pytest.MonkeyPatch.context() as mp:
        unchecked(mp)
        plain = prove(assumptions, goal, sig=sc.sig)
    assert proof_print(checked) == proof_print(plain)
    assert plain.stats["pure_instances"] == 0
    assert checked.stats["grounding_instances"] <= plain.stats["grounding_instances"]
    if checked.status == "proof":
        assert verify_proof(checked.proof, assumptions, goal, sc.sig)
    else:
        assert checked.status == "no_proof"
        assert not entails(assumptions, goal, sc.sig)[0]


# Roots whose instances all hold a ground literal no other formula can
# resolve away: (prior 3 1), never stated in the family, or a Block at
# moment 3, which nothing asserts.  Each consequent is a modal with x in
# it, so each root is grounded; some bring out more literals by S1.
UNSUPPORTED_ANTECEDENTS = ("(prior 3 1)", "(Block x x g_live fire 3)")
CONSEQUENTS = (
    "(knows x 1 (innocent x))",
    "(knows x 1 (Block x victim g_live fire 1))",
    "(believes x 1 (happens (action x fire) 1))",
    "(obligated x 1 (not (happens (action shooter fire) 1)))",
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    sim1_family(),
    st.sampled_from(UNSUPPORTED_ANTECEDENTS),
    st.sampled_from(CONSEQUENTS),
    st.booleans(),
)
def test_a_root_whose_instances_are_pure_changes_no_proof(variant, ante, cons, innocent):
    text, renaming = variant
    sc = parse_scenario(text, "sim1-variant")
    assumptions, _ = adjudication_theory(sc)
    goal = obligation_goal(sc)
    if innocent:
        ante = f"(and (innocent x) {ante})"
    root = f"(forall x : Agent (implies {ante} {cons}))"
    for old, new in renaming.items():
        root = renamed(root, old, new)
    extra = parse_formula(root, sc.sig)
    without = prove(assumptions, goal, sig=sc.sig)
    with_root = prove([*assumptions, extra], goal, sig=sc.sig)
    assert proof_print(with_root) == proof_print(without)
    # every instance of the root is refused
    assert with_root.stats["pure_instances"] > without.stats["pure_instances"]


def test_a_literal_with_a_variable_is_not_checked():
    # C lies below A and B, which are incomparable.  The instance at a1
    # of the first root holds (R x) with x : A, and the only literal of
    # opposite sign is (not (R z)) with z : B.  The two variables do not
    # unify, yet resolution meets them at c1 : C; checked, the instance
    # would be refused and the proof lost.
    sig = Signature()
    sig.declare_sort("Thing")
    sig.declare_sort("A", ("Thing",))
    sig.declare_sort("B", ("Thing",))
    sig.declare_sort("C", ("A", "B"))
    sig.declare_constant("a1", AGENT)
    sig.declare_constant("c1", "C")
    sig.declare_predicate("P", (AGENT,))
    sig.declare_predicate("Q", ("Thing",))
    sig.declare_predicate("R", ("Thing",))
    sig.declare_predicate("Z", ())
    p = lambda text: parse_formula(text, sig)
    assumptions = [
        p("(forall y : Agent (implies (knows y 1 (P y)) (forall x : A (R x))))"),
        p("(knows a1 1 (P a1))"),
        p("(forall z : B (implies (Q z) (not (R z))))"),
        p("(Q c1)"),
    ]
    goal = p("(Z)")
    r = prove(assumptions, goal, sig=sig)
    assert r.status == "proof"
    assert verify_proof(r.proof, assumptions, goal, sig)


def test_a_pure_instance_is_built_for_a_join_target_a_kept_root_uses():
    # (C1 bob) meets no complement, only (not (C1 carol)) holds C1
    # negatively, so the instance at bob is pure; but its join target is
    # the antecedent S3 needs: S4 joins it from the two kept parts, and
    # S3 then derives the goal
    sig = corpus.corpus_signature()
    texts = (
        "(knows bob 1 (P alice))",
        "(knows bob 1 (Q alice))",
        "(knows bob 1 (implies (and (P alice) (Q alice)) (R alice bob)))",
        "(forall y : Agent (or (C1 y) (knows y 1 (and (P alice) (Q alice)))))",
        "(not (C1 carol))",
    )
    fs = [parse_formula(t, sig) for t in texts]
    goal = parse_formula("(knows bob 1 (R alice bob))", sig)
    r = prove(fs, goal, sig=sig)
    assert r.status == "proof"
    assert {"S4-join", "S3"} <= {s.rule for s in r.proof.steps}
    assert r.stats["pure_instances"] == 0
    assert verify_proof(r.proof, fs, goal, sig)
    # a target no kept root can use goes with its pure instances
    fs[3] = parse_formula(
        "(forall y : Agent (or (C1 y) (knows y 1 (and (Q alice) (C2 alice)))))", sig
    )
    again = prove(fs, goal, sig=sig)
    assert again.status == "no_proof"
    # at alice and bob, and at carol, where (C1 carol) meets a complement
    # but the knows literal, which nothing holds negatively, meets none
    assert again.stats["pure_instances"] == 3


def test_a_pure_instances_witness_merges_into_the_anonymous_element_of_its_sort():
    sig = corpus.corpus_signature()
    sig.declare_sort("Tool")
    sig.declare_predicate("Sharp", ("Tool",))
    fs = [parse_formula(t, sig) for t in (
        "(forall y : Agent (exists x : Tool (or (C1 y) (knows y 1 (Sharp x)))))",
        "(not (C1 carol))",
        "(forall x : Tool (knows alice 1 (Sharp x)))",
    )]
    goal = parse_formula("(exists x : Tool (Sharp x))", sig)
    # Tool has no constant, so the domain gives it one anonymous
    # element; a pure instance's witness merges into it, and the
    # instance is not built: at alice, and at carol, where (C1 carol)
    # meets a complement but the knows literal, which nothing holds
    # negatively, meets none
    r = prove(fs, goal, sig=sig)
    assert r.status == "proof"
    assert r.stats["pure_instances"] == 2
    assert verify_proof(r.proof, fs, goal, sig)
    # with a declared Tool a witness merges into it, and the pure
    # instances go
    sig.declare_constant("wrench", "Tool")
    again = prove(fs, goal, sig=sig)
    assert again.status == "proof"
    # at alice and carol, as above; the closure mentions no bob
    assert again.stats["pure_instances"] == 2


def test_a_variable_bound_again_below_is_not_filled():
    # in the instance at alice, (C1 x) holds the inner x, which meets
    # (not (C1 carol)); filled with alice, it would be found pure
    sig = corpus.corpus_signature()
    fs = [parse_formula(t, sig) for t in (
        "(forall x : Agent (or (knows x 1 (P x)) (forall x : Agent (C1 x))))",
        "(not (knows alice 1 (P alice)))",
        "(not (C1 carol))",
    )]
    goal = parse_formula("(rains)", sig)
    r = prove(fs, goal, sig=sig)
    assert r.status == "proof"
    assert verify_proof(r.proof, fs, goal, sig)


# The prevention bridge is one axiom lifted over every victim and goal.
# Adjudication once built it ground instead, one bridge per goal and
# agent other than the actor; that list is the reference here.


def ground_bridges(sc) -> list:
    req = sc.request
    t = moment(req.moment)
    return [
        Implies(
            prevents_body(req.agent, y, g, req.atype, t),
            Atom("Prevents", (req.agent, y, g, req.atype, t)),
        )
        for y in sc.sig.constants_of_sort(AGENT)
        if y != req.agent
        for g in sc.sig.constants_of_sort(GOAL)
    ]


def with_ground_bridges(sc) -> list:
    """The obligation query's assumptions with the lifted bridge
    replaced by the ground reference list."""
    assumptions, _ = adjudication_theory(sc)
    req = sc.request
    assert assumptions[-1] == prevention_bridge(req.agent, req.atype, req.moment)
    return [*assumptions[:-1], *ground_bridges(sc)]


# sim2's general norm for sim1's shooter, the only kind of fact that
# reads the bridge's Prevents; its binders are not among the new names
NORM = (
    "(forall v : Agent (forall h : Goal (implies (Prevents shooter v h fire 1)"
    " (obligated shooter 1 (not (happens (action shooter fire) 1))))))"
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sim1_family(new_names=(*NEW_NAMES, "y")), st.booleans())
@example((SIM1, {}), True)
def test_the_lifted_bridge_gives_the_ground_bridges_status(variant, normed):
    # y, a binder of the lifted bridge, is also drawn as a new name
    text, renaming = variant
    if normed:
        # the norm instead of the victim's innocence obliges refraining,
        # so that the proof, if any, goes through the bridge
        text = text.replace(f"  (innocent {renaming.get('victim', 'victim')})\n", "")
    sc = parse_scenario(text, "sim1-variant")
    goal = obligation_goal(sc)
    lifted, _ = adjudication_theory(sc)
    ground = with_ground_bridges(sc)
    if normed:
        norm = NORM
        for old, new in renaming.items():
            norm = renamed(norm, old, new)
        lifted.append(parse_formula(norm, sc.sig))
        ground.append(lifted[-1])
    got = prove(lifted, goal, sig=sc.sig)
    want = prove(ground, goal, sig=sc.sig)
    assert got.status == want.status
    assert got.status in ("proof", "no_proof")
    for r, assumptions in ((got, lifted), (want, ground)):
        if r.status == "proof":
            assert verify_proof(r.proof, assumptions, goal, sc.sig)


# The lifted bridge also holds at y = the actor, which the ground list
# left out.  Here a climber knowingly blocks their own goal under a norm
# over everyone's goals: the self-prevention instance yields a verified
# obligation, and as the cut has no double-effect cover the verdict is
# LOCK, where the ground list found no proof and ALLOWed.
SELF_PREVENTION = """
(constants
  (ai Agent) (climber Agent)
  (cut ActionType)
  (g_summit Goal))

(functions
  (roped Agent Fluent))

(facts
  (prior 1 2)
  (prior 2 3)
  (knows climber 1 (desires climber 1 (holds g_summit 3)))
  (knows climber 1 (intends climber 1 (happens g_summit 3)))
  (knows climber 1 (exists a' : ActionType (and (intends climber 2 (happens (action climber a') 2)) (implies (and (happens (action climber a') 2) (not (Block climber climber g_summit cut 1))) (happens g_summit 3)))))
  (knows climber 1 (implies (happens (action climber cut) 1) (Block climber climber g_summit cut 1)))
  (forall y : Agent (forall g : Goal (implies (Prevents climber y g cut 1) (obligated climber 1 (not (happens (action climber cut) 1)))))))

(initial (roped climber))

(axioms
  ((action climber cut) terminates (roped climber) ((pos (roped climber)))))

(occurrences ((action climber cut) 1))

(horizon 3)

(hierarchy
  (categories forbidden harmful neutral defensive)
  (classify cut neutral))

(utilities
  ((roped _) pos 1)
  (gamma 0))

(request climber cut 1)
(guardian ai)
"""


def test_an_actor_blocking_their_own_goal_is_obliged_to_refrain():
    sc = parse_scenario(SELF_PREVENTION, "self-prevention")
    v = adjudicate(sc)
    assert (v.decision, v.prove_status) == (LOCK, "proof")
    assert v.proof_verified is True
    assumptions, _ = adjudication_theory(sc)
    assert verify_proof(v.proof, assumptions, v.obligation, sc.sig)
    assert v.reason == "obligation stands: double-effect clauses failing: C2"
    # without the instance at the actor no obligation is derivable
    assert prove(with_ground_bridges(sc), v.obligation, sig=sc.sig).status == "no_proof"


# The C3 intention queries of the double-effect check read the base
# theory, without norms; here over sim2's family.  The reference is the
# same search with both relevance filters off.  sim2 has 6 agents, more
# than ORACLE_MAX_AGENTS, so no no_proof here is also checked against
# the finite-model oracle.
GUARDBENCH_TEXTS = load_guardbench_texts()
SIM2 = GUARDBENCH_TEXTS.bundled_text("sim2")
# removed, this fact leaves one good effect's intention unprovable
RANGER2_SAFE = "  (intends ranger1 1 (holds (safe ranger2) 2))\n"
SIM2_FAMILY = {
    "sim2": SIM2,
    "sim2+1": GUARDBENCH_TEXTS.sim2_extra_effects(SIM2, 1),
    "sim2+2": GUARDBENCH_TEXTS.sim2_extra_effects(SIM2, 2),
    "sim2-ranger2": SIM2.replace(RANGER2_SAFE, "", 1),
}


def unpruned(mp: pytest.MonkeyPatch) -> None:
    """Switch both relevance filters off: no root is left out, and every
    instance is built."""
    mp.setattr(prover, "_pure_roots", lambda roots: set())
    unchecked(mp)


@pytest.mark.parametrize("label", list(SIM2_FAMILY))
def test_relevance_changes_no_intention_query(label):
    text = SIM2_FAMILY[label]
    assert label == "sim2" or text != SIM2
    sc = parse_scenario(text, label)
    base, _ = base_theory(sc)
    req = sc.request
    v = check_dde(sc.theory, req.agent, req.atype, req.moment, sc.hierarchy, sc.utilities, base, sc.sig)
    assert v.effects
    statuses = []
    for e in v.effects:
        goal = intention_formula(req.agent, req.moment, e)
        pruned = prove(base, goal, sig=sc.sig)
        with pytest.MonkeyPatch.context() as mp:
            unpruned(mp)
            plain = prove(base, goal, sig=sc.sig)
        assert pruned.status == plain.status, print_formula(goal)
        assert pruned.status in ("proof", "no_proof")
        # the filters were on in one search and off in the other
        assert pruned.stats["pruned_roots"] > 0 == plain.stats["pruned_roots"]
        for r in (pruned, plain):
            if r.status == "proof":
                assert verify_proof(r.proof, base, goal, sc.sig)
        statuses.append(pruned.status)
    assert "proof" in statuses and "no_proof" in statuses
    good_unproved = [
        print_term(e.fluent)
        for e, status in zip(v.effects, statuses)
        if status == "no_proof" and sc.utilities.effect_utility(e) > 0
    ]
    assert good_unproved == (["(safe ranger2)"] if label == "sim2-ranger2" else [])
    assert v.clauses["C3"].status == ("fail" if good_unproved else "pass")


@pytest.mark.parametrize("label", list(SIM2_FAMILY))
def test_relevance_changes_no_obligation_search_over_sim2(label):
    # the obligation search reads the request theory with its norms; the
    # same proof with both relevance filters off, and it verifies
    sc = parse_scenario(SIM2_FAMILY[label], label)
    assumptions, _ = adjudication_theory(sc)
    goal = obligation_goal(sc)
    pruned = prove(assumptions, goal, sig=sc.sig)
    with pytest.MonkeyPatch.context() as mp:
        unpruned(mp)
        plain = prove(assumptions, goal, sig=sc.sig)
    assert proof_print(pruned) == proof_print(plain)
    assert pruned.stats["pruned_roots"] > 0 == plain.stats["pruned_roots"]
    assert pruned.status == "proof"
    assert verify_proof(pruned.proof, assumptions, goal, sc.sig)


# ---------------------------------------------------------------------------
# one Premises asks every C3 goal of a check: each answer is the one a
# fresh prove over a plain list gives

SIM2_FAMILY_C3 = {**SIM2_FAMILY, "sim2+4": GUARDBENCH_TEXTS.sim2_extra_effects(SIM2, 4)}


def assert_one_premises_answers_as_fresh_calls(text: str, label: str) -> int:
    """Ask every C3 goal of the text's check in sequence of one Premises;
    returns the number of goals."""
    sc = parse_scenario(text, label)
    base, _ = base_theory(sc)
    req = sc.request
    v = check_dde(sc.theory, req.agent, req.atype, req.moment, sc.hierarchy, sc.utilities, base, sc.sig)
    premises = prover.Premises(base)
    for e in v.effects:
        goal = intention_formula(req.agent, req.moment, e)
        shared = prove(premises, goal, sig=sc.sig)
        assert answer(shared) == answer(prove(list(base), goal, sig=sc.sig)), print_formula(goal)
    return len(v.effects)


@pytest.mark.parametrize("label", list(SIM2_FAMILY_C3))
def test_one_premises_answers_every_c3_goal_of_sim2_as_fresh_calls(label):
    assert assert_one_premises_answers_as_fresh_calls(SIM2_FAMILY_C3[label], label) > 1


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(sim1_family())
@example((SIM1, {}))
def test_one_premises_answers_every_c3_goal_of_sim1_as_fresh_calls(variant):
    text, _ = variant
    assert_one_premises_answers_as_fresh_calls(text, "sim1-variant")


def test_one_premises_prunes_each_guard_goal_as_a_fresh_call():
    # an intention goal and the obligation goal negate a modal, which
    # adds nothing to their shape; the prevention condition's negation
    # holds prior negatively, so it keeps the prior facts the other two
    # leave out
    sc = parse_scenario(SIM1, "sim1")
    assumptions, _ = base_theory(sc)
    req = sc.request
    v = check_dde(sc.theory, req.agent, req.atype, req.moment, sc.hierarchy, sc.utilities, assumptions, sc.sig)
    c = {n: Const(n, s) for n, s in sc.sig.constants.items()}
    goals = (
        intention_formula(req.agent, req.moment, v.effects[0]),
        prevents_body(c["shooter"], c["victim"], c["g_live"], c["fire"], moment(1)),
        obligation_goal(sc),
    )
    premises = prover.Premises(assumptions)
    pruned = []
    for goal in goals:
        shared = prove(premises, goal, sig=sc.sig)
        assert answer(shared) == answer(prove(list(assumptions), goal, sig=sc.sig))
        pruned.append(shared.stats["pruned_roots"])
    assert pruned[1] < pruned[0] == pruned[2]


def test_check_dde_prunes_the_roots_of_its_theory_once(monkeypatch):
    calls = []

    def counting(roots):
        calls.append(len(roots))
        return pure_roots(roots)

    pure_roots = prover._pure_roots
    monkeypatch.setattr(prover, "_pure_roots", counting)
    sc = parse_scenario(SIM2_FAMILY_C3["sim2+4"], "sim2+4")
    base, trace = base_theory(sc)
    req = sc.request
    v = check_dde(
        sc.theory, req.agent, req.atype, req.moment, sc.hierarchy, sc.utilities, base, sc.sig,
        trace=trace,
    )
    assert v.compliant
    assert len(v.effects) > 20
    assert calls == [len(base) + 1]


# ---------------------------------------------------------------------------
# the assumption route: a C3 goal the base theory assumes is proved by its
# assumption step before any grounding, with the proof the closure gives


def no_assumption_route(mp: pytest.MonkeyPatch) -> None:
    """Send every goal down the grounding closure."""
    mp.setattr(prover, "_assumed", lambda premises, kept, goal_key: None)


@pytest.mark.parametrize("label", list(SIM2_FAMILY_C3))
def test_the_assumption_route_changes_no_c3_answer(label):
    sc = parse_scenario(SIM2_FAMILY_C3[label], label)
    base, _ = base_theory(sc)
    req = sc.request
    v = check_dde(sc.theory, req.agent, req.atype, req.moment, sc.hierarchy, sc.utilities, base, sc.sig)
    premises = prover.Premises(base)
    routes = []
    for e in v.effects:
        goal = intention_formula(req.agent, req.moment, e)
        r = prove(premises, goal, sig=sc.sig)
        with pytest.MonkeyPatch.context() as mp:
            no_assumption_route(mp)
            closed = prove(premises, goal, sig=sc.sig)
        assert proof_print(r) == proof_print(closed), print_formula(goal)
        routes.append(r.stats.get("route"))
        # an assumption keyed as the goal is never pruned
        key = canonical_key(goal)
        pruned = premises.pruned(Not(goal))
        assert not [i for i in pruned if premises.keyed(i)[0] == key]
    # every effect but the good one sim2-ranger2 drops and the bad ones
    # is assumed intended
    assert routes.count("assumption") == len(v.effects) - (3 if label == "sim2-ranger2" else 2)
    assert "closure" not in routes


def test_check_dde_asks_one_prove_per_effect_of_sim2_plus_4(monkeypatch):
    routes = []

    def counting(*args, **kwargs):
        r = prove(*args, **kwargs)
        routes.append(r.stats.get("route"))
        return r

    monkeypatch.setattr(ethics, "prove", counting)
    sc = parse_scenario(SIM2_FAMILY_C3["sim2+4"], "sim2+4")
    base, _ = base_theory(sc)
    req = sc.request
    v = check_dde(sc.theory, req.agent, req.atype, req.moment, sc.hierarchy, sc.utilities, base, sc.sig)
    assert v.compliant
    assert len(routes) == len(v.effects) == 22
    assert routes.count("assumption") == 20


# ---------------------------------------------------------------------------
# the modal half of the purity check: an instance holding a modal literal
# that meets no complement is not built, and no search changes


def modal_check_off(mp: pytest.MonkeyPatch) -> None:
    """Take every modal literal for supported at every constant."""
    mp.setattr(prover._Prep, "_met", lambda self, m, positive, hole: None)


CORPUS_SIG = corpus.corpus_signature()
EXACTNESS_TEXTS = (
    SIM1,
    GUARDBENCH_TEXTS.sim1_guilty(SIM1),
    *(GUARDBENCH_TEXTS.sim1_idle(SIM1, k) for k in (1, 2, 3, 8)),
    SIM2,
    *(GUARDBENCH_TEXTS.sim2_extra_effects(SIM2, m) for m in (1, 2, 4, 8)),
)
SIM1_ABLATED = tuple(
    GUARDBENCH_TEXTS.sim1_ablation(SIM1, name) for name in GUARDBENCH_TEXTS.SIM1_ABLATIONS
)
# the benchmark's prevention queries, as (text, x, y, g, a)
PREVENTIONS = (
    (SIM1, "shooter", "victim", "g_live", "fire"),
    (SIM1, "shooter", "ai", "g_live", "fire"),
    (SIM2, "ranger1", "assailant", "g_harm", "shoot"),
    *((text, "shooter", "victim", "g_live", "fire") for text in SIM1_ABLATED),
)


def every_search() -> list[tuple]:
    """The status, proof steps, generated clauses and grounding instances
    of every search the guard runs on the scenario texts above, ablated
    ones included, and on the prevention queries, and of every corpus
    problem's."""
    results = []

    def recording(*args, **kwargs):
        results.append(prove(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(guard, "prove", recording)
        mp.setattr(ethics, "prove", recording)
        for i, text in enumerate((*EXACTNESS_TEXTS, *SIM1_ABLATED)):
            adjudicate(parse_scenario(text, f"case{i}"))
        for text, *names in PREVENTIONS:
            sc = parse_scenario(text, "prevention")
            prevents_holds(sc, *(Const(n, sc.sig.constants[n]) for n in names), 1)
    for prob in corpus.PROBLEMS:
        fs, goal = prob.load(CORPUS_SIG)
        results.append(prove(fs, goal, sig=CORPUS_SIG))
    return [
        (*proof_print(r), r.stats.get("generated_clauses"), r.stats.get("grounding_instances", 0))
        for r in results
    ]


def test_the_modal_check_changes_no_search():
    checked = every_search()
    with pytest.MonkeyPatch.context() as mp:
        modal_check_off(mp)
        plain = every_search()
    assert len(checked) == len(plain) > 180
    for got, want in zip(checked, plain):
        assert got[:3] == want[:3]
        assert got[3] <= want[3]
    assert sum(got[3] for got in checked) < sum(want[3] for want in plain)


# Small theories over the corpus signature: the instance at alice holds
# a modal literal that only the named rule supports, so it is built and
# the goal is proved; at the other agents it is pure.
MODAL_RULES = {
    # the negated goal holds the knows literal negatively at bob only
    "met by the negated goal": (
        ("(forall y : Agent (or (C1 y) (knows y 1 (P y))))", "(not (C1 alice))", "(not (C1 bob))"),
        "(knows bob 1 (P bob))",
    ),
    # S4 joins the conjunction from two knows facts
    "S4-join": (
        (
            "(forall y : Agent (implies (knows bob 1 (and (P y) (Q y))) (C2 y)))",
            "(knows bob 1 (P alice))",
            "(knows bob 1 (Q alice))",
            "(not (C2 bob))",
        ),
        "(C2 alice)",
    ),
    # S2 derives the belief from a knows fact
    "S2": (
        (
            "(forall y : Agent (implies (believes y 1 (P y)) (C3 y)))",
            "(knows alice 1 (P alice))",
            "(not (C3 bob))",
        ),
        "(C3 alice)",
    ),
    # S4-split takes the implication out of a conjunction, and S3 its
    # consequent
    "S3 after S4-split": (
        (
            "(forall y : Agent (implies (knows bob 1 (Q y)) (C4 y)))",
            "(knows bob 1 (and (P alice) (implies (P alice) (Q alice))))",
            "(not (C4 bob))",
        ),
        "(C4 alice)",
    ),
    # S1 brings a knows formula out of a knows fact, and S4-split a
    # conjunct out of that
    "S4-split after S1": (
        (
            "(forall y : Agent (implies (knows bob 1 (Q y)) (C5 y)))",
            "(knows alice 1 (knows bob 1 (and (P alice) (Q alice))))",
            "(not (C5 bob))",
        ),
        "(C5 alice)",
    ),
}


@pytest.mark.parametrize("rule", list(MODAL_RULES))
def test_an_instance_whose_modal_a_rule_supports_is_built(rule):
    texts, goal_text = MODAL_RULES[rule]
    fs = [parse_formula(t, CORPUS_SIG) for t in texts]
    goal = parse_formula(goal_text, CORPUS_SIG)
    r = prove(fs, goal, sig=CORPUS_SIG)
    assert r.status == "proof"
    assert verify_proof(r.proof, fs, goal, CORPUS_SIG)
    # at alice; the instance at bob is pure through its modal literal
    assert (r.stats["grounding_instances"], r.stats["pure_instances"]) == (1, 1)
    with pytest.MonkeyPatch.context() as mp:
        modal_check_off(mp)
        plain = prove(fs, goal, sig=CORPUS_SIG)
    assert proof_print(plain) == proof_print(r)
    assert plain.stats["grounding_instances"] == 2


def test_an_instance_that_can_be_a_modal_formula_is_not_checked_for_its_modal():
    # the instances of the outer quantifier are universal knows formulas,
    # whose own instances S1 takes apart; no negative knows formula meets
    # their modal, yet the proof needs (R alice bob)
    texts = ("(forall x : Agent (forall y : Agent (knows x 1 (R x y))))", "(not (R alice bob))")
    fs = [parse_formula(t, CORPUS_SIG) for t in texts]
    goal = parse_formula("(rains)", CORPUS_SIG)
    r = prove(fs, goal, sig=CORPUS_SIG)
    assert r.status == "proof"
    assert verify_proof(r.proof, fs, goal, CORPUS_SIG)
    assert r.stats["pure_instances"] == 0


def test_an_instance_holding_a_join_target_s4_can_join_is_built():
    # the knows literals of the instances at alice and carol meet no
    # complement, but S4 can join alice's from the two facts: that
    # instance is built, and the closure derives every other record it
    # derives with the check off
    fs = [
        parse_formula(t, CORPUS_SIG)
        for t in (
            "(forall y : Agent (or (C1 y) (knows bob 1 (and (P y) (Q y)))))",
            "(knows bob 1 (P alice))",
            "(knows bob 1 (Q alice))",
            "(not (C1 alice))",
            "(not (C1 carol))",
        )
    ]
    goal = parse_formula("(rains)", CORPUS_SIG)
    r = prove(fs, goal, sig=CORPUS_SIG)
    with pytest.MonkeyPatch.context() as mp:
        modal_check_off(mp)
        plain = prove(fs, goal, sig=CORPUS_SIG)
    assert r.status == plain.status == "no_proof"
    assert r.stats["generated_clauses"] == plain.stats["generated_clauses"] > 0
    assert (r.stats["grounding_instances"], plain.stats["grounding_instances"]) == (1, 2)
    assert r.stats["expansion_size"] == plain.stats["expansion_size"] - 1


@pytest.mark.parametrize("m", (0, 4, 8))
def test_sim2s_obligation_search_builds_the_assailants_instances_only(m):
    # the bridge at g_harm and, below it, at the assailant and moments 2
    # and 3; every other victim's knows literals meet no fact, and extra
    # effects add none
    text = SIM2 if m == 0 else GUARDBENCH_TEXTS.sim2_extra_effects(SIM2, m)
    sc = parse_scenario(text, f"sim2+{m}")
    assumptions, _ = adjudication_theory(sc)
    r = prove(assumptions, obligation_goal(sc), sig=sc.sig)
    assert r.status == "proof"
    assert r.stats["grounding_instances"] == 4
    if m == 0:
        assert r.stats["expansion_size"] == 36
