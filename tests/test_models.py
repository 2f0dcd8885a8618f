"""Finite-model oracle: satisfiability, entailment, documented limits."""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from modalguard import models
from modalguard.eventcalc import project
from modalguard.guard import (
    adjudication_theory,
    obligation_goal,
    prevents_body,
    prevents_holds,
    trace_atoms,
)
from modalguard.models import entails, satisfiable
from modalguard.parser import parse_formula
from modalguard.proofs import verify_proof
from modalguard.prover import prove
from modalguard.scenario import parse_scenario
from modalguard.schemata import (
    RULE_ASSUMPTION,
    Derivation,
    expand_modal,
    harvest_join_targets,
)
from modalguard.syntax import (
    ACTION,
    AGENT,
    EVENT,
    FALSUM,
    GOAL,
    KNOWS,
    MOMENT,
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Iff,
    Implies,
    Modal,
    Not,
    Or,
    Signature,
    Var,
    canonical_key,
    conjuncts,
    moment,
    symbol_names,
)

import corpus
from corpus import substitute
from test_parser import RandomFormulas, round_trip_sig, with_join_targets
from test_prover import load_guardbench_texts

SIG = corpus.corpus_signature()


def F(text: str):
    return parse_formula(text, SIG)


def load(name: str):
    prob = next(p for p in corpus.PROBLEMS if p.name == name)
    return prob.load(SIG)


# ---------------------------------------------------------------------------
# satisfiability

def test_a_sort_with_no_constant_has_an_anonymous_element():
    # no constant is an Action: the universal over Action once read as
    # vacuous here, and the oracle found the countermodel [] while prove
    # proved (P g1) and the checker accepted the proof
    sig = Signature()
    sig.declare_constant("a", AGENT)
    sig.declare_constant("g1", GOAL)
    sig.declare_predicate("P", (EVENT,))
    sig.declare_predicate("Q", ())
    f = parse_formula(
        "(and (exists x : Goal (not (knows a 1 (Q))))"
        " (forall y : Action (knows a 1 (Q))))",
        sig,
    )
    goal = parse_formula("(P g1)", sig)
    r = prove([f], goal, sig=sig)
    assert r.status == "proof" and verify_proof(r.proof, [f], goal, sig)
    assert entails([f], goal, sig) == (True, None)
    domains = models._domains([f], sig)
    (anonymous,) = domains[ACTION]
    assert anonymous.name not in symbol_names(f) | set(sig.constants)
    assert anonymous in domains[EVENT]


def test_an_atom_is_identified_by_its_key_not_its_print():
    # the nullary predicate named "P g1" prints as (P g1), as P of g1
    # does; the oracle once identified the two atoms by that print, found
    # the pair unsatisfiable and entailed any goal, where prove found
    # no proof
    sig = Signature()
    sig.declare_constant("g1", GOAL)
    sig.declare_predicate("P", (GOAL,))
    sig.declare_predicate("Q", ())
    fs = [Atom("P g1"), Not(Atom("P", (Const("g1", GOAL),)))]
    goal = Atom("Q")
    assert satisfiable(fs, sig) is not None
    assert entails(fs, goal, sig)[0] is False
    assert prove(fs, goal, sig=sig).status == "no_proof"


def test_empty_theory_has_empty_model():
    assert satisfiable([], SIG) == []


def test_model_lists_true_atoms_sorted():
    model = satisfiable([F("(rains)"), F("(implies (rains) (pours))")], SIG)
    assert model == ["(pours)", "(rains)"]


def test_contradiction_unsat():
    assert satisfiable([F("(rains)"), F("(not (rains))")], SIG) is None


def test_falsum_is_pinned_false():
    assert satisfiable([F("(false)")], SIG) is None
    model = satisfiable([F("(or (rains) (false))")], SIG)
    assert model == ["(rains)"]


def test_grounding_universal_over_named_agents():
    model = satisfiable([F("(forall x : Agent (P x))")], SIG)
    assert model is not None
    for name in ("alice", "bob", "carol"):
        assert f"(P {name})" in model


def test_existential_needs_one_named_witness():
    model = satisfiable([F("(exists x : Agent (P x))")], SIG)
    assert model is not None
    assert any(a.startswith("(P ") for a in model)


# ---------------------------------------------------------------------------
# entailment

def test_entails_modus_ponens():
    fs, g = load("modus-ponens")
    ok, cm = entails(fs, g, SIG)
    assert ok and cm is None


def test_countermodel_on_failure():
    fs, g = load("belief-not-veridical")
    ok, cm = entails(fs, g, SIG)
    assert not ok
    assert cm is not None
    # belief is not veridical: the believed fact is absent from the model
    assert "(rains)" not in cm


def test_modal_closure_runs_inside_oracle():
    ok, _ = entails([F("(knows alice 1 (rains))")], F("(rains)"), SIG)
    assert ok


def test_universal_modal_fact_splits_into_instances():
    # grounding a universal yields a conjunction; the closure must still
    # reach inside it to apply the modal rules per instance
    fs, g = load("forall-knows")
    ok, _ = entails(fs, g, SIG)
    assert ok
    fs, g = load("forall-knows-instance")
    ok, _ = entails(fs, g, SIG)
    assert ok


def test_depth_limits_modal_closure():
    fs, g = load("k-nested")
    assert entails(fs, g, SIG, depth=1)[0] is False
    assert entails(fs, g, SIG, depth=2)[0] is True


# ---------------------------------------------------------------------------
# documented limits, pinned so a change shows up as a test failure

def test_limit_universal_goal_over_finite_domain():
    # the oracle grounds the goal over named agents and accepts; the prover
    # must not, because unnamed agents could falsify it
    fs, g = load("forall-goal-finite")
    assert entails(fs, g, SIG)[0] is True
    assert prove(fs, g, sig=SIG).status == "no_proof"


def test_limit_disjunction_of_modal_atoms():
    # a grounded existential of epistemic facts becomes a disjunction of
    # modal atoms; the oracle cannot case-split knowers, the prover can
    fs, g = load("exists-knows")
    assert entails(fs, g, SIG)[0] is False
    assert prove(fs, g, sig=SIG).status == "proof"


# ---------------------------------------------------------------------------
# grounding binds variables in an environment and substitutes at the leaves


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.booleans())
def test_grounding_under_an_environment_is_substituting_then_grounding(
    seed, depth, moments
):
    x = Var("x", MOMENT if moments else AGENT)
    body = RandomFormulas(seed).formula([x], depth)
    sig = round_trip_sig()
    dom = models._domains([body], sig)
    for c in dom[x.sort]:
        got = models._ground(body, dom, {x: c})
        want = models._ground(substitute(body, {x: c}, sig), dom)
        assert (got is models._TRUE) == (want is models._TRUE)
        if got is not models._TRUE:
            assert canonical_key(got) == canonical_key(want)


@pytest.mark.parametrize(
    "text, stop",
    [
        ("(forall x : Agent (and (P x) (false)))", FALSUM),
        ("(exists x : Agent (or (P x) (not (false))))", models._TRUE),
    ],
)
def test_a_quantifier_stops_at_its_first_deciding_instance(monkeypatch, text, stop):
    f = F(text)
    dom = models._domains([f], SIG)
    assert len(dom[AGENT]) == 3
    ground = models._ground
    envs = []

    def spy(g, *args):
        if g is f.body:
            envs.append(args[1])
        return ground(g, *args)

    monkeypatch.setattr(models, "_ground", spy)
    assert ground(f, dom) == stop
    assert envs == [{f.var: dom[AGENT][0]}]


# ---------------------------------------------------------------------------
# the closure stops at its fixpoint and returns what depth + 1 rounds do


def closure_in_every_round(formulas, sig, depth) -> tuple[list, int]:
    """models._closure as it was before it stopped at a fixpoint: it runs
    depth + 1 rounds unless a round grounds nothing.  Returns the closure
    and the number of rounds run."""
    dom = models._domains(formulas, sig)
    current = []
    for f in formulas:
        g = models._ground(f, dom)
        if g is not models._TRUE:
            current.extend(conjuncts(g))
    rounds = 0
    for _ in range(depth + 1):
        rounds += 1
        targets = harvest_join_targets(current)
        records = {}
        for f in current:
            records.setdefault(canonical_key(f), Derivation(f, RULE_ASSUMPTION, (), 0))
        expand_modal(records, depth=depth, join_targets=targets)
        out = []
        again = False
        for f in (d.formula for d in records.values()):
            if models._has_quantifier_outside_modal(f):
                f = models._ground(f, dom)
                again = True
            if f is not models._TRUE:
                out.extend(conjuncts(f))
        current = out
        if not again:
            break
    return current, rounds


def closure_rounds(formulas, sig, depth, monkeypatch) -> tuple[list, int]:
    """models._closure and the number of rounds it ran."""
    rounds = []

    def counting(*args, **kwargs):
        rounds.append(1)
        return expand_modal(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(models, "expand_modal", counting)
        return models._closure(formulas, sig, depth), len(rounds)


def query_mix_no_theories() -> dict[str, tuple[list, object]]:
    """The formulas the oracle closes for each "no" prevention query of
    the benchmark's query_mix: facts, trace atoms and the negated
    condition, with their signature."""
    texts = load_guardbench_texts()
    sim1 = texts.bundled_text("sim1")
    queries = {"shooter-ai": (sim1, "ai")}
    for name in texts.SIM1_ABLATIONS:
        queries[name] = (texts.sim1_ablation(sim1, name), "victim")
    out = {}
    for label, (text, victim) in queries.items():
        sc = parse_scenario(text, label)
        c = {n: Const(n, s) for n, s in sc.sig.constants.items()}
        goal = prevents_body(c["shooter"], c[victim], c["g_live"], c["fire"], moment(1))
        trace = project(sc.theory, sc.sig)
        fs = [*sc.facts, *trace_atoms(trace, sc.theory.occurrences), Not(goal)]
        out[label] = (fs, sc.sig)
    return out


def test_the_closure_of_each_query_mix_no_theory_is_unchanged(monkeypatch):
    early = []
    for label, (fs, sig) in query_mix_no_theories().items():
        got, rounds = closure_rounds(fs, sig, 4, monkeypatch)
        want, every = closure_in_every_round(fs, sig, 4)
        assert got == want, label
        assert entails(fs[:-1], fs[-1].body, sig)[0] is False
        early.append(rounds < every)
    # four of the five reach their fixpoint before round 5
    assert early.count(True) == 4


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.booleans())
def test_the_closure_of_a_random_theory_is_unchanged(seed, depth, known):
    rng = random.Random(seed)
    gen = RandomFormulas(seed)
    fs = [gen.formula([], rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        fs = [with_join_targets(f, rng) for f in fs]
    if known:
        # S1 brings out a quantified body in every round, the case where
        # a round can return its input
        x = Var("x", AGENT)
        body = rng.choice((Forall, Exists))(x, gen.formula([x], rng.randint(0, 2)))
        fs.append(Modal(KNOWS, Const("a", AGENT), moment(1), body))
    sig = round_trip_sig()
    with pytest.MonkeyPatch.context() as mp:
        got, _ = closure_rounds(fs, sig, depth, mp)
    assert got == closure_in_every_round(fs, sig, depth)[0]


# ---------------------------------------------------------------------------
# a later round reuses what an earlier one computed


def adjudication_theories() -> dict[str, tuple[list, object]]:
    """The formulas the oracle closes to decide each obligation query of
    sim1, sim2, sim1_guilty and sim2 plus m extra effects: the
    adjudication theory and the negated obligation, with the signature."""
    texts = load_guardbench_texts()
    sim1, sim2 = texts.bundled_text("sim1"), texts.bundled_text("sim2")
    cases = {"sim1": sim1, "sim2": sim2, "sim1_guilty": texts.sim1_guilty(sim1)}
    cases.update({f"sim2+{m}": texts.sim2_extra_effects(sim2, m) for m in (1, 2, 4)})
    out = {}
    for label, text in cases.items():
        sc = parse_scenario(text, label)
        fs, _ = adjudication_theory(sc)
        out[label] = ([*fs, Not(obligation_goal(sc))], sc.sig)
    return out


def test_the_closure_of_each_adjudication_theory_is_unchanged(monkeypatch):
    for label, (fs, sig) in adjudication_theories().items():
        got, rounds = closure_rounds(fs, sig, 4, monkeypatch)
        want, every = closure_in_every_round(fs, sig, 4)
        assert got == want, label
        assert rounds <= every, label


def test_a_target_harvested_in_the_first_round_joins_in_a_later_one(monkeypatch):
    # the parts of (knows a 1 (and P Q)) are grounded out of b's
    # knowledge at the end of the first round, so the join target the
    # first round harvested from the implication is joined in the second
    a, b, x = Const("a", AGENT), Const("b", AGENT), Var("x", AGENT)
    p, q, r = Atom("P"), Atom("Q"), Atom("R")
    target = Modal(KNOWS, a, moment(1), And((p, q)))
    parts = And((Modal(KNOWS, x, moment(1), p), Modal(KNOWS, x, moment(1), q)))
    fs = [Implies(target, r), Modal(KNOWS, b, moment(1), Forall(x, parts))]
    sig = Signature()
    got, rounds = closure_rounds(fs, sig, 4, monkeypatch)
    assert target in got and rounds > 2
    assert got == closure_in_every_round(fs, sig, 4)[0]
    assert entails(fs, r, sig)[0] is True


def test_a_closure_keys_and_harvests_each_formula_once(monkeypatch):
    # every formula of a round's records is keyed: by models, in the
    # round that first holds it, or by the modal expansion that derived
    # it, which hands its key to the next round
    theories = {**query_mix_no_theories(), **adjudication_theories()}
    later = 0
    for label, (fs, sig) in theories.items():
        keyed: list[tuple[int, object]] = []  # (round, formula)
        harvested: list[object] = []
        rounds: list[tuple[list, list]] = []  # (assumed, recorded) formulas

        def key(f, *args):
            keyed.append((len(rounds), f))
            return canonical_key(f, *args)

        def harvest(formulas):
            formulas = list(formulas)
            harvested.extend(formulas)
            return harvest_join_targets(formulas)

        def expand(records, **kwargs):
            assumed = [d.formula for d in records.values()]
            truncated = expand_modal(records, **kwargs)
            rounds.append((assumed, [d.formula for d in records.values()]))
            return truncated

        with monkeypatch.context() as mp:
            mp.setattr(models, "canonical_key", key)
            mp.setattr(models, "harvest_join_targets", harvest)
            mp.setattr(models, "expand_modal", expand)
            models._closure(fs, sig, 4)
        # the lists keep every formula alive, so no two share an id
        assert len({id(f) for _, f in keyed}) == len(keyed), label
        assert len({id(f) for f in harvested}) == len(harvested), label
        later += len(rounds) - 1
        for r, (assumed, _) in enumerate(rounds):
            now = {id(f) for k, f in keyed if k == r}
            before = {id(f) for k, f in keyed if k < r}
            if r > 0:
                recorded = {id(f) for f in rounds[r - 1][1]}
                assert not now & recorded, (label, r)
                before |= recorded
            assert all(id(f) in now | before for f in assumed), (label, r)
    assert later > 0


# ---------------------------------------------------------------------------
# one walk makes the clauses, and a modal subformula is keyed by its key


def test_a_countermodel_names_modal_formulas_by_key():
    # the countermodel of query_mix's shooter->ai query once listed this
    # intention as its shadow atom, (sh_4eec80645ea1)
    sc = parse_scenario(load_guardbench_texts().bundled_text("sim1"), "sim1")
    c = {n: Const(n, s) for n, s in sc.sig.constants.items()}
    r = prevents_holds(sc, c["shooter"], c["ai"], c["g_live"], c["fire"], 1)
    assert r.answer == "no"
    assert "(intends shooter 1 (not (holds (alive victim) 2)))" in r.countermodel
    assert not [a for a in r.countermodel if "(sh_" in a]


def test_the_clause_walk_keys_each_atom_and_modal_once(monkeypatch):
    for label, (fs, sig) in query_mix_no_theories().items():
        closed = models._closure(fs, sig, 4)
        keyed = []

        def key(f, *args):
            keyed.append(f)
            return canonical_key(f, *args)

        keys: dict = {}
        with monkeypatch.context() as mp:
            mp.setattr(models, "canonical_key", key)
            for f in closed:
                models._cnf(f, True, keys, math.inf, math.inf)
        assert keyed, label
        assert len(keyed) == len(set(keyed)) == len(keys), label
        assert all(isinstance(f, (Atom, Modal)) for f in keyed), label


LEAVES = (
    Atom("P"),
    Atom("Q"),
    Modal(KNOWS, Const("a", AGENT), moment(1), Atom("P")),
    Modal(KNOWS, Const("a", AGENT), moment(1), Not(Atom("Q"))),
)

ground_formulas = st.recursive(
    st.sampled_from(LEAVES),
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(And),
        st.tuples(sub, sub).map(Or),
        st.tuples(sub, sub).map(lambda lr: Implies(*lr)),
        st.tuples(sub, sub).map(lambda lr: Iff(*lr)),
    ),
    max_leaves=8,
)


def truth(f, value: dict) -> bool:
    if isinstance(f, (Atom, Modal)):
        return value[canonical_key(f)]
    if isinstance(f, Not):
        return not truth(f.body, value)
    if isinstance(f, And):
        return all(truth(p, value) for p in f.parts)
    if isinstance(f, Or):
        return any(truth(p, value) for p in f.parts)
    if isinstance(f, Implies):
        return not truth(f.left, value) or truth(f.right, value)
    return truth(f.left, value) == truth(f.right, value)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ground_formulas, st.booleans())
def test_the_clause_rows_hold_exactly_when_the_formula_does(f, positive):
    # a modal subformula is an opaque atom: its body is not looked into
    rows = models._cnf(f, positive, {}, math.inf, math.inf)
    names = [canonical_key(leaf) for leaf in LEAVES]
    for bits in itertools.product((False, True), repeat=len(names)):
        value = dict(zip(names, bits))
        holds = all(any(value[k] == sign for k, sign in row) for row in rows)
        assert holds == (truth(f, value) == positive)


# ---------------------------------------------------------------------------
# the search over occurrence lists finds the model the clause rescan did


def dpll_reference(clauses, assignment, deadline=math.inf):
    """models._dpll as it was before it kept occurrence lists: each unit
    rescans every clause, and each branch sorts the atoms left."""
    if time.monotonic() > deadline:
        raise models.OracleLimit("wall_clock")
    clauses = list(clauses)
    assignment = dict(assignment)
    while True:
        unit = None
        next_clauses = []
        for cl in clauses:
            undecided = []
            satisfied = False
            for atom, pol in cl:
                if atom in assignment:
                    if assignment[atom] == pol:
                        satisfied = True
                        break
                else:
                    undecided.append((atom, pol))
            if satisfied:
                continue
            if not undecided:
                return None
            if len(undecided) == 1 and unit is None:
                unit = undecided[0]
            next_clauses.append(frozenset(undecided))
        clauses = next_clauses
        if unit is None:
            break
        assignment[unit[0]] = unit[1]
    if not clauses:
        return assignment
    atoms = sorted({a for cl in clauses for a, _ in cl})
    pick = atoms[0]
    for val in (False, True):
        trial = dict(assignment)
        trial[pick] = val
        got = dpll_reference(clauses, trial, deadline)
        if got is not None:
            return got
    return None


ATOMS = ("a", "b", "c", "d", "e", "f")
literals = st.tuples(st.sampled_from(ATOMS), st.booleans())
clause_sets = st.lists(st.frozensets(literals, min_size=1, max_size=3), max_size=16)
# no unit clause: the first value is a branch, and false fails
BRANCH_THEN_BACKTRACK = [
    frozenset({("a", True), ("b", True)}),
    frozenset({("a", True), ("b", False)}),
]
# every value of a and b falsifies a clause: unsatisfiable, and only
# branching finds that out
EVERY_SIGN = [
    frozenset({("a", p), ("b", q)}) for p in (False, True) for q in (False, True)
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(clause_sets)
@example(BRANCH_THEN_BACKTRACK)
@example(EVERY_SIGN)
@example([*EVERY_SIGN[:3], frozenset({("c", True), ("c", False)})])
@example([frozenset({("a", True)}), frozenset()])
def test_the_search_returns_the_reference_model(clauses):
    got = models._dpll(clauses)
    assert got == dpll_reference(clauses, {})
    if got is not None:
        assert all(any(got.get(a) == pol for a, pol in cl) for cl in clauses)


def test_the_search_branches_false_first_and_backtracks():
    assert models._dpll(BRANCH_THEN_BACKTRACK) == {"a": True}
    assert models._dpll(EVERY_SIGN) is None


def test_the_search_stops_at_its_deadline(monkeypatch):
    with pytest.raises(models.OracleLimit, match="wall_clock"):
        models._dpll(EVERY_SIGN, deadline=time.monotonic() - 1.0)
    # a deadline that passes after the first poll stops the first branch
    clock = iter((0.0,))
    monkeypatch.setattr(models.time, "monotonic", lambda: next(clock, 2.0))
    with pytest.raises(models.OracleLimit, match="wall_clock"):
        models._dpll(EVERY_SIGN, deadline=1.0)


def test_the_oracle_stops_at_its_deadline_and_clause_budget():
    fs, sig = query_mix_no_theories()["shooter-ai"]
    assumptions, goal = fs[:-1], fs[-1].body
    with pytest.raises(models.OracleLimit, match="wall_clock"):
        entails(assumptions, goal, sig, deadline=time.monotonic() - 1.0)
    assert entails(assumptions, goal, sig, deadline=time.monotonic() + 60.0)[0] is False
    # the negated iff distributes (or (and r (not p)) (and p (not r))):
    # one product of 2 x 2 rows, checked before it is built
    xor = [F("(not (iff (rains) (pours)))")]
    with pytest.raises(models.OracleLimit, match="max_clauses"):
        satisfiable(xor, SIG, max_clauses=3)
    assert satisfiable(xor, SIG, max_clauses=4) in (["(pours)"], ["(rains)"])
