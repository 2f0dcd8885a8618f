"""Weapon-guard adjudication: obligation proof, override check, verdict.

A request to perform an action is ALLOWed unless the engine proves an
obligation to refrain.  The obligation source is the deprivation rule:
knowingly and effectively blocking an innocent agent's goal obliges
the actor to refrain.  Scenarios may state further norms as facts over
the Prevents predicate; adjudication supplies the definitional bridge
from the six-part prevention condition to that predicate as one axiom
over every goal g and victim y, lifted as the deprivation rule is over
p and g; idle agents and goals do not multiply its instances.

The bridge holds at y = the actor too (`=` is a free predicate, so no
axiom could exclude it).  That is harmless: an added axiom only adds
obligations, and an obligation ALLOWs only on a verified proof with all
four double-effect clauses passing, clauses that read the base theory,
not the proof.

Each adjudication builds the request theory once (`base_theory`): the
scenario facts plus the projected trace, with the request occurrence
added.  The obligation query reads it with the deprivation rule and the
prevention bridge added; the double-effect intention queries read it
as it is, and the double-effect check reuses its projected trace.

A proved obligation is re-checked by the independent proof verifier,
then weighed: an action whose projected effects satisfy the
double-effect clauses overrides the obligation and is ALLOWed.
Everything else fails closed: unverifiable proof, undecided clause,
exhausted budget, a search cut short by the grounding cap or the modal
depth limit, and an exception raised on the way all yield LOCK.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .ethics import DDEVerdict, check_dde
from .eventcalc import Trace, project
from .models import entails as oracle_entails
from .proofs import Proof, verify_proof
from .prover import Budget, Premises, prove
from .scenario import Scenario
from .syntax import (
    ACTION,
    ACTION_TYPE,
    AGENT,
    App,
    Atom,
    Const,
    DESIRES,
    Exists,
    Forall,
    Formula,
    GOAL,
    Implies,
    INTENDS,
    KNOWS,
    MOMENT,
    Modal,
    Not,
    SIGMA_DEFAULT,
    SITUATION,
    Term,
    Var,
    conj,
    moment,
    obligated,
    print_term,
)

ALLOW = "ALLOW"
LOCK = "LOCK"

_SIGMA = Const(SIGMA_DEFAULT, SITUATION)


def prevents_matrix(
    x: Term, y: Term, g: Term, a: Term, t: Term, t1: Term, t2: Term
) -> list[Formula]:
    """The six conjuncts of the prevention condition: x's action of
    type a at t blocks y's goal g, knowingly and effectively."""
    ap = Var("a'", ACTION_TYPE)
    act_x = App("action", (x, a), ACTION)
    act_y = App("action", (y, ap), ACTION)
    block = Atom("Block", (x, y, g, a, t))
    return [
        Atom("prior", (t, t1)),
        Atom("prior", (t1, t2)),
        Modal(
            KNOWS,
            x,
            t,
            conj(
                [
                    Modal(DESIRES, y, t, Atom("holds", (g, t2))),
                    Modal(INTENDS, y, t, Atom("happens", (g, t2))),
                ]
            ),
        ),
        Modal(
            KNOWS,
            x,
            t,
            Exists(
                ap,
                conj(
                    [
                        Modal(INTENDS, y, t1, Atom("happens", (act_y, t1))),
                        Implies(
                            conj([Atom("happens", (act_y, t1)), Not(block)]),
                            Atom("happens", (g, t2)),
                        ),
                    ]
                ),
            ),
        ),
        Modal(KNOWS, x, t, Implies(Atom("happens", (act_x, t)), block)),
        Atom("happens", (act_x, t)),
    ]


def prevents_body(x: Term, y: Term, g: Term, a: Term, t: Term) -> Formula:
    t1 = Var("t1", MOMENT)
    t2 = Var("t2", MOMENT)
    return Exists(t1, Exists(t2, conj(prevents_matrix(x, y, g, a, t, t1, t2))))


def deprivation_axiom(agent: Const, atype: Const, request_moment: int) -> Formula:
    """Blocking an innocent agent's goal obliges refraining."""
    t = moment(request_moment)
    p = Var("p", AGENT)
    g = Var("g", GOAL)
    t1 = Var("t1", MOMENT)
    t2 = Var("t2", MOMENT)
    matrix = prevents_matrix(agent, p, g, atype, t, t1, t2)
    antecedent = Exists(
        p, Exists(g, Exists(t1, Exists(t2, conj([Atom("innocent", (p,))] + matrix))))
    )
    act = App("action", (agent, atype), ACTION)
    return Implies(
        antecedent, obligated(agent, t, _SIGMA, Not(Atom("happens", (act, t))))
    )


def prevention_bridge(agent: Const, atype: Const, request_moment: int) -> Formula:
    """The prevention condition implies Prevents, for every goal and,
    inside, every victim: each outer instance is one more formula to
    ground, and scenarios declare fewer goals than agents."""
    t = moment(request_moment)
    y = Var("y", AGENT)
    g = Var("g", GOAL)
    body = prevents_body(agent, y, g, atype, t)
    prevents = Atom("Prevents", (agent, y, g, atype, t))
    return Forall(g, Forall(y, Implies(body, prevents)))


def trace_atoms(trace: Trace, theory_occurrences) -> list[Formula]:
    out: list[Formula] = []
    for m, state in enumerate(trace.states):
        for f in sorted(state, key=print_term):
            out.append(Atom("holds", (f, moment(m))))
    for ev, m in sorted(theory_occurrences, key=lambda o: (o[1], print_term(o[0]))):
        out.append(Atom("happens", (ev, moment(m))))
    return out


def obligation_goal(scenario: Scenario) -> Formula:
    req = scenario.request
    t = moment(req.moment)
    act = App("action", (req.agent, req.atype), ACTION)
    return obligated(req.agent, t, _SIGMA, Not(Atom("happens", (act, t))))


def base_theory(scenario: Scenario) -> tuple[list[Formula], Trace]:
    """Scenario facts plus the projected trace as atoms, with the
    request occurrence included.  This is the attitude-and-state theory
    intention queries read; it carries no normative machinery."""
    req = scenario.request
    event = App("action", (req.agent, req.atype), ACTION)
    theory = scenario.theory.with_occurrence(event, req.moment)
    trace = project(theory, scenario.sig)
    assumptions = list(scenario.facts)
    assumptions.extend(trace_atoms(trace, theory.occurrences))
    return assumptions, trace


def _with_norms(scenario: Scenario, base: list[Formula]) -> list[Formula]:
    """The base theory plus the deprivation rule and the lifted
    prevention bridge, as a new list."""
    req = scenario.request
    return [
        *base,
        deprivation_axiom(req.agent, req.atype, req.moment),
        prevention_bridge(req.agent, req.atype, req.moment),
    ]


def adjudication_theory(scenario: Scenario) -> tuple[list[Formula], Trace]:
    """Assumption set for the obligation query: the base theory plus
    the deprivation rule and the lifted prevention bridge."""
    base, trace = base_theory(scenario)
    return _with_norms(scenario, base), trace


@dataclass
class Verdict:
    decision: str  # ALLOW | LOCK
    reason: str
    obligation: Formula
    prove_status: str
    proof: Optional[Proof] = None
    proof_verified: Optional[bool] = None
    dde: Optional[DDEVerdict] = None
    elapsed_ms: float = 0.0


def _raised(query: str, e: Exception) -> str:
    return f"{query} raised {type(e).__name__}: {e}"


def adjudicate(scenario: Scenario, budget: Optional[Budget] = None) -> Verdict:
    """The verdict on the scenario's request.  Total: an exception
    raised on the way, or a verdict that does not match its own
    justification, yields LOCK with prove_status "error" and a reason
    naming the exception's type."""
    start = time.monotonic()
    goal = obligation_goal(scenario)

    def done(v: Verdict) -> Verdict:
        v.elapsed_ms = (time.monotonic() - start) * 1000.0
        allowed = v.decision == ALLOW
        if v.prove_status not in ("proof", "no_proof", "incomplete", "timeout", "error"):
            raise AssertionError(f"unknown prove status {v.prove_status!r}")
        # only a complete search may ALLOW without a proof
        justified = v.prove_status == "no_proof" or (
            v.prove_status == "proof"
            and bool(v.proof_verified)
            and v.dde is not None
            and v.dde.compliant
        )
        if allowed != justified:
            raise AssertionError("verdict does not match its own justification")
        return v

    try:
        return done(_decide(scenario, budget if budget is not None else Budget(), goal))
    except Exception as e:
        reason = f"{_raised('adjudication', e)}; failing safe"
        return done(Verdict(LOCK, reason, goal, "error"))


def _decide(scenario: Scenario, budget: Budget, goal: Formula) -> Verdict:
    """adjudicate's verdict, before its justification is checked."""
    req = scenario.request
    base, trace = base_theory(scenario)
    assumptions = _with_norms(scenario, base)
    res = prove(assumptions, goal, budget, scenario.sig)

    if res.status == "timeout":
        return Verdict(LOCK, "obligation query exceeded budget; failing safe", goal, res.status)
    if res.status == "incomplete":
        limit = "grounding cap" if res.stats.get("grounding_capped") else "modal depth limit"
        return Verdict(
            LOCK,
            f"obligation search cut short by the {limit}; failing safe",
            goal,
            res.status,
        )
    if res.status == "no_proof":
        return Verdict(ALLOW, "no obligation to refrain was derivable", goal, res.status)

    verified = verify_proof(res.proof, assumptions, goal, scenario.sig)
    if not verified:
        return Verdict(
            LOCK,
            "obligation proof failed independent verification; failing safe",
            goal,
            res.status,
            res.proof,
            False,
        )

    dde = check_dde(
        scenario.theory,
        req.agent,
        req.atype,
        req.moment,
        scenario.hierarchy,
        scenario.utilities,
        base,
        scenario.sig,
        budget,
        trace=trace,
    )
    if dde.compliant:
        return Verdict(
            ALLOW,
            "obligation overridden: action satisfies the double-effect clauses",
            goal,
            res.status,
            res.proof,
            True,
            dde,
        )
    if dde.unknown:
        reason = "double-effect compliance undecided; failing safe"
    else:
        failing = sorted(k for k, c in dde.clauses.items() if c.status != "pass")
        reason = f"obligation stands: double-effect clauses failing: {', '.join(failing)}"
    return Verdict(LOCK, reason, goal, res.status, res.proof, True, dde)


@dataclass
class PreventsResult:
    answer: str  # yes | no | unknown
    proof: Optional[Proof] = None
    countermodel: Optional[list[str]] = None
    reason: Optional[str] = None  # why an unknown is not a plain unknown


ORACLE_MAX_AGENTS = 3
ORACLE_MAX_MOMENTS = 4
ORACLE_MAX_ATYPES = 3


def _within_oracle_bounds(scenario: Scenario) -> bool:
    sig = scenario.sig
    agents = len(sig.constants_of_sort(AGENT))
    atypes = len(sig.constants_of_sort(ACTION_TYPE))
    moments = scenario.theory.horizon + 1
    return (
        agents <= ORACLE_MAX_AGENTS
        and atypes <= ORACLE_MAX_ATYPES
        and moments <= ORACLE_MAX_MOMENTS
    )


def prevents_holds(
    scenario: Scenario,
    x: Const,
    y: Const,
    g: Const,
    a: Const,
    t: int,
    budget: Optional[Budget] = None,
) -> PreventsResult:
    """Does the prevention condition hold?  yes with a proof, no with a
    bounded countermodel, unknown otherwise.  Total: an exception raised
    on the way answers unknown with a reason naming its type."""
    try:
        return _prevents(scenario, x, y, g, a, t, budget if budget is not None else Budget())
    except Exception as e:
        return PreventsResult("unknown", reason=_raised("prevention query", e))


def _prevents(
    scenario: Scenario, x: Const, y: Const, g: Const, a: Const, t: int, budget: Budget
) -> PreventsResult:
    """prevents_holds' answer, exceptions not caught."""
    trace = project(scenario.theory, scenario.sig)
    assumptions = list(scenario.facts) + trace_atoms(trace, scenario.theory.occurrences)
    goal = prevents_body(x, y, g, a, moment(t))
    res = prove(assumptions, goal, budget, scenario.sig)
    if res.status == "proof":
        return PreventsResult("yes", proof=res.proof)
    if res.status != "no_proof" or not _within_oracle_bounds(scenario):
        return PreventsResult("unknown")
    entailed, countermodel = oracle_entails(
        assumptions, goal, scenario.sig, depth=budget.depth
    )
    if not entailed:
        return PreventsResult("no", countermodel=countermodel)
    return PreventsResult(
        "unknown",
        reason="prover and oracle disagree: a complete search found no proof, "
        "but the finite-model oracle entails the condition",
    )


@dataclass
class QueryResult:
    answer: str  # yes | no | unknown
    proof: Optional[Proof] = None
    reason: Optional[str] = None  # why an unknown is not a plain unknown


def epistemic_query(
    scenario: Scenario,
    positive: Formula,
    negative: Formula,
    budget: Optional[Budget] = None,
) -> QueryResult:
    """Prove a query and its dual.  Both proving is a modelling error,
    answered unknown with the inconsistency as its reason.  Total: an
    exception raised on the way answers unknown with a reason naming
    its type."""
    try:
        return _query(scenario, positive, negative, budget if budget is not None else Budget())
    except Exception as e:
        return QueryResult("unknown", reason=_raised("epistemic query", e))


def _query(
    scenario: Scenario, positive: Formula, negative: Formula, budget: Budget
) -> QueryResult:
    """epistemic_query's answer, exceptions not caught."""
    assumptions = Premises(adjudication_theory(scenario)[0])
    pos = prove(assumptions, positive, budget, scenario.sig)
    neg = prove(assumptions, negative, budget, scenario.sig)
    if pos.status == "proof" and neg.status == "proof":
        return QueryResult(
            "unknown", reason="inconsistent theory: both the query and its dual were proved"
        )
    if pos.status == "proof":
        return QueryResult("yes", pos.proof)
    if neg.status == "proof":
        return QueryResult("no", neg.proof)
    return QueryResult("unknown")


def intention_query(agent: Const, t: int, body: Formula) -> tuple[Formula, Formula]:
    """Query pair for `does the agent intend body at t`: the intention
    itself, and the obligation to bring about its negation."""
    pos = Modal(INTENDS, agent, moment(t), body)
    neg = obligated(agent, moment(t), _SIGMA, Not(body))
    return pos, neg
