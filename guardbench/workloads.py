"""The benchmark's requests, how each one is sent, and its expected answer.

Each workload is a pool of distinct requests.  The client sends them in
cycles: every cycle is a seeded shuffle of the whole pool, so every run
carries equal counts of each request whatever the seed, and seeds
differ only in order.  Expected answers are fixed by how each scenario
text was built (see texts.py), never by running the guard.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

from modalguard import ethics, eventcalc, guard, proofs, report, scenario
from modalguard.syntax import ACTION_TYPE, AGENT, GOAL, Const, moment

import texts

FAILING_SIM1 = frozenset({"C1", "C2", "C3"})


@dataclass(frozen=True)
class Request:
    label: str
    text: str
    send: Callable[["Request"], object]
    check: Callable[[object], Optional[str]]  # answer -> what is wrong, or None


# -- guard requests: what `modalguard simulate --format json` does


def send_guard(req: Request) -> str:
    sc = scenario.parse_scenario(req.text, req.label)
    verdict = guard.adjudicate(sc)
    return report.render_json(sc, verdict)


def expect_verdict(decision: str, status: str, failing: Optional[frozenset]):
    """failing=None: no double-effect evaluation; otherwise the set of
    clauses that must not pass."""
    verified = None if status == "no_proof" else True

    def check(out: str) -> Optional[str]:
        d = json.loads(out)
        dde = d["double_effect"]
        got_failing = None
        if dde is not None:
            got_failing = frozenset(k for k, c in dde["clauses"].items() if c["status"] != "pass")
        got = (d["decision"], d["prove_status"], d["proof_verified"], got_failing)
        want = (decision, status, verified, failing)
        if got != want or (d["proof"] is None) != (status == "no_proof"):
            return f"verdict {got}, expected {want}"
        return None

    return check


def guard_request(label: str, text: str, check) -> Request:
    return Request(label, text, send_guard, check)


# -- prevention queries


@dataclass(frozen=True)
class Prevention:
    x: str
    y: str
    g: str
    a: str
    t: int = 1

    def terms(self) -> tuple:
        return (
            Const(self.x, AGENT),
            Const(self.y, AGENT),
            Const(self.g, GOAL),
            Const(self.a, ACTION_TYPE),
        )


SHOOTER_VICTIM = Prevention("shooter", "victim", "g_live", "fire")
SHOOTER_AI = Prevention("shooter", "ai", "g_live", "fire")
RANGER_ASSAILANT = Prevention("ranger1", "assailant", "g_harm", "shoot")


def prevents_sender(q: Prevention):
    def send(req: Request):
        """The query, and for a "yes" the independent check of its proof
        against the facts plus trace atoms: prevents_holds returns the
        proof unchecked."""
        sc = scenario.parse_scenario(req.text, req.label)
        x, y, g, a = q.terms()
        res = guard.prevents_holds(sc, x, y, g, a, q.t)
        verified = None
        if res.answer == "yes":
            trace = eventcalc.project(sc.theory, sc.sig)
            assumptions = list(sc.facts) + guard.trace_atoms(trace, sc.theory.occurrences)
            goal = guard.prevents_body(x, y, g, a, moment(q.t))
            verified = proofs.verify_proof(res.proof, assumptions, goal, sc.sig)
        return res, verified

    return send


def expect_prevents(answer: str):
    def check(got) -> Optional[str]:
        res, verified = got
        if res.answer != answer:
            return f"answer {res.answer}, expected {answer}"
        if answer == "yes" and verified is not True:
            return "proof failed independent verification"
        if answer == "no" and not res.countermodel:
            return "no answer without a countermodel"
        return None

    return check


# -- double-effect checks over the attitude-and-state theory


def send_dde(req: Request):
    sc = scenario.parse_scenario(req.text, req.label)
    assumptions, _ = guard.base_theory(sc)
    r = sc.request
    return ethics.check_dde(
        sc.theory, r.agent, r.atype, r.moment, sc.hierarchy, sc.utilities, assumptions, sc.sig
    )


def expect_dde(failing: frozenset, effects: int, net: int):
    def check(v) -> Optional[str]:
        got_failing = frozenset(k for k, c in v.clauses.items() if c.status != "pass")
        got = (got_failing, len(v.effects), v.net_utility)
        want = (failing, effects, net)
        return None if got == want else f"clauses/effects/net {got}, expected {want}"

    return check


# -- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple[Request, ...]
    warmup: Request
    # layers a traced run must reach; none reached means a hook went stale
    layers: tuple[str, ...]
    # traced runs also adjudicate sim1 plus k idle agents and goals per k
    kcurve: tuple[int, ...] = ()


GUARD_LAYERS = (
    "scenario.parse_scenario",
    "guard.adjudicate",
    "report.render_json",
    "guard.base_theory",
    "eventcalc.project",
    "prover.prove",
    "schemata.harvest_join_targets",
    "schemata.expand_modal",
    "shadow.shadow",
    "clauses.clausify",
    "resolution.saturate",
    "proofs.verify_proof",
    "ethics.check_dde",
    "eventcalc.effects_of",
)
QUERY_LAYERS = (
    "scenario.parse_scenario",
    "guard.prevents_holds",
    "guard.trace_atoms",
    "guard.base_theory",
    "eventcalc.project",
    "prover.prove",
    "schemata.expand_modal",
    "shadow.shadow",
    "clauses.clausify",
    "resolution.saturate",
    "models.entails",
    "proofs.verify_proof",
    "ethics.check_dde",
    "eventcalc.effects_of",
)

SCALED_K = (1, 2, 3)
KCURVE_K = (0, 2, 4, 8, 16)
EXTRA_EFFECT_M = (1, 2, 4)

LOCK_VERIFIED = expect_verdict("LOCK", "proof", FAILING_SIM1)


def scaled_request(sim1: str, k: int) -> Request:
    return guard_request(f"sim1+idle{k}", texts.sim1_idle(sim1, k), LOCK_VERIFIED)


def guard_bundled() -> Workload:
    sim1, sim2 = texts.bundled_text("sim1"), texts.bundled_text("sim2")
    pool = (
        guard_request("sim1", sim1, LOCK_VERIFIED),
        guard_request("sim2", sim2, expect_verdict("ALLOW", "proof", frozenset())),
        guard_request("sim1_guilty", texts.sim1_guilty(sim1), expect_verdict("ALLOW", "no_proof", None)),
    )
    return Workload("guard_bundled", pool, pool[0], GUARD_LAYERS)


def guard_scaled() -> Workload:
    sim1 = texts.bundled_text("sim1")
    pool = tuple(scaled_request(sim1, k) for k in SCALED_K)
    return Workload("guard_scaled", pool, pool[0], GUARD_LAYERS, KCURVE_K)


def query_mix() -> Workload:
    sim1, sim2 = texts.bundled_text("sim1"), texts.bundled_text("sim2")
    yes, no = expect_prevents("yes"), expect_prevents("no")
    pool = [
        Request("yes:sim1", sim1, prevents_sender(SHOOTER_VICTIM), yes),
        Request("yes:sim2", sim2, prevents_sender(RANGER_ASSAILANT), yes),
        Request("no:sim1:shooter-ai", sim1, prevents_sender(SHOOTER_AI), no),
    ]
    for name in texts.SIM1_ABLATIONS:
        pool.append(
            Request(f"no:sim1:{name}", texts.sim1_ablation(sim1, name), prevents_sender(SHOOTER_VICTIM), no)
        )
    pool.append(Request("dde:sim1", sim1, send_dde, expect_dde(FAILING_SIM1, 1, -1)))
    for m in (0,) + EXTRA_EFFECT_M:
        pool.append(
            Request(
                f"dde:sim2+{m}",
                texts.sim2_extra_effects(sim2, m),
                send_dde,
                expect_dde(
                    frozenset(),
                    texts.SIM2_BASE_EFFECTS + texts.SIM2_EFFECTS_PER_FLUENT * m,
                    texts.SIM2_BASE_NET_UTILITY + texts.SIM2_EFFECTS_PER_FLUENT * m,
                ),
            )
        )
    return Workload("query_mix", tuple(pool), pool[0], QUERY_LAYERS)


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "guard_bundled": guard_bundled,
    "guard_scaled": guard_scaled,
    "query_mix": query_mix,
}


def check_texts(workload: Workload) -> None:
    """Every text parses, and the identity edits (k = 0, m = 0)
    reproduce the bundled scenarios exactly."""
    for req in workload.pool:
        scenario.parse_scenario(req.text, req.label)
    sim1, sim2 = texts.bundled_text("sim1"), texts.bundled_text("sim2")
    for name, text in (("sim1", texts.sim1_idle(sim1, 0)), ("sim2", texts.sim2_extra_effects(sim2, 0))):
        bundled = scenario.load_bundled_scenario(name)
        if text != texts.bundled_text(name) or scenario.parse_scenario(text, name) != bundled:
            raise texts.TextEditError(f"the identity edit of {name} changed the scenario")
