"""Verdict rendering: one report, two encodings.

The text and JSON forms carry the same information.  Output is
deterministic except for the elapsed_ms field; tests that compare
reports byte for byte strip that field first.
"""

from __future__ import annotations

import json

from .guard import Verdict
from .scenario import Scenario
from .syntax import print_formula, print_term


def report_data(scenario: Scenario, verdict: Verdict) -> dict:
    req = scenario.request
    data: dict = {
        "scenario": scenario.name,
        # a scenario built in Python may lack a request, or hold one no
        # obligation can be built for; its verdict is LOCK and reports it
        "request": None
        if req is None
        else {"agent": req.agent.name, "action_type": req.atype.name, "moment": req.moment},
        "decision": verdict.decision,
        "reason": verdict.reason,
        "obligation": None if verdict.obligation is None else print_formula(verdict.obligation),
        "prove_status": verdict.prove_status,
        "proof_verified": verdict.proof_verified,
        "proof": verdict.proof.serialize().splitlines() if verdict.proof else None,
        "elapsed_ms": round(verdict.elapsed_ms, 3),
    }
    if verdict.dde is not None:
        data["double_effect"] = {
            "clauses": {
                k: {"status": c.status, "detail": c.detail}
                for k, c in sorted(verdict.dde.clauses.items())
            },
            "net_utility": verdict.dde.net_utility,
            "compliant": verdict.dde.compliant,
            "effects": [
                {
                    "kind": e.kind,
                    "fluent": print_term(e.fluent),
                    "event": print_term(e.event),
                    "moment": e.moment,
                }
                for e in verdict.dde.effects
            ],
        }
    else:
        data["double_effect"] = None
    return data


def render_json(scenario: Scenario, verdict: Verdict) -> str:
    return json.dumps(report_data(scenario, verdict), indent=2, sort_keys=True)


def render_text(
    scenario: Scenario, verdict: Verdict, include_proof: bool = False
) -> str:
    d = report_data(scenario, verdict)
    req = d["request"]
    lines = [
        f"scenario: {d['scenario']}",
        "request: none"
        if req is None
        else f"request: {req['agent']} {req['action_type']} at {req['moment']}",
        f"decision: {d['decision']}",
        f"reason: {d['reason']}",
        f"obligation: {d['obligation'] or 'none'}",
    ]
    if d["proof"] is None:
        lines.append(f"obligation proof: none ({d['prove_status']})")
    else:
        checked = "verified" if d["proof_verified"] else "NOT VERIFIED"
        lines.append(f"obligation proof: {len(d['proof'])} steps, {checked}")
        if include_proof:
            lines.extend(f"  {row}" for row in d["proof"])
    dde = d["double_effect"]
    if dde is None:
        lines.append("double effect: not evaluated")
    else:
        lines.append("double effect:")
        for k, c in dde["clauses"].items():
            lines.append(f"  {k}: {c['status']}  {c['detail']}")
        lines.append(f"  net utility: {dde['net_utility']}")
        for e in dde["effects"]:
            lines.append(f"  effect: {e['kind']} {e['fluent']} at {e['moment']}")
    lines.append(f"elapsed: {d['elapsed_ms']} ms")
    return "\n".join(lines)
