"""Acceptance gate: one test per promised behavior.

Each test checks one claim from the README's release checklist end to
end, through public entry points only.  The shared helpers
(corpus, corruptions, ddeoracle) supply the problem sets and the
independent oracles; nothing here reuses the code paths under test
to decide what the right answer is.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from importlib import resources
from pathlib import Path

import corpus
import corruptions
import ddeoracle
from test_guard import ABLATIONS, FIRE, G_LIVE, SHOOTER, SIM1, VICTIM
from test_parser import RandomFormulas, round_trip_sig

from modalguard.ethics import check_dde
from modalguard.guard import (
    ALLOW,
    LOCK,
    adjudicate,
    adjudication_theory,
    prevents_holds,
)
from modalguard.models import entails
from modalguard.parser import parse_formula
from modalguard.proofs import verify_proof
from modalguard.prover import prove
from modalguard.report import render_json, render_text
from modalguard.scenario import load_bundled_scenario, parse_scenario
from modalguard.syntax import print_formula


def test_malevolent_request_locks_with_verified_proof_under_one_second():
    t0 = time.perf_counter()
    sc = load_bundled_scenario("sim1")
    verdict = adjudicate(sc)
    elapsed_ms = (time.perf_counter() - t0) * 1000
    assert verdict.decision == LOCK
    assert verdict.prove_status == "proof"
    assert verdict.proof_verified
    # the proof object must stand on its own: re-check it from scratch
    # against the theory it was derived from
    assumptions, _ = adjudication_theory(sc)
    assert verify_proof(verdict.proof, assumptions, verdict.obligation, sc.sig)
    assert elapsed_ms < 1000, f"took {elapsed_ms:.1f} ms"


def test_defensive_request_allows_with_compliant_clauses_within_three_seconds():
    t0 = time.perf_counter()
    sc = load_bundled_scenario("sim2")
    verdict = adjudicate(sc)
    elapsed_ms = (time.perf_counter() - t0) * 1000
    assert verdict.decision == ALLOW
    assert verdict.dde is not None
    assert verdict.dde.compliant
    statuses = {k: c.status for k, c in verdict.dde.clauses.items()}
    assert statuses == {"C1": "pass", "C2": "pass", "C3": "pass", "C4": "pass"}
    assert elapsed_ms <= 3000, f"took {elapsed_ms:.1f} ms"


def test_checker_accepts_every_machine_proof_and_rejects_every_corruption():
    sig = corpus.corpus_signature()
    provable = corpus.provable_problems()
    assert len(provable) >= 50
    for p in provable:
        assumptions, goal = p.load(sig)
        res = prove(assumptions, goal, sig=sig)
        assert res.status == "proof", p.name
        assert verify_proof(res.proof, assumptions, goal, sig), p.name
    cases = corruptions.corruption_cases(sig)
    assert len(cases) >= 20
    for label, proof, assumptions, goal in cases:
        assert not verify_proof(proof, assumptions, goal, sig), label


def test_prover_agrees_with_exhaustive_model_enumeration():
    sig = corpus.corpus_signature()
    problems = corpus.oracle_problems()
    assert problems
    disagreements = []
    for p in problems:
        assumptions, goal = p.load(sig)
        proved = prove(assumptions, goal, sig=sig).status == "proof"
        entailed, _ = entails(assumptions, goal, sig)
        if proved != entailed:
            disagreements.append(p.name)
    assert disagreements == []


def test_double_effect_clauses_match_brute_force_recomputation():
    # fresh seeds, disjoint from the per-module agreement test
    seeds = range(1000, 1040)
    assert len(seeds) >= 30
    disagreements = []
    for seed in seeds:
        case = ddeoracle.random_case(seed)
        v = check_dde(case.theory, case.agent, case.atype, 0,
                      case.hierarchy, case.utilities, case.assumptions)
        expected, net = ddeoracle.oracle_verdict(case)
        got = {k: c.status for k, c in v.clauses.items()}
        if got != expected or v.net_utility != net:
            disagreements.append(seed)
    assert disagreements == []


def test_prevention_proof_depends_on_every_conjunct():
    base = prevents_holds(SIM1, SHOOTER, VICTIM, G_LIVE, FIRE, 1)
    assert base.answer == "yes"
    flipped = 0
    for name in sorted(ABLATIONS):
        r = prevents_holds(ABLATIONS[name](), SHOOTER, VICTIM, G_LIVE, FIRE, 1)
        assert r.answer in ("no", "unknown"), name
        flipped += 1
    assert flipped == 6


def test_parse_print_round_trip_is_identity():
    sig = round_trip_sig()
    gen = RandomFormulas(seed=424242)
    checked = 0
    for i in range(220):
        f = gen.formula([], depth=1 + i % 4)
        assert parse_formula(print_formula(f), sig) == f
        checked += 1
    for name in ("sim1", "sim2"):
        sc = load_bundled_scenario(name)
        assert sc.facts
        for f in sc.facts:
            assert parse_formula(print_formula(f), sc.sig) == f
            checked += 1
    assert checked >= 200


def _strip_elapsed(report: str) -> str:
    return "\n".join(ln for ln in report.splitlines() if "elapsed" not in ln)


def test_reports_are_deterministic_modulo_elapsed_time():
    for name in ("sim1", "sim2"):
        sc = load_bundled_scenario(name)
        first = adjudicate(sc)
        second = adjudicate(sc)
        a = _strip_elapsed(render_text(sc, first, include_proof=True))
        b = _strip_elapsed(render_text(sc, second, include_proof=True))
        assert a == b, name
        assert _strip_elapsed(render_json(sc, first)) == _strip_elapsed(
            render_json(sc, second)
        ), name


def test_bundled_obligation_proofs_have_the_sizes_the_readme_states():
    for name, steps in (("sim1", 34), ("sim2", 34)):
        sc = load_bundled_scenario(name)
        verdict = adjudicate(sc)
        assert verdict.proof_verified, name
        assert len(verdict.proof.steps) == steps, name
        assumptions, _ = adjudication_theory(sc)
        assert verify_proof(verdict.proof, assumptions, verdict.obligation, sc.sig), name


# sha256 of the proof serialization and of the JSON report without
# elapsed_ms.  Shadow and skolem names are hashes of printed formulas
# that the checker recomputes, so any drift in them shows here.
GOLDEN = {
    ("sim1", "proof"): "cbf89c27a9531c4e8960bd7a74616d9f37c0528dc5fca5fc1aa03383abc9bac0",
    ("sim1", "json"): "455627b3b0a817ce8b68f0392f1199a1086c6baae0252bc01735ea85a95034d0",
    ("sim2", "proof"): "8d6df508f43f7b63a0d140b5db3fb1a5defbdb73c9afbff99eb9ff22e5aab542",
    ("sim2", "json"): "8046b81c82d8cb93e25f47e544d162c83ec531f7aa0aa1f5edc33eb3c69ca9db",
    ("sim1_guilty", "json"): "53c54d15eb61e4b7bfa348fc234b8d44fd280c6669d48dc03e534bf6fad28f87",
}


def _scenario_text(name: str) -> str:
    """sim1_guilty is sim1 without the victim's innocence."""
    bundled = "sim1" if name == "sim1_guilty" else name
    text = (resources.files("modalguard") / "scenarios" / f"{bundled}.scn").read_text()
    if name == "sim1_guilty":
        assert text.count("  (innocent victim)\n") == 1
        text = text.replace("  (innocent victim)\n", "")
    return text


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _verdict_digests(name: str, text: str) -> dict:
    sc = parse_scenario(text, name)
    verdict = adjudicate(sc)
    got = {}
    if verdict.proof is not None:
        got[name, "proof"] = _sha256(verdict.proof.serialize())
    report = json.loads(render_json(sc, verdict))
    del report["elapsed_ms"]
    got[name, "json"] = _sha256(json.dumps(report, indent=2, sort_keys=True))
    return got


def test_proofs_and_reports_match_the_recorded_digests():
    for name in ("sim1", "sim2", "sim1_guilty"):
        got = _verdict_digests(name, _scenario_text(name))
        assert got == {k: v for k, v in GOLDEN.items() if k[0] == name}, name


# The same digests for the benchmark's scenario variants (built by
# guardbench/texts.py): sim1 with idle agents and sim2 with extra
# effects reach longer proofs and more shadow and skolem names.
VARIANT_GOLDEN = {
    ("sim1+idle1", "proof"): "cbf89c27a9531c4e8960bd7a74616d9f37c0528dc5fca5fc1aa03383abc9bac0",
    ("sim1+idle1", "json"): "24f806b3f1326a151319849d2f169174b129e20dcc07babf156fc30c09daf9f6",
    ("sim1+idle2", "proof"): "cbf89c27a9531c4e8960bd7a74616d9f37c0528dc5fca5fc1aa03383abc9bac0",
    ("sim1+idle2", "json"): "80a0c0a8da461f4723918adf5891a69fc233e49c63e7e321a6cd92393a783e84",
    ("sim1+idle3", "proof"): "cbf89c27a9531c4e8960bd7a74616d9f37c0528dc5fca5fc1aa03383abc9bac0",
    ("sim1+idle3", "json"): "3904d8b576f6bc003e7f7939a91aad63553372ae664c7aad8b9873724a5f47e2",
    ("sim2+1", "proof"): "8d6df508f43f7b63a0d140b5db3fb1a5defbdb73c9afbff99eb9ff22e5aab542",
    ("sim2+1", "json"): "8c207441592ac1efbfbcaae6f6f95ea5d3142b2f240d1cb3fbfb50cb3ffaae51",
    ("sim2+2", "proof"): "8d6df508f43f7b63a0d140b5db3fb1a5defbdb73c9afbff99eb9ff22e5aab542",
    ("sim2+2", "json"): "b61cfd873891ccec6f0de4c5dccc191f5d66871131436c9dc7dd7c58c9009e96",
}

# sha256 of every query_mix answer, in pool order (see _answer_text)
QUERY_MIX_GOLDEN = "b43e70a94961817c2d0a647d60d4cf560cb4d14ab364b3fd730f14cf334019dc"

GUARDBENCH = Path(__file__).resolve().parents[1] / "guardbench"


def test_benchmark_variants_match_the_recorded_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(GUARDBENCH))
    texts = importlib.import_module("texts")
    sim1, sim2 = texts.bundled_text("sim1"), texts.bundled_text("sim2")
    variants = {f"sim1+idle{k}": texts.sim1_idle(sim1, k) for k in (1, 2, 3)}
    variants.update({f"sim2+{m}": texts.sim2_extra_effects(sim2, m) for m in (1, 2)})
    got = {}
    for name, text in variants.items():
        got.update(_verdict_digests(name, text))
    assert got == VARIANT_GOLDEN


def _answer_text(answer) -> str:
    """A query_mix answer as text: a prevention result with its
    verification, or a double-effect verdict."""
    if isinstance(answer, tuple):
        res, verified = answer
        proof = res.proof.serialize() if res.proof is not None else ""
        return f"{res.answer}\n{proof}\n{res.countermodel}\n{verified}"
    clauses = {k: (c.status, c.detail) for k, c in answer.clauses.items()}
    effects = [e.key() for e in answer.effects]
    return json.dumps([clauses, effects, answer.net_utility], sort_keys=True)


def test_query_mix_answers_match_the_recorded_digest(monkeypatch):
    monkeypatch.syspath_prepend(str(GUARDBENCH))
    workloads = importlib.import_module("workloads")
    answers = []
    for req in workloads.query_mix().pool:
        answers.append(f"== {req.label}\n{_answer_text(req.send(req))}")
    assert _sha256("\n".join(answers)) == QUERY_MIX_GOLDEN
