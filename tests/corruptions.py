"""Corrupted proof objects that a sound checker must reject.

Most cases start from a machine proof of a corpus problem and break exactly
one thing: a rule label, a premise index, a formula, the goal, or the
assumption list. A few are assembled by hand because the prover never emits
them (bogus factor steps, a reused witness name).
"""

from __future__ import annotations

import dataclasses

from modalguard.parser import parse_formula
from modalguard.proofs import Proof, ProofStep
from modalguard.prover import Budget, prove
from modalguard.syntax import AGENT, GOAL, Atom, Const, Not

import corpus

Case = tuple[str, Proof, tuple, object]


def _proved(sig, name: str):
    prob = next(p for p in corpus.PROBLEMS if p.name == name)
    fs, g = prob.load(sig)
    r = prove(fs, g, sig=sig, budget=Budget(timeout_ms=5000))
    assert r.status == "proof", f"corpus problem {name} did not prove"
    return r.proof, tuple(fs), g


def _swap(proof: Proof, i: int, **changes) -> Proof:
    steps = list(proof.steps)
    steps[i] = dataclasses.replace(steps[i], **changes)
    return Proof(tuple(steps))


def corruption_cases(sig) -> list[Case]:
    """(label, proof, assumptions, goal) tuples; every one must be rejected."""
    cases: list[Case] = []

    # refutation shape: 0 implication / 1 its clause / 2 second assumption /
    # 3 its clause / 4 resolve / 5 negated-goal / 6 its clause /
    # 7 resolve to (false) / 8 reductio
    mp, mp_as, mp_goal = _proved(sig, "modus-ponens")
    assert mp.steps[4].rule == "resolve" and mp.steps[8].rule == "reductio"
    rains = parse_formula("(rains)", sig)
    pours = parse_formula("(pours)", sig)
    floods = parse_formula("(floods)", sig)
    assert mp.steps[2].formula == rains

    def mp_case(label: str, proof: Proof = mp, assumptions=mp_as, goal=mp_goal):
        cases.append((label, proof, assumptions, goal))

    mp_case("empty-proof", Proof(()))
    mp_case("dropped-final-step", Proof(mp.steps[:-1]))
    mp_case("truncated-to-one-step", Proof(mp.steps[:1]))
    mp_case("wrong-goal", goal=rains)
    mp_case("missing-assumption", assumptions=(mp_as[0],))
    mp_case("foreign-assumption", _swap(mp, 2, formula=floods))
    mp_case("assumption-with-premises", _swap(mp, 2, premises=(0,)))
    mp_case("resolve-same-premise", _swap(mp, 4, premises=(1, 1)))
    mp_case("unknown-rule", _swap(mp, 4, rule="magic"))
    mp_case("reductio-renamed-resolve", _swap(mp, 7, rule="reductio"))
    mp_case("reductio-swapped-premises", _swap(mp, 8, premises=(5, 7)))
    mp_case("reductio-wrong-conclusion", _swap(mp, 8, formula=rains))
    mp_case("reductio-one-premise", _swap(mp, 8, premises=(7,)))
    mp_case("reductio-second-premise-not-negated-goal", _swap(mp, 8, premises=(7, 2)))
    mp_case("negated-goal-with-premises", _swap(mp, 5, premises=(2,)))
    mp_case("forward-premise-reference", _swap(mp, 4, premises=(1, 6)))
    mp_case("premise-out-of-range", _swap(mp, 4, premises=(1, 99)))
    mp_case("clause-sign-flip", _swap(mp, 6, formula=pours))
    mp_case("clausify-wrong-premise", _swap(mp, 6, premises=(0,)))

    # grounding shape: 0 universal assumption / 1 forall-elim / 2 S1
    fk, fk_as, fk_goal = _proved(sig, "forall-knows-instance")
    assert fk.steps[1].rule == "forall-elim" and fk.steps[2].rule == "S1"
    inst = fk.steps[1].formula
    cases.append(
        ("s1-negated-conclusion", _swap(fk, 2, formula=Not(fk.steps[2].formula)),
         fk_as, fk_goal)
    )
    cases.append(("s1-relabelled-s2", _swap(fk, 2, rule="S2"), fk_as, fk_goal))
    wrong_pred = dataclasses.replace(inst, body=Atom("Q", inst.body.args))
    cases.append(
        ("instantiation-wrong-predicate", _swap(fk, 1, formula=wrong_pred),
         fk_as, fk_goal)
    )
    # the instance constant must widen to the bound variable's sort
    g1 = Const("g1", GOAL)
    wrong_sort = dataclasses.replace(inst, agent=g1, body=Atom("P", (g1,)))
    cases.append(
        ("instantiation-wrong-sort", _swap(fk, 1, formula=wrong_sort),
         fk_as, fk_goal)
    )

    # witness shape: 0 existential assumption / 1 exists-elim / 2 S1;
    # renaming the witness to a constant from the assumption body must fail
    # the freshness check even though the instance itself is well formed
    ek, ek_as, ek_goal = _proved(sig, "exists-knows-about")
    assert ek.steps[1].rule == "exists-elim"
    leak = dataclasses.replace(ek.steps[1].formula, agent=Const("alice", AGENT))
    cases.append(("witness-not-fresh", _swap(ek, 1, formula=leak), ek_as, ek_goal))

    # hand-built: a factor step whose premise has no unifiable literal pair
    disj_pq = parse_formula("(or (P alice) (Q alice))", sig)
    p_alice = parse_formula("(P alice)", sig)
    cases.append(
        ("factor-of-unfactorable",
         Proof((ProofStep(disj_pq, "assumption"),
                ProofStep(p_alice, "factor", (0,)))),
         (disj_pq,), p_alice)
    )

    # hand-built: two eliminations sharing one witness name; the second use
    # is no longer fresh once the first step has mentioned it
    ex_p = parse_formula("(exists x : Agent (P x))", sig)
    ex_q = parse_formula("(exists x : Agent (Q x))", sig)
    w1 = Const("w1", AGENT)
    cases.append(
        ("witness-reused",
         Proof((ProofStep(ex_p, "assumption"),
                ProofStep(Atom("P", (w1,)), "exists-elim", (0,)),
                ProofStep(ex_q, "assumption"),
                ProofStep(Atom("Q", (w1,)), "exists-elim", (2,)))),
         (ex_p, ex_q), parse_formula("(Q alice)", sig))
    )

    # hand-built: a Goal is a Fluent, so g1 instantiates a Fluent
    # existential, but a witness must have the bound variable's own sort
    ex_f = parse_formula("(exists f : Fluent (holds f 1))", sig)
    at_g1 = parse_formula("(holds g1 1)", sig)
    cases.append(
        ("witness-of-a-subsort",
         Proof((ProofStep(ex_f, "assumption"), ProofStep(at_g1, "exists-elim", (0,)))),
         (ex_f,), at_g1)
    )

    return cases
