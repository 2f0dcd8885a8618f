"""Proof search: grounding, modal expansion, shadowing, resolution.

prove() runs a refutation pipeline.  Quantifiers whose variables reach
into modal subformulas are instantiated first, over the finite domain
of known constants, because modal subformulas are later replaced by
content-addressed propositional atoms and only identical instances can
connect.  Quantifiers with no modal content stay symbolic and are
handled by unification inside the resolution core.

Modal reasoning happens on the positive side: the closure rules are
applied to the assumptions before shadowing, so goals whose proof
would need modal rules applied underneath the negated goal are
reported as no_proof rather than proved.

A search over a grounding cut short by GROUNDING_INSTANCE_CAP, or over
a modal expansion that refused a new formula for depth, is not complete:
when it ends without a refutation the status is incomplete, never
no_proof.

Each formula of the closure is keyed once (canonical_key), and modal
expansion is seeded with those keys rather than computing them again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .clauses import clausify
from .proofs import (
    Proof,
    ProofStep,
    RULE_CLAUSIFY,
    RULE_EXISTS_ANTECEDENT,
    RULE_EXISTS_ELIM,
    RULE_FACTOR,
    RULE_FORALL_ELIM,
    RULE_NEG_EXISTS_ELIM,
    RULE_NEG_FORALL_ELIM,
    RULE_NEGATED_GOAL,
    RULE_REDUCTIO,
    RULE_RESOLVE,
    clause_to_formula,
)
from .resolution import saturate
from .schemata import Derivation, RULE_ASSUMPTION, expand_modal, harvest_join_targets
from .shadow import ShadowMap, shadow
from .syntax import (
    Const,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Signature,
    Var,
    canonical_key,
    constants_in_formula,
    free_vars,
    is_moment_literal,
    maximal_modal_subformulas,
    moment_value,
    substitute,
    symbol_names,
)

GROUNDING_INSTANCE_CAP = 5000


@dataclass(frozen=True)
class Budget:
    timeout_ms: int = 10000
    depth: int = 4
    max_clauses: int = 200000

    def __post_init__(self) -> None:
        for name in ("timeout_ms", "depth", "max_clauses"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class ProveResult:
    status: str  # "proof" | "no_proof" | "incomplete" | "timeout"
    proof: Optional[Proof] = None
    stats: dict = field(default_factory=dict)


def _modal_relevant(var: Var, body: Formula) -> bool:
    for m in maximal_modal_subformulas(body):
        if var in free_vars(m):
            return True
    return False


def _domain_order(consts: set[Const]) -> list[Const]:
    moments = sorted(
        (c for c in consts if is_moment_literal(c)), key=moment_value
    )
    named = sorted(
        (c for c in consts if not is_moment_literal(c)), key=lambda c: c.name
    )
    return moments + named


class _Prep:
    """Grounding closure over one set of root formulas."""

    def __init__(self, sig: Signature, used_names: set[str]):
        self.sig = sig
        self.records: dict[str, Derivation] = {}
        self.order: list[str] = []
        self.used_names = used_names
        self.consts: set[Const] = set()
        self.done: dict[str, set[str]] = {}
        self.witnessed: set[str] = set()
        self.witness_intro: dict[str, str] = {}
        self.instances = 0
        self.capped = False

    def add(self, f: Formula, rule: str, premises: tuple[str, ...]) -> str:
        key = canonical_key(f)
        if key not in self.records:
            self.records[key] = Derivation(f, rule, premises, 0)
            self.order.append(key)
            self.used_names |= symbol_names(f)
            self.consts |= set(constants_in_formula(f))
        return key

    def _fresh_witness(self, sort: str) -> Const:
        n = 1
        while f"w{n}" in self.used_names:
            n += 1
        self.used_names.add(f"w{n}")
        return Const(f"w{n}", sort)

    def _domain(self, sort: str) -> list[Const]:
        consts = {c for c in self.consts if self.sig.widens(c.sort, sort)}
        consts |= set(self.sig.constants_of_sort(sort))
        return _domain_order(consts)

    def _instantiate(
        self, key: str, var: Var, body: Formula, wrap, rule: str
    ) -> bool:
        added = False
        seen = self.done.setdefault(key, set())
        for c in self._domain(var.sort):
            if c.name in seen:
                continue
            seen.add(c.name)
            if self.instances >= GROUNDING_INSTANCE_CAP:
                self.capped = True
                return added
            self.instances += 1
            self.add(wrap(substitute(body, {var: c}, self.sig)), rule, (key,))
            added = True
        return added

    def _witness(self, key: str, var: Var, body: Formula, wrap, rule: str) -> bool:
        if key in self.witnessed:
            return False
        self.witnessed.add(key)
        w = self._fresh_witness(var.sort)
        wkey = self.add(wrap(substitute(body, {var: w}, self.sig)), rule, (key,))
        self.witness_intro[w.name] = wkey
        return True

    def close(self, deadline: float) -> None:
        changed = True
        while changed and not self.capped:
            if time.monotonic() > deadline:
                return
            changed = False
            for key in list(self.order):
                f = self.records[key].formula
                if isinstance(f, Forall) and _modal_relevant(f.var, f.body):
                    if self._instantiate(
                        key, f.var, f.body, lambda g: g, RULE_FORALL_ELIM
                    ):
                        changed = True
                elif isinstance(f, Exists) and _modal_relevant(f.var, f.body):
                    if self._witness(key, f.var, f.body, lambda g: g, RULE_EXISTS_ELIM):
                        changed = True
                elif isinstance(f, Not) and isinstance(f.body, Exists):
                    ex = f.body
                    if _modal_relevant(ex.var, ex.body):
                        if self._instantiate(
                            key, ex.var, ex.body, Not, RULE_NEG_EXISTS_ELIM
                        ):
                            changed = True
                elif isinstance(f, Not) and isinstance(f.body, Forall):
                    fa = f.body
                    if _modal_relevant(fa.var, fa.body):
                        if self._witness(
                            key, fa.var, fa.body, Not, RULE_NEG_FORALL_ELIM
                        ):
                            changed = True
                elif isinstance(f, Implies) and isinstance(f.left, Exists):
                    ex = f.left
                    if _modal_relevant(ex.var, ex.body):
                        rhs = f.right
                        if self._instantiate(
                            key,
                            ex.var,
                            ex.body,
                            lambda g, rhs=rhs: Implies(g, rhs),
                            RULE_EXISTS_ANTECEDENT,
                        ):
                            changed = True


def prove(
    assumptions: Sequence[Formula],
    goal: Formula,
    budget: Optional[Budget] = None,
    sig: Optional[Signature] = None,
) -> ProveResult:
    budget = budget if budget is not None else Budget()
    sig = sig if sig is not None else Signature()
    start = time.monotonic()
    deadline = start + budget.timeout_ms / 1000.0
    stats: dict = {}

    used_names: set[str] = set()
    for a in assumptions:
        used_names |= symbol_names(a)
    used_names |= symbol_names(goal)

    # grounding closure over assumptions and the negated goal together;
    # formulas rooted at the negated goal are all negations, so the modal
    # closure rules below never fire on that side
    prep = _Prep(sig, used_names)
    for a in assumptions:
        prep.add(a, RULE_ASSUMPTION, ())
    ng = Not(goal)
    ng_key = prep.add(ng, RULE_NEGATED_GOAL, ())
    prep.close(deadline)
    stats["grounding_instances"] = prep.instances
    stats["grounding_capped"] = prep.capped
    if time.monotonic() > deadline:
        stats["elapsed_ms"] = (time.monotonic() - start) * 1000.0
        return ProveResult("timeout", None, stats)

    all_formulas = [prep.records[k].formula for k in prep.order]
    targets = harvest_join_targets(all_formulas)
    expansion = expand_modal(
        all_formulas, depth=budget.depth, join_targets=targets, keys=prep.order
    )
    stats["expansion_size"] = len(expansion.records)
    stats["expansion_truncated"] = expansion.truncated

    steps: list[ProofStep] = []
    index_of: dict[str, int] = {}

    def emit(key: str) -> int:
        if key in index_of:
            return index_of[key]
        rec = expansion.records.get(key)
        if rec is None or rec.rule == RULE_ASSUMPTION:
            rec = prep.records[key]
        prems = tuple(emit(k) for k in rec.premises)
        # a witness constant may only appear after the step that introduced
        # it, so pull the introducing record in front of any other use
        for c in constants_in_formula(rec.formula):
            intro = prep.witness_intro.get(c.name)
            if intro is not None and intro != key:
                emit(intro)
        steps.append(ProofStep(rec.formula, rec.rule, prems))
        index_of[key] = len(steps) - 1
        return index_of[key]

    goal_key = canonical_key(goal)
    if goal_key in expansion.records:
        emit(goal_key)
        stats["elapsed_ms"] = (time.monotonic() - start) * 1000.0
        stats["route"] = "closure"
        return ProveResult("proof", Proof(tuple(steps)), stats)

    flist = list(expansion.records)
    smap = ShadowMap()
    inputs = []
    for fi, key in enumerate(flist):
        f = expansion.records[key].formula
        for c in clausify(shadow(f, smap)):
            inputs.append((c, fi))

    sat = saturate(inputs, sig, deadline, budget.max_clauses)
    stats["generated_clauses"] = sat.generated
    if sat.status == "budget":
        stats["elapsed_ms"] = (time.monotonic() - start) * 1000.0
        return ProveResult("timeout", None, stats)
    if sat.status == "saturated":
        stats["elapsed_ms"] = (time.monotonic() - start) * 1000.0
        complete = not (prep.capped or expansion.truncated)
        return ProveResult("no_proof" if complete else "incomplete", None, stats)

    # refutation: rebuild the used derivation as checkable steps
    node_step: dict[int, int] = {}
    for ni in sat.used_nodes():
        node = sat.nodes[ni]
        if node.rule == "input":
            src = emit(flist[node.source])
            steps.append(
                ProofStep(clause_to_formula(node.clause), RULE_CLAUSIFY, (src,))
            )
        elif node.rule == "resolve":
            prems = tuple(node_step[p] for p in node.parents)
            steps.append(ProofStep(clause_to_formula(node.clause), RULE_RESOLVE, prems))
        else:
            prems = tuple(node_step[p] for p in node.parents)
            steps.append(ProofStep(clause_to_formula(node.clause), RULE_FACTOR, prems))
        node_step[ni] = len(steps) - 1

    falsum_step = node_step[sat.empty_index]
    ng_step = emit(ng_key)
    steps.append(ProofStep(goal, RULE_REDUCTIO, (falsum_step, ng_step)))
    stats["elapsed_ms"] = (time.monotonic() - start) * 1000.0
    stats["route"] = "refutation"
    return ProveResult("proof", Proof(tuple(steps)), stats)
