"""Modal inference schemata and the expansion fixpoint.

Four schema families over the epistemic operators:

  S1  knows(a,t,p) derives p                      (veridicality)
  S2  knows(a,t,p) derives believes(a,t,p)
  S3  M(a,t,(implies p q)) and M(a,t,p) derive M(a,t,q)  for M in {knows, believes}
  S4  M(a,t,(and p1 .. pn)) derives each M(a,t,pi), and the n premises
      M(a,t,pi) derive M(a,t,(and p1 .. pn)) when that conjunction is a
      join target (a conjunction-bodied modal subformula occurring in the
      problem; unrestricted joining would not terminate)

Desire, intention, perception, and obligation formulas are inert facts.
Expansion is a least fixpoint truncated at a derivation depth: an
assumption sits at depth 0 and a derived formula at one more than its
deepest premise.  An expansion that refuses a new formula for depth
says so (Expansion.truncated), so a search over it is not complete.

Formulas are identified up to alpha-equivalence, by canonical key (the
formula printed with its binders numbered, see syntax.canonical_key).
Within one expansion each structurally distinct formula is keyed once;
a caller that has already keyed the assumptions passes their keys in,
and they are not keyed again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .syntax import (
    And,
    BELIEVES,
    EPISTEMIC_OPS,
    Formula,
    Implies,
    KNOWS,
    Modal,
    canonical_key,
    print_term,
    subformulas,
)

RULE_ASSUMPTION = "assumption"
RULE_S1 = "S1"
RULE_S2 = "S2"
RULE_S3 = "S3"
RULE_S4_SPLIT = "S4-split"
RULE_S4_JOIN = "S4-join"


@dataclass(frozen=True)
class Derivation:
    formula: Formula
    rule: str
    premises: tuple[str, ...]  # canonical keys of premise formulas
    depth: int


class Expansion:
    """Result of expand_modal: formulas keyed by alpha-equivalence."""

    def __init__(self) -> None:
        self.records: dict[str, Derivation] = {}
        # a new formula was refused for depth: the closure is incomplete
        self.truncated = False

    def formulas(self) -> list[Formula]:
        return [d.formula for d in self.records.values()]


def harvest_join_targets(formulas: Iterable[Formula]) -> list[Modal]:
    """Conjunction-bodied epistemic subformulas anywhere in the given
    set, the first of each canonical key."""
    out: dict[str, Modal] = {}
    for f in formulas:
        for g in subformulas(f):
            if isinstance(g, Modal) and g.op in EPISTEMIC_OPS and isinstance(g.body, And):
                out.setdefault(canonical_key(g), g)
    return list(out.values())


def _modal_key(m: Modal) -> tuple[str, str, str]:
    return (m.op, print_term(m.agent), print_term(m.time))


def expand_modal(
    assumptions: Sequence[Formula],
    depth: int,
    join_targets: Optional[Sequence[Modal]] = None,
    keys: Optional[Sequence[str]] = None,
) -> Expansion:
    """Close the assumption set under S1-S4 up to the given depth.

    keys, when given, are the canonical keys of the assumptions, in order.
    """
    exp = Expansion()
    if join_targets is None:
        join_targets = harvest_join_targets(assumptions)

    # structurally equal formulas share a key, so each is keyed once
    memo: dict[Formula, str] = {}
    if keys is not None:
        memo.update(zip(assumptions, keys, strict=True))

    def key_of(f: Formula) -> str:
        k = memo.get(f)
        if k is None:
            k = memo[f] = canonical_key(f)
        return k

    # join target bookkeeping: target key -> (target, context, part keys)
    targets: dict[str, tuple[Modal, tuple[str, str, str], tuple[str, ...]]] = {}
    for tgt in join_targets:
        parts = tuple(
            key_of(Modal(tgt.op, tgt.agent, tgt.time, p)) for p in tgt.body.parts
        )
        targets.setdefault(key_of(tgt), (tgt, _modal_key(tgt), parts))

    # index: (op, agent, time) -> {body key -> formula key} for S3 lookups
    by_context: dict[tuple[str, str, str], dict[str, str]] = {}
    queue: deque[str] = deque()

    def add(f: Formula, rule: str, premises: tuple[str, ...], d: int) -> None:
        key = key_of(f)
        if key in exp.records:
            return
        if d > depth:
            exp.truncated = True
            return
        exp.records[key] = Derivation(f, rule, premises, d)
        queue.append(key)

    for a in assumptions:
        add(a, RULE_ASSUMPTION, (), 0)

    while queue:
        key = queue.popleft()
        rec = exp.records[key]
        f = rec.formula
        if not isinstance(f, Modal):
            continue
        d = rec.depth
        if f.op == KNOWS:
            add(f.body, RULE_S1, (key,), d + 1)
            add(Modal(BELIEVES, f.agent, f.time, f.body), RULE_S2, (key,), d + 1)
        if f.op in EPISTEMIC_OPS:
            ctx = _modal_key(f)
            peers = by_context.setdefault(ctx, {})
            body_key = key_of(f.body)
            if body_key not in peers:
                peers[body_key] = key

            # S3 with f as the implication premise
            if isinstance(f.body, Implies):
                ante = key_of(f.body.left)
                if ante in peers:
                    other = peers[ante]
                    add(
                        Modal(f.op, f.agent, f.time, f.body.right),
                        RULE_S3,
                        (key, other),
                        max(d, exp.records[other].depth) + 1,
                    )
            # S3 with f as the antecedent premise
            for bk, fk in list(peers.items()):
                peer = exp.records[fk].formula
                if isinstance(peer.body, Implies):
                    if key_of(peer.body.left) == body_key:
                        add(
                            Modal(f.op, f.agent, f.time, peer.body.right),
                            RULE_S3,
                            (fk, key),
                            max(d, exp.records[fk].depth) + 1,
                        )
            # S4 split
            if isinstance(f.body, And):
                for p in f.body.parts:
                    add(Modal(f.op, f.agent, f.time, p), RULE_S4_SPLIT, (key,), d + 1)
            # S4 join toward targets
            for tkey, (tgt, tctx, part_keys) in targets.items():
                if tkey in exp.records:
                    continue
                if tctx != ctx:
                    continue
                if key not in part_keys:
                    continue
                if all(pk in exp.records for pk in part_keys):
                    add(
                        tgt,
                        RULE_S4_JOIN,
                        part_keys,
                        max(exp.records[pk].depth for pk in part_keys) + 1,
                    )
    return exp
