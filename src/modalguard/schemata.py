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
says so (expand_modal returns True), so a search over it is not
complete.

Formulas are identified up to alpha-equivalence, by canonical key (the
formula printed with its binders numbered and its free variables marked,
see syntax.canonical_key).  A join target harvested from inside a
quantifier may be open; its key is not that of any ground formula, so
no S4 join ever builds it.  The expansion extends a record dict keyed
that way in place: the prover hands in its grounding closure, so a
proof search holds one store of derivations.  A formula handed in is
never keyed again; the expansion prints a key only for a formula it
derives, and for a body, antecedent or join-target part it looks up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

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


def assumed(formulas: Iterable[Formula]) -> dict[str, Derivation]:
    """Depth-0 assumption records of the formulas, the first of each
    canonical key."""
    records: dict[str, Derivation] = {}
    for f in formulas:
        records.setdefault(canonical_key(f), Derivation(f, RULE_ASSUMPTION, (), 0))
    return records


def is_join_target(f: Formula) -> bool:
    """Whether f is a conjunction-bodied epistemic formula."""
    return isinstance(f, Modal) and f.op in EPISTEMIC_OPS and isinstance(f.body, And)


def harvest_join_targets(formulas: Iterable[Formula]) -> dict[str, Modal]:
    """Join targets (is_join_target) anywhere in the given set, by
    canonical key, the first of each key.  A target with a variable
    bound outside it keeps that variable free in its key."""
    out: dict[str, Modal] = {}
    for f in formulas:
        for g in subformulas(f):
            if is_join_target(g):
                out.setdefault(canonical_key(g), g)
    return out


def _modal_key(m: Modal) -> tuple[str, str, str]:
    return (m.op, print_term(m.agent), print_term(m.time))


def expand_modal(
    records: dict[str, Derivation],
    depth: int,
    join_targets: Mapping[str, Modal],
) -> bool:
    """Close records, a dict of depth-0 derivations by canonical key,
    under S1-S4 up to the given depth, in place; new records follow in
    derivation order.  join_targets maps the canonical keys of the S4
    join targets to the targets.  Returns whether a new formula was
    refused for depth, so that the closure is incomplete."""
    truncated = False

    # join target bookkeeping: target key -> (target, context, part keys)
    targets: dict[str, tuple[Modal, tuple[str, str, str], tuple[str, ...]]] = {}
    for tkey, tgt in join_targets.items():
        parts = tuple(
            canonical_key(Modal(tgt.op, tgt.agent, tgt.time, p)) for p in tgt.body.parts
        )
        targets[tkey] = (tgt, _modal_key(tgt), parts)

    # per (op, agent, time): body key -> formula key, and antecedent key
    # -> (formula key, consequent) of the implication-bodied formulas
    peers: dict[tuple[str, str, str], dict[str, str]] = {}
    implications: dict[tuple[str, str, str], dict[str, list[tuple[str, Formula]]]] = {}
    queue: deque[str] = deque(records)

    def add(
        f: Formula, rule: str, premises: tuple[str, ...], d: int, key: Optional[str] = None
    ) -> None:
        nonlocal truncated
        if key is None:
            key = canonical_key(f)
        if key in records:
            return
        if d > depth:
            truncated = True
            return
        records[key] = Derivation(f, rule, premises, d)
        queue.append(key)

    while queue:
        key = queue.popleft()
        rec = records[key]
        f = rec.formula
        if not isinstance(f, Modal) or f.op not in EPISTEMIC_OPS:
            continue
        d = rec.depth
        body_key = canonical_key(f.body)
        if f.op == KNOWS:
            add(f.body, RULE_S1, (key,), d + 1, body_key)
            add(Modal(BELIEVES, f.agent, f.time, f.body), RULE_S2, (key,), d + 1)
        # a context and a body key determine the formula key, so each
        # popped formula is new to its context's indexes
        ctx = _modal_key(f)
        ctx_peers = peers.setdefault(ctx, {})
        ctx_implications = implications.setdefault(ctx, {})
        ctx_peers[body_key] = key
        # S3 with f as the implication premise
        if isinstance(f.body, Implies):
            ante = canonical_key(f.body.left)
            ctx_implications.setdefault(ante, []).append((key, f.body.right))
            other = ctx_peers.get(ante)
            if other is not None:
                add(
                    Modal(f.op, f.agent, f.time, f.body.right),
                    RULE_S3,
                    (key, other),
                    max(d, records[other].depth) + 1,
                )
        # S3 with f as the antecedent premise
        for ik, right in ctx_implications.get(body_key, ()):
            add(
                Modal(f.op, f.agent, f.time, right),
                RULE_S3,
                (ik, key),
                max(d, records[ik].depth) + 1,
            )
        # S4 split
        if isinstance(f.body, And):
            for p in f.body.parts:
                add(Modal(f.op, f.agent, f.time, p), RULE_S4_SPLIT, (key,), d + 1)
        # S4 join toward targets
        for tkey, (tgt, tctx, part_keys) in targets.items():
            if tkey in records:
                continue
            if tctx != ctx:
                continue
            if key not in part_keys:
                continue
            if all(pk in records for pk in part_keys):
                add(
                    tgt,
                    RULE_S4_JOIN,
                    part_keys,
                    max(records[pk].depth for pk in part_keys) + 1,
                    tkey,
                )
    return truncated
