"""Double-effect compliance checking over projected action effects.

An action passes when four clauses hold.  C1: its type is not ranked
below neutral in the ethical hierarchy.  C2: the summed utility of the
effects attributable to it strictly exceeds the threshold.  C3: every
good effect is provably intended, and no other effect of the action
is; intention is read off the proof engine, so an unprovable intention
counts as absent.  C4: no good effect is causally downstream of a bad
effect of the same action.  A clause that cannot be decided inside the
budget reports unknown, and unknown is treated as non-compliant by
callers; the checker never guesses in favour of the action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .eventcalc import ECTheory, Effect, INITIATED, Trace, causal_chain, effects_of
from .prover import Budget, Premises, prove
from .syntax import (
    ACTION,
    App,
    Atom,
    Const,
    Formula,
    Modal,
    Not,
    Signature,
    Term,
    INTENDS,
    moment,
    print_term,
)

WILDCARD = "_"


@dataclass(frozen=True)
class EthicalHierarchy:
    """Ordered action categories, worst first."""

    categories: tuple[str, ...]
    assignment: dict[str, str] = field(default_factory=dict)
    neutral: str = "neutral"

    def __post_init__(self) -> None:
        if len(set(self.categories)) != len(self.categories):
            raise ValueError("duplicate categories")
        if self.neutral not in self.categories:
            raise ValueError(f"hierarchy must contain {self.neutral!r}")
        for atype, cat in self.assignment.items():
            if cat not in self.categories:
                raise ValueError(f"unknown category {cat!r} for {atype}")

    def rank(self, category: str) -> int:
        return self.categories.index(category)

    def classify(self, atype: str) -> str:
        return self.assignment.get(atype, self.neutral)

    def at_least_neutral(self, atype: str) -> bool:
        return self.rank(self.classify(atype)) >= self.rank(self.neutral)


@dataclass(frozen=True)
class UtilityEntry:
    pattern: Term  # fluent term; Var args act as wildcards
    value: int

    def specificity(self) -> int:
        if not isinstance(self.pattern, App):
            return 1
        return 1 + sum(1 for a in self.pattern.args if not _is_wild(a))

    def matches(self, fluent: Term) -> bool:
        return _wild_match(self.pattern, fluent)


def _is_wild(t: Term) -> bool:
    return isinstance(t, Const) and t.name == WILDCARD


def _wild_match(pattern: Term, term: Term) -> bool:
    if _is_wild(pattern):
        return True
    if isinstance(pattern, App):
        return (
            isinstance(term, App)
            and pattern.fn == term.fn
            and len(pattern.args) == len(term.args)
            and all(_wild_match(p, t) for p, t in zip(pattern.args, term.args))
        )
    return pattern == term


@dataclass(frozen=True)
class UtilityMap:
    entries: tuple[UtilityEntry, ...]
    gamma: int = 0

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")

    def fluent_value(self, fluent: Term) -> int:
        best = sorted(
            (e for e in self.entries if e.matches(fluent)),
            key=lambda e: (-e.specificity(), print_term(e.pattern)),
        )
        return best[0].value if best else 0

    def effect_utility(self, e: Effect) -> int:
        v = self.fluent_value(e.fluent)
        return v if e.kind == INITIATED else -v


@dataclass(frozen=True)
class ClauseResult:
    status: str  # pass | fail | unknown
    detail: str


@dataclass(frozen=True)
class DDEVerdict:
    clauses: dict[str, ClauseResult]
    effects: tuple[Effect, ...]
    net_utility: int

    @property
    def compliant(self) -> bool:
        return all(c.status == "pass" for c in self.clauses.values())

    @property
    def unknown(self) -> bool:
        return any(c.status == "unknown" for c in self.clauses.values())


def intention_formula(agent: Const, request_moment: int, e: Effect) -> Modal:
    """The intention an effect attributes to the agent: that the fluent
    holds (or no longer holds) at the moment after the effect fires."""
    at = moment(e.moment + 1)
    holds = Atom("holds", (e.fluent, at))
    body: Formula = holds if e.kind == INITIATED else Not(holds)
    return Modal(INTENDS, agent, moment(request_moment), body)


def check_dde(
    theory: ECTheory,
    agent: Const,
    atype: Const,
    request_moment: int,
    hierarchy: EthicalHierarchy,
    utilities: UtilityMap,
    assumptions: Sequence[Formula],
    sig: Optional[Signature] = None,
    budget: Optional[Budget] = None,
    *,
    trace: Optional[Trace] = None,
) -> DDEVerdict:
    """trace, when given, is the projection of theory with the request
    occurrence added (guard.base_theory's), and is not projected again."""
    sig = sig if sig is not None else Signature()
    budget = budget if budget is not None else Budget()
    event = App("action", (agent, atype), ACTION)
    theory = theory.with_occurrence(event, request_moment)
    effects = tuple(effects_of(theory, event, request_moment, sig, trace))
    clauses: dict[str, ClauseResult] = {}

    # C1: action type not ranked below neutral
    cat = hierarchy.classify(atype.name)
    if hierarchy.at_least_neutral(atype.name):
        clauses["C1"] = ClauseResult("pass", f"{atype.name} classified {cat}")
    else:
        clauses["C1"] = ClauseResult("fail", f"{atype.name} classified {cat}")

    # C2: net utility strictly above the threshold
    net = sum(utilities.effect_utility(e) for e in effects)
    status = "pass" if net > utilities.gamma else "fail"
    clauses["C2"] = ClauseResult(
        status, f"net utility {net} vs threshold {utilities.gamma}"
    )

    good = [e for e in effects if utilities.effect_utility(e) > 0]
    bad = [e for e in effects if utilities.effect_utility(e) < 0]

    # C3: exactly the good effects are provably intended; every query
    # reads one theory, so its keys and pruning are computed once
    c3_status, c3_notes = "pass", []
    premises = Premises(assumptions)
    for e in effects:
        goal = intention_formula(agent, request_moment, e)
        r = prove(premises, goal, budget, sig)
        label = f"{e.kind} {print_term(e.fluent)}"
        if r.status in ("timeout", "incomplete"):
            c3_status = "unknown"
            c3_notes.append(f"{label}: intention undecided")
            continue
        intended = r.status == "proof"
        if utilities.effect_utility(e) > 0:
            if not intended:
                if c3_status != "unknown":
                    c3_status = "fail"
                c3_notes.append(f"good effect not provably intended: {label}")
        else:
            if intended:
                if c3_status != "unknown":
                    c3_status = "fail"
                c3_notes.append(f"non-good effect intended: {label}")
    clauses["C3"] = ClauseResult(
        c3_status, "; ".join(c3_notes) if c3_notes else "intentions match good effects"
    )

    # C4: no good effect rides on a bad effect of this action
    bad_ids = {id(e) for e in bad}
    offenders = []
    for g in good:
        for p in causal_chain(g):
            if id(p) in bad_ids:
                offenders.append(
                    f"{print_term(g.fluent)} depends on {p.kind} {print_term(p.fluent)}"
                )
    if offenders:
        clauses["C4"] = ClauseResult("fail", "; ".join(offenders))
    else:
        clauses["C4"] = ClauseResult("pass", "no good effect depends on a bad one")

    return DDEVerdict(clauses, effects, net)
