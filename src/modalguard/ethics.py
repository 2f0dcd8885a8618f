"""Double-effect compliance checking over projected action effects.

An action passes when four clauses hold.  C1: its type is not ranked
below neutral in the ethical hierarchy.  C2: the summed utility of the
effects attributable to it strictly exceeds the threshold.  C3: every
good effect is provably intended, and no other effect of the action
is; intention is read off the proof engine, so an unprovable intention
counts as absent.  C4: no good effect is causally downstream of a bad
effect of the same action; it walks each good effect's causes
(eventcalc.causes) and names the bad ones among them in effect order,
the order the effects come in, so it sorts nothing.  A clause that
cannot be decided inside the budget reports unknown, and unknown is
treated as non-compliant by callers; the checker never guesses in
favour of the action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .eventcalc import ECTheory, Effect, INITIATED, Trace, causes, effects_of
from .prover import Budget, prove
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
NEUTRAL = "neutral"  # the category C1 ranks an action type against


@dataclass(frozen=True)
class EthicalHierarchy:
    """Ordered action categories, worst first."""

    categories: tuple[str, ...]
    assignment: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.categories)) != len(self.categories):
            raise ValueError("duplicate categories")
        if NEUTRAL not in self.categories:
            raise ValueError(f"hierarchy must contain {NEUTRAL!r}")
        for atype, cat in self.assignment.items():
            if cat not in self.categories:
                raise ValueError(f"unknown category {cat!r} for {atype}")

    def rank(self, category: str) -> int:
        return self.categories.index(category)

    def classify(self, atype: str) -> str:
        return self.assignment.get(atype, NEUTRAL)

    def at_least_neutral(self, atype: str) -> bool:
        return self.rank(self.classify(atype)) >= self.rank(NEUTRAL)


@dataclass(frozen=True)
class UtilityEntry:
    pattern: Term  # fluent term; Const("_") args (WILDCARD) match any term
    value: int

    def specificity(self) -> int:
        """How many symbols of the pattern, at any depth, are not the wildcard."""
        return _symbols(self.pattern)

    def matches(self, fluent: Term) -> bool:
        return _wild_match(self.pattern, fluent)


def _is_wild(t: Term) -> bool:
    return isinstance(t, Const) and t.name == WILDCARD


def _symbols(t: Term) -> int:
    if isinstance(t, App):
        return 1 + sum(map(_symbols, t.args))
    return 0 if _is_wild(t) else 1


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
    # entries most specific first, a tie to the pattern that prints first;
    # the sort is stable, so equal patterns keep their listed order
    ranked: tuple[UtilityEntry, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        ranked = sorted(self.entries, key=lambda e: (-e.specificity(), print_term(e.pattern)))
        object.__setattr__(self, "ranked", tuple(ranked))

    def fluent_value(self, fluent: Term) -> int:
        return next((e.value for e in self.ranked if e.matches(fluent)), 0)

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
    budget: Budget = Budget(),
    *,
    trace: Optional[Trace] = None,
) -> DDEVerdict:
    """C3 asks every intention goal of assumptions as handed in: pass a
    prover.Premises, as guard.base_theory returns and adjudication hands
    in, to read the theory once for all of them; a plain list is wrapped
    afresh for each goal.  trace, when given, is the projection of theory
    with the request occurrence added (guard.base_theory's), and is not
    projected again."""
    sig = sig if sig is not None else Signature()
    event = App("action", (agent, atype), ACTION)
    theory = theory.with_occurrence(event, request_moment)
    effects = tuple(effects_of(theory, event, request_moment, sig, trace))
    clauses: dict[str, ClauseResult] = {}

    # C1: action type not ranked below neutral
    clauses["C1"] = ClauseResult(
        "pass" if hierarchy.at_least_neutral(atype.name) else "fail",
        f"{atype.name} classified {hierarchy.classify(atype.name)}",
    )

    # C2: net utility strictly above the threshold
    values = [utilities.effect_utility(e) for e in effects]
    net = sum(values)
    status = "pass" if net > utilities.gamma else "fail"
    clauses["C2"] = ClauseResult(
        status, f"net utility {net} vs threshold {utilities.gamma}"
    )

    # C3: exactly the good effects are provably intended; every query
    # reads the assumptions as handed in, so a Premises is read once
    undecided = wrong = False
    c3_notes = []
    for e, v in zip(effects, values):
        goal = intention_formula(agent, request_moment, e)
        r = prove(assumptions, goal, budget, sig)
        label = f"{e.kind} {print_term(e.fluent)}"
        if r.status in ("timeout", "incomplete"):
            undecided = True
            c3_notes.append(f"{label}: intention undecided")
        elif (r.status == "proof") != (v > 0):
            wrong = True
            why = "good effect not provably intended" if v > 0 else "non-good effect intended"
            c3_notes.append(f"{why}: {label}")
    clauses["C3"] = ClauseResult(
        "unknown" if undecided else "fail" if wrong else "pass",
        "; ".join(c3_notes) if c3_notes else "intentions match good effects",
    )

    # C4: no good effect rides on a bad effect of this action; bad keeps
    # effect order, so each good effect's bad causes come in that order
    bad = [e for e, v in zip(effects, values) if v < 0]
    offenders = []
    for g in (e for e, v in zip(effects, values) if v > 0):
        reach = {id(p) for p in causes(g)}
        offenders += (
            f"{print_term(g.fluent)} depends on {p.kind} {print_term(p.fluent)}"
            for p in bad if id(p) in reach
        )
    if offenders:
        clauses["C4"] = ClauseResult("fail", "; ".join(offenders))
    else:
        clauses["C4"] = ClauseResult("pass", "no good effect depends on a bad one")

    return DDEVerdict(clauses, effects, net)
