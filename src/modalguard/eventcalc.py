"""Discrete event-calculus projection with same-moment guard cascades.

States are indexed 0..horizon.  Events occur at moments 0..horizon-1;
an effect fired at moment m changes the state at m+1.  Within a
moment, each axiom is matched against each event once, axiom by axiom
and then event by event, and the matches fire in ordered scans, in that
order, until a scan fires nothing.

A guard literal reads the pre-state, the state at the moment: a
negative literal holds when the pre-state lacks its fluent, a positive
one when the pre-state has it.  One exception lets one event switch a
fluent on and thereby enable further axioms in the same moment: a
positive literal whose fluent the pre-state lacks is met by an
initiation of it fired earlier this moment, and cites that initiation.
So a literal once met stays met as the scans go on, and which effects
fire, and with them every state, does not depend on the order the
axioms are listed in.  Terminations never take effect within their own
moment.  A fluent both initiated and terminated at the same moment is
a modelling error and raises ProjectionConflict.

Every state change keeps its provenance: which axiom fired, for which
event, and which earlier effects made the guard literals true (for a
literal the pre-state meets, the effect that last set its fluent so,
None for the initial state).  That supports counterfactual attribution
(effects_of) and causal chains: causes walks an effect's provenance,
and causal_chain sorts that walk into effect order.

A trace lists its effects in effect order (Effect.key: moment, kind,
then event and fluent printed).  The effects fired at a moment are
sorted once, as they leave the moment, and moments come in order, so
each effect's key is printed once per projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .syntax import (
    Signature,
    Term,
    Var,
    match_term,
    print_term,
    substitute_term,
    term_vars,
)

INITIATED = "initiated"
TERMINATED = "terminated"


class ProjectionConflict(Exception):
    def __init__(self, fluent: Term, moment: int, initiator: Term, terminator: Term):
        self.fluent = fluent
        self.moment = moment
        self.initiator = initiator
        self.terminator = terminator
        super().__init__(
            f"fluent {print_term(fluent)} both initiated by "
            f"{print_term(initiator)} and terminated by "
            f"{print_term(terminator)} at moment {moment}"
        )


@dataclass(frozen=True)
class GuardLiteral:
    positive: bool
    fluent: Term


@dataclass(frozen=True)
class EffectAxiom:
    event: Term
    kind: str  # INITIATED | TERMINATED
    fluent: Term
    guard: tuple[GuardLiteral, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (INITIATED, TERMINATED):
            raise ValueError(f"bad effect kind {self.kind}")
        bound: list[Var] = []
        term_vars(self.event, bound)
        used: list[Var] = []
        for t in (self.fluent, *(g.fluent for g in self.guard)):
            term_vars(t, used)
        loose = sorted({v.name for v in used if v not in bound})
        if loose:
            raise ValueError(f"axiom variables {loose} not bound by the event pattern")


@dataclass(eq=False)
class Effect:
    fluent: Term
    kind: str
    event: Term
    moment: int
    sources: tuple[Optional["Effect"], ...] = ()

    def key(self) -> tuple[int, str, str, str]:
        """The effect's place in effect order: its identity, printed."""
        return (self.moment, self.kind, print_term(self.event), print_term(self.fluent))

    def identity(self) -> tuple[int, str, Term, Term]:
        return (self.moment, self.kind, self.event, self.fluent)


@dataclass(frozen=True)
class ECTheory:
    initial: frozenset[Term]
    axioms: tuple[EffectAxiom, ...]
    occurrences: frozenset[tuple[Term, int]]
    horizon: int

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        for ev, m in self.occurrences:
            if not 0 <= m < self.horizon:
                raise ValueError(
                    f"occurrence {print_term(ev)} at {m} outside 0..{self.horizon - 1}"
                )

    def with_occurrence(self, event: Term, moment: int) -> "ECTheory":
        if (event, moment) in self.occurrences:
            return self
        return ECTheory(
            self.initial,
            self.axioms,
            self.occurrences | {(event, moment)},
            self.horizon,
        )

    def without(self, event: Term, moment: int) -> "ECTheory":
        return ECTheory(
            self.initial,
            self.axioms,
            frozenset(o for o in self.occurrences if o != (event, moment)),
            self.horizon,
        )


@dataclass
class Trace:
    states: tuple[frozenset[Term], ...]  # fluents holding at each moment
    effects: tuple[Effect, ...]

    def holds(self, fluent: Term, moment: int) -> bool:
        return fluent in self.states[moment]


def project(theory: ECTheory, sig: Optional[Signature] = None) -> Trace:
    sig = sig if sig is not None else Signature()
    state = frozenset(theory.initial)
    states = [state]
    all_effects: list[Effect] = []
    # latest initiating / terminating effect per fluent, None = initial
    # state; terms tell fluents and events apart, prints only order them
    true_source: dict[Term, Optional[Effect]] = {}
    false_source: dict[Term, Optional[Effect]] = {}

    for m in range(theory.horizon):
        events = sorted(
            (ev for ev, em in theory.occurrences if em == m), key=print_term
        )
        pending_init: dict[Term, Effect] = {}
        pending_term: dict[Term, Effect] = {}
        # each axiom matched against each event once, axiom by axiom and
        # then event by event; scans fire the matches in that order until
        # a scan fires nothing
        waiting = [
            (ax, ev, b)
            for ax in theory.axioms
            for ev in events
            if (b := match_term(ax.event, ev, {}, sig)) is not None
        ]
        while waiting:
            unfired = []
            for match in waiting:
                ax, ev, b = match
                sources: list[Optional[Effect]] = []
                for lit in ax.guard:
                    f = substitute_term(lit.fluent, b)
                    # the pre-state decides, except that an initiation
                    # fired this moment meets a positive literal the
                    # pre-state does not
                    if f in state:
                        held, src = True, true_source.get(f)
                    elif lit.positive and f in pending_init:
                        held, src = True, pending_init[f]
                    else:
                        held, src = False, false_source.get(f)
                    if held != lit.positive:
                        unfired.append(match)
                        break
                    sources.append(src)
                else:
                    eff = Effect(substitute_term(ax.fluent, b), ax.kind, ev, m, tuple(sources))
                    pending = pending_init if ax.kind == INITIATED else pending_term
                    pending.setdefault(eff.fluent, eff)
            if len(unfired) == len(waiting):
                break
            waiting = unfired

        both = sorted(set(pending_init) & set(pending_term), key=print_term)
        if both:
            f = both[0]
            raise ProjectionConflict(f, m, pending_init[f].event, pending_term[f].event)

        # effect order once, as the moment's effects leave it: moments
        # come in order, so the trace needs no sort of its own
        fired = sorted([*pending_init.values(), *pending_term.values()], key=Effect.key)
        for e in fired:
            (true_source if e.kind == INITIATED else false_source)[e.fluent] = e
        all_effects.extend(fired)

        nxt = {f for f in state if f not in pending_term}
        nxt |= set(pending_init)
        state = frozenset(nxt)
        states.append(state)

    return Trace(tuple(states), tuple(all_effects))


def effects_of(
    theory: ECTheory,
    event: Term,
    moment: int,
    sig: Optional[Signature] = None,
    projected: Optional[Trace] = None,
) -> list[Effect]:
    """Effects attributable to one event occurrence: present with it,
    absent without it, and causally reachable from it.  projected, when
    given, is project(theory), and is not computed again."""
    sig = sig if sig is not None else Signature()
    with_ev = projected if projected is not None else project(theory, sig)
    without_ev = project(theory.without(event, moment), sig)
    baseline = {e.identity() for e in without_ev.effects}
    out = []
    for e in with_ev.effects:
        if e.identity() in baseline:
            continue
        if any(p.event == event and p.moment == moment for p in causes(e)):
            out.append(e)
    return out


def causes(effect: Effect) -> Iterator[Effect]:
    """The effect plus everything its guards causally depend on, each
    once, in walk order; effects compare by identity.  The one
    provenance walk: effects_of, C4 and causal_chain read it."""
    seen: set[Effect] = set()
    stack = [effect]
    while stack:
        e = stack.pop()
        if e not in seen:
            seen.add(e)
            yield e
            stack.extend(s for s in e.sources if s is not None)


def causal_chain(effect: Effect) -> list[Effect]:
    """The effect plus everything its guards causally depend on, in
    effect order (oldest first).  Effects that print alike keep the
    walk's order, so they sort the same way every time."""
    return sorted(causes(effect), key=Effect.key)
