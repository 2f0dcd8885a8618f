"""Discrete event-calculus projection with same-moment guard cascades.

States are indexed 0..horizon.  Events occur at moments 0..horizon-1;
an effect fired at moment m changes the state at m+1.  Within a
moment, effect axioms fire in synchronous rounds: a positive guard
literal reads the pre-state plus the initiations already fired this
moment, so one event can switch a fluent and thereby enable further
axioms in the same moment.  Terminations never take effect within
their own moment.  A fluent both initiated and terminated at the same
moment is a modelling error and raises ProjectionConflict.

Every state change keeps its provenance: which axiom fired, for which
event, and which earlier effects made the guard literals true.  That
supports counterfactual attribution (effects_of) and causal chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
        return (self.moment, self.kind, print_term(self.event), print_term(self.fluent))

    def provenance(self) -> list["Effect"]:
        """This effect plus everything its guards causally depend on."""
        seen: list[Effect] = []
        stack = [self]
        while stack:
            e = stack.pop()
            if any(e is s for s in seen):
                continue
            seen.append(e)
            stack.extend(s for s in e.sources if s is not None)
        return sorted(seen, key=Effect.key)


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

    def effect_keys(self) -> set[tuple[int, str, str, str]]:
        return {e.key() for e in self.effects}


def project(theory: ECTheory, sig: Optional[Signature] = None) -> Trace:
    sig = sig if sig is not None else Signature()
    state = frozenset(theory.initial)
    states = [state]
    all_effects: list[Effect] = []
    # latest initiating / terminating effect per fluent, None = initial state
    true_source: dict[str, Optional[Effect]] = {}
    false_source: dict[str, Optional[Effect]] = {}

    for m in range(theory.horizon):
        events = sorted(
            (ev for ev, em in theory.occurrences if em == m), key=print_term
        )
        pending_init: dict[str, Effect] = {}
        pending_term: dict[str, Effect] = {}
        fired: set[tuple[int, str]] = set()

        changed = True
        while changed:
            changed = False
            for ai, ax in enumerate(theory.axioms):
                for ev in events:
                    b = match_term(ax.event, ev, {}, sig)
                    if b is None:
                        continue
                    tag = (ai, print_term(ev))
                    if tag in fired:
                        continue
                    sources: list[Optional[Effect]] = []
                    ok = True
                    for lit in ax.guard:
                        f = substitute_term(lit.fluent, b)
                        fk = print_term(f)
                        now_true = f in state or fk in pending_init
                        if lit.positive != now_true:
                            ok = False
                            break
                        if lit.positive:
                            src = pending_init.get(fk) or true_source.get(fk)
                        else:
                            src = false_source.get(fk)
                        sources.append(src)
                    if not ok:
                        continue
                    fired.add(tag)
                    changed = True
                    eff = Effect(
                        substitute_term(ax.fluent, b), ax.kind, ev, m, tuple(sources)
                    )
                    fk = print_term(eff.fluent)
                    if ax.kind == INITIATED:
                        pending_init.setdefault(fk, eff)
                    else:
                        pending_term.setdefault(fk, eff)

        both = sorted(set(pending_init) & set(pending_term))
        if both:
            fk = both[0]
            raise ProjectionConflict(
                pending_init[fk].fluent, m, pending_init[fk].event, pending_term[fk].event
            )

        for fk, eff in sorted(pending_init.items()):
            all_effects.append(eff)
            true_source[fk] = eff
        for fk, eff in sorted(pending_term.items()):
            all_effects.append(eff)
            false_source[fk] = eff

        nxt = {f for f in state if print_term(f) not in pending_term}
        nxt |= {e.fluent for e in pending_init.values()}
        state = frozenset(nxt)
        states.append(state)

    all_effects.sort(key=Effect.key)
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
    baseline = without_ev.effect_keys()
    out = []
    for e in with_ev.effects:
        if e.key() in baseline:
            continue
        if any(p.event == event and p.moment == moment for p in e.provenance()):
            out.append(e)
    return out


def causal_chain(effect: Effect) -> list[Effect]:
    """The provenance closure of an effect, oldest first."""
    return effect.provenance()
