"""Sorted term and formula language for the reasoning engine.

Terms are variables, constants, or function applications; every term
carries its sort.  Formulas are s-expression-shaped: atoms, the boolean
connectives, sorted quantifiers, and modal applications (knows,
believes, desires, intends, perceives, obligated).  The obligated
operator always carries a situation term; three-argument surface forms
are normalized by the parser.

A Signature owns the sort hierarchy and the declared symbols.  The
built-in sorts, the event-calculus symbols, and the defined predicates
Prevents/Block are pre-declared in every signature.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import count
from typing import Iterator, Mapping, Optional, Union


class SortError(Exception):
    """A term or formula violates the sort discipline."""


# ---------------------------------------------------------------------------
# Sorts

AGENT = "Agent"
MOMENT = "Moment"
ACTION_TYPE = "ActionType"
ACTION = "Action"
EVENT = "Event"
FLUENT = "Fluent"
BOOLEAN = "Boolean"
GOAL = "Goal"
SITUATION = "Situation"

# sort name -> direct supersorts
BUILTIN_SORTS: dict[str, tuple[str, ...]] = {
    AGENT: (),
    MOMENT: (),
    ACTION_TYPE: (),
    EVENT: (),
    ACTION: (EVENT,),
    FLUENT: (),
    BOOLEAN: (),
    GOAL: (EVENT, FLUENT),
    SITUATION: (),
}

SIGMA_DEFAULT = "sigma_default"


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    sort: str


@dataclass(frozen=True, slots=True)
class Const:
    name: str
    sort: str


@dataclass(frozen=True, slots=True)
class App:
    fn: str
    args: tuple["Term", ...]
    sort: str


Term = Union[Var, Const, App]


def moment(n: int) -> Const:
    """Moment literals are non-negative integer constants."""
    if n < 0:
        raise SortError(f"moments are non-negative, got {n}")
    return Const(str(n), MOMENT)


def is_moment_literal(t: Term) -> bool:
    return isinstance(t, Const) and t.sort == MOMENT and t.name.isdigit()


def moment_value(t: Term) -> int:
    if not is_moment_literal(t):
        raise SortError(f"not a moment literal: {print_term(t)}")
    return int(t.name)


# ---------------------------------------------------------------------------
# Formulas

KNOWS = "knows"
BELIEVES = "believes"
DESIRES = "desires"
INTENDS = "intends"
PERCEIVES = "perceives"
OBLIGATED = "obligated"

MODAL_OPS = (KNOWS, BELIEVES, DESIRES, INTENDS, PERCEIVES, OBLIGATED)
EPISTEMIC_OPS = (KNOWS, BELIEVES)

CONNECTIVES = ("not", "and", "or", "implies", "iff")
QUANTIFIERS = ("forall", "exists")
RESERVED_WORDS = frozenset(CONNECTIVES + QUANTIFIERS + MODAL_OPS)

# Shapes of the names the engine generates: canonical keys print
# binders as b<digits>, shadow patterns print free variables as holes
# h<digits>, shadow atoms are named sh_<hex> and skolem symbols
# sk_<hex>_<n>.  Signature refuses a declared symbol spelling one: it
# would read as a binder, or share a shadow atom or a skolem symbol with
# what it is not.  Formulas built in Python are not checked, but a key
# still tells a constant named like a binder from it (key_name).
BINDER_SHAPE = re.compile(r"b[0-9]+")
RESERVED_SHAPES = (
    (BINDER_SHAPE, "b<digits>"),
    (re.compile(r"h[0-9]+"), "h<digits>"),
    (re.compile(r"sh_.*"), "sh_<anything>"),
    (re.compile(r"sk_.*"), "sk_<anything>"),
)


@dataclass(frozen=True, slots=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class Not:
    body: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    parts: tuple["Formula", ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("And requires at least two parts; use conj()")


@dataclass(frozen=True, slots=True)
class Or:
    parts: tuple["Formula", ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("Or requires at least two parts; use disj()")


@dataclass(frozen=True, slots=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Forall:
    var: Var
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Exists:
    var: Var
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Modal:
    """Modal application.  situation is present iff op == obligated."""

    op: str
    agent: Term
    time: Term
    body: "Formula"
    situation: Optional[Term] = None

    def __post_init__(self) -> None:
        if self.op not in MODAL_OPS:
            raise ValueError(f"unknown modal operator {self.op!r}")
        if (self.situation is not None) != (self.op == OBLIGATED):
            raise ValueError("situation term is for obligated only, and required there")


Formula = Union[Atom, Not, And, Or, Implies, Iff, Forall, Exists, Modal]

FALSUM = Atom("false")


def conj(parts: list[Formula] | tuple[Formula, ...]) -> Formula:
    """N-ary conjunction; singletons collapse to the formula itself."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("empty conjunction")
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def disj(parts: list[Formula] | tuple[Formula, ...]) -> Formula:
    parts = tuple(parts)
    if not parts:
        raise ValueError("empty disjunction")
    if len(parts) == 1:
        return parts[0]
    return Or(parts)


def obligated(agent: Term, time: Term, situation: Term, body: Formula) -> Modal:
    return Modal(OBLIGATED, agent, time, body, situation)


# ---------------------------------------------------------------------------
# Printing (canonical text form)
#
# One walk prints terms, formulas and canonical keys; a key names each
# binder before printing its body.  Shadow and skolem names hash keys
# whose variables are all bound or named, which a proof checker
# recomputes, so neither those keys nor the plain prints may change.


def key_name(name: str) -> str:
    """A constant's or a given name's print in a key: with a leading '
    (no identifier starts with one) when it has a binder's shape."""
    return "'" + name if name[:1] == "b" and BINDER_SHAPE.fullmatch(name) else name


def _show_term(t: Term, names: Optional[Mapping[Var, str]]) -> str:
    if isinstance(t, Const):
        return t.name if names is None else key_name(t.name)
    if isinstance(t, Var):
        return t.name if names is None else names.get(t) or f"?{t.name}:{t.sort}"
    inner = " ".join([_show_term(a, names) for a in t.args])
    return f"({t.fn} {inner})" if inner else f"({t.fn})"


def _show(
    f: Formula, names: Optional[Mapping[Var, str]], binders: Optional[Iterator[str]]
) -> str:
    """f printed plainly when names is None, else as a key: each
    variable in names under its name there, and the binders under the
    names binders gives, in binder order."""
    if isinstance(f, Atom):
        if not f.args:
            return f"({f.pred})"
        return f"({f.pred} {' '.join([_show_term(a, names) for a in f.args])})"
    if isinstance(f, Not):
        return f"(not {_show(f.body, names, binders)})"
    if isinstance(f, And):
        return f"(and {' '.join([_show(p, names, binders) for p in f.parts])})"
    if isinstance(f, Or):
        return f"(or {' '.join([_show(p, names, binders) for p in f.parts])})"
    if isinstance(f, Implies):
        return f"(implies {_show(f.left, names, binders)} {_show(f.right, names, binders)})"
    if isinstance(f, Iff):
        return f"(iff {_show(f.left, names, binders)} {_show(f.right, names, binders)})"
    if isinstance(f, (Forall, Exists)):
        v = f.var
        if names is None:
            name = v.name
        else:
            name = next(binders)
            names = {**names, v: name}
        q = "forall" if isinstance(f, Forall) else "exists"
        return f"({q} {name} : {v.sort} {_show(f.body, names, binders)})"
    if isinstance(f, Modal):
        head = f"({f.op} {_show_term(f.agent, names)} {_show_term(f.time, names)}"
        if f.situation is not None:
            head += f" {_show_term(f.situation, names)}"
        return f"{head} {_show(f.body, names, binders)})"
    raise TypeError(f"not a formula: {f!r}")


def print_term(t: Term) -> str:
    return _show_term(t, None)


def print_formula(f: Formula) -> str:
    return _show(f, None, None)


def canonical_key(f: Formula, names: Optional[Mapping[Var, str]] = None) -> str:
    """Identity key: equal keys mean alpha-equivalent formulas.  f is
    printed with its binders renamed b0, b1, ... in binder order.  A
    free variable in names prints as a constant of the given name would
    (key_name); any other free variable x of sort S prints as ?x:S,
    which no identifier can spell."""
    given = {v: key_name(n) for v, n in names.items()} if names else {}
    return _show(f, given, map("b{}".format, count()))


def alpha_equivalent(f: Formula, g: Formula) -> bool:
    return canonical_key(f) == canonical_key(g)


# ---------------------------------------------------------------------------
# Traversal


def term_vars(t: Term, acc: list[Var]) -> None:
    if isinstance(t, Var):
        if t not in acc:
            acc.append(t)
    elif isinstance(t, App):
        for a in t.args:
            term_vars(a, acc)


def formula_terms(f: Formula) -> Iterator[Term]:
    """Top-level terms of f, in left-to-right order (not recursive into terms)."""
    if isinstance(f, Atom):
        yield from f.args
    elif isinstance(f, Not):
        yield from formula_terms(f.body)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from formula_terms(p)
    elif isinstance(f, (Implies, Iff)):
        yield from formula_terms(f.left)
        yield from formula_terms(f.right)
    elif isinstance(f, (Forall, Exists)):
        yield from formula_terms(f.body)
    elif isinstance(f, Modal):
        yield f.agent
        yield f.time
        if f.situation is not None:
            yield f.situation
        yield from formula_terms(f.body)


def symbol_names(f: Formula) -> set[str]:
    """Names of every variable, constant and function symbol in the terms
    of f, including modal agent, time and situation terms.  Predicate
    names are not collected."""
    names: set[str] = set()
    stack = list(formula_terms(f))
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            names.add(t.fn)
            stack.extend(t.args)
        else:
            names.add(t.name)
    return names


def free_vars(f: Formula) -> tuple[Var, ...]:
    """Free variables in first-occurrence order."""

    out: list[Var] = []

    def walk(g: Formula, bound: frozenset[Var]) -> None:
        if isinstance(g, Atom):
            acc: list[Var] = []
            for t in g.args:
                term_vars(t, acc)
            for v in acc:
                if v not in bound and v not in out:
                    out.append(v)
        elif isinstance(g, Not):
            walk(g.body, bound)
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p, bound)
        elif isinstance(g, (Implies, Iff)):
            walk(g.left, bound)
            walk(g.right, bound)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body, bound | {g.var})
        elif isinstance(g, Modal):
            acc = []
            term_vars(g.agent, acc)
            term_vars(g.time, acc)
            if g.situation is not None:
                term_vars(g.situation, acc)
            for v in acc:
                if v not in bound and v not in out:
                    out.append(v)
            walk(g.body, bound)

    walk(f, frozenset())
    return tuple(out)


def subformulas(f: Formula) -> Iterator[Formula]:
    """All subformulas including f itself, pre-order."""
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.body)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from subformulas(p)
    elif isinstance(f, (Implies, Iff)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (Forall, Exists, Modal)):
        yield from subformulas(f.body)


def maximal_modal_subformulas(f: Formula) -> list[Formula]:
    """Outermost modal subformulas in left-to-right order, no descent inside."""

    out: list[Formula] = []

    def walk(g: Formula) -> None:
        if isinstance(g, Modal):
            out.append(g)
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p)
        elif isinstance(g, (Implies, Iff)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body)

    walk(f)
    return out


def constants_in_term(t: Term, acc: list[Const]) -> None:
    if isinstance(t, Const):
        if t not in acc:
            acc.append(t)
    elif isinstance(t, App):
        for a in t.args:
            constants_in_term(a, acc)


def constants_in_formula(f: Formula) -> list[Const]:
    acc: list[Const] = []
    for g in subformulas(f):
        if isinstance(g, Atom):
            for t in g.args:
                constants_in_term(t, acc)
        elif isinstance(g, Modal):
            constants_in_term(g.agent, acc)
            constants_in_term(g.time, acc)
            if g.situation is not None:
                constants_in_term(g.situation, acc)
    return acc


# ---------------------------------------------------------------------------
# Substitution and matching


def substitute_term(t: Term, mapping: Mapping[Var, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t, t)
    if isinstance(t, App):
        return App(t.fn, tuple(substitute_term(a, mapping) for a in t.args), t.sort)
    return t


def match_term(
    pattern: Term, target: Term, s: dict[Var, Term], sig: "Signature"
) -> Optional[dict[Var, Term]]:
    """One-way matching: only variables in the pattern bind, and only to
    terms whose sort widens to theirs.  Extends s in place; None when
    there is no match (s may then hold partial bindings)."""
    if isinstance(pattern, Var):
        bound = s.get(pattern)
        if bound is not None:
            return s if bound == target else None
        if not sig.widens(target.sort, pattern.sort):
            return None
        s[pattern] = target
        return s
    if isinstance(pattern, Const):
        return s if pattern == target else None
    if (
        not isinstance(target, App)
        or pattern.fn != target.fn
        or len(pattern.args) != len(target.args)
    ):
        return None
    for x, y in zip(pattern.args, target.args):
        if match_term(x, y, s, sig) is None:
            return None
    return s


def _names_in_term(t: Term, acc: set[str]) -> None:
    if isinstance(t, (Var, Const)):
        acc.add(t.name)
    else:
        for a in t.args:
            _names_in_term(a, acc)


def substitute(
    f: Formula,
    mapping: Mapping[Var, Term],
    sig: Optional["Signature"] = None,
) -> Formula:
    """Capture-avoiding substitution of free variables.

    Each replacement term's sort must widen to the variable's sort
    (exact match when no signature is supplied).
    """
    for v, t in mapping.items():
        ok = sig.widens(t.sort, v.sort) if sig is not None else t.sort == v.sort
        if not ok:
            raise SortError(
                f"cannot bind {v.name} : {v.sort} to {print_term(t)} : {t.sort}"
            )

    # names occurring in replacement terms; bound vars clashing get renamed
    taken: set[str] = set()
    for t in mapping.values():
        _names_in_term(t, taken)

    def fresh(name: str, avoid: set[str]) -> str:
        cand = name
        while cand in avoid:
            cand += "'"
        return cand

    def walk(g: Formula, m: dict[Var, Term]) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(substitute_term(t, m) for t in g.args))
        if isinstance(g, Not):
            return Not(walk(g.body, m))
        if isinstance(g, And):
            return And(tuple(walk(p, m) for p in g.parts))
        if isinstance(g, Or):
            return Or(tuple(walk(p, m) for p in g.parts))
        if isinstance(g, Implies):
            return Implies(walk(g.left, m), walk(g.right, m))
        if isinstance(g, Iff):
            return Iff(walk(g.left, m), walk(g.right, m))
        if isinstance(g, (Forall, Exists)):
            v = g.var
            inner = {k: t for k, t in m.items() if k != v}
            if not inner:
                return g
            if v.name in taken:
                # rename the binder away from capture
                body_names = {w.name for w in free_vars(g.body)}
                nv = Var(fresh(v.name, taken | body_names), v.sort)
                body = walk(g.body, {v: nv})
                body = walk(body, inner)
                return type(g)(nv, body)
            return type(g)(v, walk(g.body, inner))
        if isinstance(g, Modal):
            return Modal(
                g.op,
                substitute_term(g.agent, m),
                substitute_term(g.time, m),
                walk(g.body, m),
                None if g.situation is None else substitute_term(g.situation, m),
            )
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, dict(mapping))


# ---------------------------------------------------------------------------
# Signature


@dataclass
class Signature:
    """Declared sorts, constants, functions, and predicates.

    The built-in sorts and the event-calculus symbols are always
    present.  Moment literals (non-negative integers) never need
    declaration.
    """

    sorts: dict[str, tuple[str, ...]] = field(default_factory=dict)
    constants: dict[str, str] = field(default_factory=dict)
    functions: dict[str, tuple[tuple[str, ...], str]] = field(default_factory=dict)
    predicates: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, parents in BUILTIN_SORTS.items():
            self.sorts.setdefault(name, parents)
        self.constants.setdefault(SIGMA_DEFAULT, SITUATION)
        self.functions.setdefault("action", ((AGENT, ACTION_TYPE), ACTION))
        for name, argsorts in (
            ("holds", (FLUENT, MOMENT)),
            ("happens", (EVENT, MOMENT)),
            ("prior", (MOMENT, MOMENT)),
            ("initiates", (EVENT, FLUENT, MOMENT)),
            ("terminates", (EVENT, FLUENT, MOMENT)),
            ("Prevents", (AGENT, AGENT, GOAL, ACTION_TYPE, MOMENT)),
            ("Block", (AGENT, AGENT, GOAL, ACTION_TYPE, MOMENT)),
            ("innocent", (AGENT,)),
            ("false", ()),
        ):
            self.predicates.setdefault(name, argsorts)

    # -- declarations ------------------------------------------------------

    def declare_sort(self, name: str, parents: tuple[str, ...] = ()) -> None:
        if name in self.sorts:
            raise SortError(f"sort {name} already declared")
        for p in parents:
            if p not in self.sorts:
                raise SortError(f"unknown parent sort {p} for {name}")
        self.sorts[name] = parents

    def declare_constant(self, name: str, sort: str) -> None:
        self._check_symbol(name)
        if sort not in self.sorts:
            raise SortError(f"unknown sort {sort} for constant {name}")
        self.constants[name] = sort

    def declare_function(self, name: str, argsorts: tuple[str, ...], result: str) -> None:
        self._check_symbol(name)
        for s in argsorts + (result,):
            if s not in self.sorts:
                raise SortError(f"unknown sort {s} in function {name}")
        self.functions[name] = (argsorts, result)

    def declare_predicate(self, name: str, argsorts: tuple[str, ...]) -> None:
        self._check_symbol(name)
        for s in argsorts:
            if s not in self.sorts:
                raise SortError(f"unknown sort {s} in predicate {name}")
        self.predicates[name] = argsorts

    def _check_symbol(self, name: str) -> None:
        if name in RESERVED_WORDS:
            raise SortError(f"{name} is a reserved word")
        for shape, label in RESERVED_SHAPES:
            if shape.fullmatch(name):
                raise SortError(f"{name} has the reserved shape {label}")
        if name in self.constants or name in self.functions or name in self.predicates:
            raise SortError(f"symbol {name} already declared")

    # -- lookups -----------------------------------------------------------

    def widens(self, sub: str, sup: str) -> bool:
        """True when sort sub is sup or a transitive subsort of it."""
        if sub == sup:
            return True
        seen = set()
        stack = list(self.sorts.get(sub, ()))
        while stack:
            s = stack.pop()
            if s == sup:
                return True
            if s not in seen:
                seen.add(s)
                stack.extend(self.sorts.get(s, ()))
        return False

    def constants_of_sort(self, sort: str) -> list[Const]:
        """Declared constants whose sort widens to the given sort, name order."""
        out = [
            Const(n, s)
            for n, s in sorted(self.constants.items())
            if self.widens(s, sort)
        ]
        return out

    # -- validation --------------------------------------------------------

    def check_term(self, t: Term) -> None:
        if isinstance(t, Const):
            if is_moment_literal(t):
                return
            declared = self.constants.get(t.name)
            if declared is None:
                # fresh internal constants (witnesses) are permitted as long
                # as their sort exists
                if t.sort not in self.sorts:
                    raise SortError(f"unknown sort {t.sort} on constant {t.name}")
                return
            if declared != t.sort:
                raise SortError(
                    f"constant {t.name} declared {declared}, used as {t.sort}"
                )
        elif isinstance(t, Var):
            if t.sort not in self.sorts:
                raise SortError(f"unknown sort {t.sort} on variable {t.name}")
        elif isinstance(t, App):
            if t.fn not in self.functions:
                raise SortError(f"unknown function {t.fn}")
            argsorts, result = self.functions[t.fn]
            if len(argsorts) != len(t.args):
                raise SortError(
                    f"function {t.fn} takes {len(argsorts)} arguments, got {len(t.args)}"
                )
            if result != t.sort:
                raise SortError(f"function {t.fn} returns {result}, used as {t.sort}")
            for a, s in zip(t.args, argsorts):
                self.check_term(a)
                if not self.widens(a.sort, s):
                    raise SortError(
                        f"argument {print_term(a)} : {a.sort} does not widen to {s} in {t.fn}"
                    )

    def check_formula(self, f: Formula) -> None:
        """Raise SortError when f is not well-sorted against this signature."""
        if isinstance(f, Atom):
            if f.pred == "=":
                if len(f.args) != 2:
                    raise SortError("= takes exactly two arguments")
                for a in f.args:
                    self.check_term(a)
                l, r = f.args
                if not (self.widens(l.sort, r.sort) or self.widens(r.sort, l.sort)):
                    raise SortError(
                        f"incomparable sorts in equality: {l.sort} vs {r.sort}"
                    )
                return
            if f.pred not in self.predicates:
                raise SortError(f"unknown predicate {f.pred}")
            argsorts = self.predicates[f.pred]
            if len(argsorts) != len(f.args):
                raise SortError(
                    f"predicate {f.pred} takes {len(argsorts)} arguments, got {len(f.args)}"
                )
            for a, s in zip(f.args, argsorts):
                self.check_term(a)
                if not self.widens(a.sort, s):
                    raise SortError(
                        f"argument {print_term(a)} : {a.sort} does not widen to {s} in {f.pred}"
                    )
        elif isinstance(f, Not):
            self.check_formula(f.body)
        elif isinstance(f, (And, Or)):
            for p in f.parts:
                self.check_formula(p)
        elif isinstance(f, (Implies, Iff)):
            self.check_formula(f.left)
            self.check_formula(f.right)
        elif isinstance(f, (Forall, Exists)):
            if f.var.sort not in self.sorts:
                raise SortError(f"unknown sort {f.var.sort} on binder {f.var.name}")
            self.check_formula(f.body)
        elif isinstance(f, Modal):
            self.check_term(f.agent)
            if not self.widens(f.agent.sort, AGENT):
                raise SortError(f"{f.op} needs an Agent first argument")
            self.check_term(f.time)
            if not self.widens(f.time.sort, MOMENT):
                raise SortError(f"{f.op} needs a Moment second argument")
            if f.situation is not None:
                self.check_term(f.situation)
                if not self.widens(f.situation.sort, SITUATION):
                    raise SortError(f"{f.op} needs a Situation third argument")
            self.check_formula(f.body)
        else:
            raise TypeError(f"not a formula: {f!r}")
