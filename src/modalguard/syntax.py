"""Sorted term and formula language for the reasoning engine.

Terms are variables, constants, or function applications; every term
carries its sort.  Formulas are s-expression-shaped: atoms, the boolean
connectives, sorted quantifiers, and modal applications (knows,
believes, desires, intends, perceives, obligated).  The obligated
operator always carries a situation term; three-argument surface forms
are normalized by the parser.

A Signature owns the sort hierarchy and the declared symbols, and
answers lookups against them; it does not walk formulas.  The parser
checks a formula's sorts as it builds it (parser.build_formula).  The
built-in sorts, the event-calculus symbols, and the defined predicates
Prevents/Block are pre-declared in every signature.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, count
from typing import Iterable, Iterator, Mapping, Optional, Union


class SortError(Exception):
    """A declaration, moment or substitution violates the sort discipline."""


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


def is_numeral(name: str) -> bool:
    """Whether name spells a moment literal: ASCII digits only, where
    str.isdigit alone also takes other scripts' digits, such as ١ or ²."""
    return name.isascii() and name.isdigit()


def is_moment_literal(t: Term) -> bool:
    return isinstance(t, Const) and t.sort == MOMENT and is_numeral(t.name)


def moment_value(t: Term) -> int:
    if not is_moment_literal(t):
        raise SortError(f"not a moment literal: {print_term(t)}")
    return int(t.name)


def domain_order(consts: Iterable[Const]) -> list[Const]:
    """The order in which the prover and the oracle enumerate a domain:
    moment literals by value, then the other constants by name."""
    consts = list(consts)
    moments = sorted((c for c in consts if is_moment_literal(c)), key=moment_value)
    named = sorted((c for c in consts if not is_moment_literal(c)), key=lambda c: c.name)
    return moments + named


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
# binders as b<digits>, shadow patterns rename free variables to holes
# h<digits>, shadow atoms are named sh_<12 hex> (SHADOW_NAME) and skolem
# symbols sk_<10 hex>_<n> (SKOLEM_NAME).  Signature refuses a declared
# symbol spelling one, or starting sh_ or sk_: it would read as a
# binder, or share a shadow atom or a skolem symbol with what it is not.
# A key quotes any name that is not plain, tells a constant named like a
# binder from it (key_name) and prints a hole, a free variable, as
# ?h<digits>:S, which no constant prints as.  A formula built in Python
# may still spell a shadow atom or a skolem symbol; prove, the proof
# checker and the finite-model oracle refuse one (unspoofed).  Nor may
# a declared symbol start with ?, which marks a scenario axiom's
# variable, or be _, a utility pattern's wildcard (ethics.WILDCARD).
BINDER_SHAPE = re.compile(r"b[0-9]+")
SHADOW_NAME = re.compile(r"sh_[0-9a-f]{12}")
SKOLEM_NAME = re.compile(r"sk_[0-9a-f]{10}_[0-9]+")
RESERVED_SHAPES = (
    (BINDER_SHAPE, "b<digits>"),
    (re.compile(r"h[0-9]+"), "h<digits>"),
    (re.compile(r"sh_.*"), "sh_<anything>"),
    (re.compile(r"sk_.*"), "sk_<anything>"),
    (re.compile(r"\?.*"), "?<anything>"),
    (re.compile(r"_"), "_"),
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


# Names a key prints as they are: identifiers and moment literals.
PLAIN_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_'-]*|[0-9]+")


@lru_cache(maxsize=65536)
def key_name(name: str) -> str:
    """A name's print in a key.  A plain name (PLAIN_NAME, and not a
    reserved word) prints as itself, with a leading ' (no identifier
    starts with one) when it has a binder's shape.  Any other name, which
    only a formula built in Python can hold, is quoted, with " and \\
    escaped.  So no two names print alike, and no name prints as a
    binder, a free variable or a connective."""
    if not PLAIN_NAME.fullmatch(name) or name in RESERVED_WORDS:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return "'" + name if BINDER_SHAPE.fullmatch(name) else name


def _show_term(t: Term, names: Optional[Mapping[Var, str]]) -> str:
    if isinstance(t, Const):
        return t.name if names is None else key_name(t.name)
    if isinstance(t, Var):
        if names is None:
            return t.name
        return names.get(t) or f"?{key_name(t.name)}:{key_name(t.sort)}"
    fn = t.fn if names is None else key_name(t.fn)
    inner = " ".join([_show_term(a, names) for a in t.args])
    return f"({fn} {inner})" if inner else f"({fn})"


def _show(
    f: Formula, names: Optional[Mapping[Var, str]], binders: Optional[Iterator[str]]
) -> str:
    """f printed plainly when names is None, else as a key: each
    variable in names under its name there, and the binders under the
    names binders gives, in binder order."""
    if isinstance(f, Atom):
        pred = f.pred if names is None else key_name(f.pred)
        if not f.args:
            return f"({pred})"
        return f"({pred} {' '.join([_show_term(a, names) for a in f.args])})"
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
            name, sort = v.name, v.sort
        else:
            name, sort = next(binders), key_name(v.sort)
            names = {**names, v: name}
        q = "forall" if isinstance(f, Forall) else "exists"
        return f"({q} {name} : {sort} {_show(f.body, names, binders)})"
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
    printed with its binders renamed b0, b1, ... in binder order and
    every other name through key_name.  A free variable in names prints
    as a constant of the given name would, so the key of f with x named
    c.name is the key of f with the constant c put for x; any other free
    variable x of sort S prints as ?x:S, which no name's print spells."""
    given = {v: key_name(n) for v, n in names.items()} if names else {}
    return _show(f, given, map("b{}".format, count()))


# a name in a key: quoted, a binder's sort with the " : " before it, or
# a run of characters that end no name.  No generated name is a sort, so
# a sort read with its colon never takes a generated name's shape.
_KEY_NAME = re.compile(r'"(?:[^"\\]|\\.)*"|: [^\s()"]+|[^\s()"]+')


def unspoofed(key: str) -> str:
    """key, unless it holds a predicate, function or constant spelled like
    a shadow atom or a skolem symbol (a plain name, so unquoted), which a
    formula built in Python could pass off as the one the engine
    generates: ValueError then.  A sort may be spelled so."""
    if "sh_" in key or "sk_" in key:
        for name in _KEY_NAME.findall(key):
            if SHADOW_NAME.fullmatch(name) or SKOLEM_NAME.fullmatch(name):
                raise ValueError(f"{name} has the shape of a generated name")
    return key


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


def formula_terms(f: Formula) -> list[Term]:
    """Top-level terms of f, in left-to-right order (not recursive into terms)."""
    out: list[Term] = []

    def walk(g: Formula) -> None:
        if isinstance(g, Atom):
            out.extend(g.args)
        elif isinstance(g, (Not, Forall, Exists)):
            walk(g.body)
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p)
        elif isinstance(g, (Implies, Iff)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, Modal):
            out.extend((g.agent, g.time))
            if g.situation is not None:
                out.append(g.situation)
            walk(g.body)

    walk(f)
    return out


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


def constants_in_formula(f: Formula) -> list[Const]:
    """The constants in the terms of f, each once, in first-occurrence order."""
    return list(dict.fromkeys(constant_occurrences((f,))))


def constant_occurrences(formulas: Iterable[Formula]) -> Iterator[Const]:
    """Every constant in the terms of the formulas, in left-to-right
    order, repeats included: one stack walk, with no per-formula list."""
    for f in formulas:
        stack = formula_terms(f)
        stack.reverse()
        while stack:
            t = stack.pop()
            if isinstance(t, Const):
                yield t
            elif isinstance(t, App):
                stack.extend(reversed(t.args))


def constant_sorts(
    groups: Iterable[Iterable[Const]], known: Mapping[str, str]
) -> dict[str, str]:
    """known, a sort per constant name, extended by each group's constants;
    ValueError when a name has two sorts, which keys would read as one."""
    out = dict(known)
    for c in chain.from_iterable(groups):
        if out.setdefault(c.name, c.sort) != c.sort:
            raise ValueError(
                f"{c.name} is a constant of two sorts, {out[c.name]} and {c.sort}"
            )
    return out


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
