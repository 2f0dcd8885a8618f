"""Scenario files: declarations, facts, dynamics, ethics, and a request.

A scenario is a sequence of s-expression sections:

  (sorts Name (Name Parent ...) ...)
  (constants (name Sort) ...)
  (functions (name ArgSort ... Result) ...)
  (predicates (name ArgSort ...) ...)
  (facts <formula> ...)
  (initial <fluent-term> ...)
  (axioms (<event> initiates|terminates <fluent> [((pos <f>) (neg <f>) ...)]) ...)
  (occurrences (<event-term> <moment>) ...)
  (horizon <n>)
  (hierarchy (categories forbidden ... neutral ...) (classify <atype> <category>) ...)
  (utilities (<fluent-pattern> pos|neg <n>) ... (gamma <n>))
  (request <agent> <atype> <moment>)
  (guardian <agent>)

parser.build_term builds and sort-checks every term.  Axioms read
?name as a variable of the sort of the place it first appears in, and
each later use must widen to its place; every variable in a fluent or
guard pattern must also appear in the event pattern.  Utilities read _
as a wildcard of its place's sort; the most specific matching entry
wins.  Terms in initial and occurrences are ground.  Sections may
appear in any order, each at most once.  So may a section's one-off
forms: the (categories ...) form, each action type's (classify ...)
form and the (gamma ...) form; a second one is refused, not read over
the first.  Category order in the hierarchy runs worst to best: the
first category must be "forbidden" and "neutral" must be present.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .ethics import EthicalHierarchy, UtilityEntry, UtilityMap, WILDCARD
from .eventcalc import ECTheory, EffectAxiom, GuardLiteral, INITIATED, TERMINATED
from .parser import (
    ParseError,
    Resolver,
    SAtom,
    SExpr,
    SList,
    _err,
    build_formula,
    build_term,
    read_sexprs,
)
from .syntax import EVENT, FLUENT, Const, Formula, Signature, Term, Var

SECTIONS = (
    "sorts",
    "constants",
    "functions",
    "predicates",
    "facts",
    "initial",
    "axioms",
    "occurrences",
    "horizon",
    "hierarchy",
    "utilities",
    "request",
    "guardian",
)


@dataclass(frozen=True)
class Request:
    agent: Const
    atype: Const
    moment: int


@dataclass
class Scenario:
    name: str
    sig: Signature
    facts: list[Formula]
    theory: ECTheory
    hierarchy: EthicalHierarchy
    utilities: UtilityMap
    request: Request
    guardian: Optional[Const] = None


def _ident(node: SExpr, what: str) -> str:
    if not isinstance(node, SAtom):
        raise _err(node, f"expected {what}")
    return node.text


def _int(node: SExpr, what: str) -> int:
    if not isinstance(node, SAtom) or not node.is_int:
        raise _err(node, f"expected {what}")
    return int(node.text)


def _variables(env: dict[str, Var]) -> Resolver:
    """An axiom's ?x: a variable of the sort of its first place, kept in
    env for the axiom's later uses."""

    def resolve(name: str, want: Optional[str]) -> Optional[Term]:
        if name.startswith("?") and want is not None:
            env[name] = Var(name[1:], want)
            return env[name]
        return None

    return resolve


def _wildcard(name: str, want: Optional[str]) -> Optional[Term]:
    """A utility's _: the wildcard of its place's sort."""
    return Const(WILDCARD, want) if name == WILDCARD and want is not None else None


def _section_map(trees: list[SExpr]) -> dict[str, SList]:
    out: dict[str, SList] = {}
    for t in trees:
        if not isinstance(t, SList) or not t.items or not isinstance(t.items[0], SAtom):
            raise _err(t, "expected a (section ...) form")
        name = t.items[0].text
        if name not in SECTIONS:
            raise _err(t.items[0], f"unknown section {name}")
        if name in out:
            raise _err(t.items[0], f"duplicate section {name}")
        out[name] = t
    return out


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    trees = read_sexprs(text)
    sections = _section_map(trees)
    sig = Signature()

    def forms(section: str) -> tuple[SExpr, ...]:
        return sections[section].items[1:] if section in sections else ()

    for node in forms("sorts"):
        if isinstance(node, SAtom):
            sig.declare_sort(node.text)
        else:
            if not node.items:
                raise _err(node, "empty sort declaration")
            sname = _ident(node.items[0], "a sort name")
            parents = tuple(_ident(p, "a parent sort") for p in node.items[1:])
            for p in parents:
                if p not in sig.sorts:
                    raise _err(node, f"unknown parent sort {p}")
            sig.declare_sort(sname, parents)

    for node in forms("functions"):
        if not isinstance(node, SList) or len(node.items) < 2:
            raise _err(node, "expected (name ArgSort ... Result)")
        fname = _ident(node.items[0], "a function name")
        sortnames = [_ident(s, "a sort") for s in node.items[1:]]
        sig.declare_function(fname, tuple(sortnames[:-1]), sortnames[-1])

    for node in forms("predicates"):
        if not isinstance(node, SList) or not node.items:
            raise _err(node, "expected (name ArgSort ...)")
        pname = _ident(node.items[0], "a predicate name")
        sig.declare_predicate(pname, tuple(_ident(s, "a sort") for s in node.items[1:]))

    for node in forms("constants"):
        if not isinstance(node, SList) or len(node.items) != 2:
            raise _err(node, "expected (name Sort)")
        sig.declare_constant(
            _ident(node.items[0], "a constant name"),
            _ident(node.items[1], "a sort"),
        )

    facts = [build_formula(node, sig) for node in forms("facts")]
    initial = {build_term(node, sig, {}, FLUENT) for node in forms("initial")}

    axioms: list[EffectAxiom] = []
    for node in forms("axioms"):
        if not isinstance(node, SList) or len(node.items) not in (3, 4):
            raise _err(node, "expected (event initiates|terminates fluent [guard])")
        env: dict[str, Var] = {}
        var = _variables(env)
        ev = build_term(node.items[0], sig, env, EVENT, var)
        kw = _ident(node.items[1], "initiates or terminates")
        if kw not in ("initiates", "terminates"):
            raise _err(node.items[1], "expected initiates or terminates")
        fl = build_term(node.items[2], sig, env, FLUENT, var)
        guard: list[GuardLiteral] = []
        if len(node.items) == 4:
            gnode = node.items[3]
            if not isinstance(gnode, SList):
                raise _err(gnode, "expected a guard list")
            for lit in gnode.items:
                if (
                    not isinstance(lit, SList)
                    or len(lit.items) != 2
                    or _ident(lit.items[0], "pos or neg") not in ("pos", "neg")
                ):
                    raise _err(lit, "expected (pos <fluent>) or (neg <fluent>)")
                gf = build_term(lit.items[1], sig, env, FLUENT, var)
                guard.append(GuardLiteral(lit.items[0].text == "pos", gf))
        kind = INITIATED if kw == "initiates" else TERMINATED
        try:
            axioms.append(EffectAxiom(ev, kind, fl, tuple(guard)))
        except ValueError as e:
            raise _err(node, str(e)) from None

    occurrences: set[tuple[Term, int]] = set()
    for node in forms("occurrences"):
        if not isinstance(node, SList) or len(node.items) != 2:
            raise _err(node, "expected (<event> <moment>)")
        ev = build_term(node.items[0], sig, {}, EVENT)
        occurrences.add((ev, _int(node.items[1], "a moment")))

    if "horizon" not in sections or len(sections["horizon"].items) != 2:
        raise ParseError("missing (horizon <n>) section", 1, 1)
    horizon = _int(sections["horizon"].items[1], "a horizon")

    if "hierarchy" not in sections:
        raise ParseError("missing (hierarchy ...) section", 1, 1)
    categories: Optional[tuple[str, ...]] = None
    assignment: dict[str, str] = {}
    for node in forms("hierarchy"):
        if not isinstance(node, SList) or not node.items:
            raise _err(node, "expected (categories ...) or (classify ...)")
        head = _ident(node.items[0], "categories or classify")
        if head == "categories":
            if categories is not None:
                raise _err(node, "duplicate categories form")
            categories = tuple(_ident(c, "a category") for c in node.items[1:])
        elif head == "classify":
            if len(node.items) != 3:
                raise _err(node, "expected (classify <atype> <category>)")
            atype = _ident(node.items[1], "an action type")
            if sig.constants.get(atype) != "ActionType":
                raise _err(node.items[1], f"{atype} is not a declared ActionType")
            if atype in assignment:
                raise _err(node, f"duplicate classify form for {atype}")
            assignment[atype] = _ident(node.items[2], "a category")
        else:
            raise _err(node.items[0], f"unknown hierarchy form {head}")
    if not categories:
        raise _err(sections["hierarchy"], "hierarchy needs a (categories ...) form")
    if categories[0] != "forbidden":
        raise _err(sections["hierarchy"], "the first category must be forbidden")
    try:
        hierarchy = EthicalHierarchy(categories, assignment)
    except ValueError as e:
        raise _err(sections["hierarchy"], str(e)) from None

    entries: list[UtilityEntry] = []
    gamma: Optional[int] = None
    for node in forms("utilities"):
        if not isinstance(node, SList) or not node.items:
            raise _err(node, "expected (<fluent> pos|neg <n>) or (gamma <n>)")
        if isinstance(node.items[0], SAtom) and node.items[0].text == "gamma":
            if len(node.items) != 2:
                raise _err(node, "expected (gamma <n>)")
            if gamma is not None:
                raise _err(node, "duplicate gamma form")
            gamma = _int(node.items[1], "a threshold")
            continue
        if len(node.items) != 3:
            raise _err(node, "expected (<fluent> pos|neg <n>)")
        pat = build_term(node.items[0], sig, {}, FLUENT, _wildcard)
        polarity = _ident(node.items[1], "pos or neg")
        if polarity not in ("pos", "neg"):
            raise _err(node.items[1], "expected pos or neg")
        value = _int(node.items[2], "a magnitude")
        entries.append(UtilityEntry(pat, value if polarity == "pos" else -value))
    try:
        utilities = UtilityMap(tuple(entries), gamma or 0)
    except ValueError as e:
        sec = sections.get("utilities", trees[0])
        raise _err(sec, str(e)) from None

    if "request" not in sections or len(sections["request"].items) != 4:
        raise ParseError("missing (request <agent> <atype> <moment>) section", 1, 1)
    rnode = sections["request"]
    ragent = _ident(rnode.items[1], "an agent")
    ratype = _ident(rnode.items[2], "an action type")
    if sig.constants.get(ragent) is None or not sig.widens(sig.constants[ragent], "Agent"):
        raise _err(rnode.items[1], f"{ragent} is not a declared Agent")
    if sig.constants.get(ratype) != "ActionType":
        raise _err(rnode.items[2], f"{ratype} is not a declared ActionType")
    request = Request(
        Const(ragent, sig.constants[ragent]),
        Const(ratype, "ActionType"),
        _int(rnode.items[3], "a moment"),
    )

    guardian: Optional[Const] = None
    if "guardian" in sections:
        gnode = sections["guardian"]
        if len(gnode.items) != 2:
            raise _err(gnode, "expected (guardian <agent>)")
        gname = _ident(gnode.items[1], "an agent")
        if sig.constants.get(gname) is None or not sig.widens(sig.constants[gname], "Agent"):
            raise _err(gnode.items[1], f"{gname} is not a declared Agent")
        guardian = Const(gname, sig.constants[gname])

    try:
        theory = ECTheory(frozenset(initial), tuple(axioms), frozenset(occurrences), horizon)
    except ValueError as e:
        raise ParseError(str(e), 1, 1) from None
    if not 0 <= request.moment < horizon:
        raise ParseError(
            f"request moment {request.moment} outside 0..{horizon - 1}", 1, 1
        )
    return Scenario(name, sig, facts, theory, hierarchy, utilities, request, guardian)


def load_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    return parse_scenario(p.read_text(), p.stem)


def bundled_scenario_names() -> list[str]:
    root = resources.files(__package__) / "scenarios"
    return sorted(r.name[: -len(".scn")] for r in root.iterdir() if r.name.endswith(".scn"))


def load_bundled_scenario(name: str) -> Scenario:
    res = resources.files(__package__) / "scenarios" / f"{name}.scn"
    try:
        text = res.read_text()
    except FileNotFoundError:
        raise KeyError(f"no bundled scenario named {name}") from None
    return parse_scenario(text, name)
