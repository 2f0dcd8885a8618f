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

Axiom patterns may use ?name variables, typed by the argument position
they appear in; every variable in a fluent or guard pattern must also
appear in the event pattern.  Utility patterns may use _ as a
wildcard argument; the most specific matching entry wins.  Sections
may appear in any order, each at most once.  Category order in the
hierarchy runs worst to best: the first category must be "forbidden"
and "neutral" must be present.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .ethics import EthicalHierarchy, UtilityEntry, UtilityMap, WILDCARD
from .eventcalc import ECTheory, EffectAxiom, GuardLiteral, INITIATED, TERMINATED
from .parser import ParseError, SAtom, SExpr, SList, build_formula, read_sexprs
from .syntax import App, Const, Formula, MOMENT, Signature, Term, Var

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


def _err(node: SExpr, message: str) -> ParseError:
    return ParseError(message, node.line, node.col)


def _ident(node: SExpr, what: str) -> str:
    if not isinstance(node, SAtom):
        raise _err(node, f"expected {what}")
    return node.text


def _int(node: SExpr, what: str) -> int:
    if not isinstance(node, SAtom) or not node.is_int:
        raise _err(node, f"expected {what}")
    return int(node.text)


def _build_pattern(
    node: SExpr,
    sig: Signature,
    expected: str,
    env: dict[str, Var],
    wildcards: bool,
) -> Term:
    """Terms with ?vars (typed by position) and optional _ wildcards."""
    if isinstance(node, SAtom):
        t = node.text
        if t.isdigit():
            if not sig.widens(MOMENT, expected):
                raise _err(node, f"sort mismatch: expected {expected}, got Moment")
            return Const(t, MOMENT)
        if wildcards and t == WILDCARD:
            return Const(WILDCARD, expected)
        if t.startswith("?"):
            if t in env:
                v = env[t]
                if not sig.widens(v.sort, expected) and not sig.widens(expected, v.sort):
                    raise _err(node, f"variable {t} used at incompatible sort")
                return v
            v = Var(t[1:], expected)
            env[t] = v
            return v
        if t in sig.constants:
            if not sig.widens(sig.constants[t], expected):
                raise _err(
                    node, f"sort mismatch: expected {expected}, got {sig.constants[t]}"
                )
            return Const(t, sig.constants[t])
        raise _err(node, f"unknown constant {t}")
    if not node.items or not isinstance(node.items[0], SAtom):
        raise _err(node, "expected a term")
    fn = node.items[0].text
    if fn not in sig.functions:
        raise _err(node.items[0], f"unknown function {fn}")
    argsorts, result = sig.functions[fn]
    if not sig.widens(result, expected):
        raise _err(node, f"sort mismatch: expected {expected}, got {result}")
    if len(node.items) - 1 != len(argsorts):
        raise _err(node, f"{fn} takes {len(argsorts)} arguments")
    args = tuple(
        _build_pattern(a, sig, s, env, wildcards)
        for a, s in zip(node.items[1:], argsorts)
    )
    return App(fn, args, result)


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

    if "sorts" in sections:
        for node in sections["sorts"].items[1:]:
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

    if "functions" in sections:
        for node in sections["functions"].items[1:]:
            if not isinstance(node, SList) or len(node.items) < 2:
                raise _err(node, "expected (name ArgSort ... Result)")
            fname = _ident(node.items[0], "a function name")
            sortnames = [_ident(s, "a sort") for s in node.items[1:]]
            sig.declare_function(fname, tuple(sortnames[:-1]), sortnames[-1])

    if "predicates" in sections:
        for node in sections["predicates"].items[1:]:
            if not isinstance(node, SList) or not node.items:
                raise _err(node, "expected (name ArgSort ...)")
            pname = _ident(node.items[0], "a predicate name")
            sig.declare_predicate(
                pname, tuple(_ident(s, "a sort") for s in node.items[1:])
            )

    if "constants" in sections:
        for node in sections["constants"].items[1:]:
            if not isinstance(node, SList) or len(node.items) != 2:
                raise _err(node, "expected (name Sort)")
            sig.declare_constant(
                _ident(node.items[0], "a constant name"),
                _ident(node.items[1], "a sort"),
            )

    facts: list[Formula] = []
    if "facts" in sections:
        for node in sections["facts"].items[1:]:
            f = build_formula(node, sig)
            sig.check_formula(f)
            facts.append(f)

    initial: set[Term] = set()
    if "initial" in sections:
        for node in sections["initial"].items[1:]:
            t = _build_pattern(node, sig, "Fluent", {}, wildcards=False)
            initial.add(t)

    axioms: list[EffectAxiom] = []
    if "axioms" in sections:
        for node in sections["axioms"].items[1:]:
            if not isinstance(node, SList) or len(node.items) not in (3, 4):
                raise _err(node, "expected (event initiates|terminates fluent [guard])")
            env: dict[str, Var] = {}
            ev = _build_pattern(node.items[0], sig, "Event", env, wildcards=False)
            kw = _ident(node.items[1], "initiates or terminates")
            if kw not in ("initiates", "terminates"):
                raise _err(node.items[1], "expected initiates or terminates")
            fl = _build_pattern(node.items[2], sig, "Fluent", env, wildcards=False)
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
                    gf = _build_pattern(lit.items[1], sig, "Fluent", env, wildcards=False)
                    guard.append(GuardLiteral(lit.items[0].text == "pos", gf))
            try:
                axioms.append(
                    EffectAxiom(
                        ev,
                        INITIATED if kw == "initiates" else TERMINATED,
                        fl,
                        tuple(guard),
                    )
                )
            except ValueError as e:
                raise _err(node, str(e)) from None

    occurrences: set[tuple[Term, int]] = set()
    if "occurrences" in sections:
        for node in sections["occurrences"].items[1:]:
            if not isinstance(node, SList) or len(node.items) != 2:
                raise _err(node, "expected (<event> <moment>)")
            ev = _build_pattern(node.items[0], sig, "Event", {}, wildcards=False)
            occurrences.add((ev, _int(node.items[1], "a moment")))

    if "horizon" not in sections or len(sections["horizon"].items) != 2:
        raise ParseError("missing (horizon <n>) section", 1, 1)
    horizon = _int(sections["horizon"].items[1], "a horizon")

    if "hierarchy" not in sections:
        raise ParseError("missing (hierarchy ...) section", 1, 1)
    categories: tuple[str, ...] = ()
    assignment: dict[str, str] = {}
    for node in sections["hierarchy"].items[1:]:
        if not isinstance(node, SList) or not node.items:
            raise _err(node, "expected (categories ...) or (classify ...)")
        head = _ident(node.items[0], "categories or classify")
        if head == "categories":
            categories = tuple(_ident(c, "a category") for c in node.items[1:])
        elif head == "classify":
            if len(node.items) != 3:
                raise _err(node, "expected (classify <atype> <category>)")
            atype = _ident(node.items[1], "an action type")
            if sig.constants.get(atype) != "ActionType":
                raise _err(node.items[1], f"{atype} is not a declared ActionType")
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
    gamma = 0
    if "utilities" in sections:
        for node in sections["utilities"].items[1:]:
            if not isinstance(node, SList) or not node.items:
                raise _err(node, "expected (<fluent> pos|neg <n>) or (gamma <n>)")
            if isinstance(node.items[0], SAtom) and node.items[0].text == "gamma":
                if len(node.items) != 2:
                    raise _err(node, "expected (gamma <n>)")
                gamma = _int(node.items[1], "a threshold")
                continue
            if len(node.items) != 3:
                raise _err(node, "expected (<fluent> pos|neg <n>)")
            pat = _build_pattern(node.items[0], sig, "Fluent", {}, wildcards=True)
            polarity = _ident(node.items[1], "pos or neg")
            if polarity not in ("pos", "neg"):
                raise _err(node.items[1], "expected pos or neg")
            value = _int(node.items[2], "a magnitude")
            entries.append(UtilityEntry(pat, value if polarity == "pos" else -value))
    try:
        utilities = UtilityMap(tuple(entries), gamma)
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
