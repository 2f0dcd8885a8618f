"""S-expression reader and the formula parser.

The reader turns text into positioned atom/list trees; the formula
parser interprets trees against a Signature with explicit binder
scoping.  It is the one sort checker: build_term and build_formula
check every symbol, arity, argument sort, equality, binder sort and
modal argument as they build, and report the position of the first
violation; build_term checks a term against the sort its place
expects, and builds every scenario term too (scenario.py).  A built
formula or term is well-sorted; nothing checks it again.
Comments run from ; to end of line.  Identifiers match
[A-Za-z_][A-Za-z0-9_'-]*, after an optional ?; bare integers are
Moment literals.  A declared symbol may not be a reserved word, start
with ?, be _, or have the shape of a generated name: b<digits>, h<digits>,
or the prefix sh_ or sk_ (syntax.RESERVED_SHAPES).  A quantifier may
not bind the name of a declared constant, of any sort, so that no
binder captures a constant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .syntax import (
    AGENT,
    MOMENT,
    OBLIGATED,
    SIGMA_DEFAULT,
    SITUATION,
    App,
    Const,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Modal,
    Not,
    Atom,
    Signature,
    Term,
    Var,
    conj,
    disj,
    MODAL_OPS,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class SAtom:
    text: str
    line: int
    col: int

    @property
    def is_int(self) -> bool:
        return self.text.isdigit()


@dataclass(frozen=True)
class SList:
    items: tuple["SExpr", ...]
    line: int
    col: int


SExpr = Union[SAtom, SList]

_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>;[^\n]*)
      | (?P<lparen>\() | (?P<rparen>\))
      | (?P<colon>:)
      | (?P<eq>=)
      | (?P<int>\d+)
      | (?P<ident>\??[A-Za-z_][A-Za-z0-9_'\-]*)
    """,
    re.VERBOSE,
)


def _tokens(text: str) -> list[SAtom]:
    out: list[SAtom] = []
    line, bol = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - bol + 1
            )
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            out.append(SAtom(tok, line, pos - bol + 1))
        nl = tok.count("\n")
        if nl:
            line += nl
            bol = pos + tok.rindex("\n") + 1
        pos = m.end()
    return out


# Lists nest at most this deep.  Every later stage walks formulas
# recursively, so the bound keeps them clear of the interpreter's
# recursion limit; the bundled scenarios nest at most 8 deep.
MAX_NESTING = 128


def read_sexprs(text: str) -> list[SExpr]:
    """Read every top-level s-expression in the text."""
    toks = _tokens(text)
    out: list[SExpr] = []
    i = 0

    def read(at: int, depth: int) -> tuple[SExpr, int]:
        tok = toks[at]
        if tok.text == "(":
            if depth == MAX_NESTING:
                raise ParseError(
                    f"lists nest deeper than {MAX_NESTING}", tok.line, tok.col
                )
            items: list[SExpr] = []
            j = at + 1
            while True:
                if j >= len(toks):
                    raise ParseError("unclosed (", tok.line, tok.col)
                if toks[j].text == ")":
                    return SList(tuple(items), tok.line, tok.col), j + 1
                node, j = read(j, depth + 1)
                items.append(node)
        if tok.text == ")":
            raise ParseError("unbalanced )", tok.line, tok.col)
        return tok, at + 1

    while i < len(toks):
        node, i = read(i, 0)
        out.append(node)
    return out


# ---------------------------------------------------------------------------
# Formula construction from trees


def _err(node: SExpr, message: str) -> ParseError:
    return ParseError(message, node.line, node.col)


Resolver = Callable[[str, Optional[str]], Optional[Term]]


def build_term(
    node: SExpr,
    sig: Signature,
    env: dict[str, Var],
    want: Optional[str] = None,
    resolve: Optional[Resolver] = None,
) -> Term:
    """The term node spells; when want is given, its sort must widen to
    want.  A name that is no moment literal, variable of env or declared
    constant stands for resolve(name, its place's sort), in node and in
    its argument terms; it is an unknown symbol when that is None."""
    if isinstance(node, SAtom):
        if node.text in (":", "=", "(", ")"):
            raise _err(node, f"expected a term, got {node.text!r}")
        if node.is_int:
            t: Term = Const(node.text, MOMENT)
        elif node.text in env:
            t = env[node.text]
        elif node.text in sig.constants:
            t = Const(node.text, sig.constants[node.text])
        elif resolve is not None and (got := resolve(node.text, want)) is not None:
            t = got
        else:
            raise _err(node, f"unknown symbol {node.text}")
    else:
        if not node.items or not isinstance(node.items[0], SAtom):
            raise _err(node, "expected a function application")
        head = node.items[0]
        if head.text not in sig.functions:
            raise _err(head, f"unknown function {head.text}")
        argsorts, result = sig.functions[head.text]
        args = node.items[1:]
        if len(args) != len(argsorts):
            raise _err(
                head,
                f"function {head.text} takes {len(argsorts)} arguments, got {len(args)}",
            )
        terms = tuple(
            build_term(sub, sig, env, s, resolve) for sub, s in zip(args, argsorts)
        )
        t = App(head.text, terms, result)
    if want is not None and not sig.widens(t.sort, want):
        raise _err(node, f"sort mismatch: expected {want}, got {t.sort}")
    return t


def build_formula(node: SExpr, sig: Signature, env: dict[str, Var] | None = None) -> Formula:
    env = dict(env) if env else {}

    def formula(n: SExpr, env: dict[str, Var]) -> Formula:
        if isinstance(n, SAtom):
            raise _err(n, f"expected a formula, got {n.text!r}")
        if not n.items:
            raise _err(n, "empty form")
        head = n.items[0]
        if not isinstance(head, SAtom):
            raise _err(head, "expected an operator or predicate name")
        rest = n.items[1:]
        name = head.text

        if name == "not":
            if len(rest) != 1:
                raise _err(head, "not takes exactly one formula")
            return Not(formula(rest[0], env))
        if name in ("and", "or"):
            if not rest:
                raise _err(head, f"{name} needs at least one formula")
            parts = [formula(r, env) for r in rest]
            return conj(parts) if name == "and" else disj(parts)
        if name in ("implies", "iff"):
            if len(rest) != 2:
                raise _err(head, f"{name} takes exactly two formulas")
            ctor = Implies if name == "implies" else Iff
            return ctor(formula(rest[0], env), formula(rest[1], env))
        if name in ("forall", "exists"):
            if (
                len(rest) != 4
                or not isinstance(rest[0], SAtom)
                or not isinstance(rest[1], SAtom)
                or rest[1].text != ":"
                or not isinstance(rest[2], SAtom)
            ):
                raise _err(head, f"{name} syntax is ({name} var : Sort formula)")
            vname, sort = rest[0].text, rest[2].text
            if rest[0].is_int:
                raise _err(rest[0], "variable names cannot be integers")
            if sort not in sig.sorts:
                raise _err(rest[2], f"unknown sort {sort}")
            if vname in sig.constants:
                # the binder would capture the constant within its scope
                raise _err(
                    rest[0], f"variable {vname} has the name of a declared constant"
                )
            v = Var(vname, sort)
            inner = dict(env)
            inner[vname] = v
            body = formula(rest[3], inner)
            return (Forall if name == "forall" else Exists)(v, body)
        if name in MODAL_OPS:
            want_sit = name == OBLIGATED
            # obligated also takes a three-argument surface form, whose
            # situation is the default situation constant
            short = want_sit and len(rest) == 3
            if len(rest) != (4 if want_sit else 3) and not short:
                raise _err(
                    head,
                    f"{name} takes agent, moment{', situation' if want_sit else ''}"
                    " and a formula",
                )
            agent = build_term(rest[0], sig, env, AGENT)
            time = build_term(rest[1], sig, env, MOMENT)
            sit = None
            if short:
                sit = Const(SIGMA_DEFAULT, SITUATION)
            elif want_sit:
                sit = build_term(rest[2], sig, env, SITUATION)
            return Modal(name, agent, time, formula(rest[-1], env), sit)
        if name == "=":
            if len(rest) != 2:
                raise _err(head, "= takes exactly two terms")
            l = build_term(rest[0], sig, env)
            r = build_term(rest[1], sig, env)
            if not (sig.widens(l.sort, r.sort) or sig.widens(r.sort, l.sort)):
                raise _err(head, f"sort mismatch: incomparable {l.sort} and {r.sort}")
            return Atom("=", (l, r))
        # ordinary predicate atom
        if name not in sig.predicates:
            raise _err(head, f"unknown predicate {name}")
        argsorts = sig.predicates[name]
        if len(rest) != len(argsorts):
            raise _err(
                head,
                f"predicate {name} takes {len(argsorts)} arguments, got {len(rest)}",
            )
        args = tuple(build_term(sub, sig, env, s) for sub, s in zip(rest, argsorts))
        return Atom(name, args)

    return formula(node, env)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse exactly one formula."""
    trees = read_sexprs(text)
    if not trees:
        raise ParseError("no formula found", 1, 1)
    if len(trees) > 1:
        raise _err(trees[1], "expected a single formula")
    return build_formula(trees[0], sig)


def parse_formulas(text: str, sig: Signature) -> list[Formula]:
    return [build_formula(t, sig) for t in read_sexprs(text)]


def parse_term(text: str, sig: Signature) -> Term:
    trees = read_sexprs(text)
    if len(trees) != 1:
        raise ParseError("expected a single term", 1, 1)
    return build_term(trees[0], sig, {})
