"""S-expression reader and the formula parser.

The reader turns text into atom/list trees in one regular-expression
scan, with no recursion.  Each node keeps the offset of its token (an
atom's text, a list's opening paren); its line and column are counted
from the text when asked for, which is when an error is built.  The
formula
parser interprets trees against a Signature with explicit binder
scoping.  It is the one sort checker: build_term and build_formula
check every symbol, arity, argument sort, equality, binder sort and
modal argument as they build, and report the position of the first
violation; build_term checks a term against the sort its place
expects, and builds every scenario term too (scenario.py).  A built
formula or term is well-sorted; nothing checks it again.
Comments run from ; to end of line.  Identifiers match
[A-Za-z_][A-Za-z0-9_'-]*, after an optional ?; bare integers, of ASCII
digits only, are Moment literals (another script's digit, such as ١, is
an unexpected character).  A declared symbol may not be a reserved word, start
with ?, be _, or have the shape of a generated name: b<digits>, h<digits>,
or the prefix sh_ or sk_ (syntax.RESERVED_SHAPES).  A quantifier may
not bind the name of a declared constant, of any sort, so that no
binder captures a constant.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Optional, Union

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
    is_numeral,
    MODAL_OPS,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def _position(text: str, pos: int) -> tuple[int, int]:
    """The line and column of offset pos in text, both counted from 1."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class _Node:
    """A node of a read tree keeps its offset in the text it was read
    from; its line and column are counted only when asked for, which in
    practice is when an error is built."""

    __slots__ = ("pos", "source")

    @property
    def line(self) -> int:
        return _position(self.source, self.pos)[0]

    @property
    def col(self) -> int:
        return _position(self.source, self.pos)[1]


class SAtom(_Node):
    __slots__ = ("text",)

    def __init__(self, text: str, pos: int, source: str) -> None:
        self.text = text
        self.pos = pos
        self.source = source

    @property
    def is_int(self) -> bool:
        return is_numeral(self.text)


class SList(_Node):
    __slots__ = ("items",)

    def __init__(self, items: tuple["SExpr", ...], pos: int, source: str) -> None:
        self.items = items
        self.pos = pos
        self.source = source


SExpr = Union[SAtom, SList]

# One match per token: group 1 is (, group 2 is ), group 3 an atom and
# group 4 any other character; a comment matches no group, and the scan
# skips whitespace, which nothing matches.
_TOKEN = re.compile(
    r"""(\() | (\))
      | ([:=] | [0-9]+ | \??[A-Za-z_][A-Za-z0-9_'\-]*)
      | ;[^\n]*
      | (\S)
    """,
    re.VERBOSE,
)

# Lists nest at most this deep.  Every later stage walks formulas
# recursively, so the bound keeps them clear of the interpreter's
# recursion limit; the bundled scenarios nest at most 8 deep.
MAX_NESTING = 128


def _unexpected(text: str, m: re.Match) -> ParseError:
    return ParseError(f"unexpected character {m.group(4)!r}", *_position(text, m.start()))


def _reader_error(text: str, rest: Iterator[re.Match], message: str, pos: int) -> ParseError:
    """message at offset pos, unless an unexpected character follows in
    rest: every character is read before any list, so that one is the
    error."""
    for m in rest:
        if m.lastindex == 4:
            return _unexpected(text, m)
    return ParseError(message, *_position(text, pos))


def read_sexprs(text: str) -> list[SExpr]:
    """Read every top-level s-expression in the text, in one scan: a (
    pushes the items of the list being read and a ) pops them, so
    nothing recurses."""
    out: list[SExpr] = []
    items = out
    stack: list[tuple[list[SExpr], int]] = []
    scan = _TOKEN.finditer(text)
    for m in scan:
        kind = m.lastindex
        if kind == 3:
            items.append(SAtom(m.group(3), m.start(), text))
        elif kind == 1:
            if len(stack) == MAX_NESTING:
                message = f"lists nest deeper than {MAX_NESTING}"
                raise _reader_error(text, scan, message, m.start())
            stack.append((items, m.start()))
            items = []
        elif kind == 2:
            if not stack:
                raise _reader_error(text, scan, "unbalanced )", m.start())
            outer, pos = stack.pop()
            outer.append(SList(tuple(items), pos, text))
            items = outer
        elif kind == 4:
            raise _unexpected(text, m)
    if stack:
        raise ParseError("unclosed (", *_position(text, stack[-1][1]))
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
        if node.text in (":", "="):
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
