"""Intuitionistic propositional formulae.

AST nodes are immutable dataclasses. Negation is notation: ``~f`` parses
to ``Implies(f, Bottom())`` and the printer renders that shape back as
``~f``. ``true`` is a primitive node so top-valued results print readably.

Concrete grammar (lowest precedence first)::

    form   := imp
    imp    := or ("->" imp)?
    or     := and ("|" and)*
    and    := neg ("&" neg)*
    neg    := "~" neg | atomic
    atomic := ident | "false" | "true" | "(" form ")"
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import MalformedInput, ParseError

__all__ = [
    "Formula", "Atom", "Bottom", "Top", "And", "Or", "Implies",
    "parse", "pretty", "bd", "atoms", "neg",
]


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


Formula = Atom | Bottom | Top | And | Or | Implies


def neg(f: Formula) -> Formula:
    return Implies(f, Bottom())


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<arrow>->)"
    r"|(?P<op>[|&~()]))"
)

_KEYWORDS = {"false": Bottom(), "true": Top()}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ParseError(off, f"a token (got {stripped[0]!r})")
        if m.group("ident"):
            tokens.append((m.group("ident"), m.start("ident")))
        elif m.group("arrow"):
            tokens.append(("->", m.start("arrow")))
        else:
            tokens.append((m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("<end>", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def offset(self):
        return self.tokens[self.i][1]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        if self.peek() != kind:
            raise ParseError(self.offset(), f"{kind!r}")
        return self.advance()

    def form(self) -> Formula:
        left = self.disj()
        if self.peek() == "->":
            self.advance()
            return Implies(left, self.form())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek() == "|":
            self.advance()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.negated()
        while self.peek() == "&":
            self.advance()
            f = And(f, self.negated())
        return f

    def negated(self) -> Formula:
        if self.peek() == "~":
            self.advance()
            return neg(self.negated())
        return self.atomic()

    def atomic(self) -> Formula:
        tok = self.peek()
        if tok == "(":
            self.advance()
            f = self.form()
            self.expect(")")
            return f
        if tok in _KEYWORDS:
            self.advance()
            return _KEYWORDS[tok]
        if tok not in ("->", "|", "&", "~", ")", "<end>"):
            name, _ = self.advance()
            return Atom(name)
        raise ParseError(self.offset(), "an atom, 'false', 'true', '~' or '('")


def parse(text: str) -> Formula:
    p = _Parser(text)
    f = p.form()
    if p.peek() != "<end>":
        raise ParseError(p.offset(), "end of input")
    return f


# ---------------------------------------------------------------------------
# Printing
#
# Binding strength: -> (1, right assoc) < | (2) < & (3) < ~ (4) < atomic.
# The right operand of -> is parenthesised when it is a disjunction or
# conjunction even though re-parsing would not require it; chains such as
# "p1 -> p2 -> p3" stay bare.

def _is_neg(f: Formula) -> bool:
    return isinstance(f, Implies) and f.right == Bottom()


def _render(f: Formula, level: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Top):
        return "true"
    if _is_neg(f):
        return "~" + _render(f.left, 4)
    if isinstance(f, Implies):
        right = _render(f.right, 1)
        if isinstance(f.right, (And, Or)):
            right = "(" + right + ")"
        s = _render(f.left, 2) + " -> " + right
        return "(" + s + ")" if level > 1 else s
    if isinstance(f, Or):
        s = _render(f.left, 2) + " | " + _render(f.right, 3)
        return "(" + s + ")" if level > 2 else s
    if isinstance(f, And):
        s = _render(f.left, 3) + " & " + _render(f.right, 4)
        return "(" + s + ")" if level > 3 else s
    raise TypeError(f"not a formula: {f!r}")


def pretty(f: Formula) -> str:
    return _render(f, 1)


# ---------------------------------------------------------------------------
# Generators and queries

def bd(d: int) -> Formula:
    """Bounded-depth axiom of index d, over atoms p0..pd."""
    if d < 0:
        raise MalformedInput("bd index must be >= 0")
    f = Or(Atom("p0"), neg(Atom("p0")))
    for k in range(1, d + 1):
        a = Atom(f"p{k}")
        f = Or(a, Implies(a, f))
    return f


def atoms(f: Formula) -> list[str]:
    """Atom names in first-occurrence order, duplicates removed."""
    seen: list[str] = []

    def walk(g: Formula):
        if isinstance(g, Atom):
            if g.name not in seen:
                seen.append(g.name)
        elif isinstance(g, (And, Or, Implies)):
            walk(g.left)
            walk(g.right)

    walk(f)
    return seen
