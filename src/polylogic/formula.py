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

``parse`` reads this grammar by operator precedence over two explicit
stacks, and ``fold`` is the one walk over a formula: printing, atom lists,
evaluation, ==, hash and repr are folds. Neither recurses, so nesting
depth is bounded only by memory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import MalformedInput, ParseError

__all__ = [
    "Formula", "Atom", "Bottom", "Top", "And", "Or", "Implies",
    "parse", "pretty", "fold", "bd", "atoms", "neg",
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


class _Connective:
    """==, hash and repr without recursion. == is the dataclass equality:
    the leaves and connective classes in postorder fix the tree, since
    the classes give the arities."""

    __slots__ = ()

    def _postorder(self) -> list:
        out: list = []
        fold(self, out.append, lambda g, left, right: out.append(g.__class__))
        return out

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._postorder() == other._postorder() if same else NotImplemented

    def __hash__(self):
        return hash(tuple(self._postorder()))

    def __repr__(self):
        return _join(fold(self, repr, lambda g, left, right: (
            f"{type(g).__name__}(left=", left, ", right=", right, ")")))


@dataclass(frozen=True, eq=False, repr=False)
class And(_Connective):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class Or(_Connective):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class Implies(_Connective):
    left: "Formula"
    right: "Formula"


Formula = Atom | Bottom | Top | And | Or | Implies


def neg(f: Formula) -> Formula:
    return Implies(f, Bottom())


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|->|[|&~()])")

_KEYWORDS = {"false": Bottom(), "true": Top()}


def _tokenize(text: str) -> list[tuple[str, int]]:
    """(token, offset) pairs, ending with ("<end>", len(text))."""
    tokens, pos = [], 0
    while m := _TOKEN_RE.match(text, pos):
        tokens.append((m[1], m.start(1)))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise ParseError(len(text) - len(rest), f"a token (got {rest[0]!r})")
    return tokens + [("<end>", len(text))]


_BINDING = {"->": 1, "|": 2, "&": 3}  # -> is right-associative, | and & left
_CONNECTIVE = {"->": Implies, "|": Or, "&": And}


def _apply(pending: list[str], operands: list[Formula], binding: int):
    """Apply the pending operators above the innermost "(" that bind at
    least as tightly as binding; for -> only those binding more tightly."""
    while pending and pending[-1] != "(":
        op = pending[-1]
        if op != "~" and (_BINDING[op] < binding or _BINDING[op] == binding == 1):
            return
        pending.pop()
        right = operands.pop()
        operands.append(neg(right) if op == "~" else _CONNECTIVE[op](operands.pop(), right))


def parse(text: str) -> Formula:
    tokens = iter(_tokenize(text))
    operands: list[Formula] = []
    pending: list[str] = []  # "~", "(" and binary operators not yet applied
    depth = 0  # the "(" on pending
    while True:
        tok, off = next(tokens)
        while tok in ("~", "("):
            pending.append(tok)
            depth += tok == "("
            tok, off = next(tokens)
        if tok in _BINDING or tok in (")", "<end>"):
            raise ParseError(off, "an atom, 'false', 'true', '~' or '('")
        operands.append(_KEYWORDS[tok] if tok in _KEYWORDS else Atom(tok))
        tok, off = next(tokens)
        while tok == ")" and depth:
            _apply(pending, operands, 0)
            pending.pop()
            depth -= 1
            tok, off = next(tokens)
        if tok in _BINDING:
            _apply(pending, operands, _BINDING[tok])
            pending.append(tok)
        elif tok == "<end>" and not depth:
            _apply(pending, operands, 0)
            return operands[0]
        else:
            raise ParseError(off, "')'" if depth else "end of input")


# ---------------------------------------------------------------------------
# Folding and printing


def fold(f: Formula, leaf, node):
    """f's value computed bottom-up with an explicit stack: leaf(g) at atoms
    and constants, node(g, left, right) at connectives. Leaves are visited
    left to right."""
    values: list = []
    stack = [f]  # a connective followed by None has both operand values on top of values
    while stack:
        g = stack.pop()
        if g is None:
            g = stack.pop()
            right = values.pop()
            values[-1] = node(g, values[-1], right)
        elif isinstance(g, (And, Or, Implies)):
            stack += (g, None, g.right, g.left)
        else:
            values.append(leaf(g))
    return values[0]


# Binding level: -> 1 < | 2 < & 3 < ~ 4 < atomic 5. An operand is bracketed
# when its level is in the set for its side; the right operand of -> is
# when it is a disjunction or conjunction, though re-parsing would not need it.
_INFIX = {
    Implies: (" -> ", 1, {1}, {2, 3}),
    Or: (" | ", 2, {1}, {1, 2}),
    And: (" & ", 3, {1, 2}, {1, 2, 3}),
}


def _join(pieces) -> str:
    """The strings of nested tuples of strings, in order, joined once."""
    out, stack = [], [pieces]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        else:
            stack += reversed(x)
    return "".join(out)


def _bracket(operand: tuple, levels: set[int]):
    pieces, level = operand
    return ("(", pieces, ")") if level in levels else pieces


def _print_leaf(g: Formula) -> tuple[str, int]:
    if not isinstance(g, (Atom, Bottom, Top)):
        raise TypeError(f"not a formula: {g!r}")
    return (g.name if isinstance(g, Atom) else "true" if isinstance(g, Top) else "false"), 5


def _print_node(g: Formula, left: tuple, right: tuple) -> tuple:
    if isinstance(g, Implies) and isinstance(g.right, Bottom):
        return ("~", _bracket(left, {1, 2, 3})), 4
    op, level, wrap_left, wrap_right = _INFIX[type(g)]
    return (_bracket(left, wrap_left), op, _bracket(right, wrap_right)), level


def pretty(f: Formula) -> str:
    return _join(fold(f, _print_leaf, _print_node)[0])


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
    seen: dict[str, None] = {}
    fold(f, lambda g: isinstance(g, Atom) and seen.setdefault(g.name), lambda g, left, right: None)
    return list(seen)
