"""Intuitionistic propositional formulae.

AST nodes are immutable ``__slots__`` classes. Negation is notation:
``~f`` parses to ``Implies(f, Bottom())`` and the printer renders that
shape back as ``~f``. ``true`` is a primitive node so top-valued results
print readably.

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

from .errors import MalformedInput, ParseError

__all__ = [
    "Formula", "Atom", "Bottom", "Top", "And", "Or", "Implies",
    "parse", "pretty", "fold", "bd", "atoms", "neg",
]


class _Node:
    """An immutable formula node whose fields are its __slots__, with the ==,
    hash and repr of a frozen dataclass. None of them recurses: a connective
    is compared and hashed by its leaves and connective classes in
    postorder, which fix the tree since the classes give the arities."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def _key(self) -> tuple:
        if not isinstance(self, (And, Or, Implies)):
            return tuple(getattr(self, name) for name in self.__slots__)
        out: list = []
        fold(self, out.append, lambda g, left, right: out.append(g.__class__))
        return tuple(out)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return _join(fold(self, _leaf_repr, lambda g, left, right: (
            f"{type(g).__name__}(left=", left, ", right=", right, ")")))


def _leaf_repr(g: Formula) -> str:
    fields = ", ".join(f"{name}={getattr(g, name)!r}" for name in g.__slots__)
    return f"{type(g).__name__}({fields})"


def _operands(self, left: Formula, right: Formula):
    """The __init__ of the connectives."""
    object.__setattr__(self, "left", left)
    object.__setattr__(self, "right", right)


class Atom(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Bottom(_Node):
    __slots__ = ()


class Top(_Node):
    __slots__ = ()


class And(_Node):
    __slots__ = ("left", "right")
    __init__ = _operands


class Or(_Node):
    __slots__ = ("left", "right")
    __init__ = _operands


class Implies(_Node):
    __slots__ = ("left", "right")
    __init__ = _operands


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

BD_MAX = 10_000  # bd(d) has 4d + 5 nodes; bd(BD_MAX) prints in 208 KB


def bd(d: int) -> Formula:
    """Bounded-depth axiom of index d, over atoms p0..pd, for 0 <= d <= BD_MAX."""
    if not 0 <= d <= BD_MAX:
        raise MalformedInput(f"bd index must be between 0 and {BD_MAX}")
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
