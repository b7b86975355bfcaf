import copy
import pickle

import pytest
from hypothesis import given, seed, settings, strategies as st

import oracles
from polylogic.algebra import eval_formula, is_valid
from polylogic.cli import _ast
from polylogic.errors import MalformedInput, ParseError
from polylogic.formula import (
    BD_MAX,
    And,
    Atom,
    Bottom,
    Implies,
    Or,
    Top,
    atoms,
    bd,
    neg,
    parse,
    pretty,
)
from polylogic.poset import Poset


def test_parse_atoms_and_constants():
    assert parse("p") == Atom("p")
    assert parse("false") == Bottom()
    assert parse("true") == Top()
    assert parse("p_1") == Atom("p_1")


def test_precedence_and_associativity():
    # ~ binds tighter than &, & tighter than |, | tighter than ->
    assert parse("~p & q") == And(Implies(Atom("p"), Bottom()), Atom("q"))
    assert parse("p & q | r") == Or(And(Atom("p"), Atom("q")), Atom("r"))
    assert parse("p | q -> r") == Implies(Or(Atom("p"), Atom("q")), Atom("r"))
    # -> is right-associative
    assert parse("p -> q -> r") == Implies(Atom("p"), Implies(Atom("q"), Atom("r")))
    # & and | are left-associative
    assert parse("p & q & r") == And(And(Atom("p"), Atom("q")), Atom("r"))


def test_negation_is_sugar():
    assert parse("~p") == neg(Atom("p"))
    assert pretty(neg(Atom("p"))) == "~p"
    assert pretty(Implies(Atom("p"), Bottom())) == "~p"


def test_pretty_examples():
    assert pretty(parse("p -> q -> r")) == "p -> q -> r"
    assert pretty(parse("(p -> q) -> r")) == "(p -> q) -> r"
    assert pretty(parse("p & (q | r)")) == "p & (q | r)"
    assert pretty(parse("~(p & q)")) == "~(p & q)"


def test_bd_schema():
    assert pretty(bd(0)) == "p0 | ~p0"
    assert pretty(bd(1)) == "p1 | (p1 -> (p0 | ~p0))"
    assert pretty(bd(2)) == "p2 | (p2 -> (p1 | (p1 -> (p0 | ~p0))))"
    assert atoms(bd(3)) == ["p3", "p2", "p1", "p0"]
    with pytest.raises(MalformedInput):
        bd(-1)
    assert issubclass(MalformedInput, ValueError)


def test_bd_refuses_indices_above_its_limit():
    assert atoms(bd(BD_MAX))[0] == f"p{BD_MAX}"
    for d in (BD_MAX + 1, 10**9, 10**5000):
        with pytest.raises(MalformedInput, match="between 0 and"):
            bd(d)


_NODE_TEXTS = ["p", "false", "true", "p & true", "false | q", "~p"]


@pytest.mark.parametrize("text", _NODE_TEXTS)
def test_nodes_are_immutable(text):
    node = parse(text)
    for name in ("name", "left", "right", "other"):
        with pytest.raises(AttributeError):
            setattr(node, name, Atom("x"))
    for name in ("name", "left", "right"):
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert copy.copy(node) == node == pickle.loads(pickle.dumps(node)) == parse(text)


def test_nodes_compare_by_class_and_fields():
    nodes = [Atom("p"), Bottom(), Top(), And(Atom("p"), Top()), Or(Bottom(), Atom("q")),
             Implies(Atom("p"), Bottom())]
    assert Top() != Bottom() and Atom("p") != "p" and "p" != Atom("p") and Atom("p") != Atom("q")
    assert And(Atom("p"), Top()) != Or(Atom("p"), Top()) and neg(Top()) != neg(Bottom())
    for f, g in zip(nodes, map(parse, _NODE_TEXTS)):
        assert f == g and g is not f and hash(f) == hash(g)
        assert [f == h for h in nodes] == [h is f for h in nodes]
    assert [repr(f) for f in nodes] == [
        "Atom(name='p')", "Bottom()", "Top()", "And(left=Atom(name='p'), right=Top())",
        "Or(left=Bottom(), right=Atom(name='q'))", "Implies(left=Atom(name='p'), right=Bottom())"]


def test_atoms_in_first_occurrence_order():
    assert atoms(parse("q -> p & q | r")) == ["q", "p", "r"]
    assert atoms(parse("true | false")) == []


@pytest.mark.parametrize(
    "text, offset",
    [
        ("", 0),
        ("p &", 3),
        ("(p", 2),
        ("p q", 2),
        ("-> p", 0),
        ("p | | q", 4),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset


_formulae = st.recursive(
    st.sampled_from([Atom("p"), Atom("q"), Atom("r2"), Bottom(), Top()]),
    lambda sub: st.one_of(
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
    ),
    max_leaves=20,
)


def _nodes(f) -> int:
    if isinstance(f, (Atom, Bottom, Top)):
        return 1
    return 1 + _nodes(f.left) + _nodes(f.right)


@settings(max_examples=50, deadline=None)
@given(_formulae)
def test_print_parse_round_trip(f):
    assert parse(pretty(f)) == f


@settings(max_examples=50, deadline=None)
@given(_formulae)
def test_pretty_is_stable(f):
    assert pretty(parse(pretty(f))) == pretty(f)


def test_strategy_reaches_thirteen_nodes():
    # the round-trip tests above must keep covering formulas at least as
    # large as the 13 nodes the earlier recursive strategy reached in 50
    # examples; drawn here from a fixed seed so the check is deterministic
    sizes = []

    @seed(0)
    @settings(max_examples=50, deadline=None, database=None)
    @given(_formulae)
    def draw(f):
        sizes.append(_nodes(f))

    draw()
    assert len(sizes) >= 50 and max(sizes) >= 13


@settings(max_examples=50, deadline=None)
@given(_formulae)
def test_printer_and_atoms_match_the_recursive_oracles(f):
    assert pretty(f) == oracles.pretty(f)
    assert atoms(f) == oracles.atoms(f)


@settings(max_examples=100, deadline=None)
@given(_formulae, _formulae)
def test_eq_hash_and_repr_match_the_dataclass_ones(f, g):
    for x, y in ((f, g), (f, parse(pretty(f)))):
        assert (x == y) == (oracles.structure(x) == oracles.structure(y))
        assert x != y or hash(x) == hash(y)
    assert repr(f) == oracles.dataclass_repr(f)
    assert f != pretty(f) and f == parse(pretty(f))


# Strings over the token alphabet, mostly invalid, and strings built by the
# grammar with parentheses, negations and operators placed freely.
_token_strings = st.builds(
    str.join,
    st.sampled_from(["", " "]),
    st.lists(st.sampled_from(["p", "q1", "false", "true", "~", "&", "|", "->", "(", ")", "-", "$"]),
             max_size=12),
)
_grammar_strings = st.recursive(
    st.sampled_from(["p", "q1", "false", "true"]),
    lambda sub: st.one_of(
        st.builds("~{}".format, sub),
        st.builds("({})".format, sub),
        st.builds("{}{}{}".format, sub, st.sampled_from([" & ", "|", " -> "]), sub),
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_token_strings, _grammar_strings))
def test_parse_matches_the_recursive_descent_oracle(text):
    try:
        want = oracles.parse(text)
    except ParseError as e:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.offset, exc.value.expected) == (e.offset, e.expected)
        return
    got = parse(text)
    assert got == want and pretty(got) == oracles.pretty(want)


DEEP = 100_000


@pytest.mark.parametrize("text, printed, tree, valid", [
    pytest.param("(" * DEEP + "p" + ")" * DEEP, "p", "p", False, id="parentheses"),
    pytest.param("~" * DEEP + "p", "~" * DEEP + "p",
                 "(implies " * DEEP + "p" + " false)" * DEEP, False, id="negations"),
    pytest.param(" -> ".join(["p"] * DEEP), " -> ".join(["p"] * DEEP),
                 "(implies p " * (DEEP - 1) + "p" + ")" * (DEEP - 1), True, id="implications"),
])
def test_formulas_100000_deep_need_no_recursion(text, printed, tree, valid):
    # negations nest to the left, implications to the right
    f, g = parse(text), parse(text)
    assert f == g and hash(f) == hash(g) and f != parse(text.replace("p", "q"))
    assert repr(f).count("Atom(name='p')") == printed.count("p")
    assert pretty(f) == printed
    assert _ast(f) == tree  # the text of formula parse
    assert atoms(f) == ["p"]
    point = Poset(["a"], [1])
    assert eval_formula(point, {"p": 0}, f) == int(valid)
    assert is_valid(point, f).valid is valid
