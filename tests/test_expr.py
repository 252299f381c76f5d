"""Tests for the one-variable expression grammar."""

import math
import operator
import random

import pytest
from hypothesis import example, given, strategies as st

from deltalab import ExpressionError, make_function, parse, to_source
from deltalab.expr import FUNCTIONS, _compile


# ---------------------------------------------------------------------------
# evaluation table
# ---------------------------------------------------------------------------

EVAL_CASES = [
    ("1+2*3", 0.0, 7.0),
    ("(1+2)*3", 0.0, 9.0),
    ("2+3*4^2", 0.0, 50.0),
    ("-2^2", 0.0, 4.0),  # unary minus binds tighter than the power
    ("2^-1", 0.0, 0.5),
    ("2^3^2", 0.0, 512.0),  # right-associative power
    ("10-4-3", 0.0, 3.0),  # left-associative difference
    ("24/4/2", 0.0, 3.0),
    ("z", 1.7, 1.7),
    ("z*z-1", 3.0, 8.0),
    ("cos(0*z)", 5.0, 1.0),
    ("exp(-z)", 1.0, math.exp(-1.0)),
    ("abs(z)", -2.5, 2.5),
    ("sqrt(z^2)", -3.0, 3.0),
    ("sin(z)/z", 0.5, math.sin(0.5) / 0.5),
    ("sinh(z)+cosh(z)", 0.3, math.exp(0.3)),
    ("log(exp(z))", 2.0, 2.0),
    ("1/(2-2+1)", 0.0, 1.0),
]


@pytest.mark.parametrize("text,z,expected", EVAL_CASES)
def test_evaluation(text, z, expected):
    f = make_function(text)
    assert f(z) == pytest.approx(expected, rel=1e-14)


def test_whitespace_is_insensitive():
    assert parse("1 +  2*z ") == parse("1+2*z")


def test_every_declared_function_evaluates():
    for name in FUNCTIONS:
        f = make_function(f"{name}(z)")
        assert math.isfinite(f(0.5))


# ---------------------------------------------------------------------------
# parse trees and round-trips
# ---------------------------------------------------------------------------


def test_parse_tree_shapes():
    assert parse("1.5") == ("num", 1.5)
    assert parse("z") == ("var",)
    assert parse("-z") == ("neg", ("var",))
    assert parse("1+z") == ("bin", "+", ("num", 1.0), ("var",))
    assert parse("cos(z)") == ("call", "cos", ("var",))


_num_leaves = st.floats(0.001, 10.0).map(lambda v: ("num", round(v, 3))) | st.just(
    ("num", math.inf)
)
_trees = st.recursive(
    st.one_of(_num_leaves, st.just(("var",))),
    lambda kids: st.one_of(
        kids.map(lambda t: ("neg", t)),
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), kids).map(
            lambda p: ("call", p[0], p[1])
        ),
        st.tuples(st.sampled_from(list("+-*/^")), kids, kids).map(
            lambda p: ("bin", p[0], p[1], p[2])
        ),
    ),
    max_leaves=20,
)


@given(tree=_trees)
@example(tree=("num", math.inf))
def test_print_parse_round_trip(tree):
    assert parse(to_source(tree)) == tree


def test_to_source_is_fully_parenthesized():
    assert to_source(parse("1+2*3")) == "(1.0 + (2.0 * 3.0))"


# ---------------------------------------------------------------------------
# the compiled function against a reference tree walk
# ---------------------------------------------------------------------------

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}
_FAILURES = {TypeError: "is complex", ZeroDivisionError: "divides by zero",
             OverflowError: "overflows", ValueError: "leaves a function's domain"}


def _walk(node, z):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return z
    if tag == "neg":
        return -_walk(node[1], z)
    if tag == "call":
        return FUNCTIONS[node[1]](_walk(node[2], z))
    return _BINARY[node[1]](_walk(node[2], z), _walk(node[3], z))


def _reference(text, z):
    """float.hex of the tree-walk value, or the error message it implies."""
    try:
        return float(_walk(parse(text), z)).hex()
    except tuple(_FAILURES) as exc:
        what = next(msg for cls, msg in _FAILURES.items() if isinstance(exc, cls))
        return f"expression {text!r} {what} at z = {z!r}"


def _compiled(text, z):
    try:
        return make_function(text)(z).hex()
    except ValueError as exc:
        return str(exc)


_FAMILIES = [
    "1.732*cos(0.917*z)",
    "1.204*sin(0.613*z) + -0.385",
    "0.871*exp(-1.093*z)",
    "1.5/(1 + 0.757*z^2)",
    "0.312 + -0.804*z^1 + 0.05*z^2 + 0.977*z^3 + -0.263*z^4",
    "1.2*cos(0.8*z) + 0.4/abs(z)^2",
    "1.2*cos(0.8*z) + -0.4/abs(z)^3",
]


@pytest.mark.parametrize("text", _FAMILIES)
@pytest.mark.parametrize("scale", [12.0, 1e-3])
def test_compiled_function_is_bit_identical_to_the_tree_walk(text, scale):
    rng = random.Random(f"{text}:{scale}")
    f = make_function(text)
    tree = parse(text)
    for _ in range(500):
        z = rng.uniform(-scale, scale)
        assert f(z).hex() == float(_walk(tree, z)).hex()


@pytest.mark.parametrize(
    "text, z",
    [
        ("z^0.5", -2.0), ("(-2)^0.5 + z", 1.0), ("sin((-z)^1.5)", 3.0),
        ("1/(z-1)", 1.0), ("z^-1", 0.0), ("1/(1-1) + z", 2.0),
        ("exp(z)", 1e3), ("z^-1", 1e-320), ("10^400 + z", 0.0),
        ("log(z)", -1.0), ("sqrt(z-4)", 0.0), ("log(1-1) + z", 1.0),
        ("1e999*z", 2.0), ("1e999-1e999+z", 0.0), ("-0*z", 1.0),
    ],
)
def test_compiled_errors_and_non_finite_values_match_the_tree_walk(text, z):
    assert _compiled(text, z) == _reference(text, z)


@given(
    tree=_trees,
    z=st.one_of(st.floats(-12.0, 12.0), st.floats(-1e-3, 1e-3), st.sampled_from([0.0, -1.0])),
)
def test_compiled_function_matches_the_tree_walk_everywhere(tree, z):
    text = to_source(tree)
    assert _compiled(text, z) == _reference(text, z)


@given(tree=_trees)
def test_compiled_function_reaches_only_the_listed_functions(tree):
    core = _compile(tree)
    assert set(core.__code__.co_names) <= set(FUNCTIONS)
    assert core.__code__.co_varnames == ("z",)
    assert core.__globals__["__builtins__"] == {}


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


def test_error_offset_and_expectations():
    with pytest.raises(ExpressionError) as info:
        parse("2+*3")
    assert info.value.offset == 2
    assert "number" in " ".join(info.value.expected)


def test_unknown_function_is_rejected():
    with pytest.raises(ExpressionError):
        parse("tan(z)")


def test_unknown_identifier_is_rejected():
    with pytest.raises(ExpressionError):
        parse("x + 1")


def test_trailing_garbage_is_rejected():
    with pytest.raises(ExpressionError) as info:
        parse("1+2)")
    assert info.value.offset == 3


def test_unbalanced_parens_are_rejected():
    with pytest.raises(ExpressionError):
        parse("(1+2")


def test_empty_input_is_rejected():
    with pytest.raises(ExpressionError):
        parse("")
    with pytest.raises(ExpressionError):
        parse("   ")


def test_division_by_literal_zero_rejected_at_parse_time():
    with pytest.raises(ExpressionError):
        parse("1/0")
    with pytest.raises(ExpressionError):
        parse("z/(0)")
    # a symbolically zero denominator is not a literal zero
    tree = parse("1/(2-2+1)")
    assert tree[0] == "bin"


def test_division_by_literal_zero_offset_points_at_slash():
    with pytest.raises(ExpressionError) as info:
        parse("1/0")
    assert info.value.offset == 1


def test_make_function_raises_at_definition_time():
    with pytest.raises(ExpressionError):
        make_function("1 +")


@pytest.mark.parametrize(
    "text", ["(" * 300 + "z" + ")" * 300, "+".join(["z"] * 2000), "sin(" * 300 + "z" + ")" * 300]
)
def test_deep_nesting_is_an_expression_error(text):
    with pytest.raises(ExpressionError) as info:
        make_function(text)
    assert str(info.value) == "expression nests too deeply at offset 0"


def test_long_sums_still_compile():
    assert make_function("+".join(["z"] * 900))(0.5) == 450.0


@pytest.mark.parametrize(
    "text, z, failure",
    [
        ("log(z)", -1.0, "leaves a function's domain"),
        ("sqrt(z)", -4.0, "leaves a function's domain"),
        ("z^-1", 1e-320, "overflows"),
        ("exp(z)", 1e3, "overflows"),
        ("1/(z-1)", 1.0, "divides by zero"),
        ("z^-1", 0.0, "divides by zero"),
        ("z^0.5", -2.0, "is complex"),
    ],
)
def test_evaluation_errors_name_the_expression_and_the_point(text, z, failure):
    f = make_function(text)
    with pytest.raises(ValueError) as info:
        f(z)
    assert str(info.value) == f"expression {text!r} {failure} at z = {z!r}"
