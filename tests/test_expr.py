"""Tests for the one-variable expression grammar."""

import math

import pytest
from hypothesis import given, strategies as st

from deltalab import ExpressionError, make_function, parse, to_source
from deltalab.expr import FUNCTIONS


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


_num_leaves = st.floats(0.001, 10.0).map(lambda v: ("num", round(v, 3)))
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
def test_print_parse_round_trip(tree):
    assert parse(to_source(tree)) == tree


def test_to_source_is_fully_parenthesized():
    assert to_source(parse("1+2*3")) == "(1.0 + (2.0 * 3.0))"


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
