import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bourgen.errors import ParseError
from bourgen.expressions import MAX_NESTING, compiled, parse_expression


def test_sqrt_value_and_derivative():
    e = parse_expression("sqrt(s^2+1)")
    assert np.isclose(e(1.0), math.sqrt(2))
    assert np.isclose(e.derivative(1.0), 1.0 / math.sqrt(2))


def test_unary_minus_after_binary_operator():
    e = parse_expression("2*s+-3")
    assert np.isclose(e(2.0), 1.0)


def test_unclosed_paren_reports_offset():
    with pytest.raises(ParseError) as exc:
        parse_expression("cosh(s")
    assert exc.value.offset == 6
    assert ")" in exc.value.expected


def test_power_binds_tighter_than_unary_minus():
    assert np.isclose(parse_expression("-s^2")(2.0), -4.0)


def test_power_right_associative():
    assert np.isclose(parse_expression("s^2^3")(2.0), 256.0)


def test_negative_exponent():
    assert np.isclose(parse_expression("2^-3")(0.0), 0.125)


@pytest.mark.parametrize("text,s,value", [
    ("sin(s)", 0.5, math.sin(0.5)),
    ("cos(s)", 0.5, math.cos(0.5)),
    ("sinh(s)", 0.5, math.sinh(0.5)),
    ("cosh(s)", 0.5, math.cosh(0.5)),
    ("exp(s)", 0.5, math.exp(0.5)),
    ("log(s)", 0.5, math.log(0.5)),
    ("(s+1)*(s-1)", 3.0, 8.0),
    ("1/(s+1)", 1.0, 0.5),
    ("1e-2*s", 2.0, 0.02),
    (".5 + s", 1.0, 1.5),
    ("  2 *  s ", 3.0, 6.0),
    ("2E3", 0.0, 2000.0),
])
def test_values(text, s, value):
    assert np.isclose(parse_expression(text)(s), value)


def test_empty_expression():
    with pytest.raises(ParseError):
        parse_expression("   ")


def test_unknown_identifier():
    with pytest.raises(ParseError) as exc:
        parse_expression("2*t")
    assert exc.value.offset == 2


def test_unexpected_character():
    with pytest.raises(ParseError):
        parse_expression("s @ 2")


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_expression("s+1 )")


@pytest.mark.parametrize("text,offset", [
    ("(" * 3000 + "s" + ")" * 3000, 101),
    ("-" * 5000 + "s", 101),
    ("^".join(["2"] * 3000), 202),
], ids=["parentheses", "unary-minus", "power-tower"])
def test_deep_nesting_is_a_parse_error(text, offset):
    assert MAX_NESTING == 100
    with pytest.raises(ParseError, match=f"nested deeper than 100 levels at "
                                         f"offset {offset}$") as exc:
        parse_expression(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize("text,value,slope", [
    ("(" * 100 + "s" + ")" * 100, 2.0, 1.0),
    ("-" * 100 + "s", 2.0, 1.0),
    ("log(exp(" * 50 + "s" + "))" * 50, 2.0, 1.0),
    ("1^" * 100 + "s", 1.0, 0.0),
], ids=["parentheses", "unary-minus", "functions", "power-tower"])
def test_nesting_at_the_limit_parses_and_evaluates(text, value, slope):
    e = parse_expression(text)
    assert np.isclose(e(2.0), value) and np.isclose(e.derivative(2.0), slope)


@pytest.mark.parametrize("text,offset", [
    ("+".join(["sqrt(s^2+1)/3000"] * 3000), 1648),
    ("+".join(["s"] * 102), 201),
    ("*".join(["s"] * 102), 201),
    ("(" * 99 + "s+s+s" + ")" * 99, 102),
], ids=["generatrix-sum", "sum", "product", "sum-in-parentheses"])
def test_long_operator_chain_is_a_parse_error(text, offset):
    # every operator of a left-associated chain is one level of the tree
    with pytest.raises(ParseError, match=f"nested deeper than 100 levels at "
                                         f"offset {offset}$") as exc:
        parse_expression(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize("text,value,slope", [
    ("+".join(["s"] * 101), 202.0, 101.0),
    ("(" * 99 + "s+s" + ")" * 99, 4.0, 2.0),
    ("+".join(["sqrt(s^2+1)/3000"] * 97), 97 * math.sqrt(5) / 3000,
     97 * 2 / math.sqrt(5) / 3000),
], ids=["sum", "sum-in-parentheses", "generatrix-sum"])
def test_operator_chain_at_the_limit_parses_and_evaluates(text, value, slope):
    e = parse_expression(text)
    assert np.isclose(e(2.0), value) and np.isclose(e.derivative(2.0), slope)


# pieces of the grammar's alphabet, and some just outside it
_PIECES = ["s", "2", "0.5", "1e-3", "1e", ".", "..", "+", "-", "*", "/", "^",
           "(", ")", " ", "sqrt", "sin", "cosh", "exp", "log", "x1", "@"]


@settings(max_examples=300, deadline=None)
@given(prefix=st.sampled_from(["(", "-", "2^", "sqrt(", "-(", "s^-"]),
       depth=st.integers(0, 400),
       pieces=st.lists(st.sampled_from(_PIECES), max_size=40))
def test_random_text_parses_or_is_a_parse_error(prefix, depth, pieces):
    try:
        parse_expression(prefix * depth + "".join(pieces))
    except ParseError:
        pass


@pytest.mark.parametrize("text", [
    "sqrt(s^2+1)", "sqrt(s^2+2)", "sqrt(s^2+4)", "cosh(s)*exp(-s/4)",
    "1 + s*sin(s)/cosh(s)", "(2+s^2)^-0.5", "log(s+3)^2",
])
def test_forward_mode_matches_finite_differences(text):
    e = parse_expression(text)
    rng = np.random.default_rng(7)
    for s in rng.uniform(0.2, 1.8, 12):
        h = 1e-6 * max(1.0, abs(s))
        fd = (e(s + h) - e(s - h)) / (2 * h)
        assert np.isclose(e.derivative(s), fd, rtol=1e-7, atol=1e-9)


def test_variable_exponent_derivative():
    e = parse_expression("s^s")
    s = 1.3
    exact = s**s * (math.log(s) + 1.0)
    assert np.isclose(e.derivative(s), exact)


def test_two_variable_expression_gradient():
    e = parse_expression("x1^2 * x2 + sin(x2)", variables=("x1", "x2"))
    assert np.isclose(e(2.0, 0.5), 4 * 0.5 + math.sin(0.5))
    g = e.gradient(2.0, 0.5)
    assert np.isclose(g[0], 2 * 2.0 * 0.5)
    assert np.isclose(g[1], 4.0 + math.cos(0.5))


def test_variable_set_is_enforced():
    with pytest.raises(ParseError):
        parse_expression("x1 + s", variables=("x1", "x2"))
    with pytest.raises(TypeError):
        parse_expression("x1 + x2", variables=("x1", "x2"))(1.0)


def test_derivative_along_a_foreign_variable_is_an_error():
    # a misspelled variable would otherwise give a zero derivative
    with pytest.raises(ValueError, match=r"'t'.*\('s',\)"):
        parse_expression("s^2").dual(1.0, var="t")
    e = parse_expression("x1*x2", variables=("x1", "x2"))
    with pytest.raises(ValueError, match=r"'x3'.*\('x1', 'x2'\)"):
        e.derivative(2.0, 3.0, var="x3")
    with pytest.raises(ValueError, match=r"'x3'.*\('x1', 'x2'\)"):
        compiled(["x1*x2"], ("x1", "x2"), seeds=("x3",))
    # the variables themselves still work, and after the failed calls
    assert e.derivative(2.0, 3.0, var="x2") == 2.0
    assert parse_expression("s^2").dual(1.0, var="s") == (1.0, 2.0)
