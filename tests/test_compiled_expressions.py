"""The compiled expression functions against the tree walk that evaluated
expressions before them: value, dual, derivative and gradient give the
walk's bits (signed zeros and NaN positions included) and raise its
exception types, on floats and on broadcast arrays.

The walk below is the evaluator the compiled code replaced, kept as the
reference: ``_eval_dual`` evaluates (value, derivative) pairs node by node,
and ``_eval_value`` is the same walk without the derivatives.  A value
call differs from the dual walk's value only where a derivative fails and
the value does not (``1/s`` at ``s = 1e-200``: the quotient rule divides
by ``s*s``, which underflows to zero).
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bourgen._numerics import cos, cosh, exp, log, sin, sinh, sqrt
from bourgen.expressions import FUNCTIONS, compiled, parse_expression

# ---------------------------------------------------------------------------
# the reference walk
# ---------------------------------------------------------------------------

def _is_array(x):
    return isinstance(x, np.ndarray)


def _div(a, b):
    """a / b; a zero divisor raises for arrays as it does for floats."""
    if (_is_array(a) or _is_array(b)) and np.any(b == 0.0):
        raise ZeroDivisionError("float division by zero")
    return a / b


_NO_REAL_POWER = "negative number cannot be raised to a fractional power"


def _pow(b, e):
    """b ** e with Python's float power, elementwise for arrays; a negative
    base with a fractional exponent has no real value and raises."""
    if not (_is_array(b) or _is_array(e)):
        v = b ** e
        if isinstance(v, complex):
            raise ValueError(_NO_REAL_POWER)
        return v
    v = np.float_power(b, e)
    finite = np.isfinite(b) & np.isfinite(e)
    if np.any(finite & (b == 0.0) & (e < 0.0)):
        raise ZeroDivisionError("0.0 cannot be raised to a negative power")
    if np.any(finite & (b < 0.0) & (e != np.floor(e))):
        raise ValueError(_NO_REAL_POWER)
    if np.any(finite & np.isinf(v)):
        raise OverflowError("numerical result out of range")
    return v


def _piecewise(cond, if_true, if_false, *args):
    """Elementwise ``if_true(*args) if cond else if_false(*args)``.

    For an array ``cond`` each branch sees only its own elements (array
    arguments are masked, scalars passed as they are), so a branch raises
    only where the scalar evaluation would.
    """
    if not _is_array(cond):
        return if_true(*args) if cond else if_false(*args)
    out = np.empty(cond.shape)
    for branch, mask in ((if_true, cond), (if_false, ~cond)):
        if mask.any():
            out[mask] = branch(*(a[mask] if _is_array(a) else a for a in args))
    return out


def _zero(*args):
    return 0.0


def _sqrt_rule(d, r):
    return _div(d, 2.0 * r)


def _power_rule(v, b, e, db, de):
    # pure power: d(b^c) = c b^(c-1) b'
    return _piecewise(db != 0.0, lambda b, e, db: e * _pow(b, e - 1.0) * db,
                      _zero, b, e, db)


def _exponential_rule(v, b, e, db, de):
    if np.any(b <= 0.0):
        raise ValueError("b^e with variable exponent needs b > 0")
    return v * (de * log(b) + e * db / b)


def _dual_call(name, v, d):
    if name == "sqrt":
        r = sqrt(v)
        return r, _piecewise(d != 0.0, _sqrt_rule, _zero, d, r)
    if name == "sin":
        return sin(v), d * cos(v)
    if name == "cos":
        return cos(v), -d * sin(v)
    if name == "cosh":
        return cosh(v), d * sinh(v)
    if name == "sinh":
        return sinh(v), d * cosh(v)
    if name == "exp":
        e = exp(v)
        return e, d * e
    if name == "log":
        return log(v), d / v
    raise ValueError(f"unknown function {name}")


def _eval_dual(node, bindings, seed):
    """(value, derivative along ``seed``) of the AST in one walk.

    Bindings are floats, or arrays of one shape; constant subtrees stay
    floats either way.
    """
    kind = node[0]
    if kind == "num":
        return node[1], 0.0
    if kind == "var":
        return bindings[node[1]], 1.0 if node[1] == seed else 0.0
    if kind == "neg":
        v, d = _eval_dual(node[1], bindings, seed)
        return -v, -d
    if kind == "call":
        v, d = _eval_dual(node[2], bindings, seed)
        return _dual_call(node[1], v, d)
    lv, ld = _eval_dual(node[1], bindings, seed)
    rv, rd = _eval_dual(node[2], bindings, seed)
    if kind == "+":
        return lv + rv, ld + rd
    if kind == "-":
        return lv - rv, ld - rd
    if kind == "*":
        return lv * rv, ld * rv + lv * rd
    if kind == "/":
        return _div(lv, rv), _div(ld * rv - lv * rd, rv * rv)
    if kind == "^":
        v = _pow(lv, rv)
        return v, _piecewise(rd == 0.0, _power_rule, _exponential_rule,
                             v, lv, rv, ld, rd)
    raise ValueError(f"bad AST node {kind}")


_VALUES = {"sqrt": sqrt, "sin": sin, "cos": cos, "cosh": cosh,
           "sinh": sinh, "exp": exp, "log": log}


def _eval_value(node, bindings):
    """The value of the AST, by the value half of ``_eval_dual``'s rules."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return bindings[node[1]]
    if kind == "neg":
        return -_eval_value(node[1], bindings)
    if kind == "call":
        return _VALUES[node[1]](_eval_value(node[2], bindings))
    lv = _eval_value(node[1], bindings)
    rv = _eval_value(node[2], bindings)
    if kind == "+":
        return lv + rv
    if kind == "-":
        return lv - rv
    if kind == "*":
        return lv * rv
    if kind == "/":
        return _div(lv, rv)
    return _pow(lv, rv)


def _walk(expr, args, seed, evaluate=_eval_dual):
    """What ``Expression._dual(args, seed)`` returned before compiling:
    (value, derivative along seed) from ``evaluate``.  ``__call__`` was
    ``_dual(args, None)``, the dual walk along no variable."""
    if all(np.ndim(v) == 0 for v in args):
        return evaluate(expr.ast, {name: float(v) for name, v in
                                   zip(expr.variables, args)}, seed)
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args))
    with np.errstate(all="ignore"):
        v, d = evaluate(expr.ast, dict(zip(expr.variables, arrays)), seed)
    shape = arrays[0].shape
    return (np.array(np.broadcast_to(v, shape), dtype=float),
            np.array(np.broadcast_to(d, shape), dtype=float))


def _value_walk(node, bindings, seed):
    return _eval_value(node, bindings), 0.0


# ---------------------------------------------------------------------------
# compiled against walked
# ---------------------------------------------------------------------------

# numbers of the grammar: zeros, huge and tiny ones, and 1e999, which
# reads as inf; integral and fractional exponents, negative through the
# unary minus
_numbers = st.sampled_from(["0", "1", "2", "3", "0.5", "1.5", "1e-200",
                            "1e200", "1e999"])
_exponents = st.sampled_from(["2", "3", "0", "1", "-1", "-2", "0.5", "-0.5",
                              "1.5"])
_trees = st.recursive(
    st.one_of(_numbers, st.sampled_from(["x1", "x2"])),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/^"), sub).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(st.sampled_from(FUNCTIONS), sub).map(
            lambda t: f"{t[0]}({t[1]})"),
        st.tuples(sub, _exponents).map(lambda t: f"({t[0]})^{t[1]}"),
        sub.map(lambda c: f"-({c})")),
    max_leaves=8)
# arguments: negative, zero (both signs), huge, tiny and non-finite ones
_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e-200, -1e-200, 1e200,
                     -1e200, 710.0, -710.0, 1e308, 5e-324, math.inf,
                     -math.inf, math.nan]),
    st.floats(-4.0, 4.0), st.floats(allow_nan=True, allow_infinity=True))


def _arrays(shape):
    return hnp.arrays(np.float64, shape, elements=_floats)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the types must match
        return "error", type(exc)


def _same_bits(a, b):
    """One type, and equal bits but for NaN payloads; tuples item by item."""
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(map(_same_bits, a, b)))
    if type(a) is not type(b):
        return False
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def _same(got, want):
    if got[0] != want[0]:
        return False
    return _same_bits(got[1], want[1]) if got[0] == "value" else got == want


def _matches_the_walk(e, args):
    walked = _outcome(lambda: _walk(e, args, None, _value_walk)[0])
    assert _same(_outcome(e, *args), walked), (e, args)
    # the dual walk of the former __call__ differs from the value walk only
    # where a derivative rule raised (the quotient rule's division by s*s,
    # and rules fed a NaN derivative by the constant 1e999)
    former = _outcome(lambda: _walk(e, args, None)[0])
    assert _same(former, walked) or former[0] == "error"
    first = _outcome(_walk, e, args, e.variables[0])
    if first[0] == "value":
        # a dual walk that succeeds has the value of the value walk
        assert _same(walked, ("value", first[1][0]))
    slopes = []
    for var in e.variables:
        want = _outcome(_walk, e, args, var)
        assert _same(_outcome(lambda: e.dual(*args, var=var)), want), var
        slope = want if want[0] == "error" else ("value", want[1][1])
        assert _same(_outcome(lambda: e.derivative(*args, var=var)), slope)
        slopes.append(slope)
    # the gradient raises the first walk's error
    failed = [s for s in slopes if s[0] == "error"]
    want = failed[0] if failed else ("value", tuple(s[1] for s in slopes))
    assert _same(_outcome(e.gradient, *args), want)


@settings(max_examples=600, deadline=None)
@given(text=_trees, x1=_floats, x2=_floats)
@example(text="1/x1", x1=1e-200, x2=0.0)
@example(text="(x1)^((1)/(1e999))", x1=-1.0, x2=0.0)
@example(text="(x1)^(x2)", x1=0.0, x2=1.0)
@example(text="(x1)^-1", x1=1e-200, x2=0.0)
@example(text="sqrt(x1)", x1=0.0, x2=0.0)
@example(text="x2 + (1)/(0)", x1=1.0, x2=-1.0)
@example(text="(-(1))^(0.5) * x1", x1=1.0, x2=1.0)
def test_compiled_floats_match_the_walk(text, x1, x2):
    _matches_the_walk(parse_expression(text, ("x1", "x2")), (x1, x2))


@settings(max_examples=400, deadline=None)
@given(text=_trees, x1=_arrays(st.tuples(st.integers(1, 4), st.just(1))),
       x2=st.one_of(_floats, _arrays(st.tuples(st.integers(0, 3)))))
@example(text="1/x1", x1=np.array([[1e-200], [2.0]]), x2=0.0)
@example(text="(x1)^(x2)", x1=np.array([[0.0], [2.0]]), x2=np.array([1.0]))
def test_compiled_arrays_match_the_walk(text, x1, x2):
    # x1 a column and x2 a row or a float: the arguments broadcast
    _matches_the_walk(parse_expression(text, ("x1", "x2")), (x1, x2))


@settings(max_examples=300, deadline=None)
@given(text=_trees, s=_arrays(st.tuples(st.integers(1, 6))))
def test_compiled_one_variable_arrays_match_the_walk(text, s):
    text = text.replace("x1", "s").replace("x2", "s")
    _matches_the_walk(parse_expression(text), (s,))


def _in_turn(*calls):
    """The tuple of the calls' outcomes, or the first one's error."""
    outcomes = [_outcome(call) for call in calls]
    failed = [o for o in outcomes if o[0] == "error"]
    return failed[0] if failed else ("value", tuple(o[1] for o in outcomes))


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(_trees, min_size=1, max_size=4),
       args=st.one_of(st.tuples(_floats, _floats),
                      st.tuples(_arrays(st.just((3, 1))),
                                _arrays(st.just((2,))))))
def test_joint_function_calls_each_expression_in_turn(texts, args):
    # what chart_from_config compiles: the values of several expressions,
    # and one expression's gradient, each from one call
    xs = ("x1", "x2")
    es = [parse_expression(text, xs) for text in texts]
    want = _in_turn(*(lambda e=e: e(*args) for e in es))
    if len(es) == 1 and want[0] == "value":
        want = ("value", want[1][0])  # one value comes bare
    assert _same(_outcome(compiled(texts, xs), *args), want)
    assert _same(_outcome(compiled(texts[-1:], xs, xs, value=False), *args),
                 _outcome(es[-1].gradient, *args))


@pytest.mark.parametrize("s", [1e-200, np.array([1e-200, 2.0])],
                         ids=["float", "array"])
def test_value_raises_only_the_values_errors(s):
    # 1/s has the value 1e200 at 1e-200; only its derivative divides by
    # s*s, which underflows to zero
    e = parse_expression("1/s")
    assert _same_bits(e(s), 1.0 / s)
    with pytest.raises(ZeroDivisionError):
        e.dual(s)
    with pytest.raises(ZeroDivisionError):
        e.derivative(s)
