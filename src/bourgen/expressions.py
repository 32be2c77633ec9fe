"""Expression grammar for generatrix functions U(s) and chart coefficients.

Grammar (tightest first):
    ^  (right associative, exponent may carry a unary minus)
    unary -
    * /
    + -
with numbers, named variables (``s`` by default; chart coefficients use
``x1``, ``x2``), parentheses, and the functions sqrt, sin, cos, cosh,
sinh, exp, log.  Parentheses, function arguments, unary minus signs and
exponents nest at most MAX_NESTING levels deep, and each operator of a
+ - or * / chain nests the chain one level below its deepest operand.

Derivatives are produced by forward-mode differentiation: every node is
evaluated on (value, derivative) pairs, so U'(s) is exact up to rounding.
The same walk evaluates floats or whole arrays of arguments.
"""
from __future__ import annotations

import numpy as np

from ._numerics import cos, cosh, exp, log, sin, sinh, sqrt
from .errors import ParseError

FUNCTIONS = ("sqrt", "sin", "cos", "cosh", "sinh", "exp", "log")

_TOKEN_CHARS = "+-*/^()"

# The parser and the evaluator recurse once per level, so deeper input
# would exhaust Python's stack; it is a ParseError instead.
MAX_NESTING = 100


def _tokenize(text, variables):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_CHARS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            # exponent part like 1e-3
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad number at offset {i}: {text[i:j]!r}",
                                 offset=i, expected=("number",))
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name in variables:
                tokens.append(("var", name, i))
            elif name in FUNCTIONS:
                tokens.append(("func", name, i))
            else:
                raise ParseError(
                    f"unknown identifier {name!r} at offset {i}", offset=i,
                    expected=tuple(variables) + FUNCTIONS)
            i = j
            continue
        raise ParseError(f"unexpected character {c!r} at offset {i}", offset=i,
                         expected=("number", "variable", "function", "("))
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text, variables):
        self.text = text
        self.tokens = _tokenize(text, variables)
        self.pos = 0
        self.depth = 0
        # levels of the tree below the node the last parse method returned
        self.height = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r} at offset {tok[2]}, got "
                f"{tok[1]!r}" if tok[0] != "end" else
                f"expected {kind!r} at offset {tok[2]}, got end of input",
                offset=tok[2], expected=(kind,))
        return self.advance()

    def nested(self, parse):
        """parse() one nesting level deeper."""
        if self.depth == MAX_NESTING:
            offset = self.peek()[2]
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels at "
                f"offset {offset}", offset=offset)
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r} at offset {tok[2]}",
                             offset=tok[2], expected=("end of input",))
        return node

    def chain(self, operand, ops):
        """operand (op operand)*, associated to the left: a chain of n
        operators is a tree n levels deeper than its deepest operand, and
        evaluation recurses through all of them."""
        node = operand()
        height = self.height
        while self.peek()[0] in ops:
            op, _, offset = self.advance()
            node = (op, node, operand())
            height = max(height, self.height) + 1
            if self.depth + height > MAX_NESTING:
                raise ParseError(
                    f"expression nested deeper than {MAX_NESTING} levels at "
                    f"offset {offset}", offset=offset)
        self.height = height
        return node

    def expr(self):
        return self.chain(self.term, ("+", "-"))

    def term(self):
        return self.chain(self.unary, ("*", "/"))

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            node = ("neg", self.nested(self.unary))
            self.height += 1
            return node
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            height = self.height
            self.advance()
            # exponent binds the next unary so 2^-3 parses
            exponent = self.nested(self.unary if self.peek()[0] == "-"
                                   else self.power_operand)
            self.height = max(height, self.height) + 1
            return ("^", base, exponent)
        return base

    def power_operand(self):
        # right associativity: s^2^3 == s^(2^3)
        return self.power()

    def atom(self):
        tok = self.peek()
        if tok[0] in ("num", "var"):
            self.advance()
            self.height = 0
            return (tok[0], tok[1])
        if tok[0] == "func":
            self.advance()
            self.expect("(")
            arg = self.nested(self.expr)
            self.expect(")")
            self.height += 1
            return ("call", tok[1], arg)
        if tok[0] == "(":
            self.advance()
            node = self.nested(self.expr)
            self.expect(")")
            return node
        raise ParseError(
            f"expected a value at offset {tok[2]}", offset=tok[2],
            expected=("number", "s", "function", "(", "unary -"))


# Array evaluation keeps the rounding of the scalar path element by
# element: the functions come from _numerics, and powers go through
# np.float_power, which calls libm pow as Python's float power does.
# Every failure the scalar path raises (a math domain error, a division by
# zero, an overflowing power) is raised for arrays too, never turned into
# a NaN.

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


class Expression:
    """A parsed scalar expression with exact forward-mode derivatives.

    Arguments bind positionally to ``variables`` (default: the single
    variable s).  Floats give floats; arrays (broadcast together) give
    arrays of their shape, equal element by element to the float results.
    """

    def __init__(self, text, variables=("s",)):
        self.text = text
        self.variables = tuple(variables)
        self.ast = _Parser(text, self.variables).parse()

    def _dual(self, args, seed):
        if len(args) != len(self.variables):
            raise TypeError(f"expression takes {len(self.variables)} "
                            f"argument(s) {self.variables}, got {len(args)}")
        if all(np.ndim(v) == 0 for v in args):
            return _eval_dual(self.ast, {name: float(v) for name, v in
                                         zip(self.variables, args)}, seed)
        arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args))
        # IEEE overflow and NaN stay silent, as for floats; the failures
        # floats raise are checked explicitly
        with np.errstate(all="ignore"):
            v, d = _eval_dual(self.ast, dict(zip(self.variables, arrays)), seed)
        shape = arrays[0].shape
        return (np.array(np.broadcast_to(v, shape), dtype=float),
                np.array(np.broadcast_to(d, shape), dtype=float))

    def __call__(self, *args):
        return self._dual(args, None)[0]

    def derivative(self, *args, var=None):
        return self.dual(*args, var=var)[1]

    def dual(self, *args, var=None):
        """(value, derivative along ``var``, default the first variable),
        from one walk of the expression."""
        return self._dual(args, var if var is not None else self.variables[0])

    def gradient(self, *args):
        return tuple(self._dual(args, name)[1] for name in self.variables)

    def __repr__(self):
        return f"Expression({self.text!r}, variables={self.variables!r})"


def parse_expression(text, variables=("s",)):
    """Parse an expression; raises ParseError with the byte offset on errors."""
    if not text or not text.strip():
        raise ParseError("empty expression", offset=0, expected=("expression",))
    return Expression(text, variables)
