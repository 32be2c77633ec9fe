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
Each expression is compiled once, when it is parsed, into generated
Python functions: a value function, which computes no derivative, and
dual functions, which give the value and the derivative along one
variable (``dual``) or along all of them (``gradient``) in one call.
Each takes floats or whole arrays of arguments, and arrays give the bits
of the float calls element by element.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from . import _numerics
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


# Compiled evaluation.  Each expression becomes one Python function of its
# variables, generated as source text: a float body of Python float
# arithmetic and ``math`` functions, and an array body of numpy operations
# that round as the float body does, element by element: the functions
# come from _numerics, and powers go through np.float_power, which calls
# libm pow as Python's float power does.  Every failure the float body
# raises (a math domain error, a division by zero, an overflowing power)
# is raised for arrays too, never turned into a NaN.
#
# The code follows the forward-mode rules node by node, in the order of a
# depth-first walk of the tree, so a dual body fails at the first node
# whose value or derivative fails; a value body computes no derivative
# and fails only where a value does.  Subtrees without variables are
# folded into constants while the code is generated (float arithmetic, as
# at run time), and rules decided by a constant (a zero derivative, an
# integral exponent) are decided then.

_DIVISION = "float division by zero"
_ZERO_POWER = "0.0 cannot be raised to a negative power"
_NO_REAL_POWER = "negative number cannot be raised to a fractional power"
_OVERFLOW = "numerical result out of range"
_VARIABLE_POWER = "b^e with variable exponent needs b > 0"


def _array_power(b, e, where=None):
    """b ** e elementwise by np.float_power, with the failures of Python's
    float power (a zero base with a negative exponent, a negative base with
    a fractional exponent, an overflow) raised for the elements ``where``
    selects, all by default."""
    v = np.float_power(b, e)
    finite = np.isfinite(b) & np.isfinite(e)
    if where is not None:
        finite &= where
    if np.count_nonzero(finite & (b == 0.0) & (e < 0.0)):
        raise ZeroDivisionError(_ZERO_POWER)
    if np.count_nonzero(finite & (b < 0.0) & (e != np.floor(e))):
        raise ValueError(_NO_REAL_POWER)
    if np.count_nonzero(finite & np.isinf(v)):
        raise OverflowError(_OVERFLOW)
    return v


def _filled(x, shape):
    """A new float array of ``shape`` holding x (broadcast)."""
    return np.array(np.broadcast_to(x, shape), dtype=float)


_NAMESPACE = {
    "_ndim": np.ndim, "_asarray": np.asarray,
    "_broadcast_arrays": np.broadcast_arrays, "_errstate": np.errstate,
    "_empty": np.empty, "_filled": _filled, "_float_power": np.float_power,
    "_isinf": np.isinf, "_isfinite": np.isfinite, "_count": np.count_nonzero,
    "_array_power": _array_power, "_DIVISION": _DIVISION,
    "_ZERO_POWER": _ZERO_POWER, "_NO_REAL_POWER": _NO_REAL_POWER,
    "_OVERFLOW": _OVERFLOW, "_VARIABLE_POWER": _VARIABLE_POWER,
    **{f"_f_{name}": getattr(math, name) for name in FUNCTIONS},
    **{f"_a_{name}": getattr(_numerics, name) for name in FUNCTIONS},
}


def _integral(x):
    return isinstance(x, float) and x.is_integer()


class _Code:
    """The float or the array body of a compiled function, as lines of
    source.

    Operands are constants (Python floats) or the names of locals (str):
    floats in the float body, arrays of the broadcast shape in the array
    body.  An operation on constants alone is folded; one that fails then
    is emitted as the body's last statement, which fails at run time, and
    the rest of the body is dead code and not emitted.
    """

    def __init__(self, array, namespace, params):
        self.array = array
        self.namespace = namespace
        self.params = params
        self.lines = []
        self.indent = ""
        self.dead = False
        self.names = 0

    def lit(self, x):
        """Source text for the operand x."""
        if isinstance(x, str):
            return x
        if isinstance(x, float) and math.isfinite(x):
            return f"({x!r})" if math.copysign(1.0, x) < 0.0 else repr(x)
        name = f"_k{len(self.namespace)}"
        self.namespace[name] = x
        return name

    def emit(self, line):
        if not self.dead:
            self.lines.append(self.indent + line)

    def temp(self):
        self.names += 1
        return f"_t{self.names}"

    def arrays(self, *operands):
        """Whether an operation on the operands runs on arrays."""
        return self.array and any(isinstance(x, str) for x in operands)

    def fn(self, name, x):
        return ("_a_" if self.arrays(x) else "_f_") + name

    def let(self, text, *operands):
        """The value of ``text`` formatted with the operands: a constant,
        folded now, when every operand is one; else a new local."""
        if self.dead:
            return 0.0
        text = text.format(*map(self.lit, operands))
        if any(isinstance(x, str) for x in operands):
            name = self.temp()
            self.emit(f"{name} = {text}")
            return name
        try:
            return eval(text, self.namespace)
        except (ArithmeticError, ValueError):
            self.emit(text)
            self.dead = True
            return 0.0

    def check(self, test, error, message, *operands):
        """Raise error(message) where ``test`` formatted with the operands
        holds (decided now for constants)."""
        if self.dead:
            return
        test = test.format(*map(self.lit, operands))
        if any(isinstance(x, str) for x in operands):
            self.emit(f"if {test}: raise {error}({message})")
        elif eval(test, self.namespace):
            self.fail(error, message)

    def fail(self, error, message):
        self.emit(f"raise {error}({message})")
        self.dead = True

    def zero_outside(self, mask, t):
        """t, set to +0.0 where the array ``mask`` is False."""
        self.emit(f"if _count({mask}) < {mask}.size: {t}[~{mask}] = 0.0")
        return t

    # -- the tree ------------------------------------------------------------

    def evaluate(self, ast, seeds):
        """[value, derivative along each seed] of ``ast``.  The value and
        the first derivative are interleaved node by node; each further
        derivative follows in a walk of its own, reusing the values."""
        values = {}
        value, slope = self.walk(ast, seeds[0] if seeds else None, values,
                                 True)
        out = [value] + ([slope] if seeds else [])
        for seed in seeds[1:]:
            out.append(self.walk(ast, seed, values, False)[1])
        return out

    def walk(self, node, seed, values, first):
        """(value, derivative along ``seed``) of ``node``, emitting the
        value's code when ``first`` and the derivative's unless ``seed``
        is None: children first, then the node's value, then its
        derivative."""
        if self.dead:
            return 0.0, 0.0
        kind = node[0]
        if kind == "num":
            return node[1], 0.0
        if kind == "var":
            return self.params[node[1]], float(node[1] == seed)
        op = node[1] if kind == "call" else kind
        pairs = [self.walk(child, seed, values, first)
                 for child in node[2 if kind == "call" else 1:]]
        if first:
            values[id(node)] = self.value(op, *(a for a, _ in pairs))
        v = values.get(id(node), 0.0)
        if seed is None:
            return v, None
        return v, self.slope(op, v, *(x for pair in pairs for x in pair))

    # -- values --------------------------------------------------------------

    def value(self, op, a, b=None):
        if op == "neg":
            return self.let("-{0}", a)
        if op in ("+", "-", "*"):
            return self.let(f"{{0}} {op} {{1}}", a, b)
        if op == "/":
            return self.divide(a, b)
        if op == "^":
            return self.power(a, b)
        return self.let(self.fn(op, a) + "({0})", a)

    def divide(self, a, b):
        """a / b; a zero divisor raises for arrays as it does for floats."""
        if self.arrays(b):
            self.check("_count({0} == 0.0)", "ZeroDivisionError", "_DIVISION",
                       b)
        elif self.arrays(a) and b == 0.0:
            self.fail("ZeroDivisionError", "_DIVISION")
        return self.let("{0} / {1}", a, b)

    def power(self, b, e, where=None):
        """b ** e with Python's float power; a negative base with a
        fractional exponent has no real value and raises.  A constant
        integral exponent needs only the zero-base (if negative) and
        overflow checks, and b^0 = 1 and b^1 = b need no pow at all: C's
        pow gives 1 for a zero exponent, and a pow within one ulp gives
        the representable b exactly.  ``where`` limits an array's
        checks."""
        if e == 0.0 or e == 1.0:
            return 1.0 if e == 0.0 else b
        if not self.arrays(b, e):
            t = self.let("{0} ** {1}", b, e)
            if not _integral(e):
                self.check("{0}.__class__ is complex", "ValueError",
                           "_NO_REAL_POWER", t)
            return t
        if not _integral(e):
            if where is None:
                return self.let("_array_power({0}, {1})", b, e)
            return self.let("_array_power({0}, {1}, {2})", b, e, where)
        t = self.let("_float_power({0}, {1})", b, e)
        at = "" if where is None else f"{where} & "
        if e < 0.0:
            self.check(f"_count({at}({{0}} == 0.0))", "ZeroDivisionError",
                       "_ZERO_POWER", b)
        self.check(f"_count(_isinf({{0}})) and "
                   f"_count({at}_isinf({{0}}) & _isfinite({{1}}))",
                   "OverflowError", "_OVERFLOW", t, b)
        return t

    # -- derivatives ---------------------------------------------------------

    def slope(self, op, v, a, da, b=None, db=None):
        """The derivative of the node ``op`` of value v, from its operands'
        values and derivatives."""
        if op == "neg":
            return self.let("-{0}", da)
        if op in ("+", "-"):
            return self.let(f"{{0}} {op} {{1}}", da, db)
        if op == "*":
            return self.let("{0} * {1} + {2} * {3}", da, b, a, db)
        if op == "/":
            return self.divide(self.let("{0} * {1} - {2} * {3}", da, b, a, db),
                               self.let("{0} * {0}", b))
        if op == "^":
            if isinstance(db, str):  # a variable exponent: rule by element
                return self.choose("{0} == 0.0", db, (v, a, b, da, db),
                                   self.power_rule, self.exponential_rule)
            if db == 0.0:
                return self.power_rule(v, a, b, da, db)
            return self.exponential_rule(v, a, b, da, db)
        if op == "sqrt":
            return self.sqrt_rule(da, v)
        if op == "exp":
            return self.let("{0} * {1}", da, v)
        if op == "log":
            return self.let("{0} / {1}", da, a)
        # sin' = cos, cos' = -sin, sinh' = cosh, cosh' = sinh
        sign, name = {"sin": ("", "cos"), "cos": ("-", "sin"),
                      "sinh": ("", "cosh"), "cosh": ("", "sinh")}[op]
        return self.let(f"{sign}{{0}} * {self.fn(name, a)}({{1}})", da, a)

    def sqrt_rule(self, d, r):
        """d / (2 r), and +0.0 where d is zero."""
        if isinstance(d, str):
            if not self.array:
                return self.let("({0} / (2.0 * {1}) if {0} != 0.0 else 0.0)",
                                d, r)
            nonzero = self.let("{0} != 0.0", d)
            t = self.let("2.0 * {0}", r)
            self.check("_count({1} == 0.0) and _count({0} & ({1} == 0.0))",
                       "ZeroDivisionError", "_DIVISION", nonzero, t)
            return self.zero_outside(nonzero, self.let("{0} / {1}", d, t))
        if d != 0.0:
            return self.divide(d, self.let("2.0 * {0}", r))
        return 0.0

    def power_rule(self, v, b, e, db, de):
        """d(b^e) = e b^(e-1) b' for a constant exponent, +0.0 where b' is
        zero.  The inline float form needs no check for a negative base:
        b^(e-1) has a real value wherever b^e, computed first, has one."""
        if isinstance(db, str) and not self.array:
            return self.let("({0} * {1} ** ({0} - 1.0) * {2} "
                            "if {2} != 0.0 else 0.0)", e, b, db)
        if not isinstance(db, str):
            if not db != 0.0:
                return 0.0
            p = self.power(b, self.let("{0} - 1.0", e))
            if db == 1.0:  # (e p) 1 is e p, exactly
                return self.let("{0} * {1}", e, p)
            return self.let("{0} * {1} * {2}", e, p, db)
        nonzero = self.let("{0} != 0.0", db)
        p = self.power(b, self.let("{0} - 1.0", e), where=nonzero)
        return self.zero_outside(nonzero, self.let("{0} * {1} * {2}", e, p, db))

    def exponential_rule(self, v, b, e, db, de):
        """d(b^e) = b^e (e' log b + e b' / b), for b > 0."""
        if self.arrays(b):
            self.check("_count({0} <= 0.0)", "ValueError", "_VARIABLE_POWER", b)
        else:
            self.check("{0} <= 0.0", "ValueError", "_VARIABLE_POWER", b)
        return self.let(f"{{0}} * ({{1}} * {self.fn('log', b)}({{2}}) "
                        "+ {3} * {4} / {2})", v, de, b, e, db)

    def choose(self, test, x, operands, if_true, if_false):
        """Elementwise if_true(*operands) where ``test`` formatted with x
        holds, else if_false(*operands).  For arrays each rule sees only
        its own elements (array operands masked), so a rule raises only
        where it applies."""
        if self.dead:
            return 0.0
        out = self.temp()
        if self.array:
            mask = self.let(test, x)
            self.emit(f"{out} = _empty({mask}.shape)")
            heads = (f"if _count({mask}):", f"if _count({mask}) < {mask}.size:")
            masks = (mask, f"~{mask}")
        else:
            heads = (f"if {test.format(x)}:", "else:")
        dead = []
        for k, rule in enumerate((if_true, if_false)):
            self.emit(heads[k])
            self.indent += "    "
            args = operands
            if self.array:
                args = [self.let(f"{{0}}[{masks[k]}]", a)
                        if isinstance(a, str) else a for a in operands]
            result = rule(*args)
            target = f"{out}[{masks[k]}]" if self.array else out
            self.emit(f"{target} = {self.lit(result)}")
            dead.append(self.dead)
            self.dead = False
            self.indent = self.indent[:-4]
        # an array's branch may not run at all
        self.dead = all(dead) and not self.array
        return out


@functools.lru_cache(maxsize=256)
def _compile(asts, variables, seeds=(), value=True):
    """One function of the variables (floats, or arrays that broadcast
    together) returning, for each AST in turn, its value (if ``value``) and
    its derivative along each seed: a bare value for one AST without
    seeds, else a tuple.  Floats give floats; arrays give new arrays of the
    broadcast shape.  A seed that is not one of the variables is a
    ValueError."""
    for seed in seeds:
        if seed not in variables:
            raise ValueError(f"no variable {seed!r} to differentiate along; "
                             f"the variables are {variables!r}")
    params = {name: f"_x{k}" for k, name in enumerate(variables)}
    namespace = dict(_NAMESPACE)
    bodies = []
    for array in (False, True):
        code = _Code(array, namespace, params)
        out = []
        for ast in asts:
            results = code.evaluate(ast, seeds)
            out += results if value else results[1:]
        if array:
            # an input, or a constant, is copied into a new array
            out = [x if isinstance(x, str) and x not in params.values()
                   else f"_filled({code.lit(x)}, _shape)" for x in out]
        tail = "," if len(out) == 1 and (seeds or len(asts) > 1) else ""
        code.emit(f"return {', '.join(map(code.lit, out))}{tail}")
        bodies.append(code.lines)
    floats, arrays = bodies
    xs = list(params.values())
    lines = [f"def _compiled({', '.join(xs)}):"]
    if xs:
        converted = [f"_asarray({x}, dtype=float)" for x in xs]
        lines += [
            f"    if {' or '.join(f'{x}.__class__ is not float' for x in xs)}:",
            f"        if {' or '.join(f'_ndim({x})' for x in xs)}:",
            f"            {', '.join(xs)} = "
            + (converted[0] if len(xs) == 1
               else f"_broadcast_arrays({', '.join(converted)})"),
            f"            _shape = {xs[0]}.shape",
            "            with _errstate(all='ignore'):"]
        lines += ["                " + line for line in arrays]
        lines += [f"        {x} = float({x})" for x in xs]
    lines += ["    " + line for line in floats]
    exec(compile("\n".join(lines), "<bourgen expression>", "exec"), namespace)
    return namespace["_compiled"]


class Expression:
    """A parsed scalar expression with exact forward-mode derivatives.

    Arguments bind positionally to ``variables`` (default: the single
    variable s).  Floats give floats; arrays (broadcast together) give
    arrays of their shape, equal element by element to the float results.
    Parsing compiles the value function and the dual function along the
    first variable; the others are compiled at their first call.
    """

    def __init__(self, text, variables=("s",)):
        self.text = text
        self.variables = tuple(variables)
        self.ast = _Parser(text, self.variables).parse()
        self._value = _compile((self.ast,), self.variables)
        self._duals = {}
        self._gradient = None
        if self.variables:
            self._dual_along(self.variables[0])

    def _dual_along(self, var):
        fn = self._duals.get(var)
        if fn is None:
            fn = self._duals[var] = _compile((self.ast,), self.variables,
                                             (var,))
        return fn

    def __call__(self, *args):
        return self._value(*args)

    def derivative(self, *args, var=None):
        """The derivative along ``var``, as ``dual`` gives it."""
        return self.dual(*args, var=var)[1]

    def dual(self, *args, var=None):
        """(value, derivative along ``var``, default the first variable),
        from one call; a ``var`` that is not one of the expression's
        variables is a ValueError that names them."""
        return self._dual_along(var if var is not None
                                else self.variables[0])(*args)

    def gradient(self, *args):
        """The derivatives along every variable, from one call."""
        if self._gradient is None:
            self._gradient = _compile((self.ast,), self.variables,
                                      self.variables, value=False)
        return self._gradient(*args)

    def __repr__(self):
        return f"Expression({self.text!r}, variables={self.variables!r})"


def compiled(texts, variables, seeds=(), value=True):
    """One compiled function of ``variables`` that returns, for each
    expression text in turn, its value (if ``value``) and its derivative
    along each of ``seeds``: a bare value for one expression without
    seeds, else a tuple.  It gives the bits, arrays and failures of
    calling each parsed expression in turn, and compiles nothing else
    (``parse_expression`` compiles an expression's own functions).  The
    texts are parsed one by one as ``texts`` yields them; the first that
    does not parse raises its ParseError, as parse_expression would.  A
    seed that is not one of ``variables`` is a ValueError."""
    variables = tuple(variables)
    asts = []
    for text in texts:
        _require_text(text)
        asts.append(_Parser(text, variables).parse())
    return _compile(tuple(asts), variables, tuple(seeds), value)


def _require_text(text):
    if not text or not text.strip():
        raise ParseError("empty expression", offset=0, expected=("expression",))


def parse_expression(text, variables=("s",)):
    """Parse an expression; raises ParseError with the byte offset on errors."""
    _require_text(text)
    return Expression(text, variables)
