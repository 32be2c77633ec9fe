"""Expression grammar for generatrix functions U(s) and chart coefficients.

Grammar (tightest first):
    ^  (right associative, exponent may carry a unary minus)
    unary -
    * /
    + -
with numbers, named variables (``s`` by default; chart coefficients use
``x1``, ``x2``), parentheses, and the functions sqrt, sin, cos, cosh,
sinh, exp, log.

Derivatives are produced by forward-mode differentiation: every node is
evaluated on (value, derivative) pairs, so U'(s) is exact up to rounding.
"""
from __future__ import annotations

import math

from .errors import ParseError

FUNCTIONS = ("sqrt", "sin", "cos", "cosh", "sinh", "exp", "log")

_TOKEN_CHARS = "+-*/^()"


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

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r} at offset {tok[2]}",
                             offset=tok[2], expected=("end of input",))
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            node = (op, node, rhs)
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            # exponent binds the next unary so 2^-3 parses
            exponent = self.unary() if self.peek()[0] == "-" else self.power_operand()
            return ("^", base, exponent)
        return base

    def power_operand(self):
        # right associativity: s^2^3 == s^(2^3)
        return self.power()

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.advance()
            return ("num", tok[1])
        if tok[0] == "var":
            self.advance()
            return ("var", tok[1])
        if tok[0] == "func":
            self.advance()
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return ("call", tok[1], arg)
        if tok[0] == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(
            f"expected a value at offset {tok[2]}", offset=tok[2],
            expected=("number", "s", "function", "(", "unary -"))


def _dual_call(name, v, d):
    if name == "sqrt":
        r = math.sqrt(v)
        return r, d / (2.0 * r) if d != 0.0 else 0.0
    if name == "sin":
        return math.sin(v), d * math.cos(v)
    if name == "cos":
        return math.cos(v), -d * math.sin(v)
    if name == "cosh":
        return math.cosh(v), d * math.sinh(v)
    if name == "sinh":
        return math.sinh(v), d * math.cosh(v)
    if name == "exp":
        e = math.exp(v)
        return e, d * e
    if name == "log":
        return math.log(v), d / v
    raise ValueError(f"unknown function {name}")


def _eval_dual(node, bindings, seed):
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
        return lv / rv, (ld * rv - lv * rd) / (rv * rv)
    if kind == "^":
        v = lv ** rv
        if rd == 0.0:
            # pure power: d(b^c) = c b^(c-1) b'
            return v, rv * lv ** (rv - 1.0) * ld if ld != 0.0 else 0.0
        if lv <= 0.0:
            raise ValueError("b^e with variable exponent needs b > 0")
        return v, v * (rd * math.log(lv) + rv * ld / lv)
    raise ValueError(f"bad AST node {kind}")


class Expression:
    """A parsed scalar expression with exact forward-mode derivatives.

    Arguments bind positionally to ``variables`` (default: the single
    variable s)."""

    def __init__(self, text, variables=("s",)):
        self.text = text
        self.variables = tuple(variables)
        self.ast = _Parser(text, self.variables).parse()

    def _bindings(self, args):
        if len(args) != len(self.variables):
            raise TypeError(f"expression takes {len(self.variables)} "
                            f"argument(s) {self.variables}, got {len(args)}")
        return {name: float(v) for name, v in zip(self.variables, args)}

    def __call__(self, *args):
        return _eval_dual(self.ast, self._bindings(args), None)[0]

    def derivative(self, *args, var=None):
        seed = var if var is not None else self.variables[0]
        return _eval_dual(self.ast, self._bindings(args), seed)[1]

    def gradient(self, *args):
        b = self._bindings(args)
        return tuple(_eval_dual(self.ast, b, name)[1]
                     for name in self.variables)

    def __repr__(self):
        return f"Expression({self.text!r}, variables={self.variables!r})"


def parse_expression(text, variables=("s",)):
    """Parse an expression; raises ParseError with the byte offset on errors."""
    if not text or not text.strip():
        raise ParseError("empty expression", offset=0, expected=("expression",))
    return Expression(text, variables)
