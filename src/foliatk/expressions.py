"""Expression grammar for scene files and reports.

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := ('+' | '-')* atom ('^' nonneg-integer)?
    atom   := rational | variable | '(' expr ')'

Rational literals are an integer or a/b; implicit multiplication is not
allowed, and '/' appears only inside a literal.  ``format_polynomial`` in the
polynomial module emits strings in this grammar, so print-then-parse is the
identity on canonical forms.

Parentheses nest at most ``MAX_NESTING`` deep.  The parser recurses once
per level, so deeper input is a parse error rather than an exhausted
interpreter stack.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .poly import Polynomial, VariableSet

MAX_NESTING = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                tokens.append(_Token("number", text[i:k], i))
                i = k
            else:
                tokens.append(_Token("number", text[i:j], i))
                i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], varset: VariableSet):
        self.tokens = tokens
        self.pos = 0
        self.varset = varset
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str):
        tok = self.advance()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)

    def parse(self) -> Polynomial:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return value

    def expr(self) -> Polynomial:
        value = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> Polynomial:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                value = value * self.factor()
            else:
                return value

    def factor(self) -> Polynomial:
        sign = 1
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                if tok.text == "-":
                    sign = -sign
            else:
                break
        value = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.advance()
            if exp_tok.kind != "number" or "/" in exp_tok.text:
                raise ParseError("exponent must be a nonnegative integer", exp_tok.pos)
            value = value ** int(exp_tok.text)
        return value if sign == 1 else -value

    def atom(self) -> Polynomial:
        tok = self.advance()
        if tok.kind == "number":
            try:
                return Polynomial.constant(self.varset, Fraction(tok.text))
            except ValueError as exc:  # more digits than int() accepts
                raise ParseError(str(exc), tok.pos) from None
        if tok.kind == "name":
            if tok.text not in self.varset.names:
                raise ParseError(f"undeclared variable {tok.text!r}", tok.pos)
            return Polynomial.variable(self.varset, tok.text)
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", tok.pos)
            self.depth += 1
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def parse_expression(text: str, varset: VariableSet) -> Polynomial:
    """Parse an expression over the declared variables into canonical form.

    A coefficient with more digits than ``sys.get_int_max_str_digits()``
    allows could not be printed in a report, so it is a parse error.
    """
    value = _Parser(_tokenize(text), varset).parse()
    # 0 means no limit, as on interpreters older than the limit itself
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        for c in value.terms.values():
            for n in (abs(c.numerator), c.denominator):
                # below 2^(3*limit) a number has at most ``limit`` digits
                if n.bit_length() > 3 * limit and n >= 10 ** limit:
                    raise ParseError(f"a coefficient has more than {limit} digits", 0)
    return value
