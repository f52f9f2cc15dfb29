"""Expression grammar for scene files and reports.

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := ('+' | '-')* atom ('^' nonneg-integer)?
    atom   := rational | variable | '(' expr ')'

Rational literals are an integer or a/b; implicit multiplication is not
allowed, and '/' appears only inside a literal.  ``format_polynomial`` in the
polynomial module emits strings in this grammar, so print-then-parse is the
identity on canonical forms.

Lexing is one regular expression and linear in the input.  A literal with a
zero denominator or more digits than ``int()`` accepts is a parse error, and
so is a power whose coefficients certainly would be: it is refused at the
exponent before it is computed, so ``3^99999999`` costs nothing.  A
coefficient made by a ``*`` or a power is checked there, and an error names
that operator or exponent.

Expansion is bounded too.  One parse makes at most ``MAX_TERM_PRODUCTS``
products of two terms over all its ``*`` and ``^``, counted before each
polynomial product, so ``(x+1)^3000`` is refused at its ``^`` instead of
expanding for many seconds.

Parentheses nest at most ``MAX_NESTING`` deep.  The parser recurses once
per level, so deeper input is a parse error rather than an exhausted
interpreter stack.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import ParseError
from .poly import Polynomial, VariableSet, power

MAX_NESTING = 100
# The most any shipped scene, ladder rung through (4,3), flow input or test
# parse needs is 27; one expression may make this many (about 0.1 s of work).
MAX_TERM_PRODUCTS = 100_000

# Whitespace is an alternative of its own: a \s* prefix on every token would
# backtrack over a trailing run of spaces and make lexing quadratic.
_TOKEN = re.compile(
    r"(?P<number>\d+(?:/\d+)?)|(?P<name>[^\W\d]\w*)|(?P<op>[-+*^()])|(?P<space>\s+)|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) tokens, last first, so the parser pops the next one."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup != "space":
            tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    tokens.reverse()
    return tokens


def _literal(text: str, pos: int) -> int | Fraction:
    """The literal's value in the polynomial module's normal form: ``int``
    without a ``/``, else a ``Fraction`` that the constructor normalises."""
    try:
        return Fraction(text) if "/" in text else int(text)
    except ValueError as exc:  # more digits than int() accepts
        raise ParseError(str(exc), pos) from None
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}", pos) from None


class _Parser:
    def __init__(self, text: str, varset: VariableSet):
        self.tokens = _tokenize(text)
        self.varset = varset
        self.depth = 0
        self.products = 0  # term products made by ``*`` and ``^`` so far
        # 0 means no limit, as on interpreters older than the limit itself
        self.digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()

    def next_op(self, ops: str) -> str | None:
        """If the next token is one of the operators ``ops``, consume it and return it."""
        kind, text, _ = self.tokens[-1]
        if kind == "op" and text in ops:
            self.tokens.pop()
            return text
        return None

    def parse(self) -> Polynomial:
        value = self.expr()
        kind, text, pos = self.tokens[-1]
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return value

    def expr(self) -> Polynomial:
        value = self.term()
        while op := self.next_op("+-"):
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while True:
            pos = self.tokens[-1][2]
            if not self.next_op("*"):
                return value
            value = self.check_digits(self.multiply(value, self.factor(), pos), pos)

    def multiply(self, a: Polynomial, b: Polynomial, pos: int) -> Polynomial:
        """``a * b``, refused at ``pos`` before it is computed once this parse
        would pass ``MAX_TERM_PRODUCTS`` products of two terms."""
        self.products += len(a.terms) * len(b.terms)
        if self.products > MAX_TERM_PRODUCTS:
            raise ParseError(f"the expression needs more than {MAX_TERM_PRODUCTS} term products",
                             pos)
        return a * b

    def factor(self) -> Polynomial:
        sign = 1
        while op := self.next_op("+-"):
            if op == "-":
                sign = -sign
        value = self.atom()
        caret = self.tokens[-1][2]
        if self.next_op("^"):
            kind, text, pos = self.tokens.pop()
            if kind != "number" or "/" in text:
                raise ParseError("exponent must be a nonnegative integer", pos)
            k = _literal(text, pos)
            self.refuse_huge_power(value, k, pos)
            value = power(value, k, lambda a, b: self.multiply(a, b, caret))
            self.check_digits(value, pos)
        return value if sign == 1 else -value

    def refuse_huge_power(self, base: Polynomial, k: int, pos: int) -> None:
        """Refuse ``base ** k`` uncomputed if a coefficient certainly passes the limit.

        The lex-first and lex-last terms of the base are vertices of its Newton
        polytope, so their coefficients c reappear as c^k.  An integer of b bits
        is at least 2^(b-1), so its k-th power reaches 10^limit once
        3k(b-1) >= 10*limit (log2(10) < 10/3).
        """
        limit = self.digit_limit
        for e in (max(base.terms), min(base.terms)) if limit and base.terms else ():
            c = base.terms[e]
            if 3 * k * (max(abs(c.numerator), c.denominator).bit_length() - 1) >= 10 * limit:
                raise ParseError(f"a coefficient has more than {limit} digits", pos)

    def check_digits(self, value: Polynomial, pos: int) -> Polynomial:
        """``value``, or a parse error at ``pos`` if a coefficient has more
        digits than ``sys.get_int_max_str_digits()`` allows: no report could
        print it."""
        limit = self.digit_limit
        if limit:
            for c in value.terms.values():
                for n in (abs(c.numerator), c.denominator):
                    # below 2^(3*limit) a number has at most ``limit`` digits
                    if n.bit_length() > 3 * limit and n >= 10 ** limit:
                        raise ParseError(f"a coefficient has more than {limit} digits", pos)
        return value

    def atom(self) -> Polynomial:
        kind, text, pos = self.tokens.pop()
        if kind == "number":
            return Polynomial.constant(self.varset, _literal(text, pos))
        if kind == "name":
            if text not in self.varset.names:
                raise ParseError(f"undeclared variable {text!r}", pos)
            return Polynomial.variable(self.varset, text)
        if text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
            self.depth += 1
            value = self.expr()
            if not self.next_op(")"):
                _, found, at = self.tokens[-1]
                raise ParseError(f"expected ')', found {found or 'end of input'!r}", at)
            self.depth -= 1
            return value
        raise ParseError(f"unexpected {text or 'end of input'!r}", pos)


def parse_expression(text: str, varset: VariableSet) -> Polynomial:
    """Parse an expression over the declared variables into canonical form.

    A coefficient with more digits than ``sys.get_int_max_str_digits()``
    allows could not be printed in a report, so it is a parse error, at the
    ``*`` or exponent that made it, or at 0 when only a sum did.
    """
    parser = _Parser(text, varset)
    return parser.check_digits(parser.parse(), 0)
