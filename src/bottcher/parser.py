"""Recursive-descent parser for transseries expressions.

Grammar:
    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := base ('^' rat)?
    base    := rat | complexlit | 'z' | 'l'INT | '(' expr ')'
    rat     := ['-'] INT ('/' INT)?  |  '(' rat ')'
    complexlit := '(' rat ('+'|'-') rat 'i' ')'

Lowering produces a canonical TransSeries; parse errors carry line/column.
Arithmetic errors while lowering (a zero denominator, for example) surface
as ParseError too.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .coeffs import EXACT, Exact
from .errors import ParseError
from .keys import Key, ell_key, zero_key
from .series import (
    TransSeries,
    TruncationGrid,
    add,
    monomial,
    mul,
    negate,
    pow_rational,
    sub,
)

_TOKEN = re.compile(r"\s*(?:(\d+)|([zi])|l(\d+)|([()+\-*/^])|(\S))")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                break
            pos = m.end()
            if m.group(5):
                raise ParseError(f"unexpected character {m.group(5)!r}", 1, m.start(5))
            if m.group(1):
                self.toks.append(("int", m.group(1), m.start(1)))
            elif m.group(2):
                self.toks.append((m.group(2), m.group(2), m.start(2)))
            elif m.group(3):
                self.toks.append(("ell", int(m.group(3)), m.start(3) - 1))  # at the l
            elif m.group(4):
                self.toks.append((m.group(4), m.group(4), m.start(4)))
        self.i = 0

    def peek(self, k=0):
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else (None, None, len(self.text))

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1]!r}", 1, t[2])
        return t


def parse(text: str, grid: TruncationGrid | None = None, mode=EXACT,
          z_cap=12, block_cap=10, depth=None) -> TransSeries:
    """Parse an expression into a canonical TransSeries."""
    toks = _Tokens(text)
    if grid is None:
        need = max([int(t[1]) for t in toks.toks if t[0] == "ell"], default=0)
        depth = need if depth is None else depth
        grid = TruncationGrid(z_cap=z_cap, block_cap=block_cap, depth=depth)
    p = _Parser(toks, grid, mode)
    try:
        out = p.expr()
    except ArithmeticError as e:
        raise ParseError(f"arithmetic error: {e}", 1, toks.peek()[2]) from e
    t = toks.peek()
    if t[0] is not None:
        raise ParseError(f"trailing input {t[1]!r}", 1, t[2])
    return out


class _Parser:
    def __init__(self, toks, grid, mode):
        self.t = toks
        self.grid = grid
        self.mode = mode

    def const(self, q) -> TransSeries:
        return monomial(zero_key(self.grid.depth), self.grid, self.mode, q)

    def expr(self) -> TransSeries:
        neg = False
        if self.t.peek()[0] == "-":
            self.t.next()
            neg = True
        out = self.term()
        if neg:
            out = negate(out)
        while self.t.peek()[0] in ("+", "-"):
            op = self.t.next()[0]
            rhs = self.term()
            out = add(out, rhs) if op == "+" else sub(out, rhs)
        return out

    def term(self) -> TransSeries:
        out = self.factor()
        while self.t.peek()[0] == "*":
            self.t.next()
            out = mul(out, self.factor())
        return out

    def factor(self) -> TransSeries:
        base = self.base()
        if self.t.peek()[0] == "^":
            self.t.next()
            q = self.rat()
            base = pow_rational(base, q)
        return base

    def rat(self) -> Fraction:
        if self.t.peek()[0] == "(":
            self.t.next()
            q = self.rat()
            self.t.expect(")")
            return q
        sign = 1
        if self.t.peek()[0] == "-":
            self.t.next()
            sign = -1
        num = self.t.expect("int")[1]
        if self.t.peek()[0] == "/":
            self.t.next()
            _, den, pos = self.t.expect("int")
            if int(den) == 0:
                raise ParseError("zero denominator", 1, pos)
            return Fraction(sign * int(num), int(den))
        return Fraction(sign * int(num))

    def _try_complex(self) -> TransSeries | None:
        """Lookahead for '(' rat ('+'|'-') rat 'i' ')'."""
        save = self.t.i
        try:
            self.t.expect("(")
            re_part = self.rat()
            sign_t = self.t.next()
            if sign_t[0] not in ("+", "-"):
                raise ParseError("not a complex literal", 1, sign_t[2])
            im_part = self.rat()
            if sign_t[0] == "-":
                im_part = -im_part
            self.t.expect("i")
            self.t.expect(")")
            return self.const(Exact.of(re_part, im_part))
        except ParseError:
            self.t.i = save
            return None

    def base(self) -> TransSeries:
        kind, val, pos = self.t.peek()
        if kind == "(":
            lit = self._try_complex()
            if lit is not None:
                return lit
            self.t.next()
            out = self.expr()
            self.t.expect(")")
            return out
        if kind == "z":
            self.t.next()
            return monomial(Key(1, (0,) * self.grid.depth), self.grid, self.mode)
        if kind == "ell":
            self.t.next()
            if val > self.grid.depth:
                raise ParseError(
                    f"l{val} exceeds configured depth {self.grid.depth}", 1, pos
                )
            if val == 0:
                raise ParseError("l0 is not a logarithm: indices start at l1", 1, pos)
            return monomial(ell_key(self.grid.depth, val), self.grid, self.mode)
        if kind in ("int", "-"):
            return self.const(self.rat())
        raise ParseError(f"unexpected token {val!r}", 1, pos)
