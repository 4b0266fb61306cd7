"""Exponent keys: points of Q x Z^k ordered lexicographically.

A key holds the exponent of z together with the integer exponents of the
iterated logarithms l1..lK.  Keys form an ordered commutative monoid under
componentwise addition; the total order is lexicographic on
(z_exp, log_exps[0], ..., log_exps[K-1]).

A z-exponent has one canonical form in both coefficient modes: an `int` when
it is integral, else a `Fraction` with denominator > 1; never a float.  `Key`,
`Cut` and `series.TruncationGrid` put every exponent they are given in that
form, so the integral keys of a series order, hash and add as ints.  The two
types are equal and hash-equal at equal values (2 == Fraction(2)), so dict
lookups, order and printing do not see the difference.  Float mode means
float coefficients only: a float exponent handed in is made exact once, by
`as_zexp`, so exponent sums stay associative.  An exponent divided by
another must stay rational: divide by a `Fraction` (`compose.shape_of`'s
alpha is one) or floor-divide, since int / int is a float.
"""

from __future__ import annotations

import operator
from fractions import Fraction


def as_zexp(x) -> int | Fraction:
    """A z-exponent in canonical form: an `int` if integral, else a `Fraction`.

    Rationals (int, `Fraction`, "p/q" text) convert exactly.  Any other
    number, a float, becomes the fraction of denominator <= 10^6 that rounds
    to it (float(1/3) -> 1/3), or else its exact binary value (1 + sqrt(2)).
    """
    q = x if type(x) is Fraction else Fraction(x)
    if not isinstance(x, (int, Fraction, str)):
        near = q.limit_denominator(10**6)
        if float(near) == x:
            q = near
    return q.numerator if q.denominator == 1 else q


class _Lex:
    """The lex order, equality and hash of `Key` and `Cut` on their tuple `_t`:
    (z, l) for a key, (z,) for a cut, a prefix of every (z, l), so a cut orders
    below every key at its z.  Either as a frontier f says by `block_past(z, f.z)`
    whether every key of z-order z lies at or above f."""

    __slots__ = ("z", "_t", "_h")

    def __eq__(self, other):
        return isinstance(other, _Lex) and self._t == other._t

    def __lt__(self, other):
        return self._t < other._t

    def __le__(self, other):
        return self._t <= other._t

    def __gt__(self, other):
        return self._t > other._t

    def __ge__(self, other):
        return self._t >= other._t

    def __hash__(self):
        return self._h


class Key(_Lex):
    """A point (z_exp, log_exps) of Q x Z^k with lex order; z_exp canonical."""

    __slots__ = ("l",)
    block_past = operator.gt

    def __init__(self, z, l=()):
        # Keys are hashed on every dict access: normalize once, hash once.
        # An int z, or a Fraction z of denominator > 1, is already canonical;
        # a tuple `l` is taken as already normalized (integer entries).
        if type(z) is not int and (type(z) is not Fraction or z.denominator == 1):
            z = as_zexp(z)
        self.z = z
        self.l = l if type(l) is tuple else tuple(map(int, l))
        self._t = (z, self.l)
        self._h = hash(self._t)

    @property
    def depth(self) -> int:
        return len(self.l)

    def pad(self, depth: int) -> "Key":
        """Embed into depth `depth` by zero-padding the log exponents."""
        if len(self.l) == depth:
            return self
        if len(self.l) > depth:
            raise ValueError(f"cannot pad key of depth {len(self.l)} to {depth}")
        return Key(self.z, self.l + (0,) * (depth - len(self.l)))

    def __add__(self, other):
        if isinstance(other, Cut):
            return Cut(self.z + other.z)
        if len(self.l) != len(other.l):
            raise ValueError("depth mismatch in key addition")
        return Key(self.z + other.z, tuple(a + b for a, b in zip(self.l, other.l)))

    def __sub__(self, other: "Key") -> "Key":
        if len(self.l) != len(other.l):
            raise ValueError("depth mismatch in key subtraction")
        return Key(self.z - other.z, tuple(a - b for a, b in zip(self.l, other.l)))

    def __neg__(self) -> "Key":
        return Key(-self.z, tuple(-a for a in self.l))

    def scale(self, n: int) -> "Key":
        """n-fold sum of the key (n may be 0)."""
        return Key(self.z * n, tuple(a * n for a in self.l))

    def is_positive(self) -> bool:
        """Strictly above the all-zero key in lex order."""
        return self._t > (0, (0,) * len(self.l))

    def is_zero(self) -> bool:
        return self.z == 0 and all(n == 0 for n in self.l)

    def __repr__(self):
        return f"Key({self.z!s}, {self.l})"


class Cut(_Lex):
    """The lex-infimum marker (z, -inf, ..., -inf), depth-free: as a truncation
    frontier, every key with z-part >= z lies at or above it."""

    __slots__ = ()
    block_past = operator.ge

    def __init__(self, z):
        if type(z) is not int and (type(z) is not Fraction or z.denominator == 1):
            z = as_zexp(z)
        self.z = z
        self._t = (z,)
        self._h = hash(self._t)

    def pad(self, depth: int) -> "Cut":
        return self

    def __add__(self, other):
        return Cut(self.z + other.z)

    def is_positive(self) -> bool:
        return self.z > 0  # (z, -inf) > 0 iff z > 0

    def __repr__(self):
        return f"Cut({self.z!s})"


def front_zscale(front, q):
    """Image of a frontier under the key map (z, l) -> (q z, l)."""
    if isinstance(front, Cut):
        return Cut(front.z * q)
    return Key(front.z * q, front.l)


def zero_key(depth: int) -> Key:
    return Key(0, (0,) * depth)


def ell_key(depth: int, m: int, power: int = 1) -> Key:
    """Key of l_m^power (1-based m)."""
    if not 1 <= m <= depth:
        raise ValueError(f"log index {m} outside depth {depth}")
    l = [0] * depth
    l[m - 1] = power
    return Key(0, tuple(l))
