"""Exponent keys: points of Q x Z^k ordered lexicographically.

A key holds the exponent of z together with the integer exponents of the
iterated logarithms l1..lK.  Keys form an ordered commutative monoid under
componentwise addition; the total order is lexicographic on
(z_exp, log_exps[0], ..., log_exps[K-1]).

A z-exponent has one canonical form in both coefficient modes: an `int` when
it is integral, else a `Fraction` with denominator > 1; never a float.  `Key`,
`Cut` and `series.TruncationGrid` put every exponent they are given in that
form.  Float mode means float coefficients only: a float exponent handed in
is made exact once, by `as_zexp`, so exponent sums stay associative.  An
exponent divided by another must stay rational: divide by a `Fraction`
(`compose.shape_of`'s alpha is one) or floor-divide, since int / int is a
float.

A key or cut stores its z-exponent scaled, as zs = z Z for the one module
constant Z = 210^64.  zs is an `int` whenever z's denominator divides Z,
which covers every denominator 2^a 3^b 5^c 7^d with exponents up to 64 (so
the exponents 1 + (beta - 1) alpha^k, k <= 64, of a strongly hyperbolic
alpha = 3/2 or 11/10); for any other denominator zs stays an exact
`Fraction` (z^(13/11) + z^2 has such keys).  The order, equality, hash and arithmetic
of keys run on zs, so on int compares and sums; `.z` gives the canonical
exponent back, derived on first read and cached.  The series kernel groups,
adds and compares on zs and builds its keys with `Key.from_zs`.
"""

from __future__ import annotations

import operator
from fractions import Fraction

Z = 210**64  # the z-scale: zs = z Z is an int for every denominator dividing it

_new = object.__new__  # builds a key or cut from zs without `__init__`


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


def _scaled(x) -> tuple:
    """(z, zs): the canonical exponent of `x` and its scaled form z Z."""
    if type(x) is not int and (type(x) is not Fraction or x.denominator == 1):
        x = as_zexp(x)
    if type(x) is int:
        return x, x * Z
    d = x.denominator
    q, r = divmod(Z, d)
    return x, Fraction(x.numerator * Z, d) if r else x.numerator * q


class _Lex:
    """The lex order, equality and hash of `Key` and `Cut` on their tuple `_t`:
    (zs, l) for a key, (zs,) for a cut, a prefix of every (zs, l), so a cut
    orders below every key at its z.  Either as a frontier f says by
    `block_past(zs, f.zs)` whether every key of scaled z-order zs lies at or
    above f."""

    __slots__ = ("zs", "_z", "_t", "_h")

    @property
    def z(self) -> int | Fraction:
        """The exponent of z in canonical form, zs / Z."""
        z = self._z
        if z is None:
            zs = self.zs
            if type(zs) is int:
                q, r = divmod(zs, Z)
                z = Fraction(zs, Z) if r else q
            else:
                z = zs / Z
            self._z = z
        return z

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
        # A tuple `l` is taken as already normalized (integer entries).
        self._z, self.zs = _scaled(z)
        self.l = l if type(l) is tuple else tuple(map(int, l))
        self._t = (self.zs, self.l)
        self._h = hash(self._t)

    @classmethod
    def from_zs(cls, zs, l=()) -> "Key":
        """The key at scaled z-exponent zs (an int or a `Fraction`) and the
        int tuple l, built with no rational arithmetic when zs is an int."""
        if type(zs) is not int and zs.denominator == 1:
            zs = zs.numerator
        k = _new(cls)
        k.zs, k._z, k.l = zs, None, l
        k._t = t = (zs, l)
        k._h = hash(t)
        return k

    @property
    def depth(self) -> int:
        return len(self.l)

    def pad(self, depth: int) -> "Key":
        """Embed into depth `depth` by zero-padding the log exponents."""
        if len(self.l) == depth:
            return self
        if len(self.l) > depth:
            raise ValueError(f"cannot pad key of depth {len(self.l)} to {depth}")
        return Key.from_zs(self.zs, self.l + (0,) * (depth - len(self.l)))

    def __add__(self, other):
        if isinstance(other, Cut):
            return Cut.from_zs(self.zs + other.zs)
        if len(self.l) != len(other.l):
            raise ValueError("depth mismatch in key addition")
        return Key.from_zs(self.zs + other.zs, tuple(map(operator.add, self.l, other.l)))

    def __sub__(self, other: "Key") -> "Key":
        if len(self.l) != len(other.l):
            raise ValueError("depth mismatch in key subtraction")
        return Key.from_zs(self.zs - other.zs, tuple(map(operator.sub, self.l, other.l)))

    def __neg__(self) -> "Key":
        return Key.from_zs(-self.zs, tuple(-a for a in self.l))

    def scale(self, n: int) -> "Key":
        """n-fold sum of the key (n may be 0)."""
        return Key.from_zs(self.zs * n, tuple(a * n for a in self.l))

    def is_positive(self) -> bool:
        """Strictly above the all-zero key in lex order."""
        return self._t > (0, (0,) * len(self.l))

    def is_zero(self) -> bool:
        return self.zs == 0 and all(n == 0 for n in self.l)

    def __repr__(self):
        return f"Key({self.z!s}, {self.l})"


class Cut(_Lex):
    """The lex-infimum marker (z, -inf, ..., -inf), depth-free: as a truncation
    frontier, every key with z-part >= z lies at or above it."""

    __slots__ = ()
    block_past = operator.ge

    def __init__(self, z):
        self._z, self.zs = _scaled(z)
        self._t = (self.zs,)
        self._h = hash(self._t)

    @classmethod
    def from_zs(cls, zs) -> "Cut":
        """The cut at scaled z-exponent zs (an int or a `Fraction`)."""
        if type(zs) is not int and zs.denominator == 1:
            zs = zs.numerator
        c = _new(cls)
        c.zs, c._z = zs, None
        c._t = t = (zs,)
        c._h = hash(t)
        return c

    def pad(self, depth: int) -> "Cut":
        return self

    def __add__(self, other):
        return Cut.from_zs(self.zs + other.zs)

    def is_positive(self) -> bool:
        return self.zs > 0  # (z, -inf) > 0 iff z > 0

    def __repr__(self):
        return f"Cut({self.z!s})"


def front_zscale(front, q):
    """Image of a frontier under the key map (z, l) -> (q z, l), q rational."""
    if isinstance(front, Cut):
        return Cut.from_zs(front.zs * q)
    return Key.from_zs(front.zs * q, front.l)


def zero_key(depth: int) -> Key:
    return Key(0, (0,) * depth)


def ell_key(depth: int, m: int, power: int = 1) -> Key:
    """Key of l_m^power (1-based m)."""
    if not 1 <= m <= depth:
        raise ValueError(f"log index {m} outside depth {depth}")
    l = [0] * depth
    l[m - 1] = power
    return Key(0, tuple(l))
