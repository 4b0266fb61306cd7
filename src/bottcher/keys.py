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
`Fraction` (z^(13/11) + z^2 has such keys).  A key is the tuple (zs, l) and
a cut the tuple (zs,), a prefix of every key at its z: tuple order, equality
and hash are the lex ones, on int compares, and a key equals the plain tuple
(zs, l), so no dict mixes keys with other tuples.  `.z` derives the canonical
exponent on each read.  The kernel builds its keys with `Key.from_zs`.
"""

from __future__ import annotations

import operator
from fractions import Fraction

Z = 210**64  # the z-scale: zs = z Z is an int for every denominator dividing it

_new = tuple.__new__  # builds a key or cut from its tuple, unchecked


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


def _scaled(x) -> int | Fraction:
    """zs = z Z for the canonical form z of the exponent `x`."""
    if type(x) is not int and (type(x) is not Fraction or x.denominator == 1):
        x = as_zexp(x)
    if type(x) is int:
        return x * Z
    q, r = divmod(Z, x.denominator)
    return Fraction(x.numerator * Z, x.denominator) if r else x.numerator * q


class Key(tuple):
    """A point (z_exp, log_exps) of Q x Z^k, the tuple (zs, l).  A key or cut f
    says by `block_past(zs, f.zs)` if all keys at zs lie at or above it."""

    __slots__ = ()
    zs = property(operator.itemgetter(0), doc="The scaled z-exponent z Z.")
    l = property(operator.itemgetter(1), doc="The log exponents, an int tuple.")
    block_past = operator.gt

    def __new__(cls, z, l=()):
        # A tuple `l` is taken as already normalized (integer entries).
        return _new(cls, (_scaled(z), l if type(l) is tuple else tuple(map(int, l))))

    def __init__(self, z, l=()):
        """A no-op that the benchmark's tracer (`bench/tracer.py`) wraps to count
        keys.created; it goes with the tracer, in ROADMAP item 5's second slice."""

    @classmethod
    def from_zs(cls, zs, l=()) -> "Key":
        """The key at scaled z-exponent zs (an int or a `Fraction`) and the
        int tuple l, built with no rational arithmetic when zs is an int."""
        if type(zs) is not int and zs.denominator == 1:
            zs = zs.numerator
        return _new(cls, (zs, l))

    @property
    def z(self) -> int | Fraction:
        """The exponent of z in canonical form, zs / Z."""
        q, r = divmod(self[0], Z)  # r != 0 for a `Fraction` zs
        return Fraction(self[0], Z) if r else q

    @property
    def depth(self) -> int:
        return len(self[1])

    def pad(self, depth: int) -> "Key":
        """Embed into depth `depth` by zero-padding the log exponents."""
        zs, l = self
        if len(l) == depth:
            return self
        if len(l) > depth:
            raise ValueError(f"cannot pad key of depth {len(l)} to {depth}")
        return _new(Key, (zs, l + (0,) * (depth - len(l))))

    def __add__(self, other):
        if type(other) is Cut:
            return Cut.from_zs(self[0] + other[0])
        (zs, l), (ozs, ol) = self, other
        if len(l) != len(ol):
            raise ValueError("depth mismatch in key addition")
        return Key.from_zs(zs + ozs, tuple(map(operator.add, l, ol)))

    def __sub__(self, other: "Key") -> "Key":
        (zs, l), (ozs, ol) = self, other
        if len(l) != len(ol):
            raise ValueError("depth mismatch in key subtraction")
        return Key.from_zs(zs - ozs, tuple(map(operator.sub, l, ol)))

    def __neg__(self) -> "Key":
        return _new(Key, (-self[0], tuple(-a for a in self[1])))

    def scale(self, n: int) -> "Key":
        """n-fold sum of the key (n may be 0)."""
        return Key.from_zs(self[0] * n, tuple(a * n for a in self[1]))

    def is_positive(self) -> bool:
        """Strictly above the all-zero key in lex order."""
        return self > (0, (0,) * len(self[1]))

    def is_zero(self) -> bool:
        return self[0] == 0 and all(n == 0 for n in self[1])

    def __repr__(self):
        return f"Key({self.z!s}, {self.l})"


class Cut(tuple):
    """The lex-infimum marker (z, -inf, ..., -inf), depth-free: the tuple (zs,).
    As a truncation frontier, every key with z-part >= z lies at or above it."""

    __slots__ = ()
    zs = Key.zs
    z = Key.z
    block_past = operator.ge

    def __new__(cls, z):
        return _new(cls, (_scaled(z),))

    @classmethod
    def from_zs(cls, zs) -> "Cut":
        """The cut at scaled z-exponent zs (an int or a `Fraction`)."""
        if type(zs) is not int and zs.denominator == 1:
            zs = zs.numerator
        return _new(cls, (zs,))

    def pad(self, depth: int) -> "Cut":
        return self

    def __add__(self, other):
        return Cut.from_zs(self[0] + other[0])

    def is_positive(self) -> bool:
        return self[0] > 0  # (z, -inf) > 0 iff z > 0

    def __repr__(self):
        return f"Cut({self.z!s})"


def front_zscale(front, q):
    """Image of a frontier under the key map (z, l) -> (q z, l), q rational."""
    if type(front) is Cut:
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
