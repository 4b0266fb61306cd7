"""Coefficient arithmetic: exact and floating modes.

Exact coefficients live in Q(i)[log 2, log 3, log 5, ...], polynomials in the
logarithms of primes with complex-rational coefficients.  Substituting
iterated logarithms into z^alpha produces coefficients polynomial in
log(alpha); writing log(p/q) = sum e_p log(p) over the prime factorization
keeps every relation (reciprocals, powers, products of different alphas)
canonical, so zero-testing and equality stay exact.  Coefficients of series
whose computation never takes such a logarithm stay at degree 0, i.e. genuine
complex rationals.

Float coefficients are plain Python complex numbers.  Mixing an exact value
with a float one coerces to float; `evaluate` is self-contained (log p has a
numeric value).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import ModeError

EXACT = "exact"
FLOAT = "float"

# Float-mode coefficients no larger than this count as rounding dust wherever
# a residual is tested for zero (verification and its cross-checks).
FLOAT_TOL = 1e-9

_ZERO = Fraction(0)


def _asfrac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# Trial divisors tried by `_factorize`; a cofactor below the bound's square
# that no divisor splits is prime.
TRIAL_DIVISORS = 1 << 20


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > TRIAL_DIVISORS:
            raise ModeError(
                f"log of a {n.bit_length()}-bit integer with no prime factor up to "
                f"{TRIAL_DIVISORS} is not an exact coefficient; use float mode"
            )
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _mono_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    m = dict(a)
    for p, e in b:
        m[p] = m.get(p, 0) + e
        if m[p] == 0:
            del m[p]
    return tuple(sorted(m.items()))


class Exact:
    """Element of Q(i)[log p: p prime].

    parts maps a monomial — a sorted tuple of (prime, exponent) pairs, () for
    the constant — to its complex-rational coefficient (re, im).
    """

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: dict[tuple, tuple[Fraction, Fraction]]):
        self.parts = {
            k: (re, im) for k, (re, im) in parts.items() if re != 0 or im != 0
        }
        self._hash = None

    @classmethod
    def _nonzero(cls, parts: dict[tuple, tuple[Fraction, Fraction]]) -> "Exact":
        """An Exact over parts already known to hold no (0, 0) entry."""
        e = object.__new__(cls)
        e.parts = parts
        e._hash = None
        return e

    @staticmethod
    def of(re, im=0) -> "Exact":
        return Exact({(): (_asfrac(re), _asfrac(im))})

    @staticmethod
    def log_of_rational(q) -> "Exact":
        """log(q) for a positive rational q, as an integer combination of log p."""
        q = _asfrac(q)
        if q <= 0:
            raise ModeError(f"log({q}) is not a real exact value")
        parts: dict[tuple, tuple[Fraction, Fraction]] = {}
        for p, e in _factorize(q.numerator).items():
            parts[((p, 1),)] = (Fraction(e), _ZERO)
        for p, e in _factorize(q.denominator).items():
            key = ((p, 1),)
            re, im = parts.get(key, (_ZERO, _ZERO))
            parts[key] = (re - e, im)
        return Exact(parts)

    def is_zero(self) -> bool:
        return not self.parts

    def is_rational_complex(self) -> bool:
        return all(k == () for k in self.parts)

    def rational_parts(self) -> tuple[Fraction, Fraction]:
        if not self.is_rational_complex():
            raise ModeError("coefficient carries log symbols; not a plain rational")
        return self.parts.get((), (_ZERO, _ZERO))

    def is_real(self) -> bool:
        return all(im == 0 for _, im in self.parts.values())

    def __add__(self, other: "Exact") -> "Exact":
        if not self.parts:
            return other
        if not other.parts:
            return self
        if len(self.parts) == 1 and len(other.parts) == 1:
            ((k1, (a, b)),) = self.parts.items()
            ((k2, (c, d)),) = other.parts.items()
            if k1 == k2:
                re, im = a + c, b + d
                return Exact._nonzero({k1: (re, im)} if re or im else {})
        parts = dict(self.parts)
        for k, (re, im) in other.parts.items():
            cur = parts.get(k)
            if cur is None:
                parts[k] = (re, im)
            else:
                parts[k] = (cur[0] + re, cur[1] + im if im else cur[1])
        return Exact(parts)

    def __neg__(self) -> "Exact":
        return Exact({k: (-re, -im) for k, (re, im) in self.parts.items()})

    def __sub__(self, other: "Exact") -> "Exact":
        return self + (-other)

    def __mul__(self, other: "Exact") -> "Exact":
        sp, op = self.parts, other.parts
        if len(sp) == 1 and len(op) == 1:
            # Q(i) is a field: a product of nonzero parts is nonzero
            ((k1, (a, b)),) = sp.items()
            ((k2, (c, d)),) = op.items()
            k = _mono_mul(k1, k2) if k1 and k2 else k1 or k2
            if b == 0 and d == 0:
                return Exact._nonzero({k: (a * c, _ZERO)})
            return Exact._nonzero({k: (a * c - b * d, a * d + b * c)})
        # Real parts (im == 0) take one Fraction product, not four.
        parts: dict[tuple, tuple[Fraction, Fraction]] = {}
        for k1, (a, b) in sp.items():
            for k2, (c, d) in op.items():
                k = _mono_mul(k1, k2)
                if b or d:
                    re, im = a * c - b * d, a * d + b * c
                else:
                    re, im = a * c, _ZERO
                cur = parts.get(k)
                if cur is not None:
                    re, im = cur[0] + re, cur[1] + im if im else cur[1]
                parts[k] = (re, im)
        return Exact(parts)

    def scale(self, q) -> "Exact":
        q = _asfrac(q)
        return Exact({k: (re * q, im * q) for k, (re, im) in self.parts.items()})

    def inverse(self) -> "Exact":
        re, im = self.rational_parts()
        n = re * re + im * im
        if n == 0:
            raise ZeroDivisionError("inverse of zero coefficient")
        return Exact({(): (re / n, -im / n)})

    def __eq__(self, other):
        return isinstance(other, Exact) and self.parts == other.parts

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.parts.items()))
        return self._hash

    def evaluate(self) -> complex:
        out = 0j
        for k, (re, im) in self.parts.items():
            c = complex(float(re), float(im))
            for p, e in k:
                c *= math.log(p) ** e
            out += c
        return out

    def __repr__(self):
        return f"Exact({self.parts})"


ONE = Exact.of(1)
MINUS_ONE = Exact.of(-1)


def c_zero(mode: str):
    return Exact({}) if mode == EXACT else 0j


def c_one(mode: str):
    return ONE if mode == EXACT else 1 + 0j


def c_from(value, mode: str):
    """Build a coefficient from int/Fraction/complex/Exact for the given mode."""
    if mode == EXACT:
        if isinstance(value, Exact):
            return value
        if isinstance(value, complex):
            raise ModeError("float complex value in exact mode")
        return Exact.of(value)
    if isinstance(value, Exact):
        return value.evaluate()
    return complex(value)


def c_add(a, b):
    if isinstance(a, Exact) and isinstance(b, Exact):
        return a + b
    return c_to_complex(a) + c_to_complex(b)


def c_mul(a, b):
    if isinstance(a, Exact) and isinstance(b, Exact):
        return a * b
    return c_to_complex(a) * c_to_complex(b)


def c_neg(a):
    return -a if isinstance(a, Exact) else -c_to_complex(a)


def c_scale(a, q):
    """Multiply by a rational scalar."""
    if isinstance(a, Exact):
        return a.scale(q)
    return c_to_complex(a) * float(q)


def c_inv(a):
    if isinstance(a, Exact):
        return a.inverse()
    return 1.0 / c_to_complex(a)


def c_is_zero(a) -> bool:
    return a.is_zero() if isinstance(a, Exact) else a == 0


def c_eq(a, b) -> bool:
    if isinstance(a, Exact) and isinstance(b, Exact):
        return a == b
    return c_to_complex(a) == c_to_complex(b)


def c_to_complex(a) -> complex:
    return a.evaluate() if isinstance(a, Exact) else complex(a)


def log_coeff(a, mode: str):
    """log(a) as a coefficient; exact mode needs a positive rational a."""
    if mode == EXACT:
        re, im = a.rational_parts()
        if im != 0 or re <= 0:
            raise ModeError(f"log({re}+{im}i) is not an exact coefficient; use float mode")
        return Exact.log_of_rational(re)
    return cmath.log(complex(a))


def exp_of_log_exact(c: Exact) -> Exact:
    """e^c when c is an integer combination of log p, i.e. e^c rational."""
    if c.is_zero():
        return ONE
    val = Fraction(1)
    for k, (re, im) in c.parts.items():
        if im != 0 or k == () or len(k) != 1 or k[0][1] != 1 or re.denominator != 1:
            raise ModeError("exponential is not an exact rational; use float mode")
        val *= Fraction(k[0][0]) ** re.numerator
    return Exact.of(val)


def _iroot(m: int, n: int) -> int:
    """floor(m ** (1/n)) for an integer m >= 0, in integer arithmetic only."""
    if m < 2 or n == 1:
        return m
    if n == 2:
        return math.isqrt(m)
    r = 1 << -(-m.bit_length() // n)  # 2^ceil(bits / n) > m ** (1/n)
    while True:  # Newton from above decreases to the floor
        t = ((n - 1) * r + m // r ** (n - 1)) // n
        if t >= r:
            return r
        r = t


def nth_root_fraction(x: Fraction, n: int) -> Fraction | None:
    """Exact n-th root of a positive rational, or None if irrational."""
    if x <= 0:
        return None
    p, q = _iroot(x.numerator, n), _iroot(x.denominator, n)
    if p**n != x.numerator or q**n != x.denominator:
        return None
    return Fraction(p, q)


def c_pow_rational(a, beta):
    """a**beta for rational (or, in float mode, float) beta.

    Exact mode: integer beta always works; fractional beta needs a positive
    rational base with an exact root, else ModeError (retry in float mode).
    """
    if isinstance(a, Exact):
        if isinstance(beta, float):
            raise ModeError("float exponent on an exact coefficient; use float mode")
        beta = _asfrac(beta)
        if beta.denominator == 1:
            n = beta.numerator
            base = a if n >= 0 else a.inverse()
            out = ONE
            n = abs(n)
            while n:  # square and multiply
                if n & 1:
                    out = out * base
                n >>= 1
                if n:
                    base = base * base
            return out
        re, im = a.rational_parts()
        if im != 0 or re <= 0:
            raise ModeError(
                f"{re}+{im}i ** {beta} not exactly representable; use float mode"
            )
        root = nth_root_fraction(re, beta.denominator)
        if root is None:
            raise ModeError(f"{re} ** {beta} not exactly representable; use float mode")
        return Exact.of(root**beta.numerator)
    z = c_to_complex(a)
    if z == 0:
        raise ZeroDivisionError("0 ** negative/fractional power")
    return cmath.exp(float(beta) * cmath.log(z))
