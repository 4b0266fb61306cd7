"""Coefficient arithmetic: exact and floating modes.

Exact coefficients live in Q(i)[log 2, log 3, log 5, ...], polynomials in the
logarithms of primes with complex-rational coefficients.  Substituting
iterated logarithms into z^alpha produces coefficients polynomial in
log(alpha); writing log(p/q) = sum e_p log(p) over the prime factorization
keeps every relation (reciprocals, powers, products of different alphas)
canonical, so zero-testing and equality stay exact.  Coefficients of series
whose computation never takes such a logarithm stay at degree 0, i.e. genuine
complex rationals.  Most are real rationals, and an `Exact` holds each of
those in one canonical form, coprime ints n / d with d > 0 (zero is 0 / 1),
with the integer arithmetic of `fractions.Fraction`; only a value with a
nonzero imaginary part or a log p monomial keeps a parts dict.  A float or
complex never enters exact mode (ModeError).

Float coefficients are plain Python complex numbers.  Both kinds take
Python's operators (`a + b`, `a * b`, `c * q` and `q * c` for a rational q,
`-c`, `1 / c`, `not c`, `a == b`, `complex(c)`), which do not mix modes: only
`c_from`, `series.embed` and `series._common` coerce between them.  Every
other choice that differs between the modes is a function of the mode here,
and each float tolerance is stated once.  `evaluate` is self-contained.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import ModeError

EXACT = "exact"
FLOAT = "float"

# The float tolerances: of rounding dust (`c_significant`, `dust_rule`) and of
# realness (`c_is_real`).
FLOAT_TOL = 1e-9
REAL_TOL = 1e-12

_ZERO = Fraction(0)


def _asfrac(x) -> Fraction:
    if isinstance(x, (float, complex)):
        raise ModeError(f"float value {x!r} in exact mode")
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

    A real rational value is held as coprime ints `_n / _d` with `_d > 0`
    (zero is 0 / 1) and takes integer arithmetic.  Any other value is held in
    `_parts`, which maps a monomial — a sorted tuple of (prime, exponent)
    pairs, () for the constant — to its nonzero complex-rational coefficient
    (re, im).  Every constructor lands in this one form, so `==` and `hash`
    compare values.
    """

    __slots__ = ("_n", "_d", "_parts")

    def __init__(self, parts: dict[tuple, tuple[Fraction, Fraction]]):
        parts = {k: (re, im) for k, (re, im) in parts.items() if re != 0 or im != 0}
        re, im = parts.get((), (0, 0))
        if im == 0 and all(k == () for k in parts):
            self._n, self._d, self._parts = re.numerator, re.denominator, None
        else:
            self._parts = parts

    @property
    def parts(self) -> dict[tuple, tuple[Fraction, Fraction]]:
        if self._parts is not None:
            return self._parts
        return {(): (Fraction(self._n, self._d), _ZERO)} if self._n else {}

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
        return not self

    def is_rational_complex(self) -> bool:
        return all(k == () for k in self.parts)

    def rational_parts(self) -> tuple[Fraction, Fraction]:
        if not self.is_rational_complex():
            raise ModeError("coefficient carries log symbols; not a plain rational")
        return self.parts.get((), (_ZERO, _ZERO))

    def is_real(self) -> bool:
        return all(im == 0 for _, im in self.parts.values())

    def __add__(self, other: "Exact") -> "Exact":
        if self._parts is None and other._parts is None:
            return _add(self._n, self._d, other._n, other._d)
        parts = dict(self.parts)
        for k, (re, im) in other.parts.items():
            cur = parts.get(k)
            if cur is None:
                parts[k] = (re, im)
            else:
                parts[k] = (cur[0] + re, cur[1] + im if im else cur[1])
        return Exact(parts)

    def __neg__(self) -> "Exact":
        if self._parts is None:
            return _real(-self._n, self._d)
        return Exact({k: (-re, -im) for k, (re, im) in self._parts.items()})

    def __sub__(self, other: "Exact") -> "Exact":
        return self + (-other)

    def __bool__(self) -> bool:
        return self._parts is not None or self._n != 0

    def __mul__(self, other) -> "Exact":
        if not isinstance(other, Exact):
            return self.scale(other)
        if self._parts is None and other._parts is None:
            return _mul(self._n, self._d, other._n, other._d)
        # Real parts (im == 0) take one Fraction product, not four.
        parts: dict[tuple, tuple[Fraction, Fraction]] = {}
        for k1, (a, b) in self.parts.items():
            for k2, (c, d) in other.parts.items():
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

    def __rmul__(self, q) -> "Exact":
        return self.scale(q)

    def scale(self, q) -> "Exact":
        if self._parts is None and isinstance(q, (int, Fraction)):
            return _mul(self._n, self._d, q.numerator, q.denominator)
        q = _asfrac(q)
        return Exact({k: (re * q, im * q) for k, (re, im) in self.parts.items()})

    def scale_ratio(self, n: int, d: int) -> "Exact":
        """self * n / d for ints n and d > 0, with no `Fraction` for a real rational self."""
        if self._parts is None:
            g = math.gcd(n, d)
            return _mul(self._n, self._d, n // g, d // g)
        return self.scale(Fraction(n, d))

    def inverse(self) -> "Exact":
        if self._parts is None:
            n, d = self._n, self._d
            if n == 0:
                raise ZeroDivisionError("inverse of zero coefficient")
            return _real(d, n) if n > 0 else _real(-d, -n)
        re, im = self.rational_parts()
        n = re * re + im * im
        return Exact({(): (re / n, -im / n)})

    def __rtruediv__(self, q) -> "Exact":
        return self.inverse().scale(q)

    def __eq__(self, other):
        if not isinstance(other, Exact):
            return False
        if self._parts is None:
            return other._parts is None and self._n == other._n and self._d == other._d
        return self._parts == other._parts

    def __hash__(self):
        if self._parts is None:
            return hash((self._n, self._d))
        return hash(frozenset(self._parts.items()))

    def evaluate(self) -> complex:
        if self._parts is None:
            return complex(self._n / self._d)
        out = 0j
        for k, (re, im) in self._parts.items():
            c = complex(float(re), float(im))
            for p, e in k:
                c *= math.log(p) ** e
            out += c
        return out

    __complex__ = evaluate

    def __repr__(self):
        return f"Exact({self.parts})"


# Real rationals by Knuth's gcd split (TAOCP 2, 4.5.1), as in `Fraction._add`
# and `Fraction._mul`: the same reduced results for the same big-int work.


def _real(n: int, d: int) -> Exact:
    """n / d for coprime ints n and d > 0."""
    e = object.__new__(Exact)
    e._n, e._d, e._parts = n, d, None
    return e


def _add(na: int, da: int, nb: int, db: int) -> Exact:
    g = math.gcd(da, db)
    if g == 1:
        return _real(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return _real(t, s * db)
    return _real(t // g2, s * (db // g2))


def _mul(na: int, da: int, nb: int, db: int) -> Exact:
    g1 = math.gcd(na, db)
    if g1 > 1:
        na, db = na // g1, db // g1
    g2 = math.gcd(nb, da)
    if g2 > 1:
        nb, da = nb // g2, da // g2
    return _real(na * nb, da * db)


ONE = Exact.of(1)


def c_zero(mode: str):
    return _real(0, 1) if mode == EXACT else 0j


def c_one(mode: str):
    return ONE if mode == EXACT else 1 + 0j


def c_from(value, mode: str):
    """Build a coefficient from int/Fraction/complex/Exact for the given mode;
    exact mode refuses a float or complex (ModeError)."""
    if mode == EXACT:
        return value if isinstance(value, Exact) else Exact.of(value)
    if isinstance(value, Exact):
        return value.evaluate()
    return complex(value)


def c_to_complex(a) -> complex:
    return complex(a)


def join_modes(a: str, b: str) -> str:
    """The mode two operands meet in: float if either is float."""
    return FLOAT if FLOAT in (a, b) else EXACT


def c_significant(c, mode: str) -> bool:
    """Whether a stored residual coefficient counts as nonzero: always in exact
    mode, when |c| > FLOAT_TOL in float mode."""
    return mode != FLOAT or abs(c) > FLOAT_TOL


def c_is_real(c, mode: str) -> bool:
    """Whether c is real: exactly in exact mode, up to REAL_TOL in float mode."""
    return c.is_real() if mode == EXACT else abs(complex(c).imag) <= REAL_TOL


def ratio_scaler(mode: str):
    """(c, n, d) -> c * n / d for ints n and d > 0: `Exact.scale_ratio` in
    exact mode, c times the correctly rounded float n / d in float mode."""
    return Exact.scale_ratio if mode == EXACT else _times_ratio


def _times_ratio(c, n: int, d: int):
    return c * (n / d)


def dust_rule(mode: str):
    """None in exact mode (only 0 is zero), else the test (acc, parts) that
    calls the float sum acc of `parts` rounding dust."""
    return None if mode == EXACT else _float_dust


def _float_dust(acc, parts) -> bool:
    return abs(acc) <= FLOAT_TOL * sum(map(abs, parts))


def log_coeff(a, mode: str):
    """log(a) as a coefficient; exact mode needs a positive rational a."""
    if mode == EXACT:
        re, im = a.rational_parts()
        if im != 0 or re <= 0:
            raise ModeError(f"log({re}+{im}i) is not an exact coefficient; use float mode")
        return Exact.log_of_rational(re)
    return cmath.log(complex(a))


def log_inverse(q, mode: str):
    """log(1 / q) for a positive rational q: exact, or the float -log(q)."""
    if mode == EXACT:
        return Exact.log_of_rational(1 / _asfrac(q))
    return complex(-math.log(float(q)))


def exp_coeff(c, mode: str):
    """e^c as a coefficient; exact mode needs e^c rational (c = sum e_p log p)."""
    if mode != EXACT:
        return cmath.exp(complex(c))
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
    """a**beta for rational beta.

    Exact mode: integer beta always works; fractional beta needs a positive
    rational base with an exact root, else ModeError (retry in float mode).
    """
    if isinstance(a, Exact):
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
    z = complex(a)
    if z == 0:
        raise ZeroDivisionError("0 ** negative/fractional power")
    return cmath.exp(float(beta) * cmath.log(z))
