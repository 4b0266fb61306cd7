"""Canonical text form: terms lex-ascending, rationals as p/q.

This is the golden-file format: `parse(format_series(f))` reproduces f for
exact series whose coefficients are plain complex rationals.  Coefficients
that carry logarithms of primes print them as `log(p)` factors, which the
parser does not read (they only occur in machine-generated output; use JSON
for round-trips).
"""

from __future__ import annotations

from .coeffs import Exact


def format_coeff(c) -> str:
    """Text of a coefficient: a real rational or float with its sign, others in parentheses."""
    if isinstance(c, Exact):
        if c.is_rational_complex():
            re, im = c.rational_parts()
            if im == 0:
                return str(re)
            if re == 0 and im == 1:
                return "(0+1i)"
            sign = "+" if im >= 0 else "-"
            return f"({re}{sign}{abs(im)}i)"
        monos = []
        for k in sorted(c.parts):
            re, im = c.parts[k]
            base = str(re) if im == 0 else f"({re}+{im}i)"
            if k == ():
                monos.append(base)
            else:
                sym = "*".join(
                    f"log({p})" if e == 1 else f"log({p})^{e}" for p, e in k
                )
                monos.append(f"{base}*{sym}")
        return "(" + " + ".join(monos) + ")"
    if isinstance(c, complex):
        if c.imag == 0:
            return repr(c.real)
        return f"({c.real!r}+{c.imag!r}i)"
    return str(c)


def format_monomial(key) -> str:
    parts = []
    if key.z != 0:
        if key.z == 1:
            parts.append("z")
        else:
            zs = str(key.z)
            parts.append(f"z^{zs}" if "/" not in zs else f"z^({zs})")
    for j, n in enumerate(key.l, start=1):
        if n == 0:
            continue
        parts.append(f"l{j}" if n == 1 else f"l{j}^{n}")
    return "*".join(parts)


def format_series(f) -> str:
    if not f.terms:
        return "0"
    out = []
    for key, c in f.sorted_terms():
        ctxt = format_coeff(c)
        mono = format_monomial(key)
        if mono:
            if ctxt == "1":
                txt = mono
            elif ctxt == "-1":
                txt = "-" + mono
            else:
                txt = f"{ctxt}*{mono}"
        else:
            txt = ctxt
        out.append(txt)
    text = out[0]
    for t in out[1:]:
        if t.startswith("-"):
            text += " - " + t[1:]
        else:
            text += " + " + t
    return text
