"""Term-map kernel.

A term map is a dict sending exponent tuples (one int per variable) to
nonzero rational coefficients.  The empty dict is the zero polynomial.
These functions are the arithmetic inner loop of the whole package.

A coefficient is an int when it is integral and a Fraction otherwise, so
the common integral case multiplies and adds as plain ints and builds no
Fraction.  Sums and products keep the contract on their own (int op int
is an int), but they may leave an integral value as a Fraction such as
Fraction(2, 1); that is still a valid coefficient, and since == and hash
agree between 2 and Fraction(2), term maps compare and hash alike either
way.  The one hazard is int / int, which is a float: every division of
coefficients goes through quotient.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple, Union

Term = Tuple[int, ...]
Coefficient = Union[int, Fraction]
TermMap = Dict[Term, Coefficient]

# recorded by benchmarks next to their timings
BACKEND = "python"


def exact(c) -> Coefficient:
    """c as a coefficient: an int when it is integral, else a Fraction.
    Accepts anything Fraction accepts."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def quotient(a: Coefficient, b: Coefficient) -> Coefficient:
    """a / b exactly, as a coefficient; the package's only division of
    coefficients."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def add_into(out: TermMap, b: TermMap) -> None:
    """Add b into out in place."""
    for mono, coeff in b.items():
        acc = out.get(mono)
        if acc is None:
            out[mono] = coeff
        else:
            acc = acc + coeff
            if acc:
                out[mono] = acc
            else:
                del out[mono]


def add_terms(a: TermMap, b: TermMap) -> TermMap:
    out = dict(a)
    add_into(out, b)
    return out


def neg_terms(a: TermMap) -> TermMap:
    return {mono: -coeff for mono, coeff in a.items()}


def scale_terms(a: TermMap, c: Coefficient) -> TermMap:
    """c times a.  A Fraction c = n/d may turn coefficients integral, and
    those come back as ints: an int coefficient k gives k*n // d when d
    divides k*n, else Fraction(k*n, d)."""
    if not c:
        return {}
    if type(c) is int:
        return {mono: coeff * c for mono, coeff in a.items()}
    n, d = c.numerator, c.denominator
    out: TermMap = {}
    for mono, coeff in a.items():
        if type(coeff) is int:
            q, r = divmod(coeff * n, d)
            out[mono] = Fraction(coeff * n, d) if r else q
        else:
            v = coeff * c
            out[mono] = v.numerator if v.denominator == 1 else v
    return out


def mul_terms(a: TermMap, b: TermMap) -> TermMap:
    if len(a) > len(b):
        a, b = b, a
    out: TermMap = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            acc = out.get(mono)
            if acc is None:
                out[mono] = ca * cb
            else:
                acc = acc + ca * cb
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
    return out


def mul_terms_bounded(a: TermMap, b: TermMap, bound: int) -> TermMap:
    """The terms of a*b of total degree at most bound.

    b is scanned in ascending degree, so each term of a stops at the
    first partner that would pass the bound; no pair above it is formed."""
    # (degree, monomial) is unique, so the sort never compares coefficients
    bs = sorted((sum(mb), mb, cb) for mb, cb in b.items())
    out: TermMap = {}
    for ma, ca in a.items():
        room = bound - sum(ma)
        for db, mb, cb in bs:
            if db > room:
                break
            mono = tuple(x + y for x, y in zip(ma, mb))
            acc = out.get(mono)
            if acc is None:
                out[mono] = ca * cb
            else:
                acc = acc + ca * cb
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
    return out


def pow_terms(a: TermMap, k: int, nvars: int) -> TermMap:
    """k-th power by squaring; k = 0 gives the constant 1."""
    if k < 0:
        raise ValueError("negative exponent")
    result: TermMap = {(0,) * nvars: 1}
    base = dict(a)
    while k:
        if k & 1:
            result = mul_terms(result, base)
        k >>= 1
        if k:
            base = mul_terms(base, base)
    return result


def partial_terms(a: TermMap, var: int) -> TermMap:
    out: TermMap = {}
    for mono, coeff in a.items():
        e = mono[var]
        if e:
            lowered = mono[:var] + (e - 1,) + mono[var + 1 :]
            out[lowered] = coeff * e
    return out
