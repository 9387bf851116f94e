"""Term-map kernel.

A term map is a dict sending exponent tuples (one int per variable) to
nonzero Fraction coefficients.  The empty dict is the zero polynomial.
These functions are the arithmetic inner loop of the whole package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

Term = Tuple[int, ...]
TermMap = Dict[Term, Fraction]

# recorded by benchmarks next to their timings
BACKEND = "python"


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


def scale_terms(a: TermMap, c: Fraction) -> TermMap:
    if not c:
        return {}
    return {mono: coeff * c for mono, coeff in a.items()}


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
    result: TermMap = {(0,) * nvars: Fraction(1)}
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
