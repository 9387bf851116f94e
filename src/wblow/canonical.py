"""Canonical weighted centers of ideals at the origin.

The construction peels one frame entry per level.  At each level the
ideal order e gives the next entry's order, the maximal contact element
gives the frame coordinate, and the ideal for the next level is the sum
over i < e of the restricted derivative levels raised to e!/(e-i).  The
recursion stops at the zero ideal; the exponent of entry i is
d_i = e_i / prod_{j<i} (e_j - 1)!, and the invariant of the ideal is the
exponent tuple with a trailing infinity (plain (0,) for the unit ideal,
(inf,) for the zero ideal).  Tuples of this shape compare correctly under
native lexicographic order.

Restriction commutes with sums and powers, so each derivative level is
restricted to the contact hypersurface before being raised to its large
power.  Three further shortcuts keep the arithmetic feasible: a ring with
one variable only needs the minimal weighted order of the summands; a
ring with two variables whose summand bases are all monomial reduces to
min-plus arithmetic on degree profiles, never materializing the powers;
and before a summand base is raised to its power, and again on the summed
level, generators whose terms are all divisible by monomial generators of
the same list are absorbed.  Absorption leaves the ideal unchanged, and
without it products such as (y^4 + z^4)^6 inside (y, z)^24 make the
derivative tower of the next level grow to thousands of generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .arith import INF, Polynomial
from .center import FrameEntry, WeightedCenter
from .contact import find_maximal_contact, restrict_to_contact
from .ideals import LocalIdeal, absorb_monomial_multiples, derivative_tower

Summand = Tuple[LocalIdeal, int]

_SENTINEL = np.int64(1) << 48

# length cap for the dense min-plus profiles; the convolutions are
# quadratic, so orders beyond this would silently take hours
_PROFILE_LIMIT = 20_000


class ProfileSizeError(ValueError):
    """A two variable level order exceeds the supported profile size."""


class InadmissibleCenterError(RuntimeError):
    """A computed center does not dominate the ideal it was computed for."""


@dataclass(frozen=True)
class CanonicalResult:
    invariant: tuple
    center: Optional[WeightedCenter]
    orders: Tuple[int, ...]


def canonical_center(ideal: LocalIdeal) -> CanonicalResult:
    """Canonical center and invariant of an ideal at the origin."""
    if ideal.is_unit():
        return CanonicalResult((0,), None, ())
    if ideal.is_zero():
        return CanonicalResult((INF,), None, ())
    orders, entries = _resolve_levels([(ideal, 1)], ideal.variables)
    ambient = ideal.variables
    frame = [FrameEntry(var, tail.embed(ambient)) for var, tail in entries]
    exponents: List[Fraction] = []
    prod = 1
    for idx, e in enumerate(orders):
        exponents.append(Fraction(e, prod))
        # the last order can be gigantic; its factorial is never needed
        if idx + 1 < len(orders):
            prod *= math.factorial(e - 1)
    center = WeightedCenter(ambient, frame, exponents)
    if not center.admissible(ideal):
        raise InadmissibleCenterError("canonical center does not dominate %r" % (ideal,))
    return CanonicalResult(tuple(exponents) + (INF,), center, tuple(orders))


def mord(ideal: LocalIdeal) -> tuple:
    """Invariant (multiorder) of the ideal: exponents plus terminal inf."""
    return canonical_center(ideal).invariant


def _resolve_levels(
    summands: Sequence[Summand], variables: Tuple[str, ...]
) -> Tuple[List[int], List[FrameEntry]]:
    """Orders and frame entries for an ideal given as sum of base^k.

    Entries carry tails in the ring of their own level; the caller embeds
    them back into the ambient ring."""
    live = [(b, k) for b, k in summands if not b.is_zero()]
    if not live:
        return [], []
    assert variables, "a nonzero ideal in no variables would be a unit"
    assert all(not b.is_unit() for b, _ in live)
    if len(variables) == 1:
        e = min(k * b.order() for b, k in live)
        entry = FrameEntry(variables[0], Polynomial.zero(variables))
        return [e], [entry]
    if len(variables) == 2 and all(b.is_monomial() for b, _ in live):
        return _monomial_2var_levels(live, variables)
    total = None
    for b, k in live:
        piece = absorb_monomial_multiples(b) ** k
        total = piece if total is None else total + piece
    return _generic_level(absorb_monomial_multiples(total))


def _generic_level(ideal: LocalIdeal) -> Tuple[List[int], List[FrameEntry]]:
    e = ideal.order()
    choice = find_maximal_contact(ideal)
    fact = math.factorial(e)
    subs: List[Summand] = []
    for i, level in enumerate(derivative_tower(ideal, e - 1)):
        subs.append((restrict_to_contact(level, choice), fact // (e - i)))
    sub_vars = tuple(v for v in ideal.variables if v != choice.frame_entry.variable)
    orders, entries = _resolve_levels(subs, sub_vars)
    return [e] + orders, [choice.frame_entry] + entries


def _monomial_2var_levels(
    live: Sequence[Summand], variables: Tuple[str, ...]
) -> Tuple[List[int], List[FrameEntry]]:
    """Both remaining levels of a two variable monomial sum at once.

    The contact variable is the largest-index variable of a minimal
    degree generator.  The last level's order is min over i < e of
    e!/(e-i) times the order of the i-th restricted derivative level;
    those orders come from degree profiles of the bases, raised with
    min-plus convolution, so the e!/(e-i) powers are never expanded."""
    e = min(k * b.order() for b, k in live)
    assert e >= 1
    if e > _PROFILE_LIMIT:
        raise ProfileSizeError(
            "level order %d exceeds the supported profile size %d"
            % (e, _PROFILE_LIMIT)
        )
    support = set()
    for b, k in live:
        if k * b.order() != e:
            continue
        d0 = b.order()
        for g in b.generators:
            mono = g.leading_monomial()
            if sum(mono) == d0:
                support.update(i for i, x in enumerate(mono) if x)
    si = max(support)
    sigma = variables[si]
    other = variables[1 - si]
    jmax = e - 1
    merged = np.full(jmax + 1, _SENTINEL, dtype=np.int64)
    for b, k in live:
        base = np.full(jmax + 1, _SENTINEL, dtype=np.int64)
        for g in b.generators:
            mono = g.leading_monomial()
            j = mono[si]
            if j <= jmax:
                base[j] = min(base[j], sum(mono))
        profile = _minplus_power(base, k, jmax)
        np.minimum(merged, profile, out=merged)
    prefix = np.minimum.accumulate(merged)
    fact = math.factorial(e)
    deepest = None
    for i in range(e):
        if prefix[i] >= _SENTINEL:
            continue
        m_i = int(prefix[i]) - i
        assert m_i >= 1, "a restricted level below the order became a unit"
        cand = (fact // (e - i)) * m_i
        if deepest is None or cand < deepest:
            deepest = cand
    zero2 = Polynomial.zero(variables)
    orders = [e]
    entries = [FrameEntry(sigma, zero2)]
    if deepest is not None:
        orders.append(deepest)
        entries.append(FrameEntry(other, Polynomial.zero((other,))))
    return orders, entries


def _minplus_conv(a: np.ndarray, b: np.ndarray, jmax: int) -> np.ndarray:
    # loop over the side with fewer finite entries
    if np.count_nonzero(a < _SENTINEL) > np.count_nonzero(b < _SENTINEL):
        a, b = b, a
    n = min(jmax + 1, len(a) + len(b) - 1)
    out = np.full(n, _SENTINEL, dtype=np.int64)
    for j in np.flatnonzero(a < _SENTINEL):
        j = int(j)
        if j >= n:
            break
        hi = min(len(b), n - j)
        seg = out[j : j + hi]
        np.minimum(seg, a[j] + b[:hi], out=seg)
    return out


def _minplus_power(base: np.ndarray, k: int, jmax: int) -> np.ndarray:
    result = np.full(jmax + 1, _SENTINEL, dtype=np.int64)
    result[0] = 0
    if k <= 0:
        return result
    sq = base
    e = k
    while e:
        if e & 1:
            result = _minplus_conv(result, sq, jmax)
        e >>= 1
        if e:
            sq = _minplus_conv(sq, sq, jmax)
    padded = np.full(jmax + 1, _SENTINEL, dtype=np.int64)
    padded[: len(result)] = result
    return padded
