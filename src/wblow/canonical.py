"""Canonical weighted centers of ideals at the origin.

The construction peels one frame entry per level.  At each level the
ideal order e gives the next entry's exponent, the maximal contact
element gives the frame coordinate, and the ideal for the next level is
the sum over i < e of the restricted derivative levels raised to
e!/(e-i).  Each level reports its own exponents, so the exponents of the
next level are divided by (e-1)! on the way back up; the invariant of the
ideal is the exponent tuple with a trailing infinity (plain (0,) for the
unit ideal, (inf,) for the zero ideal).  Tuples of this shape compare
correctly under native lexicographic order.

Restriction commutes with sums and powers, so each derivative level is
restricted to the contact hypersurface before being raised to its large
power.  Three further shortcuts keep the arithmetic feasible: a ring with
one variable only needs the minimal weighted order of the summands; a
ring with two variables whose summand bases are all monomial has both
remaining exponents in closed form over the generators' exponents, never
materializing the powers; and before a summand base is raised to its
power, and again on the summed level, generators whose terms are all
divisible by monomial generators of the same list are absorbed.
Absorption leaves the ideal unchanged, and without it products such as
(y^4 + z^4)^6 inside (y, z)^24 make the derivative tower of the next
level grow to thousands of generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .arith import INF, Polynomial
from .center import FrameEntry, WeightedCenter
from .contact import find_maximal_contact, restrict_to_contact
from .ideals import IdealOrderError, LocalIdeal, absorb_monomial_multiples, derivative_tower

Summand = Tuple[LocalIdeal, int]


class InadmissibleCenterError(RuntimeError):
    """A computed center does not dominate the ideal it was computed for."""


@dataclass(frozen=True)
class CanonicalResult:
    invariant: tuple
    center: Optional[WeightedCenter]


def canonical_center(ideal: LocalIdeal) -> CanonicalResult:
    """Canonical center and invariant of an ideal at the origin."""
    if ideal.is_unit():
        return CanonicalResult((0,), None)
    if ideal.is_zero():
        return CanonicalResult((INF,), None)
    exponents, entries = _resolve_levels([(ideal, 1)], ideal.variables)
    ambient = ideal.variables
    frame = [FrameEntry(var, tail.embed(ambient)) for var, tail in entries]
    center = WeightedCenter(ambient, frame, exponents)
    if not center.admissible(ideal):
        raise InadmissibleCenterError("canonical center does not dominate %r" % (ideal,))
    return CanonicalResult(tuple(exponents) + (INF,), center)


def mord(ideal: LocalIdeal) -> tuple:
    """Invariant (multiorder) of the ideal: exponents plus terminal inf."""
    return canonical_center(ideal).invariant


def _resolve_levels(
    summands: Sequence[Summand], variables: Tuple[str, ...]
) -> Tuple[List[Fraction], List[FrameEntry]]:
    """Exponents and frame entries for an ideal given as sum of base^k.

    Entries carry tails in the ring of their own level; the caller embeds
    them back into the ambient ring."""
    live = [(b, k) for b, k in summands if not b.is_zero()]
    if not live:
        return [], []
    if not variables:
        raise IdealOrderError("a nonzero ideal in no variables would be a unit")
    if any(b.is_unit() for b, _ in live):
        raise IdealOrderError("a summand base is the unit ideal")
    if len(variables) == 1:
        e = min(k * b.order() for b, k in live)
        entry = FrameEntry(variables[0], Polynomial.zero(variables))
        return [Fraction(e)], [entry]
    if len(variables) == 2 and all(b.is_monomial() for b, _ in live):
        return _monomial_2var_levels(live, variables)
    total = None
    for b, k in live:
        piece = absorb_monomial_multiples(b) ** k
        total = piece if total is None else total + piece
    return _generic_level(absorb_monomial_multiples(total))


def _generic_level(ideal: LocalIdeal) -> Tuple[List[Fraction], List[FrameEntry]]:
    e = ideal.order()
    choice = find_maximal_contact(ideal)
    fact = math.factorial(e)
    subs: List[Summand] = []
    for i, level in enumerate(derivative_tower(ideal, e - 1)):
        subs.append((restrict_to_contact(level, choice), fact // (e - i)))
    sub_vars = tuple(v for v in ideal.variables if v != choice.frame_entry.variable)
    sub, entries = _resolve_levels(subs, sub_vars)
    scale = math.factorial(e - 1)
    return [Fraction(e)] + [d / scale for d in sub], [choice.frame_entry] + entries


def _monomial_2var_levels(
    live: Sequence[Summand], variables: Tuple[str, ...]
) -> Tuple[List[Fraction], List[FrameEntry]]:
    """Both remaining levels of a two variable monomial sum at once.

    The contact variable sigma is the largest-index variable of a minimal
    degree generator, and e = min k * ord(b) is the first exponent.  The
    restricted i-th derivative level raised to e!/(e-i) contributes
    e/(e-i) * (|p| - i) to the second exponent for every point p of the
    sum with p_sigma <= i.  Since |p| >= e that is smallest at i = p_sigma,
    giving e * p_o / (e - p_sigma) with o the other variable, and this
    linear-fractional function is smallest over k * NP(b) at a vertex
    k * m.  With no point below e in sigma the next level is zero and
    there is no second entry."""
    e = min(k * b.order() for b, k in live)
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
    second = min(
        (
            Fraction(e * k * mono[1 - si], e - k * mono[si])
            for b, k in live
            for mono in (g.leading_monomial() for g in b.generators)
            if k * mono[si] < e
        ),
        default=None,
    )
    exponents = [Fraction(e)]
    entries = [FrameEntry(sigma, Polynomial.zero(variables))]
    if second is not None:
        exponents.append(second)
        entries.append(FrameEntry(other, Polynomial.zero((other,))))
    return exponents, entries
