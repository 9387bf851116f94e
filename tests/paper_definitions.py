"""The paper's order and coefficient ideal, stated by their definitions.

Nothing in the package computes through them: the package reads orders
off terms and builds levels its own way.  The tests use them as
independent statements to check the package against."""

import math

from wblow.arith import INF
from wblow.ideals import IdealOrderError, LocalIdeal, derivative_ideal, derivative_tower


def max_total_degree(ideal: LocalIdeal) -> int:
    return max((g.total_degree() for g in ideal.generators), default=0)


def ord_via_derivations(ideal: LocalIdeal):
    """Smallest number of derivative steps reaching the unit ideal.

    Agrees with LocalIdeal.order over Q; the order notion that the center
    construction is phrased in."""
    if ideal.is_zero():
        return INF
    bound = 1 + max_total_degree(ideal)
    cur, d = ideal, 0
    while not cur.is_unit():
        cur = derivative_ideal(cur)
        d += 1
        if d > bound:
            raise RuntimeError("derivative tower failed to reach the unit ideal")
    return d


def coefficient_ideal(ideal: LocalIdeal) -> LocalIdeal:
    """Sum over i < d of (D^i levels) raised to d!/(d-i), with d = order.

    Needs 0 < d < infinity; homogenizes the derivative levels to a common
    weight so the result scales correctly under further restrictions."""
    d = ideal.order()
    if d == INF:
        raise IdealOrderError("coefficient ideal of the zero ideal")
    if d == 0:
        raise IdealOrderError("coefficient ideal of the unit ideal")
    fact = math.factorial(d)
    total = None
    for i, level in enumerate(derivative_tower(ideal, d - 1)):
        piece = level ** (fact // (d - i))
        total = piece if total is None else total + piece
    return total
