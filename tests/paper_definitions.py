"""The paper's order, coefficient ideal and centers, stated by their
definitions.

Nothing in the package computes through them: the package reads orders
off terms, builds levels its own way and takes its frames from maximal
contacts.  The tests use them as independent statements to check the
package against: a center built from parameter polynomials, a center
carried through a change of coordinates, the invariant of an ideal, and
when two points of an exceptional divisor are one point."""

import cmath
import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

from wblow.arith import INF, Polynomial
from wblow.canonical import canonical_center
from wblow.center import FrameEntry, TriangularizationError, WeightedCenter, graph_normalize
from wblow.ideals import IdealOrderError, LocalIdeal, derivative_ideal, derivative_tower


def mord(ideal: LocalIdeal) -> tuple:
    """Invariant (multiorder) of the ideal: exponents plus terminal inf."""
    return canonical_center(ideal).invariant


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


def frame_from_parameters(
    variables: Sequence[str],
    params: Sequence[Tuple[Polynomial, Fraction]],
) -> WeightedCenter:
    """Build a center from parameter polynomials and their exponents.

    Each parameter must define a coordinate graph over a fresh variable:
    the lowest-index candidate that normalizes and whose tail avoids the
    frame variables chosen so far wins."""
    vs = tuple(variables)
    used: List[str] = []
    entries: List[FrameEntry] = []
    for p, _d in params:
        entry = None
        for v in vs:
            if v in used or not p.linear_coefficient(v):
                continue
            tail = graph_normalize(p, v)
            if tail is None:
                continue
            if any(tail.uses_variable(u) for u in used):
                continue
            entry = FrameEntry(v, tail)
            break
        if entry is None:
            raise TriangularizationError(
                "parameter does not define a triangular coordinate", p
            )
        used.append(entry.variable)
        entries.append(entry)
    return WeightedCenter(vs, entries, [Fraction(d) for _, d in params])


class TransportedCenter(NamedTuple):
    """A weighted center carried through an invertible change of
    coordinates, without rebuilding a triangular frame.

    to_base maps each variable of the new ring to its image in the ring
    of the wrapped center, so valuations pull back: nu(f) is the base
    valuation of f after substitution.  from_base goes the other way and
    carries the presentation parameters forward."""

    base: WeightedCenter
    to_base: Dict[str, Polynomial]
    from_base: Dict[str, Polynomial]

    @property
    def exponents(self) -> Tuple[Fraction, ...]:
        return self.base.exponents

    def nu(self, f: Polynomial):
        return self.base.nu(f.substitute(self.to_base))

    def parameters(self) -> List[Tuple[Polynomial, Fraction]]:
        return [
            (p.substitute(self.from_base), d) for p, d in self.base.parameters()
        ]


def same_divisor_point(weights: Sequence[int], p: Sequence, q: Sequence, tol=1e-9) -> bool:
    """Whether p and q name one point of the exceptional divisor of a
    weighted blowup.

    A point is given by its coordinates (t_1, ..., t_n) on the parent's
    frame coordinates and complement variables: chart i of the blowup
    names the point with t_i = 1 and its primed coordinates in the other
    frame places.  weights holds w_k = N/d_k on frame coordinates and 0
    on complement variables.  The divisor is the quotient by C^* acting
    as t_k -> lambda^(w_k) * t_k, so p and q are one point when some
    complex lambda carries p to q.  With i a frame place where p is
    nonzero, lambda is one of the w_i-th roots of q_i / p_i; each is
    tried, in complex floating point with tolerance tol."""
    i = next(k for k, (w, c) in enumerate(zip(weights, p)) if w and c)
    if not q[i]:
        return False
    ratio = complex(q[i]) / complex(p[i])
    w = weights[i]
    for m in range(w):
        lam = cmath.rect(abs(ratio) ** (1 / w), (cmath.phase(ratio) + 2 * math.pi * m) / w)
        if all(
            cmath.isclose(lam**wk * complex(pk), complex(qk), rel_tol=tol, abs_tol=tol)
            for wk, pk, qk in zip(weights, p, q)
        ):
            return True
    return False
