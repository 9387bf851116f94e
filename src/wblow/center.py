"""Weighted centers presented over triangular coordinate frames.

A weighted center is a formal ideal [t1^d1, ..., tk^dk].  Entry i of the
frame supplies the coordinate t_i = v_i + tail_i for an ambient variable
v_i; the tail has no constant term and avoids the frame variables of
positions <= i, so substituting the entries in order rewrites any ambient
polynomial in the frame coordinates.  Tails may use later frame variables
and complement variables.  The exponents d_i are positive rationals,
weakly increasing along the frame.

The center induces a valuation: rewrite a polynomial in the frame, give
the coordinate of entry i weight 1/d_i and complement variables weight
zero, and take the minimal weighted degree of a term.  The rewrite stays
in the center's own ring, where the variable v_i of entry i then stands
for t_i.  With N the least common multiple of the numerators of the d_i,
the weights 1/d_i are w_i/N for the integers w_i = N/d_i, so the minimum
is taken over integers and divided by N once.  N, the w_i and the
integer weight of every ring variable are fixed when the center is
built, and every valuation reads them.  An ideal is admissible
for the center when every generator has valuation at least 1, that is
integer weighted order at least N.

Frame entries come from graph_normalize, which writes a parameter as a
unit times v + tail: a truncated root iteration proposes the tail, and
one synthetic division by v minus the root, bounded in degree, accepts
or rejects it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iter_product
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import kernel
from .arith import INF, Polynomial, VariableMismatchError
from .ideals import LocalIdeal, autoreduce, prune_dominated


class TriangularizationError(ValueError):
    """An element could not be brought to coordinate graph form."""

    def __init__(self, message: str, polynomial: Optional[Polynomial] = None):
        super().__init__(message)
        self.polynomial = polynomial


class FrameEntry(NamedTuple):
    variable: str
    tail: Polynomial


class WeightedCenter:
    __slots__ = ("variables", "entries", "exponents", "weight_lcm", "weights", "_grading")

    def __init__(
        self,
        variables: Sequence[str],
        entries: Sequence[FrameEntry],
        exponents: Sequence[Fraction],
    ):
        vs = tuple(variables)
        ents = tuple(entries)
        exps = tuple(e if isinstance(e, Fraction) else Fraction(e) for e in exponents)
        if not ents:
            raise ValueError("a weighted center needs at least one frame entry")
        if len(ents) != len(exps):
            raise ValueError("entry and exponent counts differ")
        if any(e <= 0 for e in exps):
            raise ValueError("exponents must be positive")
        if any(a > b for a, b in zip(exps, exps[1:])):
            raise ValueError("exponents must be weakly increasing")
        seen: List[str] = []
        for ent in ents:
            if ent.variable not in vs:
                raise ValueError(f"unknown frame variable {ent.variable}")
            if ent.variable in seen:
                raise ValueError(f"repeated frame variable {ent.variable}")
            seen.append(ent.variable)
            if ent.tail.variables != vs:
                raise VariableMismatchError("tail lives in a different ring")
            if ent.tail.constant_term():
                raise ValueError("frame tail has a constant term")
            for used in seen:
                if ent.tail.uses_variable(used):
                    raise ValueError(
                        f"tail of {ent.variable} uses frame variable {used}"
                    )
        n = math.lcm(*(d.numerator for d in exps))
        weights = []
        for d in exps:
            w, r = divmod(n * d.denominator, d.numerator)
            if r:
                raise RuntimeError("weight %d/(%s) is not integral" % (n, d))
            weights.append(w)
        weight = dict(zip(seen, weights))
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "entries", ents)
        object.__setattr__(self, "exponents", exps)
        # N, the smallest integer with N/d_i integral for every exponent
        object.__setattr__(self, "weight_lcm", n)
        # the integer weights w_i = N/d_i, in frame order
        object.__setattr__(self, "weights", tuple(weights))
        # the integer weight of every ring variable: w_i on the variable of
        # entry i, zero on complement variables
        object.__setattr__(self, "_grading", tuple(weight.get(v, 0) for v in vs))

    def __setattr__(self, name, value):
        raise AttributeError("WeightedCenter is immutable")

    # -- presentation -----------------------------------------------------

    def frame_parameter(self, i: int) -> Polynomial:
        ent = self.entries[i]
        return Polynomial.variable(self.variables, ent.variable) + ent.tail

    def parameters(self) -> List[Tuple[Polynomial, Fraction]]:
        return [(self.frame_parameter(i), d) for i, d in enumerate(self.exponents)]

    # -- valuation ----------------------------------------------------------

    def rewrite_in_frame(self, f: Polynomial) -> Polynomial:
        """Express f in frame coordinates, in the center's own ring.

        Each entry with a nonzero tail substitutes v_i -> v_i - tail_i, in
        frame order; afterwards the variable of entry i stands for t_i.
        Tail i avoids the frame variables at positions <= i, so a later
        step never touches an earlier t_i."""
        if f.variables != self.variables:
            raise VariableMismatchError("polynomial lives in a different ring")
        for ent in self.entries:
            if ent.tail:
                image = Polynomial.variable(self.variables, ent.variable) - ent.tail
                f = f.substitute_variable(ent.variable, image)
        return f

    def nu(self, f: Polynomial):
        """Valuation of f: frame coordinate i weighs 1/d_i = w_i/N,
        complement variables weigh zero.  The minimal weighted degree is
        taken with the integer weights w_i and divided by N once, so the
        value is a Fraction; INF on the zero polynomial."""
        order = self.rewrite_in_frame(f).weighted_order(self._grading)
        return INF if order == INF else Fraction(order, self.weight_lcm)

    def admissible(self, ideal: LocalIdeal) -> bool:
        """Whether every element of the ideal has valuation at least 1:
        integer weighted order at least N on every generator."""
        if ideal.variables != self.variables:
            raise VariableMismatchError("ideal lives in a different ring")
        n, grading = self.weight_lcm, self._grading
        return all(
            self.rewrite_in_frame(g).weighted_order(grading) >= n
            for g in ideal.generators
        )

    # -- rounding -------------------------------------------------------------

    def rounding(self) -> List[Polynomial]:
        """Generators of the smallest monomial ideal in the frame
        coordinates that the center dominates: minimal exponent vectors a
        with sum a_i/d_i >= 1, pushed down to the ambient ring and
        autoreduced.  Sorted by degree, then descending lex."""
        boxes = [range(math.ceil(d) + 1) for d in self.exponents]
        hits = [
            a
            for a in iter_product(*boxes)
            if sum((Fraction(ai) / d for ai, d in zip(a, self.exponents)), Fraction(0))
            >= 1
        ]
        ambient = []
        for a in prune_dominated(hits):
            m = Polynomial.constant(self.variables, 1)
            for i, ai in enumerate(a):
                if ai:
                    m = m * self.frame_parameter(i) ** ai
            ambient.append(m)
        reduced = autoreduce(ambient)
        return sorted(reduced, key=_presentation_key)

    def __repr__(self) -> str:
        parts = [
            f"({self.frame_parameter(i)})^{d}" for i, d in enumerate(self.exponents)
        ]
        return "[" + ", ".join(parts) + "]"


def _presentation_key(p: Polynomial) -> tuple:
    lead = p.leading_monomial()
    return (sum(lead), tuple(-e for e in lead))


def format_rational(x) -> str:
    if x == INF:
        return "inf"
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def center_equal(a, b) -> bool:
    """Centers agree when their exponents match and each presentation
    is admissible for the other: every parameter t_i of one side must
    have valuation at least 1/d_i under the other."""
    if tuple(a.exponents) != tuple(b.exponents):
        return False
    return all(
        other.nu(p) >= Fraction(1) / Fraction(d)
        for one, other in ((a, b), (b, a))
        for p, d in one.parameters()
    )


# -- coordinate graphs ------------------------------------------------------


def graph_normalize(p: Polynomial, var: str) -> Optional[Polynomial]:
    """Try to write p as unit * (var + tail) with the tail free of var.

    Returns the tail, or None when the vanishing germ of p at the origin
    is not the graph of a polynomial in the other variables.  When every
    term of p involves var, p = var * u with u(0) = c, the linear
    coefficient, so the tail is zero and is returned at once; this is
    the answer the iteration below reaches from phi = 0.  With q = p/c
    the sum of c_k * var^k, the candidate graph var = phi comes from
    iterating phi -> phi - q(phi), truncated at deg q, until an iterate
    repeats; Horner's rule truncates each product at deg q, forming no
    pair of terms above it, which gives the same iterates because
    phi(0) = 0.  Untruncated, the Horner values
    b_(k-1) = c_k + phi * b_k are the quotient coefficients of synthetic
    division by var - phi, and q(phi) = c_0 + phi * b_0 is its remainder.
    A cofactor u with q = u * (var - phi) has deg u <= deg q - 1, so a
    b_k of degree above deg q - 1 - k already rejects phi, and no product
    grows past twice the degree of q.  Since var - phi is monic in var, q
    vanishes at var = phi exactly when the division is exact, and the
    cofactor is a unit because phi(0) = 0 makes its value at the origin
    the linear coefficient of var in q, which is 1."""
    if p.constant_term():
        return None
    c = p.linear_coefficient(var)
    if not c:
        return None
    vs = p.variables
    i = vs.index(var)
    if all(m[i] for m in p.terms):
        return Polynomial._raw(vs, {})
    q = p.scale(kernel.quotient(1, c))
    bound = q.total_degree()
    # term maps of c_0, ..., c_n
    coeffs: List[kernel.TermMap] = [{} for _ in range(q.degree_in(var) + 1)]
    for m, coeff in q.terms.items():
        coeffs[m[i]][m[:i] + (0,) + m[i + 1 :]] = coeff
    phi: kernel.TermMap = {}
    for _ in range(bound + 1):
        value = coeffs[-1]
        for ck in reversed(coeffs[:-1]):
            value = kernel.mul_terms_bounded(value, phi, bound)
            kernel.add_into(value, ck)
        if not value:
            break
        phi = kernel.add_terms(phi, kernel.neg_terms(value))
    b = coeffs[-1]
    for k in range(len(coeffs) - 2, 0, -1):
        b = kernel.add_terms(coeffs[k], kernel.mul_terms(phi, b))
        if b and max(map(sum, b)) > bound - k:
            return None
    if kernel.add_terms(coeffs[0], kernel.mul_terms(phi, b)):
        return None
    return Polynomial(vs, kernel.neg_terms(phi))
