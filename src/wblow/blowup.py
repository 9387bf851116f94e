"""Charts of the weighted blowup attached to a weighted center.

For a center [t1^d1, ..., tk^dk] with weights w_i = N/d_i, chart i
inverts the i-th frame coordinate: t_i becomes s^{w_i} for a fresh
exceptional variable s and every other frame coordinate t_j becomes
t_j' * s^{w_j}, while complement variables stay fixed.  A chart keeps
only this monomial map, as one integer exponent row per parent variable:
the row of t_j is w_j at s and 1 at t_j', the row of t_i is w_i at s,
and the row of a complement variable is its unit vector.  Every pullback
writes a polynomial in frame coordinates
(WeightedCenter.rewrite_in_frame) and then sends each term's exponent
vector e to e * rows, keeping its coefficient.  The map is injective,
since e_i is read back from the exponent of s once the other exponents
are known, so no two terms meet and the pullback is an exact ring map
into the chart ring with no coefficient arithmetic.

The weighted transform of an ideal that is admissible for the center
divides the pullback of every generator by s^N; admissibility makes the
division exact, and InexactDivisionError reports any generator that
fails it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Dict, List, Tuple

from .arith import Polynomial
from .center import WeightedCenter
from .ideals import LocalIdeal


class InexactDivisionError(ArithmeticError):
    """A pullback is not divisible by the expected exceptional power."""


@dataclass(frozen=True, eq=False)
class Chart:
    """One affine chart of a weighted blowup.

    rows holds, for every parent variable read as a frame coordinate or
    complement variable, the exponent vector of its monomial in the
    chart ring; exceptional names the chart variable cutting out the
    divisor."""

    center: WeightedCenter
    index: int
    variables: Tuple[str, ...]
    rows: Tuple[Tuple[int, ...], ...]
    exceptional: str
    renamed: Dict[str, str]

    @property
    def inverted_variable(self) -> str:
        return self.center.entries[self.index].variable

    def pullback(self, f: Polynomial) -> Polynomial:
        """Image of a parent polynomial in the chart ring."""
        cols = tuple(zip(*self.rows))
        terms = {
            tuple([sum(map(mul, mono, col)) for col in cols]): c
            for mono, c in self.center.rewrite_in_frame(f).terms.items()
        }
        return Polynomial._raw(self.variables, terms)


def _fresh(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "'"
    return name


def canonical_blowup(center: WeightedCenter, index: int) -> Chart:
    """Build chart `index` of the weighted blowup of the center."""
    entries = center.entries
    if not 0 <= index < len(entries):
        raise IndexError("chart index out of range")
    parent = center.variables
    weights = center.weights

    frame_pos = {ent.variable: j for j, ent in enumerate(entries)}
    renamed: Dict[str, str] = {}
    taken = set(parent)
    for v in parent:
        j = frame_pos.get(v)
        if j is None or j == index:
            continue
        renamed[v] = _fresh(v + "'", taken)
        taken.add(renamed[v])
    exceptional = _fresh("s", taken)

    chart_vars: List[str] = [exceptional]
    for v in parent:
        j = frame_pos.get(v)
        if j == index:
            continue
        chart_vars.append(renamed.get(v, v))
    variables = tuple(chart_vars)

    rows = []
    for v in parent:
        row = [0] * len(variables)
        j = frame_pos.get(v)
        if j is not None:
            row[0] = weights[j]
        if j != index:
            row[variables.index(renamed.get(v, v))] = 1
        rows.append(tuple(row))

    return Chart(
        center=center,
        index=index,
        variables=variables,
        rows=tuple(rows),
        exceptional=exceptional,
        renamed=renamed,
    )


def divide_exceptional(p: Polynomial, exceptional: str, power: int) -> Polynomial:
    """Exact division by exceptional**power, term by term."""
    if power == 0:
        return p
    idx = p.variables.index(exceptional)
    out = {}
    for mono, c in p.terms.items():
        if mono[idx] < power:
            raise InexactDivisionError(
                f"{p} is not divisible by {exceptional}^{power}"
            )
        out[mono[:idx] + (mono[idx] - power,) + mono[idx + 1 :]] = c
    return Polynomial._raw(p.variables, out)


def weighted_transform(chart: Chart, ideal: LocalIdeal) -> LocalIdeal:
    """Pull the ideal back to the chart and divide by s^N.

    The ideal must be admissible for the chart's center; otherwise some
    generator pulls back with exceptional order below N and the division
    raises InexactDivisionError."""
    if ideal.variables != chart.center.variables:
        raise ValueError("ideal lives in a different ring than the center")
    gens = [
        divide_exceptional(chart.pullback(g), chart.exceptional, chart.center.weight_lcm)
        for g in ideal.generators
    ]
    return LocalIdeal(chart.variables, gens)


def strict_transform_hypersurface(
    chart: Chart, p: Polynomial
) -> Tuple[Polynomial, int]:
    """Pull back a hypersurface and remove all exceptional factors.

    Returns the strict transform together with the multiplicity of the
    exceptional divisor in the pullback."""
    if p.variables != chart.center.variables:
        raise ValueError("polynomial lives in a different ring than the center")
    if p.is_zero():
        raise ValueError("the zero polynomial has no strict transform")
    pulled = chart.pullback(p)
    idx = pulled.variables.index(chart.exceptional)
    mult = min(mono[idx] for mono in pulled.terms)
    return divide_exceptional(pulled, chart.exceptional, mult), mult


def all_charts(center: WeightedCenter) -> List[Chart]:
    return [canonical_blowup(center, i) for i in range(len(center.entries))]
