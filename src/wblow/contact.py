"""Maximal contact elements for ideals of finite positive order.

For an ideal of order d, the derivative level of order d-1 contains
elements of order one; the first such generator in the canonical list is
the contact candidate.  It is normalized into coordinate graph form
v + tail in three layers:

1. exact graph normalization of the candidate alone (unit factors are
   divided out, nothing else changes);
2. ideal-internal cleaning: subtract polynomial multiples of the other
   generators of the same derivative level so that the candidate keeps a
   single monomial involving its linear variable.  The multipliers come
   from an exact linear solve, so the result stays in the same ideal and
   the construction stays deterministic;
3. if the cleaned element picked up a linear variable of lower index,
   normalization restarts there.  Failing all of that raises
   TriangularizationError carrying the offending polynomial.

Ideals generated by monomials skip the derivative level entirely: the
scan provably picks the largest-index variable occurring in a generator
of minimal degree, so that variable is returned directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Dict, List, Optional, Sequence

from .arith import INF, Polynomial
from .center import FrameEntry, TriangularizationError, graph_normalize
from .ideals import LocalIdeal, derivative_tower


@dataclass(frozen=True)
class ContactChoice:
    """A normalized contact element together with its frame entry.

    source_index is the position of the raw generator the element came
    from: in the scanned derivative level in general, or in the ideal
    itself on the monomial shortcut."""

    element: Polynomial
    frame_entry: FrameEntry
    source_index: int


def find_maximal_contact(ideal: LocalIdeal) -> ContactChoice:
    d = ideal.order()
    if d == 0 or d == INF:
        raise ValueError("maximal contact needs a proper nonzero ideal")
    if ideal.is_monomial():
        return _monomial_contact(ideal, d)
    level = derivative_tower(ideal, d - 1)[-1]
    source = None
    for idx, g in enumerate(level.generators):
        if g.ord_at_origin() == 1:
            source = (idx, g)
            break
    assert source is not None, "an order one level must have an order one generator"
    idx, raw = source
    reducers = [g for j, g in enumerate(level.generators) if j != idx]
    element = _normalize_contact(raw, reducers)
    var = _lowest_linear_variable(element)
    tail = element - Polynomial.variable(element.variables, var)
    return ContactChoice(element, FrameEntry(var, tail), idx)


def restrict_to_contact(ideal: LocalIdeal, choice: ContactChoice) -> LocalIdeal:
    """Restrict an ideal to the contact hypersurface: substitute the
    negated tail for the contact variable and shrink the ring."""
    ent = choice.frame_entry
    return ideal.eliminate(ent.variable, -ent.tail)


def _monomial_contact(ideal: LocalIdeal, d) -> ContactChoice:
    best = None
    for idx, g in enumerate(ideal.generators):
        mono = g.leading_monomial()
        if sum(mono) == d:
            top = max(i for i, e in enumerate(mono) if e)
            if best is None or top > best[0]:
                best = (top, idx)
    assert best is not None
    var = ideal.variables[best[0]]
    element = Polynomial.variable(ideal.variables, var)
    entry = FrameEntry(var, Polynomial.zero(ideal.variables))
    return ContactChoice(element, entry, best[1])


def _lowest_linear_variable(p: Polynomial) -> Optional[str]:
    for v in p.variables:
        if p.linear_coefficient(v):
            return v
    return None


def _normalize_contact(raw: Polynomial, reducers: Sequence[Polynomial]) -> Polynomial:
    t = raw
    for _ in range(len(raw.variables) + 1):
        sigma = _lowest_linear_variable(t)
        if sigma is None:
            raise TriangularizationError("contact candidate has no linear part", raw)
        tail = graph_normalize(t, sigma)
        if tail is not None:
            return Polynomial.variable(t.variables, sigma) + tail
        cleaned = _clean_with_reducers(t, sigma, reducers)
        if cleaned is None:
            raise TriangularizationError(
                "contact candidate is not reducible to a coordinate graph", raw
            )
        if _lowest_linear_variable(cleaned) == sigma:
            c = cleaned.linear_coefficient(sigma)
            return cleaned.scale(1 / c)
        # a lower linear variable appeared; renormalize against it
        t = cleaned
    raise TriangularizationError("contact normalization did not settle", raw)


def _monomials_up_to(nvars: int, bound: int):
    for mono in iter_product(range(bound + 1), repeat=nvars):
        if sum(mono) <= bound:
            yield mono


def _clean_with_reducers(
    t: Polynomial, sigma: str, reducers: Sequence[Polynomial]
) -> Optional[Polynomial]:
    """Solve for multipliers q_r with t - sum q_r * r linear in sigma.

    Every monomial of the combination that involves sigma must vanish,
    except the pure linear one, which must survive."""
    reducers = [r for r in reducers if not r.is_zero()]
    if not reducers:
        return None
    vs = t.variables
    si = vs.index(sigma)
    bound = max(2, t.total_degree())
    qmonos = list(_monomials_up_to(len(vs), bound))
    target = bound + max(r.total_degree() for r in reducers)
    linear = tuple(1 if i == si else 0 for i in range(len(vs)))
    rows_index = [m for m in _monomials_up_to(len(vs), target) if m[si] and m != linear]
    cols = [(ri, qm) for ri in range(len(reducers)) for qm in qmonos]
    matrix = []
    rhs = []
    for target_mono in rows_index:
        row = []
        for ri, qm in cols:
            diff = tuple(a - b for a, b in zip(target_mono, qm))
            if any(x < 0 for x in diff):
                row.append(Fraction(0))
            else:
                row.append(reducers[ri].coefficient(diff))
        matrix.append(row)
        rhs.append(t.coefficient(target_mono))
    solution = solve_linear(matrix, rhs)
    if solution is None:
        return None
    result = t
    for (ri, qm), lam in zip(cols, solution):
        if lam:
            result = result - Polynomial(vs, {qm: lam}) * reducers[ri]
    if not result.linear_coefficient(sigma):
        return None
    if any(mono[si] and mono != linear for mono in result.terms):
        raise TriangularizationError("cleaning left a sigma monomial", t)
    return result


def solve_linear(
    matrix: List[List[Fraction]], rhs: List[Fraction]
) -> Optional[List[Fraction]]:
    """Exact Gauss-Jordan elimination; free variables are set to zero.

    Rows are kept sparse as {column: value} dicts, with the right hand
    side in column ncols.  The pivot of each column is the first row at or
    below the current rank with a nonzero entry there.  Returns None when
    the system is inconsistent."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows: List[Dict[int, Fraction]] = []
    for r, b in zip(matrix, rhs):
        row = {j: v for j, v in enumerate(r) if v}
        if b:
            row[ncols] = b
        rows.append(row)
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if col in rows[i]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        prow = rows[rank] = {j: v / pv for j, v in rows[rank].items()}
        for i, row in enumerate(rows):
            f = row.get(col)
            if i == rank or f is None:
                continue
            for j, b in prow.items():
                v = row.get(j, 0) - f * b
                if v:
                    row[j] = v
                else:
                    del row[j]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    for i in range(rank, len(rows)):
        if ncols in rows[i]:
            return None
    solution = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        solution[col] = rows[i].get(ncols, Fraction(0))
    return solution
