"""Maximal contact elements for ideals of finite positive order.

For an ideal of order d, the derivative level D^(d-1) contains elements
of order one.  Its order-one generators are tried in canonical order,
and the first that normalizes is the contact element; when none does,
the first failure is raised.  The candidates come from a truncated
tower whose level i keeps only the generators of order <= d - i, which
gives the same polynomials in the same order as the full level
(_order_one_candidates).  Its levels are plain term maps, pruned to one
map per class of scalar multiples, and the polynomials are made and
sorted once, at the end; no ideal is built for them.  The full level
D^(d-1) is built only when a candidate needs cleaning, by a local
function of the call that builds it at most once and keeps nothing past
the call.  A candidate is normalized into coordinate graph form
v + tail, with v its lowest-index linear variable, by one loop:

1. graph normalization (center.graph_normalize): a Newton root
   proposes the graph and one exact division accepts it, dividing out a
   unit factor and changing nothing else;
2. otherwise, ideal-internal cleaning: subtract polynomial multiples of
   the other generators of the full level so that the candidate keeps a
   single monomial involving v, its linear one.  The multipliers come
   from an exact solve (solve_linear, forward elimination and
   back-substitution) of a sparse linear system with one row per
   monomial involving v that actually occurs, so the result stays in
   the same ideal and the construction stays deterministic;
3. the cleaned element goes back to step 1.  Cleaning keeps the linear
   term of v, so the linear variable only moves to lower indices and
   the loop settles within n + 1 rounds.  Failing that raises
   TriangularizationError carrying the offending polynomial.

find_maximal_contact returns the normalized element as the frame entry
(v, tail) of the coordinate t = v + tail.  On an ideal generated by
monomials the scan picks the largest-index variable occurring in a
generator of minimal degree, with tail 0.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import kernel
from .arith import INF, Polynomial
from .center import FrameEntry, TriangularizationError, graph_normalize
from .ideals import LocalIdeal, derivative_tower


def find_maximal_contact(ideal: LocalIdeal) -> FrameEntry:
    d = ideal.order()
    if d == 0 or d == INF:
        raise ValueError("maximal contact needs a proper nonzero ideal")
    full = None

    def level() -> Sequence[Polynomial]:
        nonlocal full
        if full is None:
            full = derivative_tower(ideal, d - 1)[-1].generators
        return full

    first_error = None
    for raw in _order_one_candidates(ideal, d):
        try:
            return _normalize_contact(raw, level)
        except TriangularizationError as exc:
            if first_error is None:
                first_error = exc
    if first_error is None:
        raise RuntimeError("an order one level must have an order one generator")
    raise first_error


def _order_one_candidates(ideal: LocalIdeal, d: int) -> List[Polynomial]:
    """The order-one generators of derivative_tower(ideal, d - 1)[-1], in
    canonical order, from levels that keep only what can lead to them.

    Level i keeps its generators of order <= d - i.  A generator of
    higher order has no order-one descendant, and the canonical pruning
    drops g only for an earlier h with g = c * x^delta * h, delta >= 0,
    so ord h <= ord g: the kept generators of low order, and their order,
    are those of the full level.  Level i has order d - i, so what it
    keeps has order exactly d - i, and the next level keeps the partials
    in the variables that occur in a term of least degree.

    The levels are plain term maps.  All generators of a level have the
    same order, so delta = 0 above: the pruning drops exactly the
    multiples c * h of a kept h, and keeps the least in sort order of
    each class of scalar multiples (_scalar_classes).  The polynomials
    are made and sorted once, at the end.  An ideal of order one is its
    own level D^0, and its generators of order one come back as they
    stand, in the ideal's canonical order."""
    gens = [g for g in ideal.generators if g.ord_at_origin() == d]
    if d == 1:
        return gens
    vs = ideal.variables
    maps = [g.terms for g in gens]
    for top in range(d, 1, -1):
        raw = [
            kernel.partial_terms(m, i)
            for m in maps
            for i in range(len(vs))
            if any(mono[i] for mono in m if sum(mono) == top)
        ]
        maps = _scalar_classes(vs, raw)
    return sorted((Polynomial._raw(vs, m) for m in maps), key=Polynomial.sort_key)


def _scalar_classes(
    vs: Tuple[str, ...], maps: Sequence[kernel.TermMap]
) -> List[kernel.TermMap]:
    """One map of each class of nonzero scalar multiples among nonzero
    term maps, the one least in Polynomial.sort_key.

    Scalar multiples share their support, so identical maps are dropped
    within a support, and the proportionality and sort keys are computed
    only where a support holds more than one map."""
    by_support: Dict[frozenset, List[kernel.TermMap]] = {}
    for m in maps:
        group = by_support.setdefault(frozenset(m), [])
        if m not in group:
            group.append(m)
    kept = []
    for group in by_support.values():
        if len(group) == 1:
            kept += group
            continue
        least: Dict[frozenset, Polynomial] = {}
        for p in (Polynomial._raw(vs, m) for m in group):
            key = p.proportionality_key()
            if key not in least or p.sort_key() < least[key].sort_key():
                least[key] = p
        kept += [p.terms for p in least.values()]
    return kept


def first_candidate(ideal: LocalIdeal) -> Tuple[Polynomial, str]:
    """The first order-one generator of the derivative level D^(d-1) of an
    ideal of order d, in canonical order, with its lowest-index linear
    variable."""
    p = _order_one_candidates(ideal, ideal.order())[0]
    return p, _lowest_linear_variable(p)


def restrict_to_contact(ideal: LocalIdeal, entry: FrameEntry) -> LocalIdeal:
    """Restrict an ideal to the contact hypersurface: substitute the
    negated tail for the contact variable and shrink the ring."""
    return ideal.eliminate(entry.variable, -entry.tail)


def _lowest_linear_variable(p: Polynomial) -> Optional[str]:
    for v in p.variables:
        if p.linear_coefficient(v):
            return v
    return None


def _normalize_contact(
    raw: Polynomial, level: Callable[[], Sequence[Polynomial]]
) -> FrameEntry:
    """Normalize a candidate into the frame entry (sigma, tail) of the
    graph sigma + tail; level() gives the generators of the full
    derivative level, whose others clean it where it is no graph."""
    t = raw
    for _ in range(len(raw.variables) + 1):
        sigma = _lowest_linear_variable(t)
        if sigma is None:
            raise TriangularizationError("contact candidate has no linear part", raw)
        tail = graph_normalize(t, sigma)
        if tail is not None:
            return FrameEntry(sigma, tail)
        t = _clean_with_reducers(t, sigma, [g for g in level() if g != raw])
        if t is None:
            raise TriangularizationError(
                "contact candidate is not reducible to a coordinate graph", raw
            )
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
    except the pure linear one, which must survive.  The unknowns are the
    coefficients of q_r up to degree max(2, deg t); each sigma monomial
    that occurs in t or in some shifted reducer gives one sparse row."""
    reducers = [r for r in reducers if not r.is_zero()]
    if not reducers:
        return None
    vs = t.variables
    si = vs.index(sigma)
    linear = tuple(1 if i == si else 0 for i in range(len(vs)))
    qmonos = list(_monomials_up_to(len(vs), max(2, t.total_degree())))
    cols = [(r, qm) for r in reducers for qm in qmonos]
    ncols = len(cols)
    rows: Dict[tuple, Dict[int, kernel.Coefficient]] = {}
    for j, (r, qm) in enumerate(cols):
        for mono, c in r.terms.items():
            shifted = tuple(a + b for a, b in zip(mono, qm))
            if shifted[si] and shifted != linear:
                rows.setdefault(shifted, {})[j] = c
    for mono, c in t.terms.items():
        if mono[si] and mono != linear:
            rows.setdefault(mono, {})[ncols] = c
    solution = solve_linear(list(rows.values()), ncols)
    if solution is None:
        return None
    result = t
    for (r, qm), lam in zip(cols, solution):
        if lam:
            result = result - Polynomial(vs, {qm: lam}) * r
    if not result.linear_coefficient(sigma):
        return None
    if any(mono[si] and mono != linear for mono in result.terms):
        raise TriangularizationError("cleaning left a sigma monomial", t)
    return result


def solve_linear(
    rows: Sequence[Dict[int, kernel.Coefficient]], ncols: int
) -> Optional[List[kernel.Coefficient]]:
    """Exact forward elimination and back-substitution; free variables
    are set to zero.

    Rows are sparse {column: value} dicts over columns 0..ncols-1, with the
    right hand side in column ncols; the caller's rows are not modified.
    The pivot of each column is the first row at or below the current rank
    with a nonzero entry there, and elimination clears that column only
    in the rows below it; back-substitution then solves the echelon rows
    from the last pivot up.  The pivot columns are fixed by the matrix,
    and with the free variables at zero the solution is the one the
    unique reduced row echelon form gives, so neither the order of the
    rows nor empty rows change it.  Returns None when the system is
    inconsistent."""
    rows = [dict(row) for row in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        if rank == len(rows):
            break
        pivot = None
        for i in range(rank, len(rows)):
            if col in rows[i]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        pv = prow[col]
        for row in rows[rank + 1 :]:
            f = row.get(col)
            if f is None:
                continue
            f = kernel.quotient(f, pv)
            for j, b in prow.items():
                v = row.get(j, 0) - f * b
                if v:
                    row[j] = v
                else:
                    del row[j]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(rows)):
        if ncols in rows[i]:
            return None
    solution = [0] * ncols
    for i in range(rank - 1, -1, -1):
        row, col = rows[i], pivots[i]
        acc = row.get(ncols, 0)
        for j, v in row.items():
            if j != col and j != ncols and solution[j]:
                acc -= v * solution[j]
        solution[col] = kernel.quotient(acc, row[col])
    return solution
