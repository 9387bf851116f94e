"""Finitely generated ideals of Q[x1..xn], studied locally at the origin.

A LocalIdeal keeps a canonical generator list: zero generators removed,
duplicates and coefficient-times-monomial multiples of earlier generators
pruned, remaining generators sorted by graded lex leading monomial and then
by full term sequence.  The ascending scan makes the pruning complete
because any multiple c * x^delta * h has a leading monomial at least as
large as the one of h.

The pruning is one dict lookup per generator.  Polynomials g and h have
the same proportionality key exactly when g = c * x^delta * h for some
c in Q^x and delta in Z^n; g is then a multiple with delta >= 0 exactly
when lead(h) divides lead(g).  So the scan keeps, per key, the leading
monomials of the generators kept so far, and drops g when one of them
divides lead(g).  Only one-term generators, which all share a key, meet
more than a few candidates.

The derivative operations adjoin first order partials, with their
scalars as produced, so derivative lists show factors like 2*x; the
maximal contact search and the generic levels of the center construction
take their derivative towers from them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from . import kernel
from .arith import INF, Polynomial, VariableMismatchError, grlex_key

Mono = Tuple[int, ...]


class IdealOrderError(ValueError):
    """Raised when a construction needs a finite positive order."""


def _drop_term_multiples(polys: List[Polynomial]) -> List[Polynomial]:
    # polys sorted ascending; keeps g unless an earlier kept generator with
    # the same proportionality key has a leading monomial dividing lead(g)
    kept: List[Polynomial] = []
    leads: Dict[frozenset, List[Mono]] = {}
    for g in polys:
        lead = g.leading_monomial()
        key = g.proportionality_key()
        bucket = leads.get(key)
        if bucket is None:
            leads[key] = [lead]
        elif any(all(a >= b for a, b in zip(lead, h)) for h in bucket):
            continue
        else:
            bucket.append(lead)
        kept.append(g)
    return kept


class LocalIdeal:
    __slots__ = ("variables", "generators", "_order")

    def __init__(self, variables: Sequence[str], generators: Iterable[Polynomial]):
        vs = tuple(variables)
        polys = []
        for g in generators:
            if g.variables != vs:
                raise VariableMismatchError("generator lives in a different ring")
            if not g.is_zero():
                polys.append(g)
        if len(polys) > 1:
            polys.sort(key=Polynomial.sort_key)
            polys = _drop_term_multiples(polys)
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "generators", tuple(polys))

    def __setattr__(self, name, value):
        raise AttributeError("LocalIdeal is immutable")

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "LocalIdeal":
        return cls(variables, [])

    @classmethod
    def unit(cls, variables: Sequence[str]) -> "LocalIdeal":
        return cls(variables, [Polynomial.constant(variables, 1)])

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return any(g.constant_term() for g in self.generators)

    def is_monomial(self) -> bool:
        return all(len(g.terms) == 1 for g in self.generators)

    def order(self):
        """Order of vanishing at the origin; INF for the zero ideal.
        Computed on first use and kept, as the ideal is immutable."""
        cached = getattr(self, "_order", None)
        if cached is None:
            cached = min((g.ord_at_origin() for g in self.generators), default=INF)
            object.__setattr__(self, "_order", cached)
        return cached

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "LocalIdeal") -> "LocalIdeal":
        if self.variables != other.variables:
            raise VariableMismatchError("ideal sum across different rings")
        return LocalIdeal(self.variables, self.generators + other.generators)

    def __mul__(self, other: "LocalIdeal") -> "LocalIdeal":
        if self.variables != other.variables:
            raise VariableMismatchError("ideal product across different rings")
        gens = [a * b for a in self.generators for b in other.generators]
        return LocalIdeal(self.variables, gens)

    def __pow__(self, k: int) -> "LocalIdeal":
        if k < 0:
            raise ValueError("negative ideal power")
        if k == 0:
            return LocalIdeal.unit(self.variables)
        if self.is_monomial():
            monos = monomial_power([g.leading_monomial() for g in self.generators], k)
            return LocalIdeal(self.variables, [Polynomial(self.variables, {m: 1}) for m in monos])
        result = None
        base = self
        e = k
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- ring maps ---------------------------------------------------------

    def eliminate(self, name: str, image: Polynomial) -> "LocalIdeal":
        """Substitute image for one variable and remove it from the ring.

        The image must not involve the eliminated variable."""
        if image.uses_variable(name):
            raise ValueError("image of eliminated variable uses that variable")
        gens = [g.substitute_variable(name, image).drop_variable(name) for g in self.generators]
        vs = tuple(v for v in self.variables if v != name)
        return LocalIdeal(vs, gens)

    def translate(self, point: Sequence[kernel.Coefficient]) -> "LocalIdeal":
        """Move the point to the origin: each generator g becomes g(x + point).
        At the origin itself the ideal is returned as it is."""
        if len(point) != len(self.variables):
            raise ValueError("point arity does not match variables")
        if not any(point):
            return self
        return LocalIdeal(self.variables, [g.translate(point) for g in self.generators])

    # -- plumbing ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        # canonical generator list equality, not ideal equality
        if not isinstance(other, LocalIdeal):
            return NotImplemented
        return self.variables == other.variables and self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.variables, self.generators))

    def __repr__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


# -- monomial ideals ---------------------------------------------------------


def prune_dominated(monos: List[Mono]) -> List[Mono]:
    """Minimal exponents under componentwise <= (the divisibility order)."""
    kept: List[Mono] = []
    for m in sorted(set(monos)):
        if not any(all(a >= b for a, b in zip(m, h)) for h in kept):
            kept.append(m)
    return kept


def minkowski_sum(a: List[Mono], b: List[Mono]) -> List[Mono]:
    sums = {tuple(x + y for x, y in zip(ma, mb)) for ma in a for mb in b}
    return prune_dominated(list(sums))


def monomial_power(monos: List[Mono], k: int) -> List[Mono]:
    if k < 0:
        raise ValueError("negative power")
    if not monos:
        return [] if k else [(0,) * 0]
    n = len(monos[0])
    result = [(0,) * n]
    base = prune_dominated(monos)
    e = k
    while e:
        if e & 1:
            result = minkowski_sum(result, base)
        e >>= 1
        if e:
            base = minkowski_sum(base, base)
    return result


# -- derivative levels ----------------------------------------------------------


def derivative_ideal(ideal: LocalIdeal) -> LocalIdeal:
    """Adjoin all first order partial derivatives of the generators."""
    gens = list(ideal.generators)
    for g in ideal.generators:
        for v in ideal.variables:
            gens.append(g.partial(v))
    return LocalIdeal(ideal.variables, gens)


def derivative_tower(ideal: LocalIdeal, depth: int) -> List[LocalIdeal]:
    """Levels [D^0, ..., D^depth] where each step adjoins first partials."""
    levels = [ideal]
    for _ in range(depth):
        levels.append(derivative_ideal(levels[-1]))
    return levels


# -- division utilities ------------------------------------------------------------


def divide_remainder(f: Polynomial, divisors: Sequence[Polynomial]) -> Polynomial:
    """Remainder of multivariate division by graded lex leading terms.

    A zero remainder certifies membership in the ideal of the divisors;
    a nonzero remainder proves nothing."""
    leads = [(g.leading_monomial(), g) for g in divisors if not g.is_zero()]
    work: kernel.TermMap = dict(f.terms)
    remainder: kernel.TermMap = {}
    while work:
        m = max(work, key=grlex_key)
        c = work.pop(m)
        hit = None
        for lead, g in leads:
            if all(a >= b for a, b in zip(m, lead)):
                hit = (lead, g)
                break
        if hit is None:
            remainder[m] = c
            continue
        lead, g = hit
        delta = tuple(a - b for a, b in zip(m, lead))
        scale = kernel.quotient(c, g.terms[lead])
        for gm, gc in g.terms.items():
            if gm == lead:
                continue
            sm = tuple(a + b for a, b in zip(gm, delta))
            cur = work.get(sm)
            val = (cur if cur is not None else 0) - scale * gc
            if val:
                work[sm] = val
            elif cur is not None:
                del work[sm]
    return Polynomial(f.variables, remainder)


def autoreduce(gens: Sequence[Polynomial]) -> List[Polynomial]:
    """Reduce every generator against the others until nothing changes.

    Preserves the generated ideal; terminates because each rewrite step
    trades a term for strictly smaller ones in graded lex order.  Results
    are scaled monic so repeated reductions cannot leak stray factors."""
    current = [g for g in gens if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        for i in range(len(current)):
            others = current[:i] + current[i + 1 :]
            r = divide_remainder(current[i], others)
            if r != current[i]:
                changed = True
                if r.is_zero():
                    current.pop(i)
                else:
                    current[i] = r
                break
    monic = [g.scale(kernel.quotient(1, g.terms[g.leading_monomial()])) for g in current]
    return sorted(monic, key=Polynomial.sort_key)
