"""Exact sparse polynomial arithmetic over Q.

A Polynomial is a variable list plus a term map {exponent tuple:
coefficient}.  A coefficient is an int when it is integral and a Fraction
otherwise (see kernel): construction, parsing, scaling and translation
store integral values as ints, while sums and products may leave one as
a Fraction, which compares and hashes like the int.  A caller that
divides coefficients uses kernel.quotient or a Fraction operand, never
int / int.  Zero coefficients are never stored; the zero polynomial has
an empty map.
Monomials are plain exponent tuples whose length equals the number of
variables.  The canonical term order is graded lexicographic: compare
total degree first, then the exponent tuple.  Printing lists terms by
ascending degree and descending lex inside a degree, which matches the
text grammar accepted by parse_polynomial:

    poly   := [sign] term (sign term)*
    term   := factor ('*' factor)*
    factor := integer ['/' positive-integer] | variable ['^' positive-integer]

Whitespace is insignificant.  Example: x^2 + 1/2*x*y^2.

Polynomials are immutable: no operation changes a term map after the
polynomial holding it was built.  Leading data depends on that rule.
`leading_monomial()` is computed on first use and kept on the
polynomial; construction does not store it and costs what it did without
it.  `sort_key()` and `proportionality_key()` are computed on every call:
a polynomial's key is seldom asked for twice, and a kept key would stay
on every generator of every ideal a caller holds.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple

from . import kernel

INF = float("inf")

Term = Tuple[int, ...]


# the proportionality key shared by every one-term polynomial
_MONOMIAL_KEY = frozenset()


class ParseError(ValueError):
    pass


class VariableMismatchError(ValueError):
    pass


def grlex_key(mono: Term) -> tuple:
    return (sum(mono), mono)


def _print_key(mono: Term) -> tuple:
    # ascending degree, descending lex within a degree
    return (sum(mono), tuple(-e for e in mono))


class Polynomial:
    """Immutable; all operations return new objects.

    The term map must never change after construction: the hash and the
    lazily cached leading data would silently go stale.  Each coefficient
    is an int or a Fraction, and an integral one may still be a Fraction;
    divide coefficients with kernel.quotient, never with int / int."""

    __slots__ = ("variables", "terms", "_hash", "_lead")

    def __init__(self, variables: Sequence[str], terms: Mapping[Term, kernel.Coefficient]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variable names")
        clean: Dict[Term, kernel.Coefficient] = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != len(vs):
                raise ValueError("exponent tuple length does not match variables")
            if any(e < 0 for e in mono):
                raise ValueError("negative exponent")
            c = kernel.exact(coeff)
            if c:
                clean[mono] = c
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], c: kernel.Coefficient) -> "Polynomial":
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        vs = tuple(variables)
        i = vs.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(vs)))
        return cls(vs, {mono: 1})

    @classmethod
    def _raw(cls, variables: Tuple[str, ...], terms: kernel.TermMap) -> "Polynomial":
        # internal: terms already canonical (no zeros, right arity)
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
        return self

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> kernel.Coefficient:
        return self.terms.get((0,) * len(self.variables), 0)

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(sum(m) for m in self.terms)

    def ord_at_origin(self):
        """Minimal total degree of a term; INF for the zero polynomial."""
        if not self.terms:
            return INF
        return min(sum(m) for m in self.terms)

    def weighted_order(self, weights: Sequence[kernel.Coefficient]):
        """min over terms of sum(e_i * w_i); INF for zero.  Integer
        weights give an int."""
        if not self.terms:
            return INF
        return min([sum(map(operator.mul, weights, mono)) for mono in self.terms])

    def leading_monomial(self) -> Term:
        """Largest monomial in graded lex order."""
        cached = getattr(self, "_lead", None)
        if cached is not None:
            return cached
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        lead = max(self.terms, key=grlex_key)
        object.__setattr__(self, "_lead", lead)
        return lead

    def proportionality_key(self) -> frozenset:
        """Key that two polynomials share iff one is c * x^delta times the
        other, for a nonzero rational c and delta in Z^n.

        For several terms it is the set of pairs (m - lead, k_m), where k
        is the primitive integer coefficient vector with k_lead > 0; every
        one-term polynomial gets the same empty key."""
        terms = self.terms
        if len(terms) == 1:
            return _MONOMIAL_KEY
        lead = self.leading_monomial()
        coeffs = terms.values()
        den = math.lcm(*[c.denominator for c in coeffs])
        ints = [c.numerator * (den // c.denominator) for c in coeffs]
        g = math.gcd(*ints)
        if terms[lead].numerator < 0:
            g = -g
        return frozenset(
            (tuple(map(operator.sub, m, lead)), k // g) for m, k in zip(terms, ints)
        )

    def linear_coefficient(self, name: str) -> kernel.Coefficient:
        i = self.variables.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(self.variables)))
        return self.terms.get(mono, 0)

    def uses_variable(self, name: str) -> bool:
        i = self.variables.index(name)
        return any(m[i] for m in self.terms)

    def degree_in(self, name: str) -> int:
        i = self.variables.index(name)
        return max((m[i] for m in self.terms), default=0)

    def sort_key(self) -> tuple:
        """Total order on polynomials in a fixed ring, used for canonical
        generator ordering: leading monomial first, then the term list.

        One flat tuple: the graded lex key of the leading monomial, then
        degree, monomial, numerator and denominator of every term in
        ascending graded lex order.  It orders like the nested tuple of
        per-term keys but allocates no tuple per term."""
        if not self.terms:
            return (0, ())
        flat = list(grlex_key(self.leading_monomial()))
        for m, c in sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0])):
            flat += (sum(m), m, c.numerator, c.denominator)
        return tuple(flat)

    # -- ring operations -----------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        return Polynomial._raw(self.variables, kernel.add_terms(self.terms, other.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        return Polynomial._raw(
            self.variables, kernel.add_terms(self.terms, kernel.neg_terms(other.terms))
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.variables, kernel.neg_terms(self.terms))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        return Polynomial._raw(self.variables, kernel.mul_terms(self.terms, other.terms))

    def __pow__(self, k: int) -> "Polynomial":
        return Polynomial._raw(
            self.variables, kernel.pow_terms(self.terms, k, len(self.variables))
        )

    def scale(self, c: kernel.Coefficient) -> "Polynomial":
        return Polynomial._raw(self.variables, kernel.scale_terms(self.terms, kernel.exact(c)))

    def partial(self, name: str) -> "Polynomial":
        i = self.variables.index(name)
        return Polynomial._raw(self.variables, kernel.partial_terms(self.terms, i))

    # -- substitution family --------------------------------------------

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Ring morphism: every variable of self must have an image, and all
        images must share one target ring."""
        target = None
        for v in self.variables:
            if v not in images:
                raise ValueError(f"no image for variable {v}")
            img = images[v]
            if target is None:
                target = img.variables
            elif img.variables != target:
                raise VariableMismatchError("images live in different rings")
        if target is None and self.variables:
            raise RuntimeError("substitution found no target ring")
        if target is None:
            target = ()
        nv = len(target)
        acc: kernel.TermMap = {}
        pow_cache: Dict[Tuple[str, int], kernel.TermMap] = {}
        for mono, coeff in self.terms.items():
            piece: kernel.TermMap = {(0,) * nv: coeff}
            for v, e in zip(self.variables, mono):
                if not e:
                    continue
                key = (v, e)
                cached = pow_cache.get(key)
                if cached is None:
                    cached = kernel.pow_terms(images[v].terms, e, nv)
                    pow_cache[key] = cached
                piece = kernel.mul_terms(piece, cached)
            kernel.add_into(acc, piece)
        return Polynomial._raw(tuple(target), acc)

    def substitute_variable(self, name: str, image: "Polynomial") -> "Polynomial":
        """Substitute one variable, all others staying fixed.  The image
        must live in the same ring."""
        self._check_ring(image)
        i = self.variables.index(name)
        nv = len(self.variables)
        acc: kernel.TermMap = {}
        pow_cache: Dict[int, kernel.TermMap] = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            rest = mono[:i] + (0,) + mono[i + 1 :]
            piece: kernel.TermMap = {rest: coeff}
            if e:
                cached = pow_cache.get(e)
                if cached is None:
                    cached = kernel.pow_terms(image.terms, e, nv)
                    pow_cache[e] = cached
                piece = kernel.mul_terms(piece, cached)
            kernel.add_into(acc, piece)
        return Polynomial._raw(self.variables, acc)

    def translate(self, point: Sequence[kernel.Coefficient]) -> "Polynomial":
        """p(x + point), moving the marked point to the origin.

        One variable at a time, each term x^e goes to the binomial
        expansion (x + c)^e = sum_k C(e, k) c^(e-k) x^k.  An integral
        coordinate is shifted as an int, so integral coefficients stay
        ints."""
        if len(point) != len(self.variables):
            raise ValueError("point arity does not match variables")
        terms = self.terms
        for i, c in enumerate(point):
            c = kernel.exact(c)
            if not c:
                continue
            powers = [1]
            rows: Dict[int, list] = {}
            out: kernel.TermMap = {}
            for mono, coeff in terms.items():
                e = mono[i]
                row = rows.get(e)
                if row is None:
                    while len(powers) <= e:
                        powers.append(powers[-1] * c)
                    row = rows[e] = [math.comb(e, k) * powers[e - k] for k in range(e + 1)]
                head, tail = mono[:i], mono[i + 1 :]
                kernel.add_into(out, {head + (k,) + tail: coeff * b for k, b in enumerate(row)})
            terms = out
        return Polynomial._raw(self.variables, terms)

    def drop_variable(self, name: str) -> "Polynomial":
        """Remove an unused variable from the ring."""
        i = self.variables.index(name)
        if self.uses_variable(name):
            raise ValueError(f"polynomial still uses {name}")
        vs = self.variables[:i] + self.variables[i + 1 :]
        return Polynomial._raw(vs, {m[:i] + m[i + 1 :]: c for m, c in self.terms.items()})

    def embed(self, variables: Sequence[str]) -> "Polynomial":
        """Reinterpret in a larger ring containing all current variables;
        into its own ring the polynomial itself is returned."""
        vs = tuple(variables)
        if vs == self.variables:
            return self
        idx = [vs.index(v) for v in self.variables]
        n = len(vs)
        out: kernel.TermMap = {}
        for mono, coeff in self.terms.items():
            big = [0] * n
            for pos, e in zip(idx, mono):
                big[pos] = e
            out[tuple(big)] = coeff
        return Polynomial._raw(vs, out)

    # -- dunder plumbing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.variables, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({','.join(self.variables)}: {self})"

    def __str__(self) -> str:
        return format_polynomial(self)


# -- printing ------------------------------------------------------------


def _format_coeff(c: kernel.Coefficient) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_polynomial(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    parts = []
    for mono in sorted(p.terms, key=_print_key):
        coeff = p.terms[mono]
        factors = []
        for v, e in zip(p.variables, mono):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        mag = abs(coeff)
        if not factors:
            body = _format_coeff(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_format_coeff(mag)] + factors)
        parts.append((coeff < 0, body))
    first_neg, first_body = parts[0]
    out = ("-" if first_neg else "") + first_body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


# -- parsing ---------------------------------------------------------------


# a variable name the grammar can write: a letter or underscore, then
# letters, digits, underscores or primes
VARIABLE_NAME = r"[^\W\d][\w']*"

# one factor with the operator in front of it: '+' or '-' opens a term,
# '*' continues one, and only the first factor may stand without one
_FACTOR = re.compile(
    r"\s*([-+*]?)\s*(?:(\d+)(?:\s*/\s*(\d+))?|(%s)(?:\s*\^\s*(\d+))?)" % VARIABLE_NAME
)


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse the grammar from the module docstring into the given ring.

    One pass of a precompiled factor pattern over the text; each term
    keeps an integer numerator, denominator and exponent list, and the
    terms go straight into the term map; a term without a written
    denominator adds its numerator as an int."""
    vs = tuple(variables)
    index = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    terms: kernel.TermMap = {}
    num, den, mono = 1, 1, None
    pos = 0
    match = _FACTOR.match
    while True:
        m = match(text, pos)
        if m is None:
            break
        op, integer, denominator, name, exponent = m.groups()
        if mono is None:
            if op == "*":
                raise ParseError("expected a factor at position %d" % pos)
            num, den, mono = (-1 if op == "-" else 1), 1, [0] * n
        elif op == "*":
            pass
        elif op:
            key = tuple(mono)
            terms[key] = terms.get(key, 0) + (num if den == 1 else Fraction(num, den))
            num, den, mono = (-1 if op == "-" else 1), 1, [0] * n
        else:
            raise ParseError("expected an operator at position %d" % pos)
        if integer is not None:
            num *= int(integer)
            if denominator is not None:
                d = int(denominator)
                if not d:
                    raise ParseError("denominator must be positive")
                den *= d
        else:
            i = index.get(name)
            if i is None:
                raise ParseError(f"unknown variable {name}")
            e = 1 if exponent is None else int(exponent)
            if not e:
                raise ParseError("exponent must be a positive integer")
            mono[i] += e
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected input at position {pos}: {text[pos:pos + 20]!r}")
    if mono is None:
        raise ParseError("empty input")
    key = tuple(mono)
    terms[key] = terms.get(key, 0) + (num if den == 1 else Fraction(num, den))
    if len(set(vs)) != n:
        raise ValueError("duplicate variable names")
    return Polynomial._raw(
        vs, {m: c.numerator if c.denominator == 1 else c for m, c in terms.items() if c}
    )
