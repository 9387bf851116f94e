"""Canonical generator lists: the proportionality-key pruning against the
pairwise scan it replaced, and the lazily cached leading data."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wblow.arith import Polynomial, grlex_key, parse_polynomial
from wblow.ideals import LocalIdeal

VS2 = ("x", "y")
VS3 = ("x", "y", "z")


def _is_term_multiple(g, h):
    # g == c * x^delta * h for a scalar c and monomial shift delta >= 0
    if len(g.terms) != len(h.terms):
        return False
    lg, lh = g.leading_monomial(), h.leading_monomial()
    delta = tuple(a - b for a, b in zip(lg, lh))
    if any(d < 0 for d in delta):
        return False
    c = Fraction(g.terms[lg]) / h.terms[lh]
    for mono, coeff in h.terms.items():
        shifted = tuple(a + b for a, b in zip(mono, delta))
        if g.terms.get(shifted) != c * coeff:
            return False
    return True


def _pairwise_scan(variables, generators):
    """Reference: the quadratic scan that canonicalized generator lists
    before the proportionality key."""
    polys = sorted((g for g in generators if not g.is_zero()), key=Polynomial.sort_key)
    kept = []
    for g in polys:
        if not any(_is_term_multiple(g, h) for h in kept):
            kept.append(g)
    return tuple(kept)


def _nested_sort_key(p):
    # the per-term nested form that Polynomial.sort_key flattens
    items = tuple(
        (grlex_key(m), c.numerator, c.denominator)
        for m, c in sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0]))
    )
    return (grlex_key(max(p.terms, key=grlex_key)), items)


def _shift(p, c, delta):
    """c * x^delta * p, or None when some exponent would go negative."""
    terms = {}
    for m, coeff in p.terms.items():
        shifted = tuple(a + d for a, d in zip(m, delta))
        if min(shifted) < 0:
            return None
        terms[shifted] = c * coeff
    return Polynomial(p.variables, terms)


scalars = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)


@st.composite
def _polys(draw, variables):
    n = len(variables)
    monos = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(monos, scalars, min_size=1, max_size=4))
    # a common monomial factor makes room for shifts with negative entries
    common = draw(st.tuples(*[st.integers(0, 2)] * n))
    return Polynomial(
        variables, {tuple(a + b for a, b in zip(m, common)): c for m, c in terms.items()}
    )


@st.composite
def _relatives(draw, p):
    """Polynomials sharing p's shape: term multiples of it (scalar c of
    any sign, shifts with negative entries, delta = 0) and same-shape
    polynomials that are not proportional to it."""
    n = len(p.variables)
    kind = draw(st.sampled_from(["multiple", "duplicate", "twisted"]))
    if kind == "duplicate":
        return p
    if kind == "multiple":
        c = draw(scalars)
        delta = draw(st.tuples(*[st.integers(-2, 2)] * n) | st.just((0,) * n))
        return _shift(p, c, delta) or p.scale(c)
    # change one coefficient: x^2 + y^2 -> x^2 - y^2
    mono = draw(st.sampled_from(sorted(p.terms)))
    terms = dict(p.terms)
    terms[mono] = terms[mono] * draw(scalars)
    return Polynomial(p.variables, terms)


@st.composite
def _generator_lists(draw, variables):
    bases = draw(st.lists(_polys(variables), min_size=1, max_size=4))
    gens = list(bases)
    for _ in range(draw(st.integers(0, 6))):
        gens.append(draw(_relatives(draw(st.sampled_from(bases)))))
    return draw(st.permutations(gens))


def _proportional(g, h):
    # g == c * x^delta * h for some scalar c and delta in Z^n
    if len(g.terms) != len(h.terms):
        return False
    lg, lh = g.leading_monomial(), h.leading_monomial()
    c = Fraction(g.terms[lg]) / h.terms[lh]
    return all(
        g.terms.get(tuple(a + b - e for a, b, e in zip(m, lg, lh))) == c * coeff
        for m, coeff in h.terms.items()
    )


class TestAgainstPairwiseScan:
    @settings(max_examples=150, deadline=None)
    @given(_generator_lists(VS2))
    def test_two_variables(self, gens):
        assert LocalIdeal(VS2, gens).generators == _pairwise_scan(VS2, gens)

    @settings(max_examples=150, deadline=None)
    @given(_generator_lists(VS3))
    def test_three_variables(self, gens):
        assert LocalIdeal(VS3, gens).generators == _pairwise_scan(VS3, gens)

    def test_same_shape_without_proportionality_is_kept(self):
        p, q = parse_polynomial("x^2 + y^2", VS2), parse_polynomial("x^2 - y^2", VS2)
        assert p.proportionality_key() != q.proportionality_key()
        assert LocalIdeal(VS2, [q, p, p]).generators == _pairwise_scan(VS2, [p, q])
        assert len(LocalIdeal(VS2, [p, q]).generators) == 2

    def test_multiple_of_a_later_input_is_pruned(self):
        big = parse_polynomial("x^3*y + x*y^2", VS2)
        small = parse_polynomial("-1/2*x^2 - 1/2*y", VS2)
        assert LocalIdeal(VS2, [big, small]).generators == (small,)


class TestProportionalityKey:
    @settings(max_examples=200, deadline=None)
    @given(_polys(VS3), scalars, st.tuples(*[st.integers(-2, 2)] * 3))
    def test_term_multiples_share_the_key(self, p, c, delta):
        q = _shift(p, c, delta)
        if q is None:
            q = p.scale(c)
        assert q.proportionality_key() == p.proportionality_key()

    @settings(max_examples=100, deadline=None)
    @given(_generator_lists(VS2))
    def test_equal_keys_mean_proportional(self, gens):
        for g in gens:
            for h in gens:
                same = g.proportionality_key() == h.proportionality_key()
                assert same == _proportional(g, h)

    def test_one_term_polynomials_share_one_key(self):
        keys = {parse_polynomial(t, VS2).proportionality_key() for t in ("x", "-3/2*y^4", "7")}
        assert len(keys) == 1


class TestCachedLeadingData:
    @settings(max_examples=100, deadline=None)
    @given(_polys(VS3), _polys(VS3))
    def test_cached_values_match_a_fresh_computation(self, p, q):
        for r in (p, q, p * q, p + q, p.partial("x")):
            if r.is_zero():
                continue
            fresh = Polynomial(r.variables, r.terms)
            for _ in range(2):
                assert r.leading_monomial() == max(r.terms, key=grlex_key)
                assert r.sort_key() == fresh.sort_key()

    @settings(max_examples=200, deadline=None)
    @given(_polys(VS2), _polys(VS2))
    def test_flat_sort_key_orders_like_the_nested_one(self, p, q):
        for a, b in ((p, q), (p, p.scale(-1)), (p, p + Polynomial(VS2, {(0, 0): 1}))):
            if b.is_zero():
                continue
            flat = (a.sort_key() > b.sort_key()) - (a.sort_key() < b.sort_key())
            nested = (_nested_sort_key(a) > _nested_sort_key(b)) - (
                _nested_sort_key(a) < _nested_sort_key(b)
            )
            assert flat == nested

    def test_construction_stores_no_cache(self):
        p = Polynomial(VS2, {(1, 0): Fraction(2), (0, 3): Fraction(1)})
        assert not hasattr(p, "_lead")
        order = p.sort_key()
        key = p.proportionality_key()
        assert p.leading_monomial() == (0, 3)
        # neither key is kept: each call computes it anew
        assert p.sort_key() == order
        assert p.sort_key() is not order
        assert p.proportionality_key() == key
        assert p.proportionality_key() is not key
