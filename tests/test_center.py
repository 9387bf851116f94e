import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wblow import kernel
from wblow.arith import INF, Polynomial, parse_polynomial
from wblow.center import (
    FrameEntry,
    TriangularizationError,
    WeightedCenter,
    center_equal,
    format_rational,
    graph_normalize,
)
from wblow.driver import principalize
from wblow.ideals import LocalIdeal

from paper_definitions import TransportedCenter, frame_from_parameters

VS = ("x", "y")


def P(text, vs=VS):
    return parse_polynomial(text, vs)


def C(params, vs=VS):
    return frame_from_parameters(
        vs, [(parse_polynomial(t, vs), Fraction(d)) for t, d in params]
    )


CUSP = C([("x", 2), ("y", 3)])
SHIFTED = C([("x + 1/2*y^2", 2), ("y", 4)])

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
monos2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys2 = st.dictionaries(monos2, coeffs, max_size=5).map(lambda d: Polynomial(VS, d))


class TestFrameValidation:
    def test_weights(self):
        assert CUSP.weight_lcm == 6
        assert CUSP.weights == (3, 2)
        half = C([("x", Fraction(3, 2)), ("y", 2)])
        assert half.weight_lcm == 6
        assert half.weights == (4, 3)

    def test_exponents_must_increase(self):
        with pytest.raises(ValueError):
            C([("x", 3), ("y", 2)])
        with pytest.raises(ValueError):
            C([("x", 0)])

    def test_tail_constraints(self):
        x_tail_y = FrameEntry("x", P("y^2"))
        WeightedCenter(VS, [x_tail_y], [Fraction(2)])
        with pytest.raises(ValueError):
            WeightedCenter(VS, [FrameEntry("x", P("1 + y"))], [Fraction(2)])
        with pytest.raises(ValueError):
            WeightedCenter(VS, [FrameEntry("x", P("x*y"))], [Fraction(2)])
        with pytest.raises(ValueError):
            # second tail may not use the first frame variable
            WeightedCenter(
                VS,
                [FrameEntry("y", Polynomial.zero(VS)), FrameEntry("x", P("y"))],
                [Fraction(2), Fraction(2)],
            )

    def test_interleaved_tail_is_allowed(self):
        # the first tail may use the second frame variable
        c = WeightedCenter(
            VS,
            [FrameEntry("x", P("y^2")), FrameEntry("y", Polynomial.zero(VS))],
            [Fraction(2), Fraction(4)],
        )
        assert c.nu(P("x")) == Fraction(1, 2)
        assert c.nu(P("x - y^2")) == Fraction(1, 2)


class TestValuation:
    def test_cusp_values(self):
        assert CUSP.nu(P("x^2 + y^3")) == 1
        assert CUSP.nu(P("x*y")) == Fraction(5, 6)
        assert CUSP.nu(P("1 + x")) == 0
        assert CUSP.nu(Polynomial.zero(VS)) == INF

    def test_own_parameters(self):
        for center in (CUSP, SHIFTED):
            for p, d in center.parameters():
                assert center.nu(p) == Fraction(1) / d

    def test_complement_weighs_nothing(self):
        vs3 = ("x", "y", "z")
        c = C([("x", 2), ("y", 3)], vs=vs3)
        assert c.nu(parse_polynomial("z", vs3)) == 0
        assert c.nu(parse_polynomial("z*x", vs3)) == Fraction(1, 2)

    def test_admissibility(self):
        assert CUSP.admissible(LocalIdeal(VS, [P("x^2 + y^3")]))
        x3 = C([("x", 3)])
        assert x3.nu(P("x^2")) == Fraction(2, 3)
        assert not x3.admissible(LocalIdeal(VS, [P("x^2")]))
        assert CUSP.admissible(LocalIdeal.zero(VS))

    @given(polys2, polys2)
    @settings(max_examples=50)
    def test_multiplicative(self, f, g):
        nu = SHIFTED.nu
        if f.is_zero() or g.is_zero():
            assert nu(f * g) == INF
        else:
            assert nu(f * g) == nu(f) + nu(g)

    @given(polys2, polys2)
    @settings(max_examples=50)
    def test_superadditive_on_sums(self, f, g):
        nu = SHIFTED.nu
        assert nu(f + g) >= min(nu(f), nu(g))


def _random_poly(rng, vs, allowed, degree, nterms):
    """A polynomial of up to nterms terms of degree 1..degree in the allowed
    variables, with no constant term."""
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        mono = [0] * len(vs)
        for _ in range(rng.randint(1, degree)):
            mono[vs.index(rng.choice(allowed))] += 1
        terms[tuple(mono)] = Fraction(rng.choice([-3, -2, -1, 1, 2]), rng.randint(1, 3))
    return Polynomial(vs, terms)


def random_frame(rng):
    """A center in 3-4 variables with 1-3 entries.  Each tail uses only
    later frame variables and complement variables, so most tails use
    both kinds."""
    vs = ("x", "y", "z", "w")[: rng.randint(3, 4)]
    order = rng.sample(vs, len(vs))
    k = rng.randint(1, min(3, len(vs) - 1))
    entries = []
    for i, v in enumerate(order[:k]):
        later = order[i + 1 :]
        tail = Polynomial.zero(vs)
        if rng.random() < 0.85:
            tail = _random_poly(rng, vs, later, 2, 2)
        entries.append(FrameEntry(v, tail))
    exponents = sorted(
        rng.choice([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4)])
        for _ in range(k)
    )
    return WeightedCenter(vs, entries, exponents)


def _fresh_name_nu(center, f):
    # the valuation by the rewrite that nu replaced: embed f into a ring
    # with one fresh name per frame entry, substitute v_i -> t_i - tail_i,
    # drop the old frame variables and weigh t_i by 1/d_i
    names = tuple(f"_t{i + 1}" for i in range(len(center.entries)))
    ext = center.variables + names
    g = f.embed(ext)
    for name, ent in zip(names, center.entries):
        image = Polynomial.variable(ext, name) - ent.tail.embed(ext)
        g = g.substitute_variable(ent.variable, image)
    for ent in center.entries:
        g = g.drop_variable(ent.variable)
    complement = [Fraction(0)] * (len(g.variables) - len(names))
    return g.weighted_order(complement + [1 / d for d in center.exponents])


class TestFrameRewrite:
    def test_nu_matches_the_fresh_name_rewrite(self):
        rng = random.Random(20261018)
        mixed = 0
        for _ in range(150):
            center = random_frame(rng)
            frame_vars = [ent.variable for ent in center.entries]
            complement = [v for v in center.variables if v not in frame_vars]
            mixed += any(
                any(ent.tail.uses_variable(v) for v in frame_vars)
                and any(ent.tail.uses_variable(v) for v in complement)
                for ent in center.entries
            )
            for _ in range(3):
                f = _random_poly(rng, center.variables, center.variables, 3, 4)
                assert center.nu(f) == _fresh_name_nu(center, f)
        # tails that use later frame variables and complement variables
        # at once are the case the in-place rewrite has to get right
        assert mixed > 30

    def test_parameters_become_entry_variables(self):
        rng = random.Random(7)
        for _ in range(100):
            center = random_frame(rng)
            for i, ent in enumerate(center.entries):
                rewritten = center.rewrite_in_frame(center.frame_parameter(i))
                assert rewritten == Polynomial.variable(center.variables, ent.variable)

    def test_rewrite_stays_in_the_ring(self):
        f = P("x*y + y^3")
        assert SHIFTED.rewrite_in_frame(f).variables == VS
        assert SHIFTED.rewrite_in_frame(f) == P("x*y - 1/2*y^3 + y^3")


class TestRounding:
    def test_cusp(self):
        assert [str(g) for g in CUSP.rounding()] == ["x^2", "x*y^2", "y^3"]

    def test_shifted_frame(self):
        assert [str(g) for g in SHIFTED.rounding()] == ["x^2", "x*y^2", "y^4"]

    def test_three_variables(self):
        vs3 = ("x", "y", "z")
        c = C([("x", 2), ("y", 3), ("z", 3)], vs=vs3)
        assert [str(g) for g in c.rounding()] == [
            "x^2",
            "x*y^2",
            "x*y*z",
            "x*z^2",
            "y^3",
            "y^2*z",
            "y*z^2",
            "z^3",
        ]

    def test_rounding_is_admissible(self):
        for center in (CUSP, SHIFTED):
            for g in center.rounding():
                assert center.nu(g) >= 1


class TestCenterEqual:
    def test_shifted_presentation_matches_plain(self):
        plain = C([("x", 2), ("y", 4)])
        assert center_equal(plain, SHIFTED)
        assert center_equal(SHIFTED, plain)

    def test_different_multiorder(self):
        assert not center_equal(C([("x", 2), ("y", 3)]), C([("x", 2), ("y", 4)]))

    def test_same_multiorder_different_locus(self):
        assert not center_equal(C([("x", 2), ("y", 4)]), C([("y", 2), ("x", 4)]))

    def test_transported_swap(self):
        swap = {
            "x": Polynomial.variable(VS, "y"),
            "y": Polynomial.variable(VS, "x"),
        }
        moved = TransportedCenter(CUSP, to_base=swap, from_base=swap)
        direct = C([("y", 2), ("x", 3)])
        assert center_equal(moved, direct)
        assert not center_equal(moved, CUSP)

    def test_transported_shear(self):
        # x -> x + y is its own inverse composed with negation fixed up
        fwd = {"x": P("x + y"), "y": P("y")}
        back = {"x": P("x - y"), "y": P("y")}
        moved = TransportedCenter(CUSP, to_base=back, from_base=fwd)
        direct = frame_from_parameters(
            VS, [(P("x + y"), Fraction(2)), (P("y"), Fraction(3))]
        )
        assert center_equal(moved, direct)


class TestGraphNormalize:
    def test_unit_factor_is_stripped(self):
        assert graph_normalize(P("x + x*y"), "x") == Polynomial.zero(VS)

    def test_scaling(self):
        assert graph_normalize(P("2*x + y^2"), "x") == P("1/2*y^2")

    def test_series_graph_rejected(self):
        assert graph_normalize(P("x - y^2 + x^2"), "x") is None

    def test_nonvanishing_rejected(self):
        assert graph_normalize(P("1 + x"), "x") is None

    def test_no_linear_part_rejected(self):
        assert graph_normalize(P("x^2 + y"), "x") is None

    @given(
        st.dictionaries(st.tuples(st.just(0), st.integers(1, 3)), coeffs, max_size=3),
        polys2,
        coeffs,
    )
    @settings(max_examples=40)
    def test_graph_times_unit_returns_the_graph(self, psi, h, c):
        # psi is free of x with no constant term, and u(0) = c is nonzero
        # whatever the higher terms h of u are
        psi = Polynomial(VS, psi)
        u = Polynomial.constant(VS, c) + h - Polynomial.constant(VS, h.constant_term())
        p = (Polynomial.variable(VS, "x") - psi) * u
        assert graph_normalize(p, "x") == -psi


def _substitution_graph_normalize(p, var):
    # graph_normalize before the bounded division: each root iterate by a
    # full substitution, then one exact substitution of the root
    if p.constant_term():
        return None
    c = p.linear_coefficient(var)
    if not c:
        return None
    q = p.scale(Fraction(1) / c)
    g = q - Polynomial.variable(q.variables, var)
    bound = q.total_degree()
    phi = Polynomial.zero(q.variables)
    for _ in range(bound + 1):
        image = -g.substitute_variable(var, phi)
        low = {m: c for m, c in image.terms.items() if sum(m) <= bound}
        nxt = Polynomial(q.variables, low)
        if nxt == phi:
            break
        phi = nxt
    if not q.substitute_variable(var, phi).is_zero():
        return None
    return -phi


def _normalize_inputs(seed, count):
    """Graphs times units, and a linear term in var plus higher terms that
    are mostly no graph."""
    rng = random.Random(seed)
    for i in range(count):
        vs = ("x", "y", "z")[: rng.randint(2, 3)]
        var = rng.choice(vs)
        others = [v for v in vs if v != var]
        c = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
        if i % 2:
            psi = _random_poly(rng, vs, others, 3, 3)
            unit = Polynomial.constant(vs, 1) + _random_poly(rng, vs, vs, 2, 2)
            p = (Polynomial.variable(vs, var) - psi) * unit.scale(c)
        else:
            p = Polynomial.variable(vs, var).scale(c) + _random_poly(rng, vs, vs, 3, 4)
        yield p, var


class TestBoundedGraphNormalize:
    def test_matches_the_substitution_reference(self):
        accepted = rejected = 0
        for p, var in _normalize_inputs(20261103, 300):
            got = graph_normalize(p, var)
            assert got == _substitution_graph_normalize(p, var), (p, var)
            accepted += got is not None
            rejected += got is None
        assert accepted > 100 and rejected > 50, (accepted, rejected)

    def test_no_product_exceeds_twice_the_degree(self, monkeypatch):
        # truncated iterates and a division that stops at a quotient
        # coefficient of too high a degree; a full substitution of the
        # root -y^3 into x + y^3 + x^3 forms y^9
        cases = [(P("x + y^3 + x^3"), "x")] + list(_normalize_inputs(20261104, 60))
        mul = kernel.mul_terms
        limit = 0

        def bounded(a, b):
            out = mul(a, b)
            assert all(sum(m) <= limit for m in out), (limit, out)
            return out

        monkeypatch.setattr(kernel, "mul_terms", bounded)
        for p, var in cases:
            limit = 2 * p.total_degree()
            graph_normalize(p, var)

    def test_long_root_iteration_still_rejects(self):
        # a chart below this ideal meets a degree-20 contact candidate whose
        # root iteration gains one degree per round and is no graph
        vs = ("x", "y", "z")
        ideal = LocalIdeal(vs, [parse_polynomial("-1/2*x^2 - y^2 + x*z^2 - 3*x*y*z^2", vs)])
        with pytest.raises(TriangularizationError):
            principalize(ideal)


def _iterated_graph_normalize(p, var):
    # graph_normalize without the direct exit on p = var * u: every input
    # with a linear term in var runs the truncated root iteration from
    # phi = 0 and the bounded synthetic division
    if p.constant_term():
        return None
    c = p.linear_coefficient(var)
    if not c:
        return None
    q = p.scale(kernel.quotient(1, c))
    vs = q.variables
    bound = q.total_degree()
    i = vs.index(var)
    coeffs = [{} for _ in range(q.degree_in(var) + 1)]
    for m, coeff in q.terms.items():
        coeffs[m[i]][m[:i] + (0,) + m[i + 1 :]] = coeff
    phi = {}
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


def _var_times_unit(seed, count):
    """p = var * u with u(0) != 0 in 2-3 variables, and h free of var with
    no constant term.  In every other draw u is free of var as well and h
    a multiple of u, so that p + h = (var + h/u) * u is a graph."""
    rng = random.Random(seed)
    for i in range(count):
        vs = ("x", "y", "z")[: rng.randint(2, 3)]
        var = rng.choice(vs)
        others = [v for v in vs if v != var]
        c = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
        if i % 2:
            u = Polynomial.constant(vs, c) + _random_poly(rng, vs, others, 2, 2)
            h = _random_poly(rng, vs, others, 2, 2) * u
        else:
            u = Polynomial.constant(vs, c) + _random_poly(rng, vs, vs, 3, 4)
            h = _random_poly(rng, vs, others, 3, 3)
        yield Polynomial.variable(vs, var) * u, var, h


class TestDirectExit:
    def test_var_times_unit_has_zero_tail(self):
        for p, var, _ in _var_times_unit(20261019, 200):
            got = graph_normalize(p, var)
            assert got == Polynomial.zero(p.variables), (p, var)
            assert got == _iterated_graph_normalize(p, var), (p, var)

    def test_var_times_unit_runs_no_iteration(self, monkeypatch):
        def boom(*args):
            raise AssertionError("the iteration ran")

        inputs = [(p, var) for p, var, _ in _var_times_unit(20261020, 50)]
        for name in ("mul_terms", "mul_terms_bounded", "add_terms", "quotient"):
            monkeypatch.setattr(kernel, name, boom)
        monkeypatch.setattr(Polynomial, "scale", boom)
        for p, var in inputs:
            assert graph_normalize(p, var) == Polynomial.zero(p.variables)

    def test_a_term_free_of_var_takes_the_iteration(self):
        accepted = rejected = 0
        for p, var, h in _var_times_unit(20261021, 200):
            got = graph_normalize(p + h, var)
            assert got == _iterated_graph_normalize(p + h, var), (p + h, var)
            accepted += got is not None
            rejected += got is None
        assert accepted > 50 and rejected > 30, (accepted, rejected)


class TestFrameFromParameters:
    def test_rejects_non_coordinate(self):
        with pytest.raises(TriangularizationError):
            frame_from_parameters(VS, [(P("y^2"), Fraction(2))])

    def test_rejects_dependent_pair(self):
        with pytest.raises(TriangularizationError):
            frame_from_parameters(
                VS, [(P("x + y"), Fraction(2)), (P("y + x"), Fraction(2))]
            )

    def test_lowest_linear_variable_wins(self):
        c = frame_from_parameters(VS, [(P("y + x"), Fraction(2))])
        assert c.entries[0].variable == "x"
        assert c.entries[0].tail == P("y")


def test_format_rational():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(INF) == "inf"
