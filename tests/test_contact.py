import random
import time
from fractions import Fraction

import pytest

import wblow.contact
from paper_definitions import frame_from_parameters
from test_blowup import benchmark_corpus
from test_closed_form import _random_polynomial
from wblow.arith import INF, Polynomial, parse_polynomial
from wblow.canonical import canonical_center
from wblow.center import FrameEntry, TriangularizationError, center_equal
from wblow.contact import (
    _order_one_candidates,
    find_maximal_contact,
    graph_series,
    restrict_to_contact,
    solve_linear,
    taylor_along_graph,
)
from wblow.driver import embedded_resolve
from wblow.ideals import LocalIdeal, derivative_tower

VS = ("x", "y")
VS3 = ("x", "y", "z")


def I(*texts, vs=VS):
    return LocalIdeal(vs, [parse_polynomial(t, vs) for t in texts])


def P(text, vs=VS):
    return parse_polynomial(text, vs)


def element(entry):
    """The contact element t = v + tail of a frame entry."""
    assert isinstance(entry, FrameEntry)
    return Polynomial.variable(entry.tail.variables, entry.variable) + entry.tail


class TestContactElement:
    def test_cusp(self):
        entry = find_maximal_contact(I("x^2 + y^3"))
        assert element(entry) == P("x")
        assert entry.variable == "x"
        assert entry.tail.is_zero()

    def test_shifted_hypersurface(self):
        entry = find_maximal_contact(I("x^2 + x*y^2"))
        assert element(entry) == P("x + 1/2*y^2")

    def test_whitney_first_entry(self):
        entry = find_maximal_contact(I("x^2 + y^2*z", vs=VS3))
        assert element(entry) == parse_polynomial("x", VS3)

    def test_monomial_takes_largest_variable_of_least_degree(self):
        entry = find_maximal_contact(I("y^2*z", "y^4", vs=("y", "z")))
        assert element(entry) == parse_polynomial("z", ("y", "z"))
        flat = find_maximal_contact(I("x^2", "y^2", vs=VS))
        assert element(flat) == P("y")

    def test_unit_cofactor_is_divided_out(self):
        entry = find_maximal_contact(I("x + x*y"))
        assert element(entry) == P("x")

    def test_linear_change_of_cusp(self):
        # x -> 2x+3y, y -> x+2y applied to x^2 + y^3
        f = P("2*x + 3*y") ** 2 + P("x + 2*y") ** 3
        entry = find_maximal_contact(LocalIdeal(VS, [f]))
        assert element(entry) == P("x + 3/2*y")

    def test_monomial_ideals_follow_the_least_degree_rule(self):
        # on a monomial ideal the scan lands on the largest-index variable
        # occurring in a generator of least degree, with tail 0; the test
        # reads that variable off the generators
        rng = random.Random("monomial contact")
        for _ in range(320):
            vs = ("x", "y", "z", "w")[: rng.randint(2, 4)]
            gens = []
            for _ in range(rng.randint(1, 4)):
                mono = (0,) * len(vs)
                while not any(mono):
                    mono = tuple(rng.randint(0, 3) for _ in vs)
                coeff = Fraction(rng.choice((-3, -1, 2, 3, 5)), rng.choice((1, 2, 7)))
                gens.append(Polynomial(vs, {mono: coeff}))
            ideal = LocalIdeal(vs, gens)
            d = ideal.order()
            least = [g.leading_monomial() for g in ideal.generators]
            top = max(max(i for i, e in enumerate(m) if e) for m in least if sum(m) == d)
            assert find_maximal_contact(ideal) == FrameEntry(vs[top], Polynomial.zero(vs)), ideal

    def test_rejects_trivial_orders(self):
        with pytest.raises(ValueError):
            find_maximal_contact(LocalIdeal.unit(VS))
        with pytest.raises(ValueError):
            find_maximal_contact(LocalIdeal.zero(VS))

    def test_series_graph_raises(self):
        # the germ is smooth but not the graph of a polynomial, and an
        # order one ideal offers no reducers to clean with
        with pytest.raises(TriangularizationError) as err:
            find_maximal_contact(I("x + x*y + y^3"))
        assert err.value.polynomial is not None


def _random_generator(rng, vs, low, high, monomial):
    terms = {}
    for _ in range(1 if monomial else rng.randint(1, 4)):
        degree = rng.randint(low, high)
        mono = [0] * len(vs)
        for _ in range(degree):
            mono[rng.randrange(len(vs))] += 1
        terms[tuple(mono)] = Fraction(rng.choice((-3, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
    return Polynomial(vs, terms)


def _seeded_ideals(rng, kind, count):
    # "monomial": every generator a monomial; "monomial_low": the generators
    # of least order are monomials, higher ones are not; "mixed": anything
    for _ in range(count):
        vs = ("x", "y", "z", "w")[: rng.randint(2, 4)]
        d = rng.randint(1, 4 if len(vs) < 4 else 3)
        if kind == "monomial":
            gens = [_random_generator(rng, vs, d, d + 2, True) for _ in range(rng.randint(1, 3))]
            gens[0] = _random_generator(rng, vs, d, d, True)
        elif kind == "monomial_low":
            gens = [_random_generator(rng, vs, d, d, True) for _ in range(rng.randint(1, 2))]
            gens += [_random_generator(rng, vs, d + 1, d + 3, False) for _ in range(rng.randint(1, 2))]
            gens[-1] = gens[-1] + _random_generator(rng, vs, d + 1, d + 1, True)
        else:
            gens = [_random_generator(rng, vs, d, d + 3, False) for _ in range(rng.randint(1, 3))]
            gens[0] = gens[0] + _random_generator(rng, vs, d, d, True)
        ideal = LocalIdeal(vs, gens)
        lowest = [g for g in ideal.generators if g.ord_at_origin() == d]
        if ideal.order() != d or ideal.is_monomial() != (kind == "monomial"):
            continue
        if kind == "monomial_low" and not all(len(g.terms) == 1 for g in lowest):
            continue
        yield ideal


def _antiderivative(p, i):
    return Polynomial(
        p.variables,
        {m[:i] + (m[i] + 1,) + m[i + 1 :]: Fraction(c) / (m[i] + 1) for m, c in p.terms.items()},
    )


def _proportional_ideals(rng, count):
    # non-monomial g and h with d/dx g = c * d/dy h for a ratio c other than
    # 1, so that level 1 of the tower holds two proportional partials; that
    # level is an intermediate one once the order is at least 3
    for _ in range(count):
        vs = ("x", "y", "z")[: rng.randint(2, 3)]
        d = rng.randint(2, 4)
        q = _random_generator(rng, vs, d - 1, d + 1, False)
        q = q + _random_generator(rng, vs, d - 1, d - 1, True)
        if len(q.terms) < 2 or q.ord_at_origin() != d - 1:
            continue
        ratio = rng.choice((3, -2, Fraction(1, 2), Fraction(-2, 3)))
        gens = [_antiderivative(q.scale(ratio), 0), _antiderivative(q, 1)]
        gens += [_random_generator(rng, vs, d, d + 2, False) for _ in range(rng.randint(0, 1))]
        ideal = LocalIdeal(vs, gens)
        if ideal.order() == d:
            yield ideal


class TestCandidateTower:
    @pytest.mark.parametrize("kind", ["mixed", "monomial", "monomial_low", "proportional"])
    def test_candidates_are_the_order_one_generators_of_the_full_level(self, kind):
        # the truncated tower must give the same polynomials, in the same
        # order, as the order-one generators of the full derivative level
        rng = random.Random("candidate tower " + kind)
        if kind == "proportional":
            ideals = _proportional_ideals(rng, 150)
        else:
            ideals = _seeded_ideals(rng, kind, 150)
        seen = 0
        for ideal in ideals:
            d = ideal.order()
            full = derivative_tower(ideal, d - 1)[-1]
            expected = [g for g in full.generators if g.ord_at_origin() == 1]
            assert _order_one_candidates(ideal, d) == expected
            seen += d > 1
        assert seen > 60

    def test_candidates_build_no_ideal(self, monkeypatch):
        # the truncated levels stay term maps: no LocalIdeal is built
        rng = random.Random("candidate tower spy")
        ideals = [*_seeded_ideals(rng, "mixed", 40), *_proportional_ideals(rng, 40)]
        built = []
        init = LocalIdeal.__init__

        def spy(ideal, variables, generators):
            built.append(variables)
            init(ideal, variables, generators)

        monkeypatch.setattr(LocalIdeal, "__init__", spy)
        for ideal in ideals:
            assert _order_one_candidates(ideal, ideal.order())
        assert built == []
        derivative_tower(ideals[0], 1)
        assert built

    def test_full_level_only_for_cleaning(self, monkeypatch):
        built = []

        def spy(ideal, depth):
            built.append(depth)
            return derivative_tower(ideal, depth)

        monkeypatch.setattr(wblow.contact, "derivative_tower", spy)
        # the first candidate of the cusp is a graph: no full level
        assert element(find_maximal_contact(I("x^2 + y^3"))) == P("x")
        assert element(find_maximal_contact(I("x^2 + x*y^2"))) == P("x + 1/2*y^2")
        assert built == []
        # the one candidate, 12*x + 12*x^2 - 6*y^3, is no graph; cleaning it
        # against the other generators of D^2 builds that level once
        entry = find_maximal_contact(I("2*x^3 + x^4 - 3*x^2*y^3"))
        assert built == [2]
        assert element(entry) == P("x - 1/2*y^3")


class TestSlowContactFailures:
    # the slowest failures while levels in two variables were cleaned
    # against the 30-odd other generators of their derivative level.  The
    # second level of the first input is a power of -y - 2*z - y^2, a
    # series graph in y, so it is covered in the frame of its branch
    # (a2 = inf); it is the polynomial graph z = -(y + y^2)/2 as well, and
    # reads in that frame: the input is -x^2 * (z + y/2 + y^2/2), with the
    # invariant of x^2 * z.  With a z^2 term the candidate is a series
    # graph in both variables, and the level still raises
    @pytest.mark.parametrize("text", ["-1/2*x^2*y - x^2*z - 1/2*x^2*y^2"])
    def test_raises_triangularization_error(self, text):
        r = canonical_center(I(text, vs=VS3))
        assert r.invariant == (3, 3, INF)
        params = [(P("x", vs=VS3), 3), (P("z + 1/2*y + 1/2*y^2", vs=VS3), 3)]
        assert center_equal(r.center, frame_from_parameters(VS3, params))
        with pytest.raises(TriangularizationError) as err:
            canonical_center(I(text + " - 1/2*x^2*z^2", vs=VS3))
        assert str(err.value) == "contact candidate is not reducible to a coordinate graph"
        assert err.value.polynomial == P("-y - 2*z - y^2 - z^2", vs=("y", "z"))

    def test_plane_level_without_a_graph_answers(self):
        # its first level cleans its contact in three variables; the second
        # level, in two, raised while it was cleaned too, and now reads its
        # points in the frame of a truncated series contact
        ideal = I("x*y - 1/3*y*z - 2/3*x*y*z + 3*x^3*z", vs=VS3)
        r = canonical_center(ideal)
        assert r.invariant == (2, 2, 4, INF)
        assert r.center.admissible(ideal)
        assert [e.variable for e in r.center.entries] == ["y", "x", "z"]


class TestGraphSeries:
    def test_root_of_a_rational_graph(self):
        # x + x*y + y^3 = (1 + y) * (x + y^3 / (1 + y)), so the root is
        # x = -y^3 * (1 - y + y^2 - ...)
        assert graph_series(P("x + x*y + y^3"), "x", 9) == [0, 0, 0, -1, 1, -1, 1, -1, 1, -1]
        # the linear variable may be the second one, with a linear term in x
        assert graph_series(P("y - x - y^2"), "y", 5) == [0, 1, 1, 2, 5, 14]

    def test_root_annihilates_the_candidate(self):
        # p(phi(u), u) vanishes modulo u^(n+1), checked by substitution
        rng = random.Random(20261019)
        for _ in range(40):
            p = _random_polynomial(rng, VS, 2, 5) + P("x").scale(rng.choice([1, -2, 3]))
            n = rng.randint(1, 12)
            phi = graph_series(p, "x", n)
            image = Polynomial(VS, {(0, d): c for d, c in enumerate(phi)})
            assert phi[0] == 0
            rest = p.substitute_variable("x", image)
            assert all(m[1] > n for m in rest.terms), (p, n)

    def test_taylor_coefficients_are_the_frame_coefficients(self):
        # g written in t = x - phi and y has the coefficient g_s of t^s
        rng = random.Random(20261020)
        phi = [0, Fraction(1, 2), -1, 3, 0, 2]
        image = P("x") + Polynomial(VS, {(0, d): c for d, c in enumerate(phi)})
        for _ in range(20):
            g = _random_polynomial(rng, VS, 1, 6)
            shifted = g.substitute_variable("x", image)
            for s, coeffs in enumerate(taylor_along_graph(g, "x", phi)):
                expected = [shifted.terms.get((s, d), 0) for d in range(len(phi))]
                assert coeffs == expected, (g, s)


class TestPlaneContact:
    """Two-variable levels whose contact candidate is no polynomial graph
    read their exponents in the frame of a truncated series contact."""

    def test_series_contact(self):
        # the contact is x = -y^4/2 + O(y^8); the tail term -y^4/2 has
        # degree a2/a1 = 4 and is dropped from the presentation
        ideal = I("x^2 + 2*x^3 + x*y^4")
        r = canonical_center(ideal)
        assert r.invariant == (2, 8, INF)
        assert repr(r.center) == "[(x)^2, (y)^8]"
        expected = frame_from_parameters(VS, [(P("x + 1/2*y^4"), 2), (P("y"), 8)])
        assert center_equal(r.center, expected) and center_equal(expected, r.center)

    def test_sheared_brieskorn_pham(self):
        # y -> y - x^3 moves x^13 + y^15 off its graph contact; the
        # invariant is the one of x^13 + y^15
        x, y = P("x"), P("y")
        r = canonical_center(LocalIdeal(VS, [x**13 + (y - x**3) ** 15]))
        assert r.invariant == (13, 15, INF)

    @pytest.mark.parametrize(
        "text, variable, image, invariant",
        [
            ("-2*y^4 + 2*x*y^4 - 2*x^5*y", "x", "x - y^2", (4, Fraction(20, 3), INF)),
            ("x^2 + 3/2*x*y^2 - y^3", "y", "y + 1/2*x^2", (2, 3, INF)),
        ],
    )
    def test_tame_automorphism_keeps_the_invariant(self, text, variable, image, invariant):
        f = P(text)
        moved = f.substitute_variable(variable, P(image))
        assert canonical_center(LocalIdeal(VS, [f])).invariant == invariant
        assert canonical_center(LocalIdeal(VS, [moved])).invariant == invariant

    def test_vanishing_restriction_is_not_a_covered_level(self):
        # with t = x + y^2 + x*y, both generators of (t^2, t*y^5) vanish on
        # the branch t = 0, but d/dx (t*y^5) does not: in the frame (t, y)
        # the ideal is (t^2, t*y^5), as (x + y^2) is for the graph below
        t, g, y5 = P("x + y^2 + x*y"), P("x + y^2"), P("y^5")
        series = canonical_center(LocalIdeal(VS, [t**2, t * y5]))
        graph = canonical_center(LocalIdeal(VS, [g**2, g * y5]))
        assert series.invariant == graph.invariant == (2, 10, INF)

    @pytest.mark.parametrize("text", ["x + x*y + y^3", "x^2 + 2*x^2*y + 2*x*y^2 + x^2*y^2 + 2*x*y^3 + y^4"])
    def test_covered_level_raises(self, text):
        # the order-one node x + x*y + y^3 lies in its own branch's ideal,
        # which an exact division shows; (x + y^2 + x*y)^2 lies in the
        # square of it, which the series shows up to the Bezout bound
        with pytest.raises(TriangularizationError) as err:
            canonical_center(I(text))
        assert str(err.value) == "contact candidate is not reducible to a coordinate graph"
        assert err.value.polynomial.ord_at_origin() == 1

    def test_slow_resolve_failure_is_quick(self):
        # the resolution ends at an order-one node that is no graph; it
        # took 43 s of CPU while two-variable levels were cleaned
        start = time.process_time()
        with pytest.raises(TriangularizationError) as err:
            embedded_resolve(I("x^3 - x^2*y + 2*x^2*y^2 + 1/2*x^4*y"))
        assert time.process_time() - start < 5
        assert err.value.polynomial.ord_at_origin() == 1

    def test_plane_levels_clean_nothing(self, monkeypatch):
        # seeded two-variable ideals, the mixed shapes of the benchmark and
        # three-variable ideals whose first level is cleaned all answer, and
        # no cleaning step and no linear solve runs in two variables
        rng = random.Random(20261021)
        ideals = [
            LocalIdeal(VS, [_random_polynomial(rng, VS, 2, 5) for _ in range(rng.randint(1, 3))])
            for _ in range(200)
        ]
        corpus = benchmark_corpus()
        for case in corpus.build("generic", 0):
            if case.variables == VS:
                ideals.append(I(*case.generators))
        ideals += [
            I("x^2 - x^3 + 3*x^2*y - 3*x*y^2 + y^3 + z^3", vs=VS3),
            I("x*y - 1/3*y*z - 2/3*x*y*z + 3*x^3*z", vs=VS3),
        ]
        cleaned, solved, active = [], [], []
        clean, solve = wblow.contact._clean_with_reducers, wblow.contact.solve_linear

        def clean_spy(t, sigma, reducers):
            cleaned.append(len(t.variables))
            active.append(len(t.variables))
            try:
                return clean(t, sigma, reducers)
            finally:
                active.pop()

        def solve_spy(rows, ncols):
            solved.append(active[-1])
            return solve(rows, ncols)

        monkeypatch.setattr(wblow.contact, "_clean_with_reducers", clean_spy)
        monkeypatch.setattr(wblow.contact, "solve_linear", solve_spy)
        for ideal in ideals:
            canonical_center(ideal)
        assert cleaned and solved and min(cleaned + solved) == 3, (cleaned, solved)


class TestRestriction:
    def test_restrict_shifted(self):
        ideal = I("x^2 + x*y^2")
        entry = find_maximal_contact(ideal)
        restricted = restrict_to_contact(ideal, entry)
        assert restricted.variables == ("y",)
        assert [str(g) for g in restricted.generators] == ["-1/4*y^4"]

    def test_restrict_cusp(self):
        ideal = I("x^2 + y^3")
        restricted = restrict_to_contact(ideal, find_maximal_contact(ideal))
        assert [str(g) for g in restricted.generators] == ["y^3"]


def _sparse(matrix, rhs):
    # solve_linear's input for a dense system: {column: value} rows with
    # the right hand side in column ncols
    ncols = len(matrix[0]) if matrix else 0
    rows = []
    for r, b in zip(matrix, rhs):
        row = {j: v for j, v in enumerate(r) if v}
        if b:
            row[ncols] = b
        rows.append(row)
    return rows, ncols


class TestSolveLinear:
    def test_unique_solution(self):
        m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        assert solve_linear(*_sparse(m, [Fraction(5), Fraction(10)])) == [
            Fraction(1),
            Fraction(3),
        ]

    def test_inconsistent(self):
        m = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
        assert solve_linear(*_sparse(m, [Fraction(1), Fraction(3)])) is None

    def test_underdetermined_sets_free_variables_to_zero(self):
        m = [[Fraction(1), Fraction(1)]]
        assert solve_linear(*_sparse(m, [Fraction(4)])) == [Fraction(4), Fraction(0)]

    def test_empty(self):
        assert solve_linear([], 0) == []
        assert solve_linear([], 2) == [Fraction(0), Fraction(0)]

    def test_rows_are_not_modified(self):
        rows = [
            {0: Fraction(2), 1: Fraction(1), 2: Fraction(5)},
            {0: Fraction(1), 2: Fraction(1)},
        ]
        copy = [dict(r) for r in rows]
        solve_linear(rows, 2)
        assert rows == copy


def _dense_solve_linear(matrix, rhs):
    # the dense Gauss-Jordan elimination solve_linear replaced; the sparse
    # back-substitution keeps its pivot rule, so the solutions must agree
    # exactly
    if not matrix:
        return []
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    ncols = len(matrix[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    for i in range(rank, len(rows)):
        if rows[i][ncols]:
            return None
    solution = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        solution[col] = rows[i][ncols]
    return solution


def _random_system(rng, kind):
    if kind == "large":
        # long back-substitution chains and many free variables
        nrows, ncols = rng.randint(8, 12), rng.randint(8, 14)
    else:
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)

    def entry():
        # mostly zeros, like the contact systems
        if rng.random() < 0.6:
            return Fraction(0)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    matrix = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    x = [entry() for _ in range(ncols)]
    rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in matrix]
    if kind == "rank_deficient" and nrows >= 2:
        # a row that combines two others, with the matching right hand side
        i, j = rng.sample(range(nrows), 2)
        f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        matrix.append([a + f * b for a, b in zip(matrix[i], matrix[j])])
        rhs.append(rhs[i] + f * rhs[j])
    elif kind == "zero_rows":
        for _ in range(rng.randint(1, 3)):
            at = rng.randint(0, len(matrix))
            matrix.insert(at, [Fraction(0)] * ncols)
            rhs.insert(at, Fraction(0))
    elif kind == "inconsistent":
        i = rng.randrange(nrows)
        f = Fraction(rng.randint(1, 3))
        matrix.append([f * a for a in matrix[i]])
        rhs.append(f * rhs[i] + 1)
    return matrix, rhs


class TestSparseAgainstDense:
    @pytest.mark.parametrize(
        "kind", ["consistent", "rank_deficient", "zero_rows", "inconsistent", "large"]
    )
    def test_identical_solutions(self, kind):
        rng = random.Random(kind)
        for _ in range(200):
            matrix, rhs = _random_system(rng, kind)
            expected = _dense_solve_linear(matrix, rhs)
            got = solve_linear(*_sparse(matrix, rhs))
            assert got == expected
            if kind == "inconsistent":
                assert got is None
            else:
                assert got is not None
                for row, b in zip(matrix, rhs):
                    assert sum((a * v for a, v in zip(row, got)), Fraction(0)) == b

    @pytest.mark.parametrize("kind", ["consistent", "rank_deficient", "inconsistent"])
    def test_row_order_and_empty_rows_do_not_matter(self, kind):
        rng = random.Random("shuffle " + kind)
        for _ in range(200):
            rows, ncols = _sparse(*_random_system(rng, kind))
            expected = solve_linear(rows, ncols)
            moved = rows + [{} for _ in range(rng.randint(1, 3))]
            rng.shuffle(moved)
            assert solve_linear(moved, ncols) == expected
