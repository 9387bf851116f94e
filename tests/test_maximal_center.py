"""The canonical center as the unique admissible center of maximal
invariant.

Abramovich, Temkin and Wlodarczyk characterize the canonical center J of
an ideal I (arXiv:1906.07106): among the weighted centers for which I is
admissible, J has the lexicographically largest exponent sequence
(a_1, ..., a_k), and it is the only one with that sequence.
WeightedCenter.admissible is exact, so two checks follow that need no
reference value and apply to any input and any tree node:

* maximality: raising a_i by a small delta, and the later exponents as
  far as needed to keep them weakly increasing, leaves I inadmissible;
  admissibility is monotone in a_i, so one tiny delta is the strongest
  test;
* uniqueness: adding to the tail of entry i a monomial m with
  nu_J(m) < 1/a_i, in variables outside entries 1 to i, gives a center
  with the same exponents that is either J itself or not admissible.

Both test only the frame the package chose; tests/test_functoriality.py
covers other frames.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from test_closed_form import _random_polynomial
from wblow.arith import Polynomial
from wblow.canonical import canonical_center
from wblow.center import FrameEntry, TriangularizationError, WeightedCenter, center_equal
from wblow.driver import embedded_resolve, principalize
from wblow.ideals import LocalIdeal

DELTA = Fraction(1, 10**6)


def _seeded_ideals(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        variables, high = (("x", "y"), 5) if i % 3 else (("x", "y", "z"), 3)
        gens = [_random_polynomial(rng, variables, 2, high) for _ in range(rng.randint(1, 2))]
        yield LocalIdeal(variables, gens)


def raised_centers(center):
    """For each entry i, the center with a_i raised by DELTA and every
    later exponent raised to at least a_i + DELTA."""
    exps = center.exponents
    for i, a in enumerate(exps):
        raised = list(exps[:i]) + [max(e, a + DELTA) for e in exps[i:]]
        yield WeightedCenter(center.variables, center.entries, raised)


def perturbed_centers(center, degree=2):
    """For each entry i, the centers whose tail i gains a monomial m of
    degree at most `degree` with nu(m) < 1/a_i, in the variables outside
    entries up to i."""
    vs = center.variables
    for i, (entry, a) in enumerate(zip(center.entries, center.exponents)):
        taken = {ent.variable for ent in center.entries[: i + 1]}
        free = [v for v in vs if v not in taken]
        for d in range(1, degree + 1):
            for mono in combinations_with_replacement(free, d):
                m = Polynomial(vs, {tuple(mono.count(v) for v in vs): 1})
                if not center.nu(m) < 1 / a:
                    continue
                entries = list(center.entries)
                entries[i] = FrameEntry(entry.variable, entry.tail + m)
                yield WeightedCenter(vs, entries, center.exponents)


def check_maximal_and_unique(ideal, center):
    """Counts of raised and perturbed centers, each checked."""
    raised = perturbed = 0
    for other in raised_centers(center):
        assert not other.admissible(ideal), (ideal, center, other)
        raised += 1
    for other in perturbed_centers(center):
        assert center_equal(other, center) or not other.admissible(ideal), (ideal, center, other)
        perturbed += 1
    return raised, perturbed


def _centers_of_trees(ideals):
    """Ideal and center of every node of the principalization and, for a
    hypersurface, the resolution tree of each ideal."""
    for ideal in ideals:
        runs = [principalize] + [embedded_resolve] * (len(ideal.generators) == 1)
        for run in runs:
            try:
                tree = run(ideal)
            except TriangularizationError:
                continue
            for node in tree.nodes.values():
                if node.center is not None:
                    yield node.ideal, node.center


def test_seeded_centers_are_maximal_and_unique():
    raised = perturbed = 0
    for ideal in _seeded_ideals(20261020, 400):
        try:
            center = canonical_center(ideal).center
        except TriangularizationError:
            continue
        r, p = check_maximal_and_unique(ideal, center)
        raised += r
        perturbed += p
    assert raised > 700 and perturbed > 500, (raised, perturbed)


def test_tree_nodes_are_maximal_and_unique():
    xy = ("x", "y")
    plane = [
        LocalIdeal(xy, [Polynomial(xy, {(a, 0): 1, (0, b): sign})])
        for a in range(2, 13)
        for b in range(a, 13)
        for sign in (1, -1)
    ]
    nodes = raised = perturbed = 0
    for ideal, center in _centers_of_trees(plane + list(_seeded_ideals(20261021, 120))):
        r, p = check_maximal_and_unique(ideal, center)
        nodes += 1
        raised += r
        perturbed += p
    assert nodes > 800 and raised > 1200 and perturbed > 1600, (nodes, raised, perturbed)
