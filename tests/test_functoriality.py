"""Functoriality under the smooth morphism X x A^1 -> X.

Adjoining a free variable w to the ring changes nothing: the invariant is
the same, the center is the same once its tails are embedded, and a tree
has the same status and the same (status, invariant) at each node.  Where
one side raises, the other raises the same error class, except on the
inputs named below.  The extra variable also moves a level in two
variables from the Newton reader to the generic level, so the reader is
checked against an independent route.
"""

import random

from test_closed_form import _random_polynomial
from wblow.canonical import canonical_center
from wblow.center import FrameEntry, TriangularizationError, WeightedCenter, center_equal
from wblow.driver import embedded_resolve, principalize
from wblow.ideals import LocalIdeal

# Inputs that answer in two variables, where a level whose contact is no
# polynomial graph is read in the frame of a truncated series contact,
# while their copies with w adjoined still raise TriangularizationError:
# the level is then in three variables, and its contact search cleans
# and fails.
CENTER_GAPS = {"(-1/2*x^2 + 2*x^3*y + x*y^3)"}
TREE_GAPS = {
    "(1/2*x^2*y^2, -x*y + 1/2*x*y^2 + 2*x^4)",
    "(-x*y + x^4 + 3*y^4, 1/2*x^4)",
    "(3*y^4, -x*y + x^4 - 2*x^3*y)",
}


def _random_ideals(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        variables, high = (("x", "y"), 4) if i % 4 else (("x", "y", "z"), 3)
        gens = [_random_polynomial(rng, variables, 2, high) for _ in range(rng.randint(1, 2))]
        yield LocalIdeal(variables, gens)


def _with_w(ideal):
    variables = ideal.variables + ("w",)
    return LocalIdeal(variables, [g.embed(variables) for g in ideal.generators])


def _outcome(call, ideal):
    try:
        return call(ideal), None
    except Exception as exc:  # compared by class with the other side
        return None, type(exc)


def _embedded_center(center, variables):
    entries = [FrameEntry(v, tail.embed(variables)) for v, tail in center.entries]
    return WeightedCenter(variables, entries, center.exponents)


def _nodes(tree):
    return [(n.status, n.invariant) for n in tree.nodes.values()]


def _gap(ideal, gaps, error, big_error) -> bool:
    """Whether the input is a named gap; a named gap must still be one."""
    if repr(ideal) not in gaps:
        return False
    assert error is None and big_error is TriangularizationError, ideal
    return True


def test_adjoining_a_free_variable_keeps_the_center():
    compared = gaps = 0
    for ideal in _random_ideals(20261101, 300):
        base, error = _outcome(canonical_center, ideal)
        big, big_error = _outcome(canonical_center, _with_w(ideal))
        if _gap(ideal, CENTER_GAPS, error, big_error):
            gaps += 1
            continue
        assert error is big_error, ideal
        if error is not None:
            continue
        assert big.invariant == base.invariant, ideal
        if base.center is not None:
            embedded = _embedded_center(base.center, big.center.variables)
            assert center_equal(big.center, embedded), ideal
            compared += 1
    assert compared > 250, compared
    assert gaps == len(CENTER_GAPS)


def test_adjoining_a_free_variable_keeps_the_tree():
    compared = gaps = 0
    for i, ideal in enumerate(_random_ideals(20261102, 80)):
        call = embedded_resolve if i % 2 and len(ideal.generators) == 1 else principalize
        base, error = _outcome(call, ideal)
        big, big_error = _outcome(call, _with_w(ideal))
        if _gap(ideal, TREE_GAPS, error, big_error):
            gaps += 1
            continue
        assert error is big_error, ideal
        if error is not None:
            continue
        assert big.status == base.status, ideal
        assert _nodes(big) == _nodes(base), ideal
        compared += 1
    assert compared > 60, compared
    assert gaps == len(TREE_GAPS)
