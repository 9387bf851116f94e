"""A seeded census of sparse ideals as the robustness measure.

The draw holds 400 ideals in 3-4 variables with 1-3 generators of 1-3
terms, each term of degree 2-5 with a coefficient in {-1, 1, 2, 3}.
The corpus of the benchmark fails in few shapes; the census shows more.
Each failure is named by its error class and the kind of ideal it
happened at: order, number of generators, number of variables.  The
tally is pinned as it stands, and its counts may only improve.
"""

import random
import time
from collections import Counter

from wblow.arith import Polynomial
from wblow.canonical import canonical_center
from wblow.ideals import LocalIdeal

VARIABLES = ("x", "y", "z", "w")

# (error class, order, generators, variables) of each failing
# canonical_center call, with its count; the other 390 calls answer
CENTER_FAILURES = Counter(
    {
        ("TriangularizationError", 2, 1, 3): 2,
        ("TriangularizationError", 2, 1, 4): 3,
        ("TriangularizationError", 2, 2, 3): 2,
        ("TriangularizationError", 2, 2, 4): 1,
        ("TriangularizationError", 2, 3, 4): 2,
    }
)


def census_ideals(seed=7, count=400):
    rng = random.Random(seed)
    for _ in range(count):
        vs = VARIABLES[: rng.randint(3, 4)]
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = [0] * len(vs)
                for _ in range(rng.randint(2, 5)):
                    mono[rng.randrange(len(vs))] += 1
                terms[tuple(mono)] = rng.choice((-1, 1, 2, 3))
            gens.append(Polynomial(vs, terms))
        yield LocalIdeal(vs, gens)


def _kind(ideal):
    return (ideal.order(), len(ideal.generators), len(ideal.variables))


def test_canonical_center_census():
    ok = 0
    failures = Counter()
    start = time.process_time()
    for ideal in census_ideals():
        try:
            result = canonical_center(ideal)
        except Exception as exc:  # the tally names every failure
            failures[(type(exc).__name__,) + _kind(ideal)] += 1
            continue
        assert result.center.admissible(ideal), ideal
        ok += 1
    assert time.process_time() - start < 5
    assert ok + sum(failures.values()) == 400
    # counts may only improve: no new kind of failure, none more often
    assert not failures - CENTER_FAILURES, failures - CENTER_FAILURES
