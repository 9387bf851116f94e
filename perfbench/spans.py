"""Spans and counters around the package's layer boundaries.

The package has no timers of its own, so the traced pass wraps its
functions from outside.  A wrapper must replace every binding callers
look up: ``from .center import graph_normalize`` copies the function into
``wblow.contact``, and ``_kernel_py.pow_terms`` calls its own module's
``mul_terms``.  `Tracer.install` therefore replaces a function in every
``wblow`` module whose namespace holds that very object, and methods on
their classes.

Spans are kept in flat arrays while the pass runs (name, parent, start,
end) and are only reduced to self times and written out at the end.  A
span's self time is its duration minus the durations of its direct
children; the self times of all spans under a case therefore add up to
the case's own span exactly.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

# span names; the first part of a name is the package module it measures,
# "case" is the benchmark's own call into the package
SPANS = (
    "case",
    "canonical.center",
    "ideals.canon",
    "ideals.derivative",
    "ideals.power",
    "contact.find",
    "contact.restrict",
    "contact.solve",
    "center.graph_normalize",
    "center.admissible",
    "blowup.chart",
    "blowup.transform",
    "driver.run",
    "kernel.mul",
    "arith.substitute",
    "arith.translate",
)

# counters that repeat exactly on a rerun of the same cases
COUNTERS = (
    "canonical.calls",
    "ideals.canon_calls",
    "ideals.gens_in",
    "ideals.gens_kept",
    "ideals.max_gens",
    "contact.find_calls",
    "contact.solve_calls",
    "contact.max_rows",
    "center.admissible_calls",
    "blowup.transform_calls",
    "kernel.mul_calls",
    "kernel.terms_out",
    "arith.max_coeff_bits",
)


def coeff_bits(polys) -> int:
    """Largest bit length of a numerator or denominator among the terms."""
    best = 0
    for p in polys:
        for c in p.terms.values():
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    """Records spans and counts while installed; one instance per pass."""

    def __init__(self):
        self.names = array("b")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = [-1]
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    def close_all(self) -> None:
        """End every span still open after a case was interrupted.

        The interrupt can land anywhere in a wrapper's bookkeeping, so a
        half-recorded span is dropped and open ones end now."""
        now = time.perf_counter()
        n = min(len(self.names), len(self.parents), len(self.starts), len(self.ends))
        for arr in (self.names, self.parents, self.starts, self.ends):
            del arr[n:]
        while len(self.stack) > 1:
            idx = self.stack.pop()
            if idx < n and self.ends[idx] != self.ends[idx]:  # still NaN
                self.ends[idx] = now

    def wrap(self, name: str, fn, after: Optional[Callable] = None):
        """`fn` inside a span; `after(args, result)` updates the counts."""
        nid = SPANS.index(name)
        names, parents, starts, ends, stack = (
            self.names,
            self.parents,
            self.starts,
            self.ends,
            self.stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(float("nan"))
            starts.append(clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- installation ----------------------------------------------------------

    def _replace_function(self, modules, owner, attr, wrapper) -> None:
        original = getattr(owner, attr)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(lambda m=mod, k=key, v=value: setattr(m, k, v))

    def _replace_method(self, cls, attr, wrapper) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper)
        self._undo.append(lambda: setattr(cls, attr, original))

    def install(self, wblow) -> None:
        modules = [m for n, m in sys.modules.items() if n == "wblow" or n.startswith("wblow.")]
        c = self.counts

        def bump(name, n=1):
            c[name] += n

        def raise_to(name, value):
            if value > c[name]:
                c[name] = value

        def after_center(args, result):
            bump("canonical.calls")
            raise_to("arith.max_coeff_bits", coeff_bits(args[0].generators))

        def after_find(args, result):
            bump("contact.find_calls")

        def after_solve(args, result):
            bump("contact.solve_calls")
            raise_to("contact.max_rows", len(args[0]))

        def after_admissible(args, result):
            bump("center.admissible_calls")

        def after_transform(args, result):
            bump("blowup.transform_calls")

        def after_mul(args, result):
            bump("kernel.mul_calls")
            bump("kernel.terms_out", len(result))

        def after_substitute(args, result):
            raise_to("arith.max_coeff_bits", coeff_bits((result,)))

        init = wblow.LocalIdeal.__init__

        def canon(ideal, variables, generators):
            gens = list(generators)
            init(ideal, variables, gens)
            bump("ideals.canon_calls")
            bump("ideals.gens_in", len(gens))
            bump("ideals.gens_kept", len(ideal.generators))
            raise_to("ideals.max_gens", len(ideal.generators))

        m = sys.modules
        for owner, attr, span, after in (
            (m["wblow.canonical"], "canonical_center", "canonical.center", after_center),
            (m["wblow.ideals"], "derivative_ideal", "ideals.derivative", None),
            (m["wblow.contact"], "find_maximal_contact", "contact.find", after_find),
            (m["wblow.contact"], "restrict_to_contact", "contact.restrict", None),
            (m["wblow.contact"], "solve_linear", "contact.solve", after_solve),
            (m["wblow.center"], "graph_normalize", "center.graph_normalize", None),
            (m["wblow.blowup"], "canonical_blowup", "blowup.chart", None),
            (m["wblow.blowup"], "weighted_transform", "blowup.transform", after_transform),
            (
                m["wblow.blowup"],
                "strict_transform_hypersurface",
                "blowup.transform",
                after_transform,
            ),
            (m["wblow.driver"], "_run", "driver.run", None),
            (m["wblow.kernel"], "mul_terms", "kernel.mul", after_mul),
        ):
            self._replace_function(modules, owner, attr, self.wrap(span, getattr(owner, attr), after))
        for cls, attr, span, after in (
            (wblow.LocalIdeal, "__pow__", "ideals.power", None),
            (wblow.WeightedCenter, "admissible", "center.admissible", after_admissible),
            (wblow.Polynomial, "substitute", "arith.substitute", after_substitute),
            (wblow.Polynomial, "translate", "arith.translate", None),
        ):
            self._replace_method(cls, attr, self.wrap(span, cls.__dict__[attr], after))
        self._replace_method(wblow.LocalIdeal, "__init__", self.wrap("ideals.canon", canon))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reduction -------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        names = np.frombuffer(self.names, dtype=np.int8).astype(np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(
            self.starts, dtype=np.float64
        )
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
        own = np.bincount(names, weights=dur - covered, minlength=len(SPANS))
        return {name: float(own[i]) for i, name in enumerate(SPANS)}

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            span_names=np.array(SPANS),
            name=np.frombuffer(self.names, dtype=np.int8),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )
