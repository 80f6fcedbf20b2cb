"""In-memory spans around the calls into each conicbundle module.

A span is ``[name, parent, start, end, error]``: ``parent`` is the index of
the enclosing span (-1 at top level), times are ``time.perf_counter``
seconds, ``error`` is the exception type name or None.  Calls are wrapped at
the module attribute each caller resolves, so ``src/`` is not modified: a
function imported by name into two modules is wrapped in both.  A generator
is timed inside each ``next``, so the caller's loop body between items is
not charged to it.  Counters are exact counts of work, taken from the
wrapped calls' arguments and results.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), None, None])
        self._stack.append(len(self.spans) - 1)

    def _close(self, error: str | None = None) -> None:
        span = self.spans[self._stack.pop()]
        span[3] = perf_counter()
        span[4] = error

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a function that records one span per call.

        ``after(args, kwargs, result)`` runs outside the span on success.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counters[name + ".calls"] += 1
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(type(exc).__name__)
                raise
            self._close()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str, after=None) -> None:
        """Like ``wrap`` for a generator function: one span per ``next``.

        ``after(item)`` runs outside the span for every item yielded.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counters[name + ".calls"] += 1
            return self._steps(fn(*args, **kwargs), name, after)

        setattr(owner, attr, traced)

    def _steps(self, gen, name: str, after):
        while True:
            self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                self._close()
                return
            except BaseException as exc:
                self._close(type(exc).__name__)
                raise
            self._close()
            if after is not None:
                after(item)
            yield item


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    from conicbundle import analytic, conic, densities, harness, modsolve

    counters = tracer.counters

    def fibre_counted(args, kwargs, res):
        bound = math.floor(args[1] if len(args) > 1 else kwargs["B"])
        m = res.min_norm
        # the base-box half-width count_points derives from its norm floor
        u1 = math.isqrt(bound * m.denominator // m.numerator) + 1
        counters["conic.points"] += res.count
        counters["conic.box_cells"] += (2 * u1 + 1) ** 2
        counters["conic.uncertified"] += 0 if res.certified else 1

    def classes_found(item):
        counters["modsolve.classes"] += len(item[1])

    def cache_read(args, kwargs, result):
        counters["harness.cache_misses" if result is None else "harness.cache_hits"] += 1

    def primes_listed(args, kwargs, result):
        counters["analytic.primes"] += len(result)

    tracer.wrap(harness, "load_surface", "surface.load_surface")
    tracer.wrap(harness, "count_points", "conic.count_points", fibre_counted)
    for owner in (conic, densities):
        tracer.wrap(owner, "certified_min_m", "conic.certified_min_m")
    tracer.wrap_generator(
        conic, "divisor_solutions", "modsolve.divisor_solutions", classes_found
    )
    tracer.wrap_generator(conic, "iter_lattice_points", "modsolve.iter_lattice_points")
    for owner in (modsolve, densities):
        tracer.wrap(
            owner, "solutions_mod_prime_power", "modsolve.solutions_mod_prime_power"
        )
    tracer.wrap(densities, "bad_prime_product", "densities.bad_prime_product")
    tracer.wrap(densities, "sigma_inf", "densities.sigma_inf")
    tracer.wrap(harness, "wirsing_sum", "analytic.wirsing_sum")
    tracer.wrap(analytic, "shared_primes", "analytic.shared_primes", primes_listed)
    tracer.wrap(analytic, "rho_star_prime_vector", "analytic.rho_star_prime_vector")
    tracer.wrap(harness.ResultCache, "get", "harness.cache_get", cache_read)
    tracer.wrap(harness.ResultCache, "put", "harness.cache_put")
