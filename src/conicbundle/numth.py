"""Integer arithmetic helpers: primality, factorization, Euler's phi.

Everything here is exact.  Deterministic throughout: the rho splitter walks a
fixed schedule of parameters, so repeated runs factor the same way.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, log, prod

import numpy as np

# The first 13 primes as Miller-Rabin witnesses prove primality for every
# n < psi_13 (Sorenson & Webster, Math. Comp. 86, 2017).  An n >= psi_13
# that passes them all is only a probable prime: is_prime raises instead of
# answering (the recomposition check in factor() does not certify primality).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981

_SMALL_PRIME_BOUND = 10_000

# bytes per segment of the prime sieve
_SEGMENT = 1 << 20

# squarings one _rho_split may spend; rho takes about sqrt(p) of them to
# find a prime factor p, so this reaches a least prime factor of ~10^12
_RHO_SQUARINGS = 1 << 21


@lru_cache(maxsize=None)
def _small_primes() -> tuple[int, ...]:
    return tuple(int(p) for p in primes_up_to(_SMALL_PRIME_BOUND))


def prime_segments(n: int):
    """Segmented sieve of Eratosthenes (Bays & Hudson, BIT 17, 1977): the
    primes <= n as ascending int64 arrays, first those up to sqrt(n)
    (possibly none), then those of each _SEGMENT-byte segment of (sqrt(n), n].
    """
    r = isqrt(n)
    base = primes_up_to(r)
    yield base
    for lo in range(r + 1, n + 1, _SEGMENT):
        seg = np.ones(min(_SEGMENT, n + 1 - lo), dtype=bool)
        # every multiple of p >= lo > sqrt(n) >= p is composite
        for p in base.tolist():
            seg[(-lo) % p :: p] = False
        yield np.flatnonzero(seg) + lo


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array.

    The segments of prime_segments go into one array sized by
    pi(n) < 1.25506 n / ln n (Rosser & Schoenfeld, Illinois J. Math. 6,
    1962) and shrunk in place at the end, so the sieve never holds the
    primes twice: beside its output it holds one segment and the slack of
    that bound.
    """
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    out = np.empty(int(1.25506 * n / log(n)) + 1, dtype=np.int64)
    count = 0
    for seg in prime_segments(n):
        out[count : count + len(seg)] = seg
        count += len(seg)
    out.resize(count, refcheck=False)
    return out


def projective_normal(v) -> tuple[int, ...]:
    """The primitive integer vector on the line of v, first nonzero entry > 0."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector is not projective")
    for lead in v:
        if lead:
            break
    if lead < 0:
        g = -g
    return tuple(v) if g == 1 else tuple(x // g for x in v)


def is_prime(n: int) -> bool:
    """Deterministic below psi_13; ArithmeticError for a larger probable prime."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI_13:
        raise ArithmeticError(f"cannot prove {n} prime: it passes every witness below 43")
    return True


def _rho_split(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle walk).

    Raises ArithmeticError past _RHO_SQUARINGS squarings.
    """
    if n % 2 == 0:
        return 2
    budget = _RHO_SQUARINGS
    # fixed schedule of polynomial offsets keeps this deterministic
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            budget -= r
            k = 0
            while k < r and g == 1:
                if budget < 0:
                    raise ArithmeticError(
                        f"rho found no factor of {n} in {_RHO_SQUARINGS} squarings"
                    )
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                budget -= min(m, r - k)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


@dataclass(frozen=True)
class FactoredInteger:
    """n together with its factorization into prime powers.

    factors is sorted by prime; recomposing always returns value exactly.
    """

    value: int
    sign: int
    factors: tuple[tuple[int, int], ...]

    def recompose(self) -> int:
        return self.sign * prod(p**e for p, e in self.factors)

    def divisors(self) -> list[int]:
        """All positive divisors of |value|, ascending."""
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        return sorted(divs)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


def factor(n: int) -> FactoredInteger:
    """Factor a nonzero integer: trial division by small primes, then rho."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    m = abs(n)
    found: dict[int, int] = {}
    for p in _small_primes():
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        k = stack.pop()
        if k == 1:
            continue
        if is_prime(k):
            found[k] = found.get(k, 0) + 1
            continue
        d = _rho_split(k)
        stack.append(d)
        stack.append(k // d)
    fi = FactoredInteger(value=n, sign=sign, factors=tuple(sorted(found.items())))
    assert fi.recompose() == n
    return fi


def euler_phi(a: int) -> int:
    if a < 1:
        raise ValueError("phi wants a positive integer")
    if a == 1:
        return 1
    result = a
    for p, _ in factor(a).factors:
        result = result // p * (p - 1)
    return result
