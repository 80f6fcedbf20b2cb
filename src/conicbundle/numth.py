"""Integer arithmetic helpers: primality, factorization, multiplicative functions.

Everything here is exact.  Deterministic throughout: the rho splitter walks a
fixed schedule of parameters, so repeated runs factor the same way.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod

import numpy as np

# Witnesses proving primality for every n < 3.3 * 10**24 (deterministic
# Miller-Rabin).  Larger inputs reuse the same fixed set; factor() then
# certifies results a posteriori by recomposition.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIME_BOUND = 10_000


@lru_cache(maxsize=None)
def _small_primes() -> tuple[int, ...]:
    return tuple(int(p) for p in primes_up_to(_SMALL_PRIME_BOUND))


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


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
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    return True


def _rho_split(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle walk)."""
    if n % 2 == 0:
        return 2
    # fixed schedule of polynomial offsets keeps this deterministic
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
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


def phi_dagger(a: int) -> Fraction:
    """prod over p | a of (1 + 1/p); equals 1 at a = 1."""
    if a < 1:
        raise ValueError("phi_dagger wants a positive integer")
    out = Fraction(1)
    if a > 1:
        for p, _ in factor(a).factors:
            out *= Fraction(p + 1, p)
    return out


class MultiplicativeFn:
    """A multiplicative function supported on squarefree integers.

    Defined by its values at primes; value_at(a) = prod of prime values for
    squarefree a and 0 otherwise.
    """

    def __init__(self, prime_value, name: str = "g"):
        self._prime_value = prime_value
        self.name = name

    def at_prime(self, p: int):
        return self._prime_value(p)

    def value_at(self, a: int):
        if a == 1:
            return Fraction(1)
        fi = factor(a)
        if not fi.is_squarefree():
            return Fraction(0)
        out = Fraction(1)
        for p, _ in fi.factors:
            out *= self._prime_value(p)
        return out

    __call__ = value_at


# ---------------------------------------------------------------------------
# polynomial roots mod m

def _poly_eval_mod(coeffs: list[int], x: int, m: int) -> int:
    # ascending coefficients
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _modp_normalize(coeffs: list[int], p: int) -> list[int]:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def find_roots_mod_p(coeffs: list[int], p: int) -> list[int]:
    """Distinct roots in Z/p of a polynomial with integer coefficients.

    Scans when p is small; otherwise splits gcd(x^p - x, f) down to linear
    factors with a deterministic sequence of shifts.
    """
    f = _modp_normalize(coeffs, p)
    if not f:
        return list(range(p))  # identically zero mod p
    if len(f) == 1:
        return []
    if p <= 1000:
        return [x for x in range(p) if _poly_eval_mod(f, x, p) == 0]
    from .zpoly import gf_gcd, gf_pow_xp_mod

    fp = tuple(f)
    xp = gf_pow_xp_mod(fp, p)  # x^p mod f
    # x^p - x
    g = list(xp)
    while len(g) < 2:
        g.append(0)
    g[1] = (g[1] - 1) % p
    splitter = gf_gcd(tuple(g), fp, p)  # product of (x - r) over roots r
    roots: list[int] = []
    stack = [splitter]
    shift = 0
    while stack:
        h = stack.pop()
        deg = len(h) - 1
        if deg == 0:
            continue
        if deg == 1:
            # h = c1 x + c0
            roots.append(-h[0] * pow(h[1], -1, p) % p)
            continue
        # split by gcd with (x + shift)^((p-1)/2) - 1
        while True:
            shift += 1
            from .zpoly import gf_pow_mod

            base = (shift % p, 1)
            w = list(gf_pow_mod(base, (p - 1) // 2, h, p))
            if not w:
                w = [0]
            w[0] = (w[0] - 1) % p
            d = gf_gcd(tuple(w), h, p)
            if 0 < len(d) - 1 < deg:
                from .zpoly import gf_divmod

                q, r = gf_divmod(h, d, p)
                assert not any(r), "split must be exact"
                stack.append(d)
                stack.append(q)
                break
    return sorted(roots)
