import random

import numpy as np
import pytest
import sympy
from sympy.abc import x as X

from conicbundle.numth import primes_up_to
from conicbundle.zpoly import (
    deg,
    gf_gcd,
    gf_pow_xp_mod,
    gf_roots,
    trim,
    z_factor,
    z_mul,
)


def _to_sympy(coeffs):
    return sum(int(c) * X**i for i, c in enumerate(coeffs))


def _sympy_factorization(coeffs):
    content, factors = sympy.factor_list(sympy.Poly(_to_sympy(coeffs), X))
    out = {}
    for poly, mult in factors:
        key = tuple(int(c) for c in reversed(sympy.Poly(poly, X).all_coeffs()))
        out[key] = mult
    return int(content), out


def _canonical(fac):
    content, parts = fac
    out = {}
    for poly, mult in parts:
        poly = tuple(poly)
        # sympy normalizes to positive leading coefficient too
        if poly[-1] < 0:
            poly = tuple(-c for c in poly)
            if mult % 2:
                content = -content
        out[poly] = out.get(poly, 0) + mult
    return content, out


@pytest.mark.parametrize("seed", range(6))
def test_z_factor_random_products_match_sympy(seed):
    rng = random.Random(seed)
    for _ in range(12):
        f = (1,)
        for _ in range(rng.randint(1, 3)):
            g = tuple(rng.randint(-6, 6) for _ in range(rng.randint(2, 4)))
            if not trim(g):
                g = (1, 1)
            f = z_mul(f, g)
        f = trim(f)
        if deg(f) < 1:
            continue
        got_c, got = _canonical(z_factor(f))
        want_c, want = _sympy_factorization(f)
        assert got == want
        assert got_c == want_c


def test_z_factor_known_shapes():
    # (x^2+1)(x-1)^2 * 6
    f = trim((6, -12, 12, -12, 6))
    c, parts = z_factor(f)
    recomposed = (c,)
    for poly, mult in parts:
        for _ in range(mult):
            recomposed = z_mul(recomposed, poly)
    assert trim(recomposed) == f


def test_z_factor_linear_factors_with_many_divisors():
    # linear factors come out of the modular route; a linear leftover after
    # the content is removed is recorded as it is
    M = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    for f in (z_mul(z_mul((-1, M), (M, 1)), (1, 0, 1)),
              z_mul((M, -M * M + 1), (2, 3)),
              (-4 * M, 6 * M)):
        got_c, got = _canonical(z_factor(f))
        want_c, want = _sympy_factorization(f)
        assert got == want
        assert got_c == want_c


def test_z_factor_rejects_zero():
    with pytest.raises(ValueError):
        z_factor((0, 0))


def test_z_factor_irreducible_quintic():
    # ascending coefficients of a known irreducible quintic
    f = (-1, 0, -2, 2, -1, 1)
    _, parts = z_factor(f)
    assert len(parts) == 1 and parts[0][1] == 1


def _gf_poly_to_sympy(coeffs, p):
    return sympy.Poly(_to_sympy(coeffs), X, modulus=p)


@pytest.mark.parametrize("p", [2, 3, 5, 13, 101])
def test_gf_gcd_matches_sympy(p):
    rng = random.Random(p + 1)
    for _ in range(15):
        a = tuple(rng.randrange(p) for _ in range(rng.randint(2, 6)))
        b = tuple(rng.randrange(p) for _ in range(rng.randint(2, 6)))
        if not trim(tuple(c % p for c in a)) or not trim(tuple(c % p for c in b)):
            continue
        got = gf_gcd(a, b, p)
        want = _gf_poly_to_sympy(a, p).gcd(_gf_poly_to_sympy(b, p))
        want_coeffs = tuple(int(c) % p for c in reversed(want.all_coeffs()))
        assert got == want_coeffs


@pytest.mark.parametrize("p", [3, 5, 11])
def test_gf_pow_xp_mod(p):
    rng = random.Random(p)
    for _ in range(10):
        f = tuple(rng.randrange(p) for _ in range(4)) + (1,)
        got = gf_pow_xp_mod(f, p)
        xp = sympy.Poly(X**p, X, modulus=p)
        want = xp.rem(_gf_poly_to_sympy(f, p))
        want_coeffs = tuple(int(c) % p for c in reversed(want.all_coeffs())) if want.all_coeffs() != [0] else ()
        assert trim(got) == trim(want_coeffs)


def _brute_roots(coeffs, m):
    """Every x in Z/m with f(x) = 0 mod m: Horner on all of Z/m at once."""
    xs = np.arange(m, dtype=np.int64)
    acc = np.zeros(m, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * xs + c % m) % m
    return np.flatnonzero(acc == 0).tolist()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 97, 101, 1009, 1013])
def test_gf_roots_random(p):
    rng = random.Random(p)
    for _ in range(10):
        d = rng.randint(1, 5)
        coeffs = [rng.randint(-20, 20) for _ in range(d + 1)]
        if all(c % p == 0 for c in coeffs):
            coeffs[-1] = 1
        assert gf_roots(tuple(coeffs), p) == _brute_roots(coeffs, p)


def test_gf_roots_every_prime_to_1100(s1, split_surface):
    discs = [X.disc.dehomogenized() for X in (s1, split_surface)]
    rng = random.Random(1100)
    for p in primes_up_to(1100).tolist():
        r, s = rng.randrange(p), rng.randrange(p)
        cases = discs + [
            tuple(rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 7)))
            for _ in range(3)
        ]
        # the degree drops mod p
        cases.append((rng.randint(1, 50), rng.randint(-50, 50), 3 * p))
        # linear, with the leading coefficient a unit, 0 mod p, or 0 over Z
        cases += [(rng.randint(-10**6, 10**6), rng.choice([-1, 1]) * rng.randint(1, 10**6)),
                  (rng.randint(-50, 50), -5 * p), (r, p), (p, 0), (r, 0)]
        # repeated roots: (x - r)^3 (x - s)^2 (x^2 + 1)
        rep = (1,)
        for g in [(-r, 1)] * 3 + [(-s, 1)] * 2 + [(1, 0, 1)]:
            rep = z_mul(rep, g)
        cases.append(rep)
        # f = 0 mod p
        cases.append((p, -7 * p, 0, p * p))
        for f in cases:
            assert gf_roots(f, p) == _brute_roots(f, p), (f, p)


def test_gf_roots_identically_zero_polynomial():
    assert gf_roots((7, 14), 7) == list(range(7))
    # h = gcd(f, x^p - x) is x^p - x itself: every class, p = 2 included
    for p in (2, 3, 5):
        xp_x = (0, -1) + (0,) * (p - 2) + (1,)
        for f in (xp_x, z_mul(xp_x, (3, 1, 1)), z_mul(xp_x, xp_x)):
            assert gf_roots(f, p) == list(range(p)) == _brute_roots(f, p)


def test_gf_roots_large_primes():
    for p in (10007, 1000003):
        for coeffs in ((-2, 0, 1), (-1, 0, 1), (1, 0, 1), (6, -5, 1)):
            assert gf_roots(coeffs, p) == _brute_roots(coeffs, p)
        f = z_mul(z_mul((-1234, 1), (-678, 1)), (-1234, 1))
        assert gf_roots(f, p) == [678, 1234] == _brute_roots(f, p)
