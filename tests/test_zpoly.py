import random

import pytest
import sympy
from sympy.abc import x as X

from conicbundle.zpoly import (
    deg,
    gf_gcd,
    gf_pow_xp_mod,
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
