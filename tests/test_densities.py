import math
from itertools import islice
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import conicbundle.densities as densities
from conicbundle import conic
from conicbundle.conic import FibreConic
from conicbundle.densities import (
    ToleranceNotMet,
    bad_prime_product,
    bad_primes,
    constant_sum,
    local_density_report,
    nonarch_lower_bound_check,
    peyre_constant,
    rho_star,
    sigma_inf,
    sigma_p,
)
from conicbundle.surface import FibreIndex, domain_B, fibre_conic
from test_conic import cell_bounds


def scan_rho_star(C, p, d):
    """Independent affine scan: primitive pairs mod p^d killing the triple."""
    m = p**d
    v = np.arange(m, dtype=np.int64)
    a, b, c, e, f = C.cxx, C.cxy, C.cxz, C.cyz, C.czz
    n = 0
    for u in range(m):
        x = (b * u * u + e * u * v) % m
        y = (a * u * u + c * u * v + f * v * v) % m
        z = (b * u * v + e * v * v) % m
        ok = (x == 0) & (y == 0) & (z == 0)
        if u % p == 0:
            ok &= v % p != 0
        n += int(np.count_nonzero(ok))
    return n


def scan_sigma_p(C, p, D):
    """sigma_p from the residue scan at modulus p^D (exact once D > v_p(det))."""
    m = p**D
    total = 0
    v = np.arange(m, dtype=np.int64)
    a, b, c, e, f = C.cxx, C.cxy, C.cxz, C.cyz, C.czz
    for u in range(m):
        if u % p == 0:
            mask = v % p != 0
        else:
            mask = np.ones(m, dtype=bool)
        x = (b * u * u + e * u * v) % m
        y = (a * u * u + c * u * v + f * v * v) % m
        z = (b * u * v + e * v * v) % m
        content = np.gcd(np.gcd(x, y), z)
        val = np.zeros(m, dtype=np.int64)
        live = mask.copy()
        g = content.copy()
        power = 0
        while power < D:
            div = live & (g % p == 0) & (g != 0)
            # g == 0 means the triple is 0 mod m: full valuation D
            zero = live & (g == 0) & (x == 0) & (y == 0) & (z == 0)
            val[zero] = D
            live = div & ~zero
            if not live.any():
                break
            val[live] += 1
            g = np.where(live, g // p, g)
            power += 1
        total += int((np.where(mask, p ** np.minimum(val, D), 0)).sum())
    return Fraction(total, m * m)


def test_rho_star_c12_frozen(c12):
    assert rho_star(c12, 41, 1) == 40
    assert rho_star(c12, 41, 2) == 0


def test_rho_star_validation(c12):
    with pytest.raises(ValueError):
        rho_star(c12, 6, 1)
    with pytest.raises(ValueError):
        rho_star(c12, 41, 0)


def test_rho_star_matches_scan_small(c11, c12, xyz_conic):
    for C in (c11, c12, xyz_conic):
        for p in (2, 3, 5):
            for d in (1, 2):
                assert rho_star(C, p, d) == scan_rho_star(C, p, d)
    assert rho_star(c12, 41, 1) == scan_rho_star(c12, 41, 1)


def test_sigma_p_frozen_values(c12):
    assert sigma_p(c12, 41) == Fraction(80, 41)
    assert sigma_p(c12, 5) == Fraction(24, 25)
    assert bad_primes(c12) == [(41, 1)]
    assert bad_prime_product(c12) == Fraction(41, 21)


def test_sigma_p_good_prime_generic(c11):
    for p in (2, 3, 7, 97):
        assert sigma_p(c11, p) == 1 - Fraction(1, p * p)


def test_sigma_p_matches_scan(c12, xyz_conic):
    assert sigma_p(c12, 41) == scan_sigma_p(c12, 41, 2)
    for p in (2, 3, 5):
        assert sigma_p(xyz_conic, p) == scan_sigma_p(xyz_conic, p, 2)
    # composite determinant conic
    C = FibreConic(2, 6, 1, 3, 1)  # det 36
    for p in (2, 3):
        vp = 2
        assert sigma_p(C, p) == scan_sigma_p(C, p, vp + 1)


def test_sigma_inf_xyz_frozen(xyz_conic):
    # N(1, t) = N(s, 1) = 1 on the edges: both integrals are exactly 2
    for tol in (1e-2, 1e-4, 1e-9):
        assert sigma_inf(xyz_conic, tol=tol) == (Fraction(4), Fraction(4))


def test_sigma_inf_c11_reaches_1e_5(c11):
    lo, hi = sigma_inf(c11, tol=1e-5)
    assert hi - lo <= Fraction(1e-5) * lo
    lo4, hi4 = sigma_inf(c11, tol=1e-4)
    assert lo4 <= lo <= hi <= hi4
    assert 4.05396 < float(lo) <= float(hi) < 4.054


def test_sigma_inf_brackets_nest_with_tol(c11):
    lo1, hi1 = sigma_inf(c11, tol=1e-2)
    lo2, hi2 = sigma_inf(c11, tol=1e-4)
    assert lo1 <= lo2 <= hi2 <= hi1
    assert hi2 - lo2 <= Fraction(1, 10**4) * lo2 + Fraction(1, 10**9)


def test_sigma_inf_object_path_matches_scaling(c11):
    # 2^50 * C has N scaled by 2^50 and needs Python ints from level 4
    lam = 2**50
    big = FibreConic(*(lam * c for c in c11.coeffs), weight=c11.weight)
    lo, hi = sigma_inf(c11, tol=1e-3)
    big_lo, big_hi = sigma_inf(big, tol=1e-3)
    assert big_hi - big_lo <= Fraction(1e-3) * big_lo
    assert max(lo, big_lo * lam) <= min(hi, big_hi * lam)


def test_sigma_inf_tolerance_not_met_carries_bracket(c11):
    # 1e-40 is below what the fixed working precision certifies
    with pytest.raises(ToleranceNotMet) as exc:
        sigma_inf(c11, tol=1e-40)
    err = exc.value
    assert 0 < err.lower < err.upper


def test_sigma_inf_failure_bracket_contains_area(c11):
    # the bracket depends on the fibre only: a failing tol carries the same
    # bracket that a met tol returns
    lo, hi = sigma_inf(c11, tol=1e-4)
    with pytest.raises(ToleranceNotMet) as exc:
        sigma_inf(c11, tol=1e-40)
    assert (exc.value.lower, exc.value.upper) == (lo, hi)


def walk_bracket(C, tol):
    """Independent oracle for sigma_inf: the dyadic cell walk.  Level by level
    over both edges, a cell with lo <= 4 S^2 N <= hi is accepted once
    hi - lo <= lo // n (1/n <= tol / (1 + tol)) and adds [4S/hi, 4S/lo] to the
    integral.  Each level's terms are summed in floats: a term is within
    2u + u^2 of its value (u = 2^-53: the int to float conversion and the
    division), fsum adds u, and the level sums add exactly as Fractions,
    so the slack 2^-48 rounds the bracket outward."""
    reltol = Fraction(tol)
    n = -(-reltol.denominator // reltol.numerator) + 1
    w = C.weight
    lower = upper = Fraction(0)
    for c in conic.edge_coeffs(C):
        a = np.array([-1, 0])
        for k in range(30):
            S = 1 << k
            fits = 64 * w * (sum(map(abs, c)) + 1) * S * S < 2**63
            lo, hi = cell_bounds(c, w, a if fits else a.astype(object), S)
            done = hi - lo <= lo // n
            lower += Fraction(math.fsum(4.0 * S / hi[done].astype(float)))
            upper += Fraction(math.fsum(4.0 * S / lo[done].astype(float)))
            a = (2 * a[~done, None] + [0, 1]).ravel()
            if not len(a):
                break
        else:
            raise AssertionError(f"walk of {C} did not finish")
    return lower * (1 - Fraction(1, 2**48)), upper * (1 + Fraction(1, 2**48))


@pytest.mark.parametrize("tol, head", [(1e-2, None), (1e-5, 24)])
def test_sigma_inf_lies_inside_the_walk_bracket(s1, split_surface, tol, head):
    for X, x in ((s1, 30), (split_surface, 20)):
        for idx in islice(domain_B(X, x), head):
            C = fibre_conic(X, idx)
            lo, hi = sigma_inf(C, tol=tol)
            w_lo, w_hi = walk_bracket(C, tol)
            assert w_lo <= lo <= hi <= w_hi, idx


def test_sigma_inf_meets_1e_12_on_every_fibre(s1):
    for idx in domain_B(s1, 30):
        lo, hi = sigma_inf(fibre_conic(s1, idx), tol=1e-12)
        assert hi - lo <= Fraction(1, 10**12) * lo


def test_sigma_inf_brackets_pi_on_s1_fibre_1_0(s1):
    # N(1, t) = N(s, 1) = 1 + t^2 on both edges, so sigma_inf = pi
    lo, hi = sigma_inf(fibre_conic(s1, FibreIndex(1, 0)), tol=1e-12)
    with mpmath.workprec(300):
        assert mpmath.mpf(lo.numerator) / lo.denominator < mpmath.pi
        assert mpmath.pi < mpmath.mpf(hi.numerator) / hi.denominator


@given(
    y=st.integers(0, 2**200),
    x=st.integers(1, 2**200),
    P=st.integers(1, 300),
    alternating=st.booleans(),
)
@example(y=1, x=2, P=256, alternating=False)
@example(y=1, x=3, P=1, alternating=True)
@example(y=0, x=1, P=64, alternating=False)
def test_series_error_bound(y, x, P, alternating):
    # the bound e of the docstring, against atan / artanh at 400 bits
    assume(2 * y <= x)
    S, e = densities._series(y, x, P, alternating)
    with mpmath.workprec(400):
        z = mpmath.mpf(y) / x
        exact = (mpmath.atan(z) if alternating else mpmath.atanh(z)) * 2**P
        assert abs(S - exact) <= e


@given(
    p=st.integers(1, 2**300),
    q=st.integers(1, 2**300),
    y=st.integers(0, 2**300),
    x=st.integers(-(2**300), 2**300),
    F=st.integers(1, 160),
)
@example(p=1, q=1, y=0, x=1, F=64)
@example(p=2**300, q=1, y=1, x=0, F=160)
@example(p=3, q=2, y=0, x=-1, F=100)
@example(p=10**90 + 1, q=10**90, y=1, x=-(2**300), F=120)
def test_log_and_atan_enclosures(p, q, y, x, F):
    # against the same routines at 256 bits, and against mpmath at 400 bits
    assume((x, y) != (0, 0))
    p, q = max(p, q), min(p, q)
    with mpmath.workprec(400):
        exact = {densities._log_fix: mpmath.log(mpmath.mpf(p) / q) * 2**F,
                 densities._atan2_fix: mpmath.atan2(y, x) * 2**F}
    for fix, arg in ((densities._log_fix, (p, q)), (densities._atan2_fix, (y, x))):
        lo, hi = fix(*arg, F)
        assert lo <= hi <= lo + 2
        assert lo <= exact[fix] <= hi
        fine_lo, fine_hi = fix(*arg, 256)
        assert lo << (256 - F) <= fine_lo <= fine_hi <= hi << (256 - F)


@pytest.mark.parametrize("x, tol", [(30, 1e-2), (100, 0.05)])
def test_constant_sum_contains_the_exact_bracket(s1, split_surface, x, tol, monkeypatch):
    # the dyadic sums hold the exact Fraction sums of the same fibres' areas
    # and products, and are at most 2^-64 lower wider
    areas, products = [], []
    sigma, product = densities.sigma_inf, densities.bad_prime_product

    def recorded_sigma(C, tol):
        areas.append(sigma(C, tol=tol))
        return areas[-1]

    def recorded_product(C):
        products.append(product(C))
        return products[-1]

    monkeypatch.setattr(densities, "sigma_inf", recorded_sigma)
    monkeypatch.setattr(densities, "bad_prime_product", recorded_product)
    for X in (s1, split_surface):
        areas.clear()
        products.clear()
        lo, hi, count, _ = constant_sum(((i, fibre_conic(X, i)) for i in domain_B(X, x)), tol=tol)
        assert count == len(areas) == len(products) > 1000
        exact_lo, exact_hi = densities._leading_constant(
            sum(a[0] * n for a, n in zip(areas, products)),
            sum(a[1] * n for a, n in zip(areas, products)),
            Fraction(1),
        )
        assert lo <= exact_lo <= exact_hi <= hi
        assert (hi - lo) - (exact_hi - exact_lo) <= exact_lo / 2**64


def test_peyre_xyz_contains_truth(xyz_conic):
    lo, hi = peyre_constant(xyz_conic, tol=1e-4)
    target = 12 / math.pi**2
    assert float(lo) <= target <= float(hi)
    assert float(hi) - float(lo) < 2e-3


def test_peyre_c11_brackets_measured_count(c11):
    # observed count ratio at height 10^6 was 1.232269, 1,232,269 points: it
    # lies 7.6 points (6.2e-6) above the constant 1.2322614, far inside the
    # O(B^(1/2)) error term of the count
    lo, hi = peyre_constant(c11, tol=1e-4)
    assert abs(1.232269 - float(lo)) < 1e-5 and abs(1.232269 - float(hi)) < 1e-5
    assert float(hi) - float(lo) < 3e-4


def test_nonarch_lower_bound_c12(c12, s1):
    ok, lhs, rhs = nonarch_lower_bound_check(c12, s1, 100)
    assert ok
    assert lhs == Fraction(41, 21)
    assert rhs == Fraction(3281, 1681)


def test_local_density_report_consistent(c12):
    rep = local_density_report(c12, tol=1e-3)
    assert rep.determinant == -41
    assert len(rep.bad_primes) == 1
    row = rep.bad_primes[0]
    assert (row.p, row.valuation) == (41, 1)
    assert row.sigma == Fraction(80, 41)
    assert rep.constant_lower <= rep.constant_upper
    # report must agree with the standalone bracket at the same tolerance
    lo, hi = peyre_constant(c12, tol=1e-3)
    assert rep.constant_lower == lo
    assert rep.constant_upper == hi
