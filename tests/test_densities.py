import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import conicbundle.densities as densities
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
    sigma_inf_walk,
    sigma_p,
)
from conicbundle.surface import FibreIndex, domain_B, fibre_conic


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


def test_sigma_inf_tolerance_not_met_carries_bracket(c11, monkeypatch):
    monkeypatch.setattr(densities, "_MAX_DEPTH", 6)
    with pytest.raises(ToleranceNotMet) as exc:
        sigma_inf(c11, tol=1e-9)
    err = exc.value
    assert 0 < err.lower < err.upper


def test_sigma_inf_failure_bracket_contains_area(c11, monkeypatch):
    # shallow caps leave cells whose lower bound is 0: the floor bounds them
    lo, hi = sigma_inf(c11, tol=1e-4)
    for depth in range(7):
        monkeypatch.setattr(densities, "_MAX_DEPTH", depth)
        with pytest.raises(ToleranceNotMet) as exc:
            sigma_inf(c11, tol=1e-9)
        assert exc.value.lower <= hi and lo <= exc.value.upper


def _one_by_one(conics, **kw):
    """sigma_inf per conic, with a ToleranceNotMet as (message, lower, upper)."""
    out = []
    for C in conics:
        try:
            out.append(sigma_inf(C, **kw))
        except ToleranceNotMet as exc:
            out.append((str(exc), exc.lower, exc.upper))
    return out


def _walked(conics, **kw):
    return [
        (str(r), r.lower, r.upper) if isinstance(r, ToleranceNotMet) else r
        for r in sigma_inf_walk(conics, **kw)
    ]


def test_sigma_inf_walk_matches_one_fibre_walks(s1, split_surface, c11, monkeypatch):
    for X, x in ((s1, 30), (split_surface, 20)):
        conics = [fibre_conic(X, idx) for idx in domain_B(X, x)]
        assert _walked(conics, tol=1e-2) == _one_by_one(conics, tol=1e-2)
    # 2^50 c11 runs in Python ints from level 4, among int64 fibres
    big = FibreConic(*(2**50 * c for c in c11.coeffs), weight=c11.weight)
    mixed = [fibre_conic(s1, idx) for idx in domain_B(s1, 3)]
    mixed.insert(5, big)
    assert _walked(mixed, tol=1e-3) == _one_by_one(mixed, tol=1e-3)
    # a failing batch: same failed fibres, messages and floored brackets
    conics = [fibre_conic(s1, idx) for idx in domain_B(s1, 4)] + [big]
    monkeypatch.setattr(densities, "_MAX_DEPTH", 6)
    walked = _walked(conics, tol=1e-9)
    assert walked == _one_by_one(conics, tol=1e-9)
    assert sum(isinstance(r[0], str) for r in walked) >= len(conics) // 2


def test_sigma_inf_walk_runs_int64_unless_a_cell_leaves_it(s1, c11, monkeypatch):
    calls = []

    def recorded(c, w, a, S):
        # (runs in Python ints, holds a cell whose bound 64 w (sum |c| + 1) S^2
        # on the intermediates leaves int64)
        sizes = zip(w.tolist(), np.transpose(c).tolist(), S.tolist())
        wide = any(64 * wi * (sum(map(abs, ci)) + 1) * Si * Si >= 2**63 for wi, ci, Si in sizes)
        calls.append((a.dtype == object, wide))
        return bound(c, w, a, S)

    bound = densities.edge_cell_bounds
    monkeypatch.setattr(densities, "edge_cell_bounds", recorded)
    conics = [fibre_conic(s1, idx) for idx in domain_B(s1, 12)]
    list(sigma_inf_walk(conics, tol=1e-2))
    assert calls and not any(wide for wide, _ in calls)
    # 2^50 c11 leaves int64 at level 4: exactly the steps where one of its
    # cells is that deep run in Python ints, whatever the budget
    big = FibreConic(*(2**50 * c for c in c11.coeffs), weight=c11.weight)
    mixed = [fibre_conic(s1, idx) for idx in domain_B(s1, 3)]
    mixed.insert(5, big)
    expected = _one_by_one(mixed, tol=1e-3)
    for budget in (densities._WALK_CELLS, 8):
        monkeypatch.setattr(densities, "_WALK_CELLS", budget)
        calls.clear()
        assert _walked(mixed, tol=1e-3) == expected
        assert any(wide for wide, _ in calls)
        assert all(wide == needed for wide, needed in calls)
    assert not all(wide for wide, _ in calls)


def test_sigma_inf_walk_budget_does_not_change_results(s1, monkeypatch):
    conics = [fibre_conic(s1, idx) for idx in domain_B(s1, 12)]
    default = _walked(conics, tol=1e-2)
    for budget in (8, 1 << 30):
        monkeypatch.setattr(densities, "_WALK_CELLS", budget)
        assert _walked(conics, tol=1e-2) == default


def test_sigma_inf_walk_calls_stay_within_budget(s1, monkeypatch):
    budget, cap = 8, 16
    sizes = []

    def recorded(c, w, a, S):
        sizes.append(len(a))
        return bound(c, w, a, S)

    bound = densities.edge_cell_bounds
    monkeypatch.setattr(densities, "edge_cell_bounds", recorded)
    monkeypatch.setattr(densities, "_WALK_CELLS", budget)
    monkeypatch.setattr(densities, "_MAX_BOUNDARY_CELLS", cap)
    conics = [fibre_conic(s1, idx) for idx in domain_B(s1, 4)]
    results = list(sigma_inf_walk(conics, tol=1e-9))
    # every fibre stops at the pending-cell cap
    assert all(
        isinstance(r, ToleranceNotMet) and "pending cells" in str(r) for r in results
    )
    # a fibre's cells at one level number at most the cap
    assert max(sizes) <= budget + cap
    # without the budget the same walk makes far larger calls
    sizes.clear()
    monkeypatch.setattr(densities, "_WALK_CELLS", 1 << 30)
    assert list(map(str, sigma_inf_walk(conics, tol=1e-9))) == list(map(str, results))
    assert max(sizes) > 4 * (budget + cap)


def test_sigma_inf_walk_streams_in_order(s1, monkeypatch):
    # results come out while later conics are still unread
    conics = [fibre_conic(s1, idx) for idx in domain_B(s1, 16)]
    expected = list(sigma_inf_walk(conics, tol=1e-2))
    read = []

    def source():
        for C in conics:
            read.append(C)
            yield C

    monkeypatch.setattr(densities, "_WALK_CELLS", 64)
    walk = sigma_inf_walk(source(), tol=1e-2)
    assert next(walk) == expected[0]
    assert len(read) < len(conics) // 4
    assert [expected[0], *walk] == expected


def _recip_sums_oracle(acc, groups, bits, up):
    """acc after _add_recip_sums, one Python-int division per cell."""
    acc = list(acc)
    for f, (k, dens) in enumerate(groups):
        P = max(0, bits + max(dens).bit_length() - k - 2)
        q = 1 << (k + 2 + P)
        total = -sum(-q // d for d in dens) if up else sum(q // d for d in dens)
        num, P0 = acc[f]
        acc[f] = ((num << (P - P0)) + total, P) if P >= P0 else (num + (total << (P0 - P)), P0)
    return acc


_cells = st.lists(st.integers(1, 2**62 - 1), min_size=1, max_size=64)


@given(
    groups=st.lists(st.tuples(st.integers(0, 24), _cells), min_size=1, max_size=4),
    bits=st.integers(64, 200),
    up=st.booleans(),
    acc=st.lists(st.tuples(st.integers(0, 2**300), st.integers(0, 400)), min_size=4, max_size=4),
)
@example(groups=[(0, [1])], bits=64, up=True, acc=[(0, 0)] * 4)
@example(groups=[(0, [1, 1]), (24, [2**62 - 1])], bits=200, up=False, acc=[(3, 0), (5, 400)] * 2)
@example(groups=[(24, [2**62 - 1, 3]), (7, [5])], bits=64, up=True, acc=[(1, 500), (7, 1)] * 2)
# one call of 5000 cells below 8: the digit width drops from 60 to
# 62 - bitlen(5000) = 49, or the digit sums would leave int64
@example(groups=[(5, [1 + i % 7 for i in range(5000)])], bits=137, up=True, acc=[(9, 100)] * 4)
def test_recip_sums_by_long_division_match_python_ints(groups, bits, up, acc):
    expected = _recip_sums_oracle(acc, groups, bits, up)
    dens = [d for _, ds in groups for d in ds]
    starts = np.cumsum([0] + [len(ds) for _, ds in groups])[:-1]
    levels = [k for k, _ in groups]
    # int64 cells in digits of c bits, object cells in one digit of E bits
    for dtype in (np.int64, object):
        got = list(acc)
        densities._add_recip_sums(
            got, range(len(groups)), levels, starts, np.array(dens, dtype=dtype), bits, up
        )
        assert got == expected


def test_sigma_inf_walk_object_route_matches_int64(s1, c11, monkeypatch):
    # kmax = -1 puts every fibre's every cell in Python ints
    conics = [fibre_conic(s1, idx) for idx in domain_B(s1, 8)]
    expected = _walked(conics, tol=1e-2)
    with monkeypatch.context() as patch:
        patch.setattr(densities, "_MAX_DEPTH", 6)
        failing = _walked([c11], tol=1e-9)
    assert "subdivision depth 6" in failing[0][0]
    rows, bound = densities._fibre_rows, densities.edge_cell_bounds
    dtypes = set()

    def wide_rows(conics):
        tab = rows(conics)
        tab["kmax"][:] = -1
        return tab

    def recorded(c, w, a, S):
        dtypes.add(a.dtype)
        return bound(c, w, a, S)

    monkeypatch.setattr(densities, "_fibre_rows", wide_rows)
    monkeypatch.setattr(densities, "edge_cell_bounds", recorded)
    assert _walked(conics, tol=1e-2) == expected
    monkeypatch.setattr(densities, "_MAX_DEPTH", 6)
    assert _walked([c11], tol=1e-9) == failing
    assert dtypes == {np.dtype(object)}


@pytest.mark.parametrize("x, tol", [(30, 1e-2), (100, 0.05)])
def test_constant_sum_contains_the_exact_bracket(s1, split_surface, x, tol, monkeypatch):
    # the dyadic sums hold the exact Fraction sums of the same fibres' areas
    # and products, and are at most 2^-64 lower wider
    areas, products = [], []
    walk, product = densities.sigma_inf_walk, densities.bad_prime_product

    def recorded_walk(conics, tol):
        for area in walk(conics, tol=tol):
            areas.append(area)
            yield area

    def recorded_product(C):
        products.append(product(C))
        return products[-1]

    monkeypatch.setattr(densities, "sigma_inf_walk", recorded_walk)
    monkeypatch.setattr(densities, "bad_prime_product", recorded_product)
    for X in (s1, split_surface):
        areas.clear()
        products.clear()
        lo, hi, count, _ = constant_sum(((i, fibre_conic(X, i)) for i in domain_B(X, x)), tol=tol)
        accepted = [a for a in areas if isinstance(a, tuple)]
        assert count == len(accepted) == len(products) > 1000
        exact_lo, exact_hi = densities._leading_constant(
            sum(a[0] * n for a, n in zip(accepted, products)),
            sum(a[1] * n for a, n in zip(accepted, products)),
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
    # observed count ratio at height 10^6 was 1.232269; the tight bracket
    # was measured to contain it
    lo, hi = peyre_constant(c11, tol=1e-4)
    assert float(lo) <= 1.232269 <= float(hi)
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
