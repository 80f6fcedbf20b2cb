import random
from fractions import Fraction
from math import gcd, isqrt
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conicbundle import conic
from conicbundle.conic import (
    CannotCertify,
    FibreConic,
    certified_min_m,
    edge_cell_bounds,
    edge_coeffs,
    edge_norm,
    count_points,
    count_points_reference,
    height,
    parameterize,
    point_from_pair,
)
from conicbundle.modsolve import lattice_rows
from conicbundle.numth import is_prime

# det(Pi) = 36: pairs of content 2 and 4 also lie inside the base box
C36 = FibreConic(2, 6, 1, 3, 1)


def _accepted_pairs(C, B, U=None):
    """Coprime (u, v) of the half box max(|u|,|v|) <= U (u > 0, or u = 0 and
    v > 0) whose image has height <= B, with the content of that image.

    U defaults to sqrt(B*|det|/m), which reaches every point: one box, any
    content, no lattice layers (small B only)."""
    if U is None:
        m = certified_min_m(C)
        U = isqrt(B * abs(C.pi_det) * m.denominator // m.numerator) + 1
    for u in range(0, U + 1):
        for v in range(-U, U + 1):
            if (u == 0 and v <= 0) or gcd(u, v) != 1:
                continue
            x, y, z = parameterize(C, u, v)
            c = gcd(gcd(abs(x), abs(y)), abs(z))
            if max(abs(x), C.weight * abs(y), abs(z)) <= B * c:
                yield u, v, c


def count_points_single_box(C, B):
    """Independent oracle: the number of pairs of the one half box."""
    return sum(1 for _ in _accepted_pairs(C, B))


def test_pi_det_value_and_rejection():
    C = FibreConic(1, 5, 2, 2, -1, weight=2)
    assert C.pi_det == 1 * 4 - 5 * 2 * 2 + (-1) * 25
    with pytest.raises(ValueError):
        FibreConic(0, 0, 1, 0, 0)  # determinant zero


def test_parameterize_lies_on_conic():
    rng = random.Random(1)
    for _ in range(500):
        coeffs = [rng.randint(-10, 10) for _ in range(5)]
        C_try = coeffs
        a, b, c, e, f = C_try
        if a * e * e - b * c * e + f * b * b == 0:
            continue
        C = FibreConic(*C_try)
        u, v = rng.randint(-40, 40), rng.randint(-40, 40)
        x, y, z = parameterize(C, u, v)
        assert C.quadratic(x, y, z) == 0


def test_parameterize_known_split_conic():
    # x^2 - yz maps (u, v) to (-uv, -u^2, -v^2) up to the coefficient pattern
    C = FibreConic(1, 0, 0, -1, 0)
    assert parameterize(C, 1, 0) == (0, -1, 0)
    assert parameterize(C, 0, 1) == (0, 0, -1)
    x, y, z = parameterize(C, 2, 3)
    assert x * x == y * z


def test_height_weighting():
    C = FibreConic(1, 2, 1, 1, 0, weight=3)
    assert height(C, (2, 1, -5)) == 5
    assert height(C, (2, 2, -5)) == 6  # weight multiplies |y|


def test_point_from_pair_normalizes():
    C = FibreConic(1, 2, 1, 1, 0, weight=1)
    p1 = point_from_pair(C, 2, 4)
    p2 = point_from_pair(C, 1, 2)
    assert p1.triple == p2.triple


def test_certified_min_m_is_a_true_floor():
    rng = random.Random(2)
    for _ in range(30):
        coeffs = [rng.randint(-8, 8) for _ in range(5)]
        a, b, c, e, f = coeffs
        if a * e * e - b * c * e + f * b * b == 0:
            continue
        w = rng.randint(1, 4)
        C = FibreConic(*coeffs, weight=w)
        m = certified_min_m(C)
        assert m > 0
        box = 25
        for _ in range(200):
            u = rng.randint(-box, box)
            v = rng.randint(-box, box)
            if (u, v) == (0, 0):
                continue
            x, y, z = parameterize(C, u, v)
            norm = max(abs(x), w * abs(y), abs(z))
            assert Fraction(norm) >= m * max(abs(u), abs(v)) ** 2


def test_certified_min_m_frozen_values(c11, xyz_conic):
    assert certified_min_m(xyz_conic) == Fraction(16, 17)
    assert certified_min_m(c11) == Fraction(63, 272)


def _nonsingular(coeffs):
    a, b, c, e, f = coeffs
    return a * e * e - b * c * e + f * b * b != 0


@given(
    coeffs=st.tuples(*[st.integers(-10**6, 10**6)] * 5).filter(_nonsingular),
    w=st.integers(1, 50),
    k=st.integers(0, 40),
    frac=st.fractions(-1, 1),
    j=st.integers(0, 4),
    swap=st.booleans(),
)
def test_edge_cell_bounds_enclose_norm(coeffs, w, k, frac, j, swap):
    C = FibreConic(*coeffs, weight=w)
    c = edge_coeffs(C)[swap]
    S = 1 << k
    a = min(S - 1, int(frac * S))
    lo, hi = edge_cell_bounds(c, w, a, S)
    assert 0 <= lo <= hi
    # every point of the cell on the grid 2^j times finer
    for T in range(a << j, ((a + 1) << j) + 1):
        assert lo << (2 * j) <= 4 * edge_norm(c, w, T, S << j) <= hi << (2 * j)
    # the same formula on integer arrays, int64 where it fits
    fits = 64 * w * sum(map(abs, c)) * S * S < 2**63
    for dtype in (object, np.int64) if fits else (object,):
        lo_v, hi_v = edge_cell_bounds(tuple(np.full(2, x, dtype) for x in c), w,
                                      np.full(2, a, dtype), S)
        assert lo_v.tolist() == [lo, lo] and hi_v.tolist() == [hi, hi]


def test_certified_min_m_is_tight(s1, split_surface):
    # within 10% of the norm's minimum sampled on a 2^10 grid of both edges
    from conicbundle.surface import domain_B, fibre_conic

    T = np.arange(-1024, 1025, dtype=np.int64)
    for X in (s1, split_surface):
        for idx in domain_B(X, 6):
            C = fibre_conic(X, idx)
            sampled = min(int(edge_norm(c, C.weight, T, 1024).min())
                          for c in edge_coeffs(C))
            m = certified_min_m(C)
            assert Fraction(9, 10) * Fraction(sampled, 4**10) <= m
            assert m <= Fraction(sampled, 4**10)


def test_count_points_refuses_an_uncertified_floor(monkeypatch, s1_file, c11, capsys):
    from conicbundle.harness import main

    certify = conic.certified_min_m
    monkeypatch.setattr(conic, "certified_min_m", lambda C: certify(C, max_depth=1))
    with pytest.raises(CannotCertify):
        count_points(c11, 50)
    assert main(["--no-cache", "count-fibre", s1_file,
                 "--s", "1", "--t", "1", "--height", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[CannotCertify]: subdivision depth 1")


FROZEN_C12 = {1: 0, 2: 2, 5: 4, 17: 13, 50: 32, 120: 72}


def test_count_points_frozen_c12(c12):
    for B, n in FROZEN_C12.items():
        assert count_points(c12, B).count == n


def test_count_points_matches_reference_oracle(c11, c12, xyz_conic):
    # keystone at small heights: layered lattice count vs direct scan
    for C in (c11, c12, xyz_conic):
        for B in (1, 2, 3, 7, 20, 50):
            assert count_points(C, B).count == count_points_reference(C, B)


def test_count_points_random_conics_vs_reference():
    rng = random.Random(4)
    done = 0
    while done < 25:
        coeffs = [rng.randint(-6, 6) for _ in range(5)]
        a, b, c, e, f = coeffs
        if a * e * e - b * c * e + f * b * b == 0:
            continue
        w = rng.randint(1, 3)
        C = FibreConic(*coeffs, weight=w)
        B = rng.randint(1, 30)
        assert count_points(C, B).count == count_points_reference(C, B)
        done += 1
    # composite determinants: pairs of content g > 1 inside the base box too,
    # which only their own layer may count
    done = inside = 0
    while done < 25:
        coeffs = [rng.randint(-6, 6) for _ in range(5)]
        a, b, c, e, f = coeffs
        det = abs(a * e * e - b * c * e + f * b * b)
        if det < 4 or is_prime(det):
            continue
        C = FibreConic(*coeffs, weight=rng.randint(1, 3))
        B = rng.randint(10, 60)
        assert count_points(C, B).count == count_points_reference(C, B)
        m = certified_min_m(C)
        u1 = isqrt(B * m.denominator // m.numerator) + 1
        inside += any(g > 1 for _, _, g in _accepted_pairs(C, B, u1))
        done += 1
    assert inside >= 5


def test_count_points_monotone_in_height(c12):
    last = 0
    for B in (1, 2, 4, 8, 16, 32, 64):
        n = count_points(c12, B).count
        assert n >= last
        last = n


def test_count_points_single_box_agrees(c11, c12):
    for C in (c11, c12, C36):
        for B in (5, 20, 60):
            assert count_points_single_box(C, B) == count_points(C, B).count


def test_count_points_want_points(c12):
    for C, B in ((c12, 17), (C36, 200)):
        res = count_points(C, B, want_points=True)
        assert res.count == len(res.points) == count_points_reference(C, B)
        seen = set()
        for pt in res.points:
            x, y, z = pt.triple
            assert C.quadratic(x, y, z) == 0
            assert gcd(gcd(x, y), z) == 1
            assert max(abs(x), C.weight * abs(y), abs(z)) == pt.height <= B
            assert pt.triple not in seen
            seen.add(pt.triple)
        # C36's layers overlap: each point still comes from one pair only
        assert seen == {point_from_pair(C, u, v).triple for u, v, _ in _accepted_pairs(C, B)}


def _row_tables(C, B, int64_ok):
    """The fibre's box rows and height-clipped rows, as count_points builds them."""
    _, u1, layers = conic._layers(C, B)
    lats, n2_lo, n2_hi = conic._fibre_lattices(u1, layers, int64_ok)
    box = lattice_rows(lats, n2_lo, n2_hi)
    return lats, box, conic._height_rows(C, B, lats, box)


def test_count_points_chunk_independent(monkeypatch, c12):
    default = [count_points(C, 300, want_points=True) for C in (c12, C36)]
    # a chunk of 7 splits rows: both fibres have rows of more than 7 cells
    for C in (c12, C36):
        rows = _row_tables(C, 300, True)[2]
        assert (rows.hi - rows.lo + 1).max() > 7
    enumerate_default = conic._enumerate
    monkeypatch.setattr(
        conic, "_enumerate", lambda *args: enumerate_default(*args, chunk=7)
    )
    for C, res in zip((c12, C36), default):
        small = count_points(C, 300, want_points=True)
        assert small.count == res.count
        assert small.points == res.points


def _composite_det(coeffs):
    a, b, c, e, f = coeffs
    det = abs(a * e * e - b * c * e + f * b * b)
    return det >= 4 and not is_prime(det)


@given(
    coeffs=st.tuples(*[st.integers(-9, 9)] * 5).filter(_composite_det),
    w=st.integers(1, 3),
    B=st.integers(1, 60),
)
def test_height_rows_keep_every_owned_cell_of_bounded_height(coeffs, w, B):
    C = FibreConic(*coeffs, weight=w)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conic, "_LONG_ROW", 0)  # clip every row, not just long ones
        lats, box, rows = _row_tables(C, B, True)
        exact = _row_tables(C, B, False)
    assert rows.lo.dtype == np.int64
    assert exact[2].lo.dtype == object
    for a, b in zip(rows, exact[2]):
        assert a.tolist() == b.tolist()
    # every box cell, tagged with its row
    counts = np.maximum(box.hi - box.lo + 1, 0)
    r = np.repeat(np.arange(len(counts)), counts)
    n1 = box.lo[r] + np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    lat = box.lat[r]
    u = n1 * lats.b1u[lat] + box.n2[r] * lats.b2u[lat]
    v = n1 * lats.b1v[lat] + box.n2[r] * lats.b2v[lat]
    g = lats.g[lat]
    x = np.abs(C.cxy * u * u + C.cyz * u * v)
    y = np.abs(C.cxx * u * u + C.cxz * u * v + C.czz * v * v)
    z = np.abs(C.cxy * u * v + C.cyz * v * v)
    low = np.maximum(np.maximum(x, w * y), z) <= B * g
    owned = (u > 0) | ((u == 0) & (v > 0))
    kept = (rows.lo[r] <= n1) & (n1 <= rows.hi[r])
    assert not np.any(owned & low & ~kept)
    # the hull only ever narrows a row, and both ends of a kept range meet
    # the convex condition of every component: sign(A) F <= cap, or |F| <= cap
    # where A = F(b1) = 0
    live = rows.lo <= rows.hi
    assert np.all(rows.lo[live] >= box.lo[live]) and np.all(rows.hi[live] <= box.hi[live])
    forms = ((C.cxy, C.cyz, 0), (C.cxx, C.cxz, C.czz), (0, C.cxy, C.cyz))
    lat = rows.lat[live]
    for n1 in (rows.lo[live], rows.hi[live]):
        u = n1 * lats.b1u[lat] + rows.n2[live] * lats.b2u[lat]
        v = n1 * lats.b1v[lat] + rows.n2[live] * lats.b2v[lat]
        b1u, b1v = lats.b1u[lat], lats.b1v[lat]
        cap = B * lats.g[lat]
        for (fa, fb, fc), k_cap in zip(forms, (cap, cap // w, cap)):
            F = fa * u * u + fb * u * v + fc * v * v
            A = fa * b1u * b1u + fb * b1u * b1v + fc * b1v * b1v
            assert np.all(np.where(A == 0, np.abs(F), np.sign(A) * F) <= k_cap)


def test_count_points_with_every_row_clipped_vs_reference(monkeypatch):
    monkeypatch.setattr(conic, "_LONG_ROW", 0)
    rng = random.Random(11)
    done = 0
    while done < 25:
        coeffs = [rng.randint(-6, 6) for _ in range(5)]
        if not _composite_det(coeffs):
            continue
        C = FibreConic(*coeffs, weight=rng.randint(1, 3))
        B = rng.randint(1, 60)
        res = count_points(C, B, want_points=True)
        assert res.count == len(res.points) == count_points_reference(C, B)
        done += 1


def test_height_rows_do_not_depend_on_the_seeds(monkeypatch, c11, c12):
    # float roots only seed the interval ends; random seeds must give the
    # same rows through the exact correction alone
    monkeypatch.setattr(conic, "_LONG_ROW", 0)
    rng = np.random.default_rng(7)
    cases = [(C, B) for C in (c11, c12, C36) for B in (3, 40, 500)]
    cases += [(FibreConic(1, 1, 0, 0, 3 * 10**6 + 2), 10), (FibreConic(4, 0, -5, 6, -2, 3), 90)]
    want = [[r.tolist() for r in _row_tables(C, B, ok)[2]] for C, B in cases for ok in (True, False)]
    as_ints = conic._as_ints

    def random_seeds(x, dtype):
        near = x + rng.integers(-5, 6, len(x))
        far = rng.integers(-2**40, 2**40, len(x)).astype(float)
        return as_ints(np.where(rng.random(len(x)) < 0.5, near, far), dtype)

    monkeypatch.setattr(conic, "_as_ints", random_seeds)
    got = [[r.tolist() for r in _row_tables(C, B, ok)[2]] for C, B in cases for ok in (True, False)]
    assert got == want


def test_count_points_bigint_path_matches_int64(monkeypatch, c12):
    default = [count_points(C, 300, want_points=True) for C in (c12, C36)]
    init = conic._Collector.__init__

    def exact_only(self, *args):
        init(self, *args)
        self.int64_ok = False

    monkeypatch.setattr(conic._Collector, "__init__", exact_only)
    for C, res in zip((c12, C36), default):
        exact = count_points(C, 300, want_points=True)
        assert exact.count == res.count
        assert exact.points == res.points
    # coefficients too large for int64: det = 4 * 36 * (2^32 - 1)^2
    C = FibreConic(4, 0, -5, 6 * (2**32 - 1), -2)
    for B in (5, 40):
        assert count_points(C, B).count == count_points_reference(C, B)


@pytest.mark.parametrize("p, q", [(100000007, 300000007), (10000000019, 30000000001)])
def test_count_points_skewed_class_lattice(p, q):
    # the class (0 : 1) mod pq has the lattice {pq | u}; its row n2 = 0 is
    # the ~2 sqrt(10 pq / m) box cells (0, v), of which the height hull keeps
    # |v| <= 3.  The larger pq is past int64, so the rows are object arrays.
    C = FibreConic(1, 1, 0, 0, p * q)
    start = perf_counter()
    res = count_points(C, 10, want_points=True)
    assert perf_counter() - start < 5
    assert res.count == len(res.points) == count_points_reference(C, 10) == 2


def test_count_rejects_bad_bound(c12):
    with pytest.raises(ValueError):
        count_points(c12, 0)
