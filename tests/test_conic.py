import random
from fractions import Fraction
from math import gcd, isqrt

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


def test_count_points_chunk_independent(monkeypatch, c12):
    default = [count_points(C, 300, want_points=True) for C in (c12, C36)]
    enumerate_default = conic._enumerate
    monkeypatch.setattr(
        conic, "_enumerate", lambda *args: enumerate_default(*args, chunk=7)
    )
    for C, res in zip((c12, C36), default):
        small = count_points(C, 300, want_points=True)
        assert small.count == res.count
        assert small.points == res.points


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


def test_count_rejects_bad_bound(c12):
    with pytest.raises(ValueError):
        count_points(c12, 0)
