import random
from math import gcd

import numpy as np
import pytest

from conicbundle.conic import FibreConic, parameterize
from conicbundle.modsolve import (
    Lattices,
    class_lattice_basis,
    class_levels,
    divisor_solutions,
    iter_lattice_points,
    lagrange_reduce,
    lattice_rows,
    linear_range,
    solutions_mod_prime_power,
)
from conicbundle.numth import euler_phi, factor


def half_box_cells(lattices, chunk=4_000_000, dtype=np.int64):
    """Cells n1*b1 + n2*b2 with 0 <= u <= U, |v| <= U of every (b1, b2, U)
    in one row table, as (u, v, lattice index) triples in stream order."""
    cols = [(b1[0], b1[1], b2[0], b2[1], i, U) for i, (b1, b2, U) in enumerate(lattices)]
    lats = Lattices(*(np.array(c, dtype=dtype) for c in zip(*cols)))
    det = abs(lats.b1u * lats.b2v - lats.b1v * lats.b2u)
    cap = lats.U * (abs(lats.b1u) + abs(lats.b1v)) // det + 1
    rows = lattice_rows(lats, -cap, cap)
    out = []
    for u, v, g in iter_lattice_points(lats, rows, chunk):
        assert len(u) <= chunk
        out.extend(zip(u.tolist(), v.tolist(), g.tolist()))
    return out


def _scan_classes(coeffs, m, p):
    """Independent projective scan: group primitive pairs into unit classes."""
    C = FibreConic(*coeffs)
    hits = set()
    for u in range(m):
        for v in range(m):
            if u % p == 0 and v % p == 0:
                continue
            x, y, z = parameterize(C, u, v)
            if x % m or y % m or z % m:
                continue
            hits.add((u, v))
    # count classes: orbit size of unit scaling is phi(m)
    assert len(hits) % euler_phi(m) == 0 or not hits
    return len(hits) // euler_phi(m) if hits else 0


CONICS = [
    (1, 5, 2, 2, -1),    # det -41
    (1, 0, 0, -1, 0),    # x^2 - yz, det 1
    (1, 2, 1, 1, 0),     # det -1
    (2, 6, 1, 3, 1),     # composite det
    (3, 12, 5, 10, 2),
]


@pytest.mark.parametrize("coeffs", CONICS)
@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (41, 1)])
def test_solutions_mod_prime_power_vs_pair_scan(coeffs, p, k):
    m = p**k
    got = solutions_mod_prime_power(coeffs, p, k)
    # representatives must be valid, distinct classes
    C = FibreConic(*coeffs)
    seen = set()
    for (u, v) in got:
        x, y, z = parameterize(C, u, v)
        assert x % m == 0 and y % m == 0 and z % m == 0
        assert not (u % p == 0 and v % p == 0)
        # canonical chart form: (1, t) or (p*j, 1)
        assert (u == 1) or (v == 1 and u % p == 0)
        assert (u, v) not in seen
        seen.add((u, v))
    if m <= 125:
        assert len(got) == _scan_classes(coeffs, m, p)


def _triple_vanishes(coeffs, u, v, m):
    cxx, cxy, cxz, cyz, czz = coeffs
    x = cxy * u * u + cyz * u * v
    y = cxx * u * u + cxz * u * v + czz * v * v
    z = cxy * u * v + cyz * v * v
    return x % m == 0 and y % m == 0 and z % m == 0


def _lifted_scan_classes(coeffs, p, k):
    """Per-level class sets: scan P^1(Z/p), then try all p lifts of each survivor.

    A class mod p^(j+1) reduces to one mod p^j, so no class is missed; each
    candidate is tested by evaluating the three quadratics mod p^(j+1).
    """
    level = [(1, t) for t in range(p) if _triple_vanishes(coeffs, 1, t, p)]
    if _triple_vanishes(coeffs, 0, 1, p):
        level.append((0, 1))
    levels = [set(level)]
    for j in range(1, k):
        step, m = p**j, p ** (j + 1)
        nxt = set()
        for u, v in levels[-1]:
            for c in range(p):
                cand = (1, v + step * c) if u == 1 else (u + step * c, 1)
                if _triple_vanishes(coeffs, *cand, m):
                    nxt.add(cand)
        levels.append(nxt)
    return levels


def test_solutions_lifting_path_matches_scan_route():
    # levels past 10^6 residues, checked level by level against lifted scans
    for coeffs, p, k in [
        ((-11927645056, -4812032, 24, 16, 8), 2, 21),
        ((330278378931, -1954935, 18, 27, -63), 3, 13),
        ((-2981873432406455, -2020926417835, 7, 2036162, 3027), 1009, 2),
    ]:
        levels = class_levels(coeffs, p, k)
        assert [set(s) for s in levels] == _lifted_scan_classes(coeffs, p, k)
        assert all(len(s) == len(set(s)) for s in levels)
        assert levels[-1]  # the deepest level is populated
        assert solutions_mod_prime_power(coeffs, p, k) == levels[-1]


def test_class_levels_random_vs_lifted_scan():
    rng = random.Random(61)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 11, 13, 61])
        k = rng.randint(1, 4)
        coeffs = tuple(
            rng.randint(-60, 60) * p ** rng.choice([0, 0, 1, 2]) for _ in range(5)
        )
        levels = class_levels(coeffs, p, k)
        assert [set(s) for s in levels] == _lifted_scan_classes(coeffs, p, k), (
            coeffs,
            p,
        )


def test_solutions_large_prime_planted_classes():
    p = 1_000_003
    t0 = 123_457
    # L = 5*(t - t0) exactly; Q(t0) = 0 mod p^2 but not over Z
    coeffs = (-(3 * t0 + 7 * t0 * t0) + 11 * p * p, -5 * t0, 3, 5, 7)
    assert solutions_mod_prime_power(coeffs, p, 1) == [(1, t0)]
    assert class_levels(coeffs, p, 3) == [[(1, t0)], [(1, t0)], []]
    # p | cxy, cyz: level 1 is the two roots of Q = 2*(t - r1)*(t - r2)
    r1, r2 = 17, 999_983
    coeffs = (2 * r1 * r2, 3 * p, -2 * (r1 + r2), 4 * p, 2)
    assert solutions_mod_prime_power(coeffs, p, 1) == [(1, r1), (1, r2)]
    # and the lone second-chart class once p | cyz, czz
    coeffs = (1, 0, 0, p, p)
    assert solutions_mod_prime_power(coeffs, p, 1) == [(0, 1)]


@pytest.mark.parametrize("p", [2, 5, 1_000_003])
def test_solutions_conic_vanishing_mod_p_is_all_of_p1(p):
    coeffs = (p, p, 0, p, p)  # det 2p^3
    got = solutions_mod_prime_power(coeffs, p, 1)
    assert len(got) == p + 1
    assert set(got) == {(1, t) for t in range(p)} | {(0, 1)}
    if p < 100:
        assert [set(s) for s in class_levels(coeffs, p, 3)] == _lifted_scan_classes(
            coeffs, p, 3
        )


def test_divisor_solutions_covers_divisors():
    coeffs = (1, 5, 2, 2, -1)
    C = FibreConic(*coeffs)
    fd = factor(abs(C.pi_det))
    table = dict(divisor_solutions(coeffs, fd))
    for g, classes in table.items():
        assert g > 1 and abs(C.pi_det) % g == 0
        for (u, v) in classes:
            x, y, z = parameterize(C, u, v)
            assert x % g == 0 and y % g == 0 and z % g == 0


def test_lagrange_reduce_preserves_lattice_and_shortens():
    rng = random.Random(5)
    for _ in range(100):
        b1 = (rng.randint(-9, 9), rng.randint(-9, 9))
        b2 = (rng.randint(-9, 9), rng.randint(-9, 9))
        det = b1[0] * b2[1] - b1[1] * b2[0]
        if det == 0:
            continue
        r1, r2 = lagrange_reduce(b1, b2)
        rdet = r1[0] * r2[1] - r1[1] * r2[0]
        assert abs(rdet) == abs(det)
        # reduction never lengthens the basis in the euclidean sense (the
        # sup norm of an entry may grow by up to sqrt(2), so don't test it)
        sq = lambda v: v[0] * v[0] + v[1] * v[1]
        assert sq(r1) <= sq(r2)
        assert max(sq(r1), sq(r2)) <= max(sq(b1), sq(b2))
        # first vector is a shortest nonzero lattice vector: no small
        # integer combination beats it
        best = min(
            sq((c1 * r1[0] + c2 * r2[0], c1 * r1[1] + c2 * r2[1]))
            for c1 in range(-3, 4)
            for c2 in range(-3, 4)
            if (c1, c2) != (0, 0)
        )
        assert sq(r1) == best


def test_class_lattice_basis_membership():
    for sigma, tau, g in [(1, 3, 25), (1, 0, 9), (2, 1, 8), (0, 1, 7)]:
        b1, b2 = class_lattice_basis(sigma, tau, g)
        for c1 in range(-3, 4):
            for c2 in range(-3, 4):
                u = c1 * b1[0] + c2 * b2[0]
                v = c1 * b1[1] + c2 * b2[1]
                assert (tau * u - sigma * v) % g == 0


def test_lattice_points_in_box_vs_brute():
    rng = random.Random(23)
    bases = []
    while len(bases) < 40:
        b1 = (rng.randint(-5, 5), rng.randint(-5, 5))
        b2 = (rng.randint(-5, 5), rng.randint(-5, 5))
        if b1[0] * b2[1] - b1[1] * b2[0]:
            bases.append((b1, b2, rng.randint(1, 25)))
    # all 40 lattices in one table, on int64 and on object arrays
    cells = half_box_cells(bases)
    assert half_box_cells(bases, dtype=object) == cells
    for i, (b1, b2, U) in enumerate(bases):
        got = [(u, v) for u, v, k in cells if k == i]
        det = b1[0] * b2[1] - b1[1] * b2[0]
        # Cramer bound: |c1| = |x*b2[1]-y*b2[0]|/|det| <= 2U*max|b2|/|det|
        m1 = 2 * U * max(abs(b2[0]), abs(b2[1])) // abs(det) + 1
        m2 = 2 * U * max(abs(b1[0]), abs(b1[1])) // abs(det) + 1
        brute = set()
        for c1 in range(-m1, m1 + 1):
            x0, y0 = c1 * b1[0], c1 * b1[1]
            for c2 in range(-m2, m2 + 1):
                x = x0 + c2 * b2[0]
                y = y0 + c2 * b2[1]
                if 0 <= x <= U and abs(y) <= U:
                    brute.add((x, y))
        assert set(got) == brute
        assert len(got) == len(brute)


def test_iter_lattice_points_matches_bulk():
    bases = [((3, 1), (-1, 2), 40), ((0, 1), (1, 0), 30), ((1, 4), (-7, 3), 50)]
    bulk = half_box_cells(bases)
    # rows of the second lattice hold 61 cells, so a chunk of 64 splits rows
    assert half_box_cells(bases, chunk=64) == bulk
    assert half_box_cells(bases, chunk=7) == bulk


def test_linear_range_vs_brute():
    rng = random.Random(5)
    base = np.array([rng.randint(-30, 30) for _ in range(400)])
    c = np.array([rng.randint(-6, 6) for _ in range(400)])
    lo_val = np.array([rng.randint(-20, 5) for _ in range(400)])
    hi_val = lo_val + np.array([rng.randint(-3, 25) for _ in range(400)])
    lo, hi = linear_range(base, c, lo_val, hi_val)
    for i in range(400):
        ns = [n for n in range(-100, 101) if lo_val[i] <= base[i] + n * c[i] <= hi_val[i]]
        if c[i] == 0 and ns:
            assert lo[i] < -100 and hi[i] > 100
        elif ns:
            assert (lo[i], hi[i]) == (ns[0], ns[-1])
        else:
            assert lo[i] > hi[i]
