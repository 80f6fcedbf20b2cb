import random
from fractions import Fraction
from math import gcd, isqrt
from time import perf_counter

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conicbundle import conic
from conicbundle.conic import (
    FibreConic,
    certified_min_m,
    edge_coeffs,
    edge_norm,
    count_points,
    count_points_reference,
    height,
    parameterize,
    point_from_pair,
)
from conicbundle.modsolve import BASIS_G, Rows, class_bases, iter_lattice_points
from conicbundle.numth import is_prime
from conicbundle.surface import domain_B, fibre_conic

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
    # the cell search they replace gave 16/17 and 63/272.  x^2 - yz has N = 1
    # on both edges; c11's minimum sqrt(5) - 2 lies at the tie points
    # (-3 +- sqrt(5)) / 2 of its edge (s, 1), just above the floor, which
    # the 64-bit working precision of `FibreConic.edges` isolates more
    # tightly than the 32-bit floor grid it replaced (32444935775 / 2^37)
    assert certified_min_m(xyz_conic) == 1 >= Fraction(16, 17)
    m = certified_min_m(c11)
    assert m == Fraction(34837484519494762847, 2**67) >= Fraction(32444935775, 2**37)
    assert m >= Fraction(63, 272)
    assert (m + 2) ** 2 <= 5 < (m + 2 + Fraction(1, 2**64)) ** 2


def _nonsingular(coeffs):
    a, b, c, e, f = coeffs
    return a * e * e - b * c * e + f * b * b != 0


def cell_bounds(c, w, a, S):
    """(lo, hi) with lo <= 4 S^2 max(|x|, w|y|, |z|) of q(1, t) <= hi on the
    cell t in [a/S, (a+1)/S] of the edge coefficients c, for the cell-walk
    oracles.  On the cell each scaled component is its chord through the two
    end values plus alpha (T - a)(T - a - 1), alpha its T^2 coefficient, and
    that product lies between -alpha/4 and 0; the factor 4 keeps it
    integral.  Python ints and integer numpy arrays alike."""
    lo = hi = 0
    ends = zip(conic._edge_components(c, a, S), conic._edge_components(c, a + 1, S))
    for (f0, f1), alpha, wt in zip(ends, (0, -c[4], c[3]), (1, w, 1)):
        f_lo = 2 * (f0 + f1 - abs(f0 - f1)) - (alpha + abs(alpha)) // 2
        f_hi = 2 * (f0 + f1 + abs(f0 - f1)) + (abs(alpha) - alpha) // 2
        lo = conic._max(lo, wt * conic._max(f_lo, -f_hi))
        hi = conic._max(hi, wt * conic._max(f_hi, -f_lo))
    return lo, hi


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
    lo, hi = cell_bounds(c, w, a, S)
    assert 0 <= lo <= hi
    # every point of the cell on the grid 2^j times finer
    for T in range(a << j, ((a + 1) << j) + 1):
        assert lo << (2 * j) <= 4 * edge_norm(c, w, T, S << j) <= hi << (2 * j)
    # the same formula on integer arrays, int64 where it fits
    fits = 64 * w * sum(map(abs, c)) * S * S < 2**63
    for dtype in (object, np.int64) if fits else (object,):
        lo_v, hi_v = cell_bounds(tuple(np.full(2, x, dtype) for x in c), w,
                                 np.full(2, a, dtype), S)
        assert lo_v.tolist() == [lo, lo] and hi_v.tolist() == [hi, hi]


def search_floor(C):
    """The depth-first cell search that certified_min_m replaced: 16/17 of
    the smallest cell-end norm met, once every cell's lower bound reaches
    it (so it is a floor)."""
    edges = edge_coeffs(C)
    w = C.weight
    best, kb = edge_norm(edges[0], w, 0, 1), 0
    stack = [(e, a, 0) for e in (0, 1) for a in (-1, 0)]
    while stack:
        e, a, k = stack.pop()
        S = 1 << k
        corner = edge_norm(edges[e], w, a, S)
        if corner << (2 * kb) < best << (2 * k):
            best, kb = corner, k
        target = -((-64 * best << (2 * k)) // (17 << (2 * kb)))
        if cell_bounds(edges[e], w, a, S)[0] < target:
            assert k < 44
            stack += [(e, 2 * a, k + 1), (e, 2 * a + 1, k + 1)]
    return Fraction(16 * best, 17 << (2 * kb))


def test_certified_min_m_between_the_search_floor_and_every_cell_end(s1, split_surface):
    # positive, at most N at every dyadic cell end down to level 12, and at
    # least the cell search's floor, so no base box grows
    T = np.arange(-4096, 4097, dtype=np.int64)
    for X, x in ((s1, 30), (split_surface, 20)):
        for idx in domain_B(X, x):
            C = fibre_conic(X, idx)
            m = certified_min_m(C)
            assert 0 < search_floor(C) <= m
            fits = 4 * C.weight * sum(map(abs, C.coeffs)) * 4096**2 < 2**62
            ends = min(int(edge_norm(c, C.weight, T if fits else T.astype(object), 4096).min())
                       for c in edge_coeffs(C))
            assert m <= Fraction(ends, 4096**2)


def test_certified_min_m_is_tight(s1, split_surface):
    # within 10% of the norm's minimum sampled on a 2^10 grid of both edges
    T = np.arange(-1024, 1025, dtype=np.int64)
    for X in (s1, split_surface):
        for idx in domain_B(X, 6):
            C = fibre_conic(X, idx)
            sampled = min(int(edge_norm(c, C.weight, T, 1024).min())
                          for c in edge_coeffs(C))
            m = certified_min_m(C)
            assert Fraction(9, 10) * Fraction(sampled, 4**10) <= m
            assert m <= Fraction(sampled, 4**10)


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


def _table(C, B, int64_ok=True):
    """The fibre's table, on object arrays unless int64_ok."""
    with pytest.MonkeyPatch.context() as mp:
        if not int64_ok:
            mp.setattr(conic, "_int64_ok", lambda *args: False)
        return next(conic.fibre_tables([C], B))


def _box_table(C, B, int64_ok=True):
    """The fibre's classes, lattices and box rows, none of them clipped."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conic, "_LONG_ROW", 2**62)  # no row is long
        table = _table(C, B, int64_ok)
    return table.classes, table.lats, table.rows


def _row_tables(C, B, int64_ok):
    """The fibre's box rows and height-clipped rows, as count_points builds
    them, then the long rows and the ends P, Q of their holes."""
    _, lats, box = _box_table(C, B, int64_ok)
    long = np.flatnonzero(box.hi - box.lo >= conic._LONG_ROW)
    return lats, box, *conic._height_rows([C], [len(lats.g)], B, lats, box, long), long


@given(
    gp=st.integers(1, 30),
    at=st.booleans(),
    k=st.integers(0, 2**10),
    r=st.integers(1, 30),
    sigma=st.integers(0, 2**63),
    big=st.integers(2**8, 2**11),
    j=st.integers(-4, 3),
)
def test_fibre_lattices_just_below_and_at_the_int64_reach(gp, at, k, r, sigma, big, j):
    # a class lattice (gp, 0), (u0, d) of index g = gp d just below
    # BASIS_G, where class_bases reduces on int64, or at or just above it,
    # where it reduces on object arrays, is one choice of a power g; beside
    # it a power `big` prime to g, each also with the class (1 : 0), so
    # that the grid holds the longest b2 of the largest index G = g big, (0,
    # G).  The floor m puts U G of that layer just below (j < 0) or at or
    # above (j >= 0) 2^61, the int64 reach of the fibre's grid and lattices
    # (`_int64_ok`).  The fibre's table, on int64 below that reach and on
    # object arrays at it, equals the object table
    d = -(-BASIS_G // gp) + k if at else (BASIS_G - 1) // gp - k
    g = gp * d
    tau, sigma = d * r % g, sigma % g
    assume(gcd(r, gp) == 1 and gcd(sigma, tau, g) == 1 and gcd(g, big) == 1)
    u0 = sigma * pow(tau // d, -1, gp) % gp if gp > 1 else 1
    top = g * big
    u_top = -(-2**61 // top) + j
    m = Fraction(top, (u_top - 1) ** 2)  # u_top = isqrt(top / m) + 1 at bound 1
    primes = [[(g, gp, d, u0), (g, 1, g, 1)], [(big, 1, big, 1), (big, big, 1, sigma % big)]]
    C = FibreConic(1, 1, 0, 0, 1)  # the guard on coefficients and det holds
    assert conic._int64_ok(C, 1, top, u_top) == (j < 0)
    fibres = [(C, m, primes)]

    def tables():
        exact = next(conic._lattice_tables(fibres, 1, False, object))
        table = next(conic._group_tables([(C, m, primes, (top, u_top))], 1, False))
        assert exact[1].U.dtype == object
        assert table.lats.U.dtype == (np.int64 if j < 0 else object)
        assert table.lats.U.max() == u_top and table.lats.g.max() == top
        assert (0, top) in zip(abs(table.lats.b2u).tolist(), abs(table.lats.b2v).tolist())
        assert table.classes.tolist() == exact[0].tolist()
        return exact[1:], table.lats, table.rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conic, "_LONG_ROW", 2**62)  # no row is clipped: the box rows
        exact, lats, rows = tables()
    for got, col in zip((*lats, *rows), (*exact[0], *exact[1])):
        assert got.tolist() == col.tolist()
    # the cells at both ends of every row, against the object route
    ends = _row_end_cells(lats, rows)
    for (u, v), (u_exact, v_exact) in zip(ends, _row_end_cells(*exact[:2])):
        assert u.tolist() == u_exact.tolist() and v.tolist() == v_exact.tolist()
        U = exact[0].U[exact[1].lat[exact[1].lo <= exact[1].hi]]
        assert np.all((0 <= u_exact) & (u_exact <= U) & (abs(v_exact) <= U))
    # the rows clipped to the height hull, against the object route
    exact, _, clipped = tables()
    for got, col in zip(clipped, exact[1]):
        assert got.tolist() == col.tolist()


def _row_end_cells(lats, rows):
    """(u, v) of the first and of the last cell of every nonempty row."""
    live = rows.lo <= rows.hi
    lat, n2 = rows.lat[live], rows.n2[live]
    return [(n1 * lats.b1u[lat] + n2 * lats.b2u[lat], n1 * lats.b1v[lat] + n2 * lats.b2v[lat])
            for n1 in (rows.lo[live], rows.hi[live])]


def test_count_points_chunk_independent(monkeypatch, c12):
    default = [count_points(C, 300, want_points=True) for C in (c12, C36)]
    # a chunk of 7 splits rows: both fibres have rows of more than 7 cells
    for C in (c12, C36):
        rows = _row_tables(C, 300, True)[2]
        assert (rows.hi - rows.lo + 1).max() > 7
    monkeypatch.setattr(conic, "_CHUNK", 7)
    for C, res in zip((c12, C36), default):
        small = count_points(C, 300, want_points=True)
        assert small.count == res.count
        assert small.points == res.points


def _composite_det(coeffs):
    a, b, c, e, f = coeffs
    det = abs(a * e * e - b * c * e + f * b * b)
    return det >= 4 and not is_prime(det)


def _check_height_rows(C, B):
    """With every row clipped: the same rows and holes on int64 as on object
    rows; a row keeps exactly the cells of its box row that meet the convex
    condition of every component (sign(A) F <= cap, or |F| <= cap where A =
    F(b1) = 0), so every owned cell of height <= B g; and a hole of a
    component holds exactly the kept cells with sign(A) F < -cap (A != 0)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conic, "_LONG_ROW", 0)  # clip every row, not just long ones
        lats, box, rows, P, Q, long = _row_tables(C, B, True)
        exact = _row_tables(C, B, False)
    assert rows.lo.dtype == np.int64
    assert exact[2].lo.dtype == object
    for a, b in zip((*rows, P, Q), (*exact[2], exact[3], exact[4])):
        assert a.tolist() == b.tolist()
    # every box cell, tagged with its row; every nonempty box row is long
    counts = np.maximum(box.hi - box.lo + 1, 0)
    r = np.repeat(np.arange(len(counts)), counts)
    n1 = box.lo[r] + np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    lat = box.lat[r]
    u = n1 * lats.b1u[lat] + box.n2[r] * lats.b2u[lat]
    v = n1 * lats.b1v[lat] + box.n2[r] * lats.b2v[lat]
    b1u, b1v, cap = lats.b1u[lat], lats.b1v[lat], B * lats.g[lat]
    kept = (rows.lo[r] <= n1) & (n1 <= rows.hi[r])
    j = np.searchsorted(long, r)
    convex = np.ones(len(n1), dtype=bool)
    low = np.ones(len(n1), dtype=bool)
    forms = ((C.cxy, C.cyz, 0), (C.cxx, C.cxz, C.czz), (0, C.cxy, C.cyz))
    for k, ((fa, fb, fc), k_cap) in enumerate(zip(forms, (cap, cap // C.weight, cap))):
        F = fa * u * u + fb * u * v + fc * v * v
        A = fa * b1u * b1u + fb * b1u * b1v + fc * b1v * b1v
        convex &= np.where(A == 0, np.abs(F), np.sign(A) * F) <= k_cap
        low &= np.abs(F) <= k_cap
        in_hole = (P[k, j] <= n1) & (n1 <= Q[k, j])
        assert np.array_equal(in_hole, kept & (A != 0) & (np.sign(A) * F < -k_cap))
    owned = (u > 0) | ((u == 0) & (v > 0))
    assert np.array_equal(kept, convex)
    assert not np.any(owned & low & ~kept)
    live = rows.lo <= rows.hi
    assert np.all(rows.lo[live] >= box.lo[live]) and np.all(rows.hi[live] <= box.hi[live])


@given(
    coeffs=st.tuples(*[st.integers(-9, 9)] * 5).filter(_composite_det),
    w=st.integers(1, 3),
    B=st.integers(1, 60),
)
def test_height_rows_keep_every_owned_cell_of_bounded_height(coeffs, w, B):
    _check_height_rows(FibreConic(*coeffs, weight=w), B)


@pytest.mark.parametrize("B", [3, 40, 500])
def test_height_rows_of_fixed_fibres(c11, c12, B):
    for C in (c11, c12, C36):
        _check_height_rows(C, B)


@pytest.mark.parametrize("C, B", [(FibreConic(1, 1, 0, 0, 3 * 10**6 + 2), 10),
                                  (FibreConic(4, 0, -5, 6, -2, 3), 90)])
def test_height_rows_of_fixed_skewed_fibres(C, B):
    _check_height_rows(C, B)


def _one_row_hull(entries, lo, hi, routes=None):
    """`_row_hull` of one row n2 = 1 per entry (a, b, c, cap), each of a
    lattice of its own, where component 0 is a n1^2 + b n1 + c with that
    cap, and components 1 and 2 are 0, which meets every cap.  routes, if
    a list, gets the dtype and the b of every `_entry_ends` call."""
    exact = np.zeros((4, 3, len(entries)), dtype=object)
    for j, entry in enumerate(entries):
        exact[:, 0, j] = entry
    tables = conic._hull_tables(exact)
    if routes is None:  # every entry on object rows
        tables = (*tables[:2], np.full_like(tables[2], np.inf))
    entry_ends = conic._entry_ends

    def recording(a, b, c, cap, first, last):
        if routes is not None:
            routes.append((a.dtype, b.tolist()))
        return entry_ends(a, b, c, cap, first, last)

    n = len(entries)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conic, "_entry_ends", recording)
        return conic._row_hull(tables, np.arange(n), np.ones(n, dtype=lo.dtype),
                               np.full(n, lo, dtype=lo.dtype), np.full(n, hi, dtype=lo.dtype))


def test_hull_entries_just_below_and_at_the_int64_bound():
    # a = 1, b = 2^30, cap = 2^52 - 1: the float bound b^2 + 4 (a + 1)(|c|
    # + cap + 1) is 2^61 - 2^8 for the first c and 2^61 for the second,
    # exactly and in floats; the first entry is solved on int64, the second
    # on object, and both give the ends of the object route
    a, b, cap = 1, 2**30, 2**52 - 1
    cs = [2**57 - 2**52 - 2**5, 2**57 - 2**52]
    for c, bound in zip(cs, (2**61 - 2**8, 2**61)):
        assert float(b) ** 2 + 4 * (a + 1) * (float(c) + float(cap) + 1) == bound
        assert b * b + 4 * (a + 1) * (c + cap + 1) == bound
    entries = [(a, b, c, cap) for c in cs]
    lo = np.array(-2**62, dtype=np.int64)
    routes = []
    got = _one_row_hull(entries, lo, -lo, routes)
    want = _one_row_hull(entries, lo, -lo)
    assert [x.tolist() for x in got] == [x.tolist() for x in want]
    assert (np.dtype(object), [b]) in routes
    assert not any(dtype == object and len(bs) > 1 for dtype, bs in routes)
    # the ends are tight: L and H meet n^2 + b n + c <= cap, their outer
    # neighbours do not; the hole [P, Q] likewise for <= -cap - 1
    L, H, P, Q = (x.tolist() for x in got)
    for j, c in enumerate(cs):
        def f(n):
            return a * n * n + b * n + c
        assert f(L[j]) <= cap < f(L[j] - 1) and f(H[j]) <= cap < f(H[j] + 1)
        p, q = P[0][j], Q[0][j]
        assert L[j] <= p <= q <= H[j]
        assert f(p) <= -cap - 1 < f(p - 1) and f(q) <= -cap - 1 < f(q + 1)


@pytest.mark.parametrize("row_dtype", [np.int64, object])
def test_hull_entry_past_float_range_takes_the_object_route(row_dtype):
    # 10^400 n^2 - 3 10^406 between -10^406 and 10^406: no float holds the
    # coefficients, so the entry goes to the object route, not to an
    # OverflowError, on rows of either dtype; |n| <= 2000, less the hole
    # |n| <= isqrt(2 10^6 - 1)
    entry = (10**400, 0, -3 * 10**406, 10**406)
    lo = np.array(-10**4, dtype=row_dtype)
    routes = []
    L, H, P, Q = (x.tolist() for x in _one_row_hull([entry], lo, -lo, routes))
    assert (np.dtype(object), [0]) in routes
    assert (L, H, P[0], Q[0]) == ([-2000], [2000], [-1414], [1414])


def test_hull_of_constant_components_is_the_whole_object_row():
    # every component constant along the row and within its cap: the hull
    # is the row itself, whose ends lie past 2^62
    lo = np.array(-10**60, dtype=object)
    L, H, P, Q = (x.tolist() for x in _one_row_hull([(0, 0, 5, 10)], lo, -lo))
    assert (L, H) == ([-10**60], [10**60])
    assert all(p > q for p, q in zip(P, Q))


def test_isqrt_on_int64_is_exact_at_squares_and_their_neighbours():
    # the float root is corrected to floor(sqrt(D)) up to the 2^61 bound
    ks = [0, 1, 2, 3, 2**26 + 1, 2**30 - 1, 2**30, isqrt(2**61) - 1, isqrt(2**61)]
    D = np.array(sorted({k * k + d for k in ks for d in (-1, 0, 1)} | {-5, 2**61 - 1}))
    assert conic._isqrt(D).tolist() == [isqrt(d) if d >= 0 else -1 for d in D.tolist()]


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


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_content_height_equals_three_gcds(dtype):
    rng = random.Random(23)
    top = 10**4 if dtype is np.int64 else 10**30  # object rows pass int64
    nontrivial = 0
    for _ in range(100):
        d = rng.choice([1, 2, 6, 12])  # a shared factor makes contents above 1
        try:
            C = FibreConic(*(d * rng.randint(-20, 20) for _ in range(5)), weight=rng.randint(1, 3))
        except ValueError:  # singular parameterization
            continue
        pairs = [(0, 1), (1, 0), (1, -1)]
        for hi in (5, top):
            pairs += [(rng.randint(0, hi), rng.randint(-hi, hi)) for _ in range(40)]
        pairs = [(u, v) for u, v in pairs if gcd(u, v) == 1]
        u, v = (np.array(col, dtype=dtype) for col in zip(*pairs))
        L, q2, hw = conic._content_height(C, u, v)
        content = np.gcd(L, q2)
        for (a, b), c, h in zip(pairs, content.tolist(), hw.tolist()):
            q1 = C.cxy * a * a + C.cyz * a * b
            q2 = C.cxx * a * a + C.cxz * a * b + C.czz * b * b
            q3 = C.cxy * a * b + C.cyz * b * b
            assert c == gcd(q1, q2, q3), (C, a, b)
            assert h == max(abs(q1), C.weight * abs(q2), abs(q3)), (C, a, b)
            nontrivial += c > 1
    assert nontrivial > 100


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_collector_filter_equals_coprime_then_content(dtype):
    # feed tests the height first and the content as gcd(L, q2) = g with
    # gcd(u, v, g) = 1; the reference takes coprime pairs, then the content
    # gcd(q1, q2, q3) = g and the height max(|q1|, w |q2|, |q3|) <= B g
    rng = random.Random(29)
    top = 300 if dtype is np.int64 else 10**24
    accepted = 0
    for _ in range(60):
        d = rng.choice([1, 2, 6, 12])  # shared factors give contents above 1
        try:
            C = FibreConic(*(d * rng.randint(-20, 20) for _ in range(5)), weight=rng.randint(1, 3))
        except ValueError:  # singular parameterization
            continue
        s = rng.choice([1, 1, 3, 7])  # a common factor of u and v
        cells = [(s * rng.randint(-top, top), s * rng.randint(-top, top)) for _ in range(200)]
        cells += [(0, 0), (0, s), (0, -s), (s, 0)]
        B = rng.choice([10**4, 10**7, 10**12]) * (1 if dtype is np.int64 else 10**50)
        want, gs = [], []
        for a, b in cells:
            q1 = C.cxy * a * a + C.cyz * a * b
            q2 = C.cxx * a * a + C.cxz * a * b + C.czz * b * b
            q3 = C.cxy * a * b + C.cyz * b * b
            # the true content, gcd(L, q2) (which d = gcd(u, v) divides), or noise
            g = rng.choice([gcd(q1, q2, q3), gcd(C.cxy * a + C.cyz * b, q2), rng.randint(1, 36)])
            gs.append(max(g, 1))
            if ((a > 0 or (a == 0 and b > 0)) and gcd(a, b) == 1 and gcd(q1, q2, q3) == gs[-1]
                    and max(abs(q1), C.weight * abs(q2), abs(q3)) <= B * gs[-1]):
                want.append(point_from_pair(C, a, b))
        col = conic._Collector(C, B, want_points=True)
        u, v = (np.array(col_, dtype=dtype) for col_ in zip(*cells))
        col.feed(u, v, np.array(gs, dtype=dtype))
        assert col.count == len(want)
        assert col.points == want
        accepted += len(want)
    assert accepted > 500


def test_count_points_bigint_path_matches_int64(monkeypatch, c12):
    default = [count_points(C, 300, want_points=True) for C in (c12, C36)]
    feed = conic._Collector.feed
    dtypes = set()

    def feed_recording(self, u, v, g):
        dtypes.update((u.dtype, v.dtype, g.dtype))
        feed(self, u, v, g)

    monkeypatch.setattr(conic, "_int64_ok", lambda *args: False)
    monkeypatch.setattr(conic._Collector, "feed", feed_recording)
    for C, res in zip((c12, C36), default):
        exact = count_points(C, 300, want_points=True)
        assert exact.count == res.count
        assert exact.points == res.points
    assert dtypes == {np.dtype(object)}
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


@given(
    mirror=st.booleans(),
    s=st.sampled_from([1, 2, 3, 6]),
    w=st.integers(1, 3),
    B=st.integers(1, 30),
    delta=st.integers(-2, 1),
)
@example(mirror=False, s=1, w=1, B=30, delta=-1)
@example(mirror=True, s=6, w=3, B=7, delta=0)
def test_enumerate_int64_guard_at_its_bound(mirror, s, w, B, delta):
    # one huge coefficient (x^2 or z^2) beside small ones: the floor is w s at
    # t = 0 on one edge whatever the huge one is, so the box half-width u_cap
    # is fixed, and the huge coefficient puts 3 maxc u_cap^2 w just below
    # (delta < 0) or at or above (delta >= 0) 2^62
    def conic_with(big):
        return FibreConic(*((s, 0, 0, 1, big) if mirror else (big, 1, 0, 0, s)), weight=w)

    _, _, (_, u_cap) = conic._layers(conic_with(2**40), B)
    big = -(-2**62 // (3 * u_cap * u_cap * w)) + delta
    C = conic_with(big)
    assert conic._layers(C, B)[2][1] == u_cap
    dtypes = set()
    feed = conic._Collector.feed

    def feed_recording(self, u, v, g):
        dtypes.add(u.dtype)
        feed(self, u, v, g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conic._Collector, "feed", feed_recording)
        assert count_points(C, B).count == count_points_reference(C, B)
    below = 3 * big * u_cap * u_cap * w < 2**62
    assert below == (delta < 0)
    assert dtypes == {np.dtype(np.int64) if below else np.dtype(object)}


# --------------------------------------------------------------------------
# long rows counted by congruences


def _counted_rows(C, B):
    """(the count of the rows count_points counts by congruences, the same
    rows scanned cell by cell, how many they are, how many have a hole)."""
    classes, lats, box = _box_table(C, B)
    long = np.flatnonzero(box.hi - box.lo >= conic._LONG_ROW)
    if not len(long):
        return 0, 0, 0, 0
    rows, P, Q = conic._height_rows([C], [len(lats.g)], B, lats, box, long)
    (total,), left = conic._count_rows(classes, [len(lats.g)], lats, rows, long, P, Q)
    done = np.flatnonzero((left.hi != rows.hi) & (rows.lo <= rows.hi))
    assert np.all(rows.n2[done] != 0)  # the rows n2 = 0 are scanned
    col = conic._Collector(C, B, want_points=False)
    for u, v, g in iter_lattice_points(lats, Rows(*(x[done] for x in rows)), 4096):
        col.feed(u, v, g)
    holed = np.intersect1d(done, long[(P <= Q).any(axis=0)])
    return total, col.count, len(done), len(holed)


@pytest.mark.parametrize("B, step", [(10**2, 1), (10**3, 1), (10**4, 1), (10**5, 8)])
def test_row_counts_equal_the_scan_on_every_fibre(s1, split_surface, B, step):
    # every fibre of S1 up to fibre height 30 and of the split surface up to
    # 20 (at 10^5 every 8th, for time): the rows counted by congruences
    # hold exactly the cells the scan accepts on them
    rows = holed = 0
    for X, x, every in ((s1, 30, 1), (split_surface, 20, step)):
        for idx in list(domain_B(X, x))[::every]:
            try:
                C = fibre_conic(X, idx)
            except ValueError:  # a singular fibre
                continue
            counted, scanned, n, h = _counted_rows(C, B)
            assert counted == scanned, (idx, B)
            rows, holed = rows + n, holed + h
    assert rows >= {10**2: 0, 10**3: 50, 10**4: 1000, 10**5: 10000}[B]
    assert holed >= {10**2: 0, 10**3: 0, 10**4: 100, 10**5: 1000}[B]


@pytest.mark.parametrize("B, step", [(10**2, 1), (10**3, 4)])
def test_count_points_equals_the_point_list(s1, split_surface, B, step):
    # the count against the scan with the points kept, which counts no row
    # by congruences
    for X, x in ((s1, 30), (split_surface, 20)):
        for idx in list(domain_B(X, x))[::step]:
            try:
                C = fibre_conic(X, idx)
            except ValueError:
                continue
            assert count_points(C, B).count == len(count_points(C, B, want_points=True).points)


def test_points_need_a_table_built_without_counting(s1):
    # a counting table keeps no points of its counted rows, so it is
    # refused where the points are wanted; a table built without counting
    # gives them all
    B, conics = 10**5, _fibre_conics(s1, 3)
    C, table = next((C, t) for C, t in zip(conics, conic.fibre_tables(conics, B)) if t.counted)
    with pytest.raises(ValueError, match="without counting"):
        count_points(C, B, want_points=True, table=table)
    plain = next(conic.fibre_tables([C], B, count=False))
    assert plain.counted is None
    points = count_points(C, B, want_points=True, table=plain).points
    assert len(points) == count_points(C, B, table=table).count


def _fibre_conics(X, x):
    conics = []
    for idx in domain_B(X, x):
        try:
            conics.append(fibre_conic(X, idx))
        except ValueError:  # a singular fibre
            continue
    return conics


def _table_counts(conics, B):
    tables = conic.fibre_tables(conics, B)
    return [count_points(C, B, table=t).count for C, t in zip(conics, tables)]


def test_half_widths_are_exact_next_to_perfect_squares():
    # isqrt(bound g // m) + 1 per lattice, with bound g / m just below, at
    # and just above k^2 (by 2^-60 relative), where the float root rounds
    # to k either side; the largest k keep U below 2^30.2, as on int64
    rng = random.Random(41)
    gs, ms, sizes = [], [], []
    for k in [1, 2, 3, 1000, 2**26 + 1, 2**30 - 3, 2**30 + 7]:
        for shift in (-1, 0, 1):
            bound, g = rng.randint(1, 10**6), rng.randint(1, 2**20)
            D = 2**60
            ms.append(Fraction(bound * g * D, k * k * D + shift))
            gs.append([1, g])
            sizes.append(2)
            want = [isqrt(bound * x * ms[-1].denominator // ms[-1].numerator) + 1
                    for x in gs[-1]]
            for dtype in (np.int64, object):
                got = conic._half_widths(np.array(gs[-1], dtype=dtype), [ms[-1]], [2], bound)
                assert got.tolist() == want, (k, shift)
            assert want[1] == k + (shift >= 0)
    # several fibres at once, each with its own floor
    bound = 7
    want = [isqrt(bound * x * m.denominator // m.numerator) + 1 for xs, m in zip(gs, ms)
            for x in xs]
    assert conic._half_widths(np.array(sum(gs, [])), ms, sizes, bound).tolist() == want


@pytest.mark.parametrize("B", [10, 100, 1000])
def test_fibre_tables_give_the_single_fibre_counts(s1, split_surface, monkeypatch, B):
    # every fibre of S1 up to fibre height 30 and of the split surface up to
    # 20, with one fibre per group and with all of them in one group
    for X, x in ((s1, 30), (split_surface, 20)):
        conics = _fibre_conics(X, x)
        want = [count_points(C, B).count for C in conics]
        for size in (1, 10**9):
            monkeypatch.setattr(conic, "_BASES", size)
            monkeypatch.setattr(conic, "_GROUP_FIBRES", size)
            assert _table_counts(conics, B) == want, (x, size)


def test_a_group_of_int64_and_object_fibres_gives_the_same_counts(split_surface, monkeypatch):
    # all fibres in one group: with every fibre on int64, one int64 build
    # and no object one; with every other fibre forced onto object arrays,
    # one build per dtype.  Each count is that of the fibre counted alone
    conics = _fibre_conics(split_surface, 8)
    want = [count_points(C, 300).count for C in conics]
    lattice_tables, calls = conic._lattice_tables, []

    def recording(fibres, bound, count, dtype):
        calls.append((dtype, [C for C, _, _ in fibres]))
        return lattice_tables(fibres, bound, count, dtype)

    monkeypatch.setattr(conic, "_lattice_tables", recording)
    monkeypatch.setattr(conic, "_BASES", 10**9)
    monkeypatch.setattr(conic, "_GROUP_FIBRES", 10**9)
    assert _table_counts(conics, 300) == want
    assert calls == [(np.int64, conics)]
    calls.clear()
    wide = set(conics[1::2])
    int64_ok = conic._int64_ok
    monkeypatch.setattr(conic, "_int64_ok", lambda C, *args: C not in wide and int64_ok(C, *args))
    dtypes = [t.lats.g.dtype for t in conic.fibre_tables(conics, 300)]
    assert dtypes == [np.dtype(object) if C in wide else np.dtype(np.int64) for C in conics]
    assert calls == [(np.int64, conics[::2]), (object, conics[1::2])]
    assert _table_counts(conics, 300) == want


def test_a_group_of_int64_and_object_grids_gives_the_reference_counts(monkeypatch, c12):
    # fibres whose divisor grids fit int64 beside fibres past the int64
    # reach (coefficients or det past it, several primes each), all in one
    # group: one divisor_grid call per dtype, and each count is that of the
    # fibre counted alone and of the reference
    wide = [FibreConic(4, 0, -5, 6 * (2**32 - 1), -2),
            FibreConic(1, 1, 0, 0, 10000000019 * 30000000001)]
    conics = [c12, wide[0], C36, wide[1], FibreConic(6, 0, 0, -6, 0)]
    grid, calls = conic.divisor_grid, []

    def recording(fibres, dtype):
        calls.append((dtype, len(fibres)))
        return grid(fibres, dtype)

    monkeypatch.setattr(conic, "divisor_grid", recording)
    monkeypatch.setattr(conic, "_BASES", 10**9)
    monkeypatch.setattr(conic, "_GROUP_FIBRES", 10**9)
    for B in (5, 40):
        calls.clear()
        tables = list(conic.fibre_tables(conics, B))
        assert calls == [(np.int64, 3), (object, 2)]
        assert [t.lats.g.dtype == object for t in tables] == [C in wide for C in conics]
        want = [count_points_reference(C, B) for C in conics]
        assert [count_points(C, B, table=t).count for C, t in zip(conics, tables)] == want
        assert [count_points(C, B).count for C in conics] == want


def test_counts_do_not_depend_on_the_piece(s1, monkeypatch):
    # every fibre of S1 at B = 10^5 (the count-deep growth row): each has
    # long rows, clipped a piece of fibres at a time, and 261 are counted
    # by congruences.  Pieces of at most 7 rows (one fibre each), of the
    # default _CHUNK rows and of whole groups, in groups of one fibre and
    # of all of them; the scan keeps its chunk, which is tested apart
    B = 10**5
    conics = _fibre_conics(s1, B**0.25)
    scan = conic.iter_lattice_points
    monkeypatch.setattr(conic, "iter_lattice_points", lambda lats, rows, _: scan(lats, rows, 4096))
    counts = []
    for chunk in (7, conic._CHUNK, 10**9):
        for size in (1, 10**9):
            monkeypatch.setattr(conic, "_CHUNK", chunk)
            monkeypatch.setattr(conic, "_BASES", size)
            monkeypatch.setattr(conic, "_GROUP_FIBRES", size)
            counts.append(_table_counts(conics, B))
    assert all(c == counts[0] for c in counts)
    assert len(conics) == 384 and sum(counts[0]) == 2288864


def test_a_piece_of_counted_and_uncounted_fibres_beside_an_object_fibre(s1, monkeypatch):
    # the first 15 fibres of S1 at B = 10^5 in one group: the int64 fibres
    # share pieces, counted ones beside uncounted ones, and the fibre forced
    # onto object arrays is a piece of its own between them; each count is
    # that of the fibre counted alone
    B = 10**5
    conics = _fibre_conics(s1, B**0.25)[:15]
    want = [count_points(C, B).count for C in conics]
    wide = conics[8]
    int64_ok, height_rows = conic._int64_ok, conic._height_rows
    pieces = []

    def recording(piece, *args):
        pieces.append(list(piece))
        return height_rows(piece, *args)

    monkeypatch.setattr(conic, "_int64_ok", lambda C, *args: C is not wide and int64_ok(C, *args))
    monkeypatch.setattr(conic, "_height_rows", recording)
    monkeypatch.setattr(conic, "_BASES", 10**9)
    monkeypatch.setattr(conic, "_GROUP_FIBRES", 10**9)
    tables = list(conic.fibre_tables(conics, B))
    assert [t.lats.g.dtype == object for t in tables] == [C is wide for C in conics]
    counted = {C for C, t in zip(conics, tables) if t.counted}
    assert [wide] in pieces
    assert any(len(counted.intersection(p)) not in (0, len(p)) for p in pieces)
    assert wide in counted
    assert [count_points(C, B, table=t).count for C, t in zip(conics, tables)] == want


def _det(coeffs):
    a, b, c, e, f = coeffs
    return a * e * e - b * c * e + f * b * b


def test_row_counts_on_random_conics_vs_reference(monkeypatch):
    # every row clipped and counted by congruences where it can be, and
    # every fourth conic on object rows
    monkeypatch.setattr(conic, "_LONG_ROW", 0)
    monkeypatch.setattr(conic, "_COUNT_CELLS", 0)
    int64_ok, count_rows = conic._int64_ok, conic._count_rows
    wide = False
    monkeypatch.setattr(conic, "_int64_ok", lambda *args: int64_ok(*args) and not wide)
    counted = []

    def counting(layers, sizes, lats, rows, *args):
        totals, left = count_rows(layers, sizes, lats, rows, *args)
        counted.append(int(np.count_nonzero((left.hi != rows.hi) & (rows.lo <= rows.hi))))
        return totals, left

    monkeypatch.setattr(conic, "_count_rows", counting)
    rng = random.Random(31)
    kinds = {"composite": 0, "even": 0, "square": 0}
    for done in range(200):
        while True:
            coeffs = [rng.randint(-12, 12) for _ in range(5)]
            det = abs(_det(coeffs))
            if det:
                break
        wide = done % 4 == 3
        C = FibreConic(*coeffs, weight=rng.randint(1, 3))
        B = rng.randint(1, 40) if done % 2 else rng.randint(40, 150)
        assert count_points(C, B).count == count_points_reference(C, B), (coeffs, B)
        kinds["composite"] += det > 3 and not is_prime(det)
        kinds["even"] += det % 2 == 0
        kinds["square"] += any(det % (p * p) == 0 for p in (2, 3, 5, 7))
    assert min(kinds.values()) >= 40
    assert sum(counted) >= 1000


def test_row_counts_where_a_prime_rejects_every_residue(monkeypatch):
    # on a row with p | n2 for a layer prime p where b1 = 0 mod p (p | g)
    # or alpha = 0 mod p (content g p), every cell is rejected: it counts 0
    monkeypatch.setattr(conic, "_LONG_ROW", 0)
    C, B = FibreConic(7, -4, 11, -1, 10), 114
    table = _table(C, B)
    classes, lats, rows = table.classes, table.lats, table.rows
    primes, kill, _ = conic._lattice_events(lats, classes, range(len(lats.g)))
    assert any(n2 and any(kill[l] >> i & 1 and n2 % p == 0 for i, p in enumerate(primes))
               for l, n2 in zip(rows.lat.tolist(), rows.n2.tolist()))
    counted, scanned, n, _ = _counted_rows(C, B)
    assert counted == scanned and n > 0
    assert count_points(C, B).count == count_points_reference(C, B)


@pytest.mark.parametrize("coeffs", [(1, 1, 0, 2, 2), (1, 3, 1, 6, 9), (5, 2, 1, 3, 3)])
def test_the_cell_that_does_not_own_its_pair_is_never_counted_by_congruences(monkeypatch, coeffs):
    # (0, -1) has content gcd(czz, cyz) > 1 here and is counted where it is
    # scanned; its lattice u = 0 mod g has b1 = (0, 1), so it lies on the
    # row n2 = 0, which congruences never count
    monkeypatch.setattr(conic, "_LONG_ROW", 0)
    monkeypatch.setattr(conic, "_COUNT_CELLS", 0)
    C = FibreConic(*coeffs)
    g0 = gcd(C.czz, C.cyz)
    # the class (0 : 1) mod g0, of the Hermite basis (g0, 0), (0, 1)
    (a,), (b,), _, _ = class_bases(*(np.array([x]) for x in (g0, 0, 1)))
    assert (abs(a), abs(b)) == (0, 1)
    for B in (10, 60, 150):
        assert count_points(C, B).count == count_points_reference(C, B)


def test_row_counts_take_object_terms_on_object_rows(monkeypatch, c12):
    # the terms are int64 while the moduli and rows allow it, object
    # otherwise; both give the same counts
    monkeypatch.setattr(conic, "_COUNT_CELLS", 0)
    tables = []
    part_count = conic._part_count

    def recording(qs, ones, bits, n2, bottom, length, first, table, n_max):
        tables.append(table.dtype)
        return part_count(qs, ones, bits, n2, bottom, length, first, table, n_max)

    monkeypatch.setattr(conic, "_part_count", recording)
    for C in (c12, C36):
        tables.clear()
        want = count_points(C, 3000).count
        assert set(tables) == {np.dtype(np.int64)}
        tables.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conic, "_int64_ok", lambda *args: False)
            assert count_points(C, 3000).count == want
        assert set(tables) == {np.dtype(object)}
