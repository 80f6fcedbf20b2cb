import random
from itertools import product
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conicbundle import modsolve
from conicbundle.conic import FibreConic, parameterize
from conicbundle.modsolve import (
    BASIS_G,
    Lattices,
    class_bases,
    class_levels,
    divisor_grid,
    divisor_solutions,
    iter_lattice_points,
    lattice_rows,
    linear_range,
    solutions_mod_prime_power,
)
from conicbundle.numth import euler_phi, factor


def lagrange_reduce(b1, b2):
    """Oracle: Gauss-reduce one 2-D lattice basis (shortest vector first)."""
    v1 = list(b1)
    v2 = list(b2)
    n1 = v1[0] * v1[0] + v1[1] * v1[1]
    n2 = v2[0] * v2[0] + v2[1] * v2[1]
    if n1 > n2:
        v1, v2 = v2, v1
        n1, n2 = n2, n1
    while True:
        d = v1[0] * v2[0] + v1[1] * v2[1]
        # nearest integer to d / n1
        mu = (2 * d + n1) // (2 * n1) if d >= 0 else -((2 * (-d) + n1) // (2 * n1))
        if mu:
            v2 = [v2[0] - mu * v1[0], v2[1] - mu * v1[1]]
        n2 = v2[0] * v2[0] + v2[1] * v2[1]
        if n2 >= n1:
            return (v1[0], v1[1]), (v2[0], v2[1])
        v1, v2 = v2, v1
        n1, n2 = n2, n1


def class_lattice_basis(sigma: int, tau: int, g: int):
    """Oracle: reduced basis of {(u,v) : tau*u - sigma*v = 0 mod g} for one
    primitive class."""
    sigma %= g
    tau %= g
    d = gcd(tau, g)
    gp = g // d
    if gp == 1:
        b1, b2 = (1, 0), (0, d)
    else:
        taup = (tau // d) % gp
        u0 = sigma * pow(taup, -1, gp) % gp
        b1, b2 = (gp, 0), (u0, d)
    return lagrange_reduce(b1, b2)


def _hermite(sigma, tau, g):
    """(g', u0, d) of the primitive class (sigma : tau) mod g, whose lattice
    has the Hermite basis (g', 0), (u0, d)."""
    d = gcd(tau, g)
    gp = g // d
    return gp, sigma * pow(tau // d, -1, gp) % gp if gp > 1 else 0, d


def _bases(classes, dtype):
    """class_bases of the classes (sigma, tau, g), as ((a, b), (c, d)) each."""
    hermite = [_hermite(*c) for c in classes]
    b1u, b1v, b2u, b2v = class_bases(*(np.array(col, dtype=dtype) for col in zip(*hermite)))
    return [((a, b), (c, d)) for a, b, c, d in
            zip(b1u.tolist(), b1v.tolist(), b2u.tolist(), b2v.tolist())]


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


def _primitive_zeros(coeffs, g):
    """Every primitive pair (u, v) mod g with all three components 0 mod g."""
    cxx, cxy, cxz, cyz, czz = coeffs
    u, v = np.divmod(np.arange(g * g, dtype=np.int64), g)
    keep = np.gcd(np.gcd(u, v), g) == 1
    for comp in (cxy * u * u + cyz * u * v, cxx * u * u + cxz * u * v + czz * v * v,
                 cxy * u * v + cyz * v * v):
        keep &= comp % g == 0
    return set(zip(u[keep].tolist(), v[keep].tolist()))


DIVISOR_CONICS = [
    (1, 5, 2, 2, -1),       # det -41
    (6, 0, 0, -6, 0),       # det 2^3 * 3^3, every class of P^1 mod 6
    (-6, 6, 8, 6, -6),      # det -2^4 * 3^2 * 5
    (-6, -6, -5, 8, -6),    # det 2^3 * 3 * 5 * 7
]


def _garner_divisors(coeffs, fd):
    """Oracle: (g, classes) of every divisor g > 1 of |fd.value| with
    classes, by Garner's step on Python ints, one divisor and class at a
    time: a mod g and s mod p^j join as a + g ((s - a) g^-1 mod p^j)."""
    layers = [(1, [(0, 0)])]
    for p, k in reversed(fd.factors):
        grown = []
        for j, sols in enumerate(class_levels(coeffs, p, k), 1):
            if not sols:
                break
            pj = p**j
            for g, classes in layers:
                h = pow(g, -1, pj)
                grown.append((g * pj, [
                    (a + g * ((s - a) * h % pj), b + g * ((t - b) * h % pj))
                    for s, t in sols
                    for a, b in classes
                ]))
        layers += grown
    return layers[1:]


def _primes(coeffs):
    """The prime-power lattices of the conic's primes, the largest power
    first, as conic._layers sorts them for divisor_grid."""
    fd = factor(abs(FibreConic(*coeffs).pi_det))
    return sorted((lats for _, lats in divisor_solutions(coeffs, fd)),
                  key=lambda lats: lats[-1][0], reverse=True)


def _grid_classes(coeffs, dtype=np.int64):
    """{g: [(sigma, tau), ...]} of every divisor g > 1 of the conic's grid."""
    g, gp, u0, d, sigma = divisor_grid([_primes(coeffs)], dtype)
    table = {}
    for g, s, t in zip(g.tolist()[1:], sigma.tolist()[1:], d.tolist()[1:]):
        table.setdefault(g, []).append((s, t))
    return table


def _grid_oracle(primes):
    """(g, g', u0, d) of every choice of one lattice or none per prime, in
    the grid's order, the lattices joined by a CRT on Python ints."""
    out = []
    for choice in product(*([(1, 1, 1, 0)] + lats for lats in primes)):
        g, gp, d = (prod(c[i] for c in choice) for i in range(3))
        u0, mod = 0, 1
        for _, gp_i, d_i, u0_i in choice:
            r = u0_i * (d // d_i) % gp_i
            u0 += mod * ((r - u0) * pow(mod, -1, gp_i) % gp_i)
            mod *= gp_i
        out.append((g, gp, u0, d))
    return out


def _grid(fibres, dtype):
    """divisor_grid of the fibres as (g, g', u0, d) per entry, and the
    classes (sigma : d)."""
    g, gp, u0, d, sigma = (x.tolist() for x in divisor_grid(fibres, dtype))
    return list(zip(g, gp, u0, d)), list(zip(sigma, d, g))


def test_divisor_solutions_covers_divisors():
    """For every g | det the classes are exactly the unit orbits of the
    primitive zeros mod g, each once; a divisor not in the grid has none."""
    for coeffs in DIVISOR_CONICS:
        C = FibreConic(*coeffs)
        fd = factor(abs(C.pi_det))
        for dtype in (np.int64, object):
            table = _grid_classes(coeffs, dtype)
            assert table
            for g in fd.divisors()[1:]:
                classes = table.get(g, [])
                units = [lam for lam in range(g) if gcd(lam, g) == 1]
                orbits = {((lam * u) % g, (lam * v) % g) for u, v in classes for lam in units}
                assert len(orbits) == len(classes) * len(units), (coeffs, g)
                assert orbits == _primitive_zeros(coeffs, g), (coeffs, g)


def test_divisor_solutions_class_cap():
    """Only a divisor of two or more prime powers is capped."""
    coeffs = tuple(101 * 103 * c for c in (1, 1, 0, 1, 1))  # 102 * 104 classes mod 101*103
    with pytest.raises(ArithmeticError, match="explosion: 10608 CRT combinations"):
        list(divisor_solutions(coeffs, factor(abs(FibreConic(*coeffs).pi_det))))
    coeffs = tuple(10007 * c for c in (1, 0, 0, -1, 0))  # det 10007^3, all of P^1 mod 10007
    table = _grid_classes(coeffs)
    assert {g: len(classes) for g, classes in table.items()} == {10007: 10008}


def test_divisor_solutions_cap_at_the_largest_joined_divisor(monkeypatch):
    # with the cap just below the most classes of a divisor of two or more
    # prime powers (by the Garner oracle) the solve refuses, and at it the
    # solve passes; each level's classes count, not only the last level's
    seen = 0
    for coeffs in DIVISOR_CONICS + _random_conics(300, 13):
        fd = factor(abs(FibreConic(*coeffs).pi_det))
        joined = [len(classes) for g, classes in _garner_divisors(coeffs, fd)
                  if sum(g % p == 0 for p, _ in fd.factors) > 1]
        if not joined:
            continue
        seen += 1
        monkeypatch.setattr(modsolve, "_COMBO_CAP", max(joined) - 1)
        with pytest.raises(ArithmeticError, match="explosion"):
            list(divisor_solutions(coeffs, fd))
        monkeypatch.setattr(modsolve, "_COMBO_CAP", max(joined))
        list(divisor_solutions(coeffs, fd))
    assert seen >= 50


def _random_conics(n, seed):
    rng = random.Random(seed)
    conics = []
    while len(conics) < n:
        coeffs = tuple(rng.randint(-40, 40) for _ in range(5))
        if coeffs[1] or coeffs[3]:
            try:
                FibreConic(*coeffs)
            except ValueError:
                continue
            conics.append(coeffs)
    return conics


def test_divisor_grid_equals_the_garner_oracle():
    # per fibre, each divisor's classes as lattices (Hermite bases) against
    # the divisor-at-a-time Garner oracle; every grid class is primitive
    # and has the grid's Hermite basis; int64 and object alike
    for coeffs in DIVISOR_CONICS + _random_conics(60, 11):
        want = {(g, *_hermite(s % g, t % g, g)) for g, classes in
                _garner_divisors(coeffs, factor(abs(FibreConic(*coeffs).pi_det)))
                for s, t in classes}
        for dtype in (np.int64, object):
            lattices, classes = _grid([_primes(coeffs)], dtype)
            assert lattices[0] == (1, 1, 0, 1)  # the divisor 1
            assert set(lattices[1:]) == want and len(lattices) == len(want) + 1, coeffs
            for (g, gp, u0, d), (s, t, _) in zip(lattices, classes):
                assert gcd(gcd(s, t), g) == 1
                assert _hermite(s, t, g) == (gp, u0 if gp > 1 else 0, d)


def test_divisor_grid_of_a_group_equals_its_fibres():
    # fibres of 0 to 4 primes in one grid: each fibre's entries in turn,
    # those of the Python CRT oracle
    conics = [(1, 0, 0, -1, 0)] + DIVISOR_CONICS + _random_conics(40, 12)  # det 1 first
    fibres = [_primes(coeffs) for coeffs in conics]
    assert {len(primes) for primes in fibres} >= {0, 1, 2, 3, 4}
    want = [entry for primes in fibres for entry in _grid_oracle(primes)]
    for dtype in (np.int64, object):
        assert _grid(fibres, dtype)[0] == want


@pytest.mark.parametrize("q", [5, 7919])
def test_divisor_grid_just_below_and_at_its_int64_reach(q):
    # two coprime powers P > q whose product G lies just below 2^63, and
    # two whose product lies at or just above it, each with the lattices
    # (P, P, 1, u) and (P, 1, P, 1), in one group with a small fibre: below,
    # int64 equals the object grid and the oracle; at it, int64 refuses
    # with OverflowError and the object grid is still the oracle's
    below = next(P for P in range((2**63 - 1) // q, 0, -1) if gcd(P, q) == 1)
    at = next(P for P in range(-(-2**63 // q), 2**64) if gcd(P, q) == 1)
    small = _primes(DIVISOR_CONICS[2])
    for P in (below, at):
        fibre = [[(P, P, 1, P // 3), (P, 1, P, 1)], [(q, q, 1, 2), (q, 1, q, 1)]]
        assert (P * q < 2**63) == (P == below)
        fibres = [small, fibre, small]
        want = [entry for primes in fibres for entry in _grid_oracle(primes)]
        assert _grid(fibres, object)[0] == want
        if P == below:
            assert _grid(fibres, np.int64)[0] == want
        else:
            with pytest.raises(OverflowError):
                divisor_grid(fibres, np.int64)


def test_lagrange_reduce_preserves_lattice_and_shortens():
    # the array reduction, on every basis at once, against the oracle
    rng = random.Random(5)
    bases = []
    for _ in range(100):
        b1 = (rng.randint(-9, 9), rng.randint(-9, 9))
        b2 = (rng.randint(-9, 9), rng.randint(-9, 9))
        det = b1[0] * b2[1] - b1[1] * b2[0]
        if det == 0:
            continue
        bases.append((b1, b2))
    reduced = modsolve._gauss_reduce(np.array([b1 + b2 for b1, b2 in bases]).T).T.tolist()
    for (b1, b2), (a, b, c, d) in zip(bases, reduced):
        det = b1[0] * b2[1] - b1[1] * b2[0]
        r1, r2 = (a, b), (c, d)
        assert (r1, r2) == lagrange_reduce(b1, b2)
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
    classes = [(1, 3, 25), (1, 0, 9), (2, 1, 8), (0, 1, 7)]
    for dtype in (np.int64, object):
        for (sigma, tau, g), (b1, b2) in zip(classes, _bases(classes, dtype)):
            for c1 in range(-3, 4):
                for c2 in range(-3, 4):
                    u = c1 * b1[0] + c2 * b2[0]
                    v = c1 * b1[1] + c2 * b2[1]
                    assert (tau * u - sigma * v) % g == 0


def _primitive_class(g, d, r, sigma):
    """(sigma : tau) mod g with gcd(tau, g) = d, tau = d r mod g, made
    primitive by moving sigma to the nearest value prime to d."""
    gp = g // d
    r = next(x for x in range(r, r + gp + 1) if gcd(x, gp) == 1) % gp if gp > 1 else 0
    sigma %= g
    while gcd(sigma, d) != 1:
        sigma += 1
    return sigma % g, d * r % g


@st.composite
def _classes(draw, low, high):
    """Primitive classes mod g, low <= g < high, with d = gcd(tau, g) = 1,
    d > 1, or d = g (g' = 1)."""
    g = draw(st.integers(low, high - 1))
    divisors = [x for x in (1, 2, 3, 4, 6, 8, 12) if g % x == 0] + [g]
    d = draw(st.sampled_from(divisors))
    return (*_primitive_class(g, d, draw(st.integers(0, g)), draw(st.integers(0, g))), g)


@given(st.lists(_classes(1, 200), min_size=1, max_size=40))
@example([(1, 0, 1), (0, 1, 7), (1, 0, 9), (5, 4, 12), (3, 6, 12), (1, 12, 12)])
def test_class_bases_equal_the_oracle_on_random_classes(classes):
    want = [class_lattice_basis(*c) for c in classes]
    assert _bases(classes, np.int64) == want
    assert _bases(classes, object) == want


@given(st.lists(_classes(BASIS_G - 2**20, BASIS_G), min_size=1, max_size=20),
       st.lists(_classes(BASIS_G, BASIS_G + 2**20), min_size=1, max_size=20))
@example([(1, 0, BASIS_G - 1), (BASIS_G - 2, 1, BASIS_G - 1)],
         [(1, 0, BASIS_G), (BASIS_G - 1, 1, BASIS_G), (1, 2, BASIS_G)])
# near g = 2^61: |b2| <= 2 g / sqrt(3) still fits int64 after the object
# reduction, (1, 0) giving b2 = (0, g)
@example([(1, 0, BASIS_G - 1)],
         [(1, 0, 2**61 + 1), (2**60 + 3, 1, 2**61 - 1), (3, 2**61 - 2, 2**61 - 1)])
def test_class_bases_just_below_and_at_the_int64_reach(below, at):
    # below BASIS_G the reduction runs on int64, at it and above on object
    # arrays; the bases come back in the caller's dtype, also from a list
    # that takes both routes
    for classes in (below, at, below + at):
        want = [class_lattice_basis(*c) for c in classes]
        assert _bases(classes, np.int64) == want
        assert _bases(classes, object) == want


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
    lo, hi = linear_range(base, c, lo_val, hi_val, -101, 101)
    for i in range(400):
        ns = [n for n in range(-100, 101) if lo_val[i] <= base[i] + n * c[i] <= hi_val[i]]
        if c[i] == 0 and ns:
            assert lo[i] < -100 and hi[i] > 100
        elif ns:
            assert (lo[i], hi[i]) == (ns[0], ns[-1])
        else:
            assert lo[i] > hi[i]


def test_linear_range_keeps_to_the_callers_range():
    # an end that c = 0 leaves open is the caller's own, however far out,
    # and a bounded range is cut to the caller's
    far = 10**60
    base, c = np.array([5, 5, 5, 0], dtype=object), np.array([0, 0, 1, 3], dtype=object)
    lo, hi = linear_range(base, c, np.array([0, 6, 0, -9], dtype=object), 10,
                          np.array([-far, -far, -far, -2], dtype=object),
                          np.full(4, far, dtype=object))
    assert lo.tolist() == [-far, 1, -5, -2] and hi.tolist() == [far, 0, 5, 3]
