"""Integer polynomials: arithmetic over Z and Z/m, roots mod p, factoring over Q.

Owns the one root finder mod p (gcd with x^p - x, then an equal-degree
split into linear factors) and the factorization over Q in one pass: the
squarefree part f / gcd(f, f') goes through one Zassenhaus round (factor
mod the least odd prime that keeps it squarefree, Hensel-lift that
factorization past a Landau-Mignotte coefficient bound, recombine subsets
by exact trial division over Z), and each factor's multiplicity is read
off gcd(f, f').  One good prime suffices at every degree (von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 14-15).

Polynomials are tuples of ints, ascending degree, no trailing zeros.
"""
from __future__ import annotations

import itertools
import random
from math import isqrt

from .numth import is_prime, projective_normal

Poly = tuple[int, ...]

_EDF_SEED = 0xC0FFEE


# ---------------------------------------------------------------------------
# arithmetic over Z

def trim(p) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def deg(p: Poly) -> int:
    return len(p) - 1  # deg of zero poly is -1


def z_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    return trim([c + b[i] if i < len(b) else c for i, c in enumerate(a)])


def z_sub(a: Poly, b: Poly) -> Poly:
    return z_add(a, tuple(-c for c in b))


def z_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def z_derivative(p: Poly) -> Poly:
    return trim([i * c for i, c in enumerate(p)][1:])


def z_primitive(p: Poly) -> tuple[int, Poly]:
    """(content with sign of leading coefficient, primitive part) of nonzero p."""
    prim = projective_normal(p[::-1])[::-1]
    return p[-1] // prim[-1], prim


def z_div(a: Poly, b: Poly) -> Poly | None:
    """a / b over Z for a primitive b != 0, or None when b does not divide a.

    By Gauss's lemma a primitive b divides a in Z[x] iff it does in Q[x], so
    the long division stops at the first quotient coefficient that is not an
    integer, or at the first nonzero remainder coefficient.
    """
    r = list(a)
    n = len(b) - 1
    q = [0] * max(len(r) - n, 0)
    for shift in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[shift + n], b[-1])
        if rest:
            return None
        q[shift] = c
        for i, cb in enumerate(b):
            r[shift + i] -= c * cb
    if any(r[:n]):
        return None
    return trim(q)


def q_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd over Z: Euclid on pseudo-remainders (lc(b)^j a minus
    multiples of b, all in integers), each scaled to its primitive part,
    which keeps the coefficients small."""
    a, b = trim(a), trim(b)
    while b:
        r = list(a)
        while len(r) >= len(b):
            shift, lead = len(r) - len(b), r[-1]
            r = [c * b[-1] for c in r]
            for i, cb in enumerate(b):
                r[shift + i] -= lead * cb
            r = list(trim(r))
        a, b = b, z_primitive(tuple(r))[1] if r else ()
    return z_primitive(a)[1] if a else ()


# ---------------------------------------------------------------------------
# arithmetic over Z/m  (tuples, ascending, coefficients in [0, m)); gcds,
# powers and factoring need m = p prime, divmod a leading coefficient
# invertible mod m

def gf_from_z(a: Poly, m: int) -> Poly:
    return trim([c % m for c in a])


def gf_mul(a: Poly, b: Poly, m: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % m
    return trim(out)


def gf_divmod(a: Poly, b: Poly, m: int):
    """(quotient, remainder) of a by b in (Z/m)[x]; a is reduced mod m first."""
    assert b, "division by zero polynomial"
    r = [c % m for c in a]
    qlen = max(len(a) - len(b) + 1, 0)
    q = [0] * qlen
    inv_lb = pow(b[-1], -1, m)
    for shift in range(qlen - 1, -1, -1):
        idx = shift + len(b) - 1
        if r[idx]:
            coef = r[idx] * inv_lb % m
            q[shift] = coef
            for i, cb in enumerate(b):
                r[shift + i] = (r[shift + i] - coef * cb) % m
    return trim(q), trim(r)


def gf_monic(a: Poly, p: int) -> Poly:
    if not a:
        return ()
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def gf_gcd(a: Poly, b: Poly, p: int) -> Poly:
    a, b = gf_from_z(a, p), gf_from_z(b, p)
    while b:
        _, r = gf_divmod(a, b, p)
        a, b = b, r
    return gf_monic(a, p)


def gf_pow_mod(base: Poly, e: int, mod: Poly, p: int) -> Poly:
    result: Poly = (1,)
    base = gf_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = gf_divmod(gf_mul(result, base, p), mod, p)[1]
        base = gf_divmod(gf_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def gf_pow_xp_mod(f: Poly, p: int) -> Poly:
    """x^p mod f over F_p."""
    return gf_pow_mod((0, 1), p, f, p)


def gf_is_squarefree(f: Poly, p: int) -> bool:
    d = gf_from_z(z_derivative(f), p)
    if not d:
        return False
    return deg(gf_gcd(f, d, p)) == 0


def gf_distinct_degree(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """[(product of irreducible factors of degree d, d), ...] for monic squarefree f."""
    out = []
    h: Poly = (0, 1)
    rest = f
    d = 0
    while deg(rest) > 0:
        d += 1
        if 2 * d > deg(rest):
            out.append((rest, deg(rest)))
            break
        h = gf_pow_mod(h, p, rest, p)
        factor_d = gf_gcd(z_sub(h, (0, 1)), rest, p)
        if deg(factor_d) > 0:
            out.append((factor_d, d))
            rest, r = gf_divmod(rest, factor_d, p)
            assert not r
            h = gf_divmod(h, rest, p)[1]
    return out


def gf_equal_degree_split(f: Poly, d: int, p: int, rng: random.Random) -> list[Poly]:
    """Split a monic product of degree-d irreducibles into the irreducibles (p odd)."""
    n = deg(f)
    if n == d:
        return [f]
    while True:
        a = trim([rng.randrange(p) for _ in range(n)])
        if deg(a) < 1:
            continue
        g = gf_gcd(a, f, p)
        if 0 < deg(g) < n:
            pass
        else:
            b = gf_pow_mod(a, (p**d - 1) // 2, f, p)
            g = gf_gcd(z_sub(b, (1,)), f, p)
            if not 0 < deg(g) < n:
                continue
        q, r = gf_divmod(f, g, p)
        assert not r
        return gf_equal_degree_split(g, d, p, rng) + gf_equal_degree_split(q, d, p, rng)


def gf_factor_squarefree(f: Poly, p: int) -> list[Poly]:
    """Monic irreducible factors of a monic squarefree f over F_p (p odd)."""
    rng = random.Random(_EDF_SEED)
    out: list[Poly] = []
    for part, d in gf_distinct_degree(f, p):
        out.extend(gf_equal_degree_split(part, d, p, rng))
    return sorted(out)


def gf_roots(f: Poly, p: int) -> list[int]:
    """Distinct roots in Z/p of an integer polynomial, ascending.

    A linear f mod p has the one root -f_0 / f_1.  Otherwise h =
    gcd(f, x^p - x) is the product of x - r over the roots r; it is split
    into its linear factors by equal-degree splitting.  Every class is a
    root when f = 0 mod p or h = x^p - x (which covers p = 2).
    """
    f = gf_from_z(f, p)
    if deg(f) == 1:
        return [-f[0] * pow(f[1], -1, p) % p]
    h = gf_gcd(z_sub(gf_pow_xp_mod(f, p), (0, 1)), f, p) if f else ()
    if not f or deg(h) == p:
        return list(range(p))
    if deg(h) < 1:
        return []
    lin = gf_equal_degree_split(h, 1, p, random.Random(_EDF_SEED))
    return sorted(-g[0] % p for g in lin)


# ---------------------------------------------------------------------------
# Hensel lifting (monic setting)

def _hensel_step(f: Poly, g: Poly, h: Poly, s: Poly, t: Poly, m: int):
    """One quadratic lift: from f = g h (mod m) to the same mod m^2."""
    m2 = m * m
    e = gf_from_z(z_sub(f, z_mul(g, h)), m2)
    q, r = gf_divmod(z_mul(s, e), h, m2)
    g1 = gf_from_z(z_add(z_add(g, z_mul(t, e)), z_mul(q, g)), m2)
    h1 = gf_from_z(z_add(h, r), m2)
    b = gf_from_z(z_sub(z_add(z_mul(s, g1), z_mul(t, h1)), (1,)), m2)
    c, d = gf_divmod(z_mul(s, b), h1, m2)
    s1 = gf_from_z(z_sub(s, d), m2)
    t1 = gf_from_z(z_sub(t, z_add(z_mul(t, b), z_mul(c, g1))), m2)
    return g1, h1, s1, t1


def _gf_xgcd(a: Poly, b: Poly, p: int):
    """(s, t) with s a + t b = 1 in F_p[x]; requires gcd(a, b) = 1."""
    r0, r1 = gf_from_z(a, p), gf_from_z(b, p)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gf_from_z(z_sub(s0, gf_mul(q, s1, p)), p)
        t0, t1 = t1, gf_from_z(z_sub(t0, gf_mul(q, t1, p)), p)
    assert deg(r0) == 0, "inputs were not coprime mod p"
    inv = pow(r0[0], -1, p)
    s = tuple(c * inv % p for c in s0)
    t = tuple(c * inv % p for c in t0)
    return s, t


def hensel_lift_factors(f: Poly, factors: list[Poly], p: int, bound: int) -> tuple[list[Poly], int]:
    """Lift a coprime monic factorization of monic f mod p until modulus > bound.

    Returns (lifted factors, modulus).  Recursive two-way tree.
    """
    target = p
    while target <= bound:
        target *= target

    def lift(fcur: Poly, parts: list[Poly]) -> list[Poly]:
        if len(parts) == 1:
            return [gf_from_z(fcur, target)]
        mid = len(parts) // 2
        gp = (1,)
        for q in parts[:mid]:
            gp = gf_mul(gp, q, p)
        hp = (1,)
        for q in parts[mid:]:
            hp = gf_mul(hp, q, p)
        s, t = _gf_xgcd(gp, hp, p)
        g, h = gp, hp
        m = p
        while m < target:
            g, h, s, t = _hensel_step(gf_from_z(fcur, m * m), g, h, s, t, m)
            m *= m
        return lift(g, parts[:mid]) + lift(h, parts[mid:])

    return lift(f, factors), target


# ---------------------------------------------------------------------------
# Zassenhaus over Z

def _mignotte_bound(f: Poly) -> int:
    norm2 = isqrt(sum(c * c for c in f)) + 1
    return (2 ** deg(f)) * norm2


def _symmetric(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _good_prime(f: Poly) -> int:
    """The least odd prime that keeps monic f's degree and keeps f squarefree."""
    for p in range(3, 10_000, 2):
        if is_prime(p) and gf_is_squarefree(gf_from_z(f, p), p):
            return p
    raise ArithmeticError("no good prime found; input likely not squarefree")


def factor_squarefree_monic(f: Poly) -> list[Poly]:
    """Irreducible monic integer factors of a monic squarefree integer poly."""
    n = deg(f)
    if n <= 1:
        return [f]
    p = _good_prime(f)
    parts = gf_factor_squarefree(gf_monic(gf_from_z(f, p), p), p)
    if len(parts) == 1:
        return [f]
    lifted, modulus = hensel_lift_factors(f, parts, p, 2 * _mignotte_bound(f))
    # recombine subsets, smallest first
    result: list[Poly] = []
    remaining = list(range(len(lifted)))
    fcur = f
    size = 1
    while 2 * size <= len(remaining):
        hit = None
        for combo in itertools.combinations(remaining, size):
            cand = (1,)
            for i in combo:
                cand = gf_from_z(z_mul(cand, lifted[i]), modulus)
            cand = trim([_symmetric(c, modulus) for c in cand])
            quotient = z_div(fcur, cand)
            if quotient is not None:
                hit = (combo, cand, quotient)
                break
        if hit is None:
            size += 1
            continue
        combo, cand, fcur = hit
        result.append(cand)
        remaining = [i for i in remaining if i not in combo]
    if deg(fcur) > 0:
        result.append(fcur)
    assert sum(deg(g) for g in result) == n
    return sorted(result)


def z_factor(f: Poly) -> tuple[int, list[tuple[Poly, int]]]:
    """Factor f over Q: (integer content with sign, [(primitive irreducible, mult)]).

    With c = gcd(f, f'), an irreducible of multiplicity m in f has
    multiplicity m - 1 in c (characteristic 0), so f / c is the squarefree
    part.  One Zassenhaus round factors it (x included, as an ordinary
    linear factor); each factor leaves it primitive with a positive leading
    coefficient, and its multiplicity is 1 plus the number of exact
    divisions of c by it.  Product check: content * prod(parts^mult) == f
    exactly.
    """
    f = trim(f)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    cont, prim = z_primitive(f)
    found: dict[Poly, int] = {}
    if deg(prim) >= 1:
        common = q_gcd(prim, z_derivative(prim))
        part = z_div(prim, common)
        # monicize:  F(y) = lc^(n-1) part(y / lc)
        lc = part[-1]
        n = deg(part)
        monic = tuple(1 if i == n else c * lc ** (n - 1 - i) for i, c in enumerate(part))
        for g in factor_squarefree_monic(monic):
            # map back: g(lc x), primitivized
            _, back = z_primitive(tuple(c * lc**i for i, c in enumerate(g)))
            mult = 1
            while (quotient := z_div(common, back)) is not None:
                common = quotient
                mult += 1
            found[back] = mult

    prod_poly: Poly = (cont,)
    for g, m in found.items():
        for _ in range(m):
            prod_poly = z_mul(prod_poly, g)
    assert prod_poly == f, "product check failed"
    return cont, sorted(found.items())
