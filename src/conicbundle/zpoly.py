"""Univariate integer polynomial factorization (degrees up to ~8).

Pipeline: rational-root pre-pass, squarefree decomposition, then per
squarefree part a short Zassenhaus round: factor mod a good odd prime,
prune with distinct-degree patterns across several primes, Hensel-lift the
chosen modular factorization past a Landau-Mignotte coefficient bound, and
recombine subsets by exact trial division over Z.

Polynomials are tuples of ints, ascending degree, no trailing zeros.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

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


def z_content(p: Poly) -> int:
    c = 0
    for v in p:
        c = gcd(c, abs(v))
    return c or 1


def z_primitive(p: Poly) -> tuple[int, Poly]:
    """(content with sign of leading coefficient, primitive part)."""
    if not p:
        return 1, ()
    c = z_content(p)
    if p[-1] < 0:
        c = -c
    return c, tuple(v // c for v in p)


def z_divmod_exact(a: Poly, b: Poly):
    """Divide a by b over Q; return (quotient, remainder) as Fraction tuples."""
    r = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    lb = Fraction(b[-1])
    while len(r) >= len(b) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        coef = r[-1] / lb
        shift = len(r) - len(b)
        q[shift] = coef
        for i, cb in enumerate(b):
            r[shift + i] -= coef * cb
        r.pop()
    return tuple(q), tuple(r)


def z_divides(b: Poly, a: Poly) -> bool:
    """True when b divides a exactly over Q (hence over Z for primitive b)."""
    if not b:
        return not a
    q, r = z_divmod_exact(a, b)
    return all(c == 0 for c in r)


def z_div_exact(a: Poly, b: Poly) -> Poly:
    q, r = z_divmod_exact(a, b)
    assert all(c == 0 for c in r), "inexact division"
    out = []
    for c in q:
        assert c.denominator == 1
        out.append(int(c))
    return trim(out)


def q_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd over Z computed by a Fraction Euclid (degrees are small)."""
    fa = [Fraction(c) for c in a]
    fb = [Fraction(c) for c in b]

    def _trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    fa, fb = _trim(fa), _trim(fb)
    while fb:
        # remainder of fa by fb
        while len(fa) >= len(fb):
            coef = fa[-1] / fb[-1]
            shift = len(fa) - len(fb)
            for i, cb in enumerate(fb):
                fa[shift + i] -= coef * cb
            fa = _trim(fa)
            if not fa:
                break
        fa, fb = fb, fa
    if not fa:
        return ()
    # clear denominators, primitivize, positive lead
    den = 1
    for c in fa:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in fa]
    _, prim = z_primitive(tuple(ints))
    return prim


# ---------------------------------------------------------------------------
# arithmetic over F_p  (tuples, ascending, coefficients in [0, p))

def gf_trim(a) -> Poly:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def gf_from_z(a: Poly, p: int) -> Poly:
    return gf_trim([c % p for c in a])


def gf_mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return gf_trim(out)


def gf_divmod(a: Poly, b: Poly, p: int):
    assert b, "division by zero polynomial"
    r = list(a)
    qlen = max(len(a) - len(b) + 1, 0)
    q = [0] * qlen
    inv_lb = pow(b[-1], -1, p)
    for shift in range(qlen - 1, -1, -1):
        idx = shift + len(b) - 1
        if idx < len(r) and r[idx] % p:
            coef = r[idx] * inv_lb % p
            q[shift] = coef
            for i, cb in enumerate(b):
                r[shift + i] = (r[shift + i] - coef * cb) % p
    return gf_trim(q), gf_trim(r)


def gf_monic(a: Poly, p: int) -> Poly:
    if not a:
        return ()
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def gf_gcd(a: Poly, b: Poly, p: int) -> Poly:
    a, b = gf_trim(a), gf_trim(b)
    while b:
        _, r = gf_divmod(a, b, p)
        a, b = b, r
    return gf_monic(a, p)


def gf_pow_mod(base: Poly, e: int, mod: Poly, p: int) -> Poly:
    result: Poly = (1,)
    base = gf_divmod(gf_from_z(base, p), mod, p)[1]
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
    d = gf_trim([i * c % p for i, c in enumerate(f)][1:])
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
        g = list(h)
        while len(g) < 2:
            g.append(0)
        g[1] = (g[1] - 1) % p
        factor_d = gf_gcd(gf_trim(g), rest, p)
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
        a = gf_trim([rng.randrange(p) for _ in range(n)])
        if deg(a) < 1:
            continue
        g = gf_gcd(a, f, p)
        if 0 < deg(g) < n:
            pass
        else:
            b = gf_pow_mod(a, (p**d - 1) // 2, f, p)
            bb = list(b)
            if not bb:
                bb = [0]
            bb[0] = (bb[0] - 1) % p
            g = gf_gcd(gf_trim(bb), f, p)
            if not 0 < deg(g) < n:
                continue
        q, r = gf_divmod(f, g, p)
        assert not r
        return gf_equal_degree_split(g, d, p, rng) + gf_equal_degree_split(q, d, p, rng)


def gf_factor_squarefree(f: Poly, p: int, seed: int = _EDF_SEED) -> list[Poly]:
    """Monic irreducible factors of a monic squarefree f over F_p (p odd)."""
    rng = random.Random(seed)
    out: list[Poly] = []
    for part, d in gf_distinct_degree(f, p):
        out.extend(gf_equal_degree_split(part, d, p, rng))
    return sorted(out)


# ---------------------------------------------------------------------------
# Hensel lifting (monic setting)

def _poly_mod(a: Poly, m: int) -> Poly:
    return trim([c % m for c in a])


def _poly_divmod_mod(a: Poly, b: Poly, m: int):
    """divmod in (Z/m)[x] for b with leading coefficient invertible mod m."""
    r = [c % m for c in a]
    qlen = max(len(a) - len(b) + 1, 0)
    q = [0] * qlen
    inv_lb = pow(b[-1], -1, m)
    for shift in range(qlen - 1, -1, -1):
        idx = shift + len(b) - 1
        if idx < len(r) and r[idx] % m:
            coef = r[idx] * inv_lb % m
            q[shift] = coef
            for i, cb in enumerate(b):
                r[shift + i] = (r[shift + i] - coef * cb) % m
    return trim(q), trim(r)


def _hensel_step(f: Poly, g: Poly, h: Poly, s: Poly, t: Poly, m: int):
    """One quadratic lift: from f = g h (mod m) to the same mod m^2."""
    m2 = m * m
    e = _poly_mod(trim([a - b for a, b in _pad_sub(f, z_mul(g, h))]), m2)
    q, r = _poly_divmod_mod(z_mul(s, e), h, m2)
    g1 = _poly_mod(trim(_pad_add(_pad_add(g, z_mul(t, e)), z_mul(q, g))), m2)
    h1 = _poly_mod(trim(_pad_add(h, r)), m2)
    b = _poly_mod(trim([a - c for a, c in _pad_sub(_pad_add(z_mul(s, g1), z_mul(t, h1)), (1,))]), m2)
    c, d = _poly_divmod_mod(z_mul(s, b), h1, m2)
    s1 = _poly_mod(trim([x - y for x, y in _pad_sub(s, d)]), m2)
    t1 = _poly_mod(trim([x - y for x, y in _pad_sub(t, _pad_add(z_mul(t, b), z_mul(c, g1)))]), m2)
    return g1, h1, s1, t1


def _pad_pair(a, b):
    n = max(len(a), len(b))
    return list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))


def _pad_add(a, b):
    x, y = _pad_pair(a, b)
    return [u + v for u, v in zip(x, y)]


def _pad_sub(a, b):
    x, y = _pad_pair(a, b)
    return list(zip(x, y))


def _gf_xgcd(a: Poly, b: Poly, p: int):
    """(s, t) with s a + t b = 1 in F_p[x]; requires gcd(a, b) = 1."""
    r0, r1 = gf_from_z(a, p), gf_from_z(b, p)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gf_trim([(x - y) % p for x, y in _pad_sub(s0, gf_mul(q, s1, p))])
        t0, t1 = t1, gf_trim([(x - y) % p for x, y in _pad_sub(t0, gf_mul(q, t1, p))])
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
            return [_poly_mod(fcur, target)]
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
            g, h, s, t = _hensel_step(_poly_mod(fcur, m * m), g, h, s, t, m)
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


def _good_primes(f: Poly, count: int = 4):
    """Odd primes where monic f stays squarefree."""
    out = []
    p = 2
    from .numth import is_prime

    while len(out) < count:
        p += 1
        while not is_prime(p):
            p += 1
        if f[-1] % p == 0:
            continue
        fp = gf_from_z(f, p)
        if deg(fp) == deg(f) and gf_is_squarefree(fp, p):
            out.append(p)
        if p > 10_000:
            raise ArithmeticError("no good prime found; input likely not squarefree")
    return out


def _degree_mask(degrees: list[int], n: int) -> int:
    """Bitmask of achievable proper factor degrees via subset sums."""
    mask = 1
    for d in degrees:
        mask |= mask << d
    return mask & ((1 << n) - 1) & ~1  # strip degree 0 and degree >= n


def factor_squarefree_monic(f: Poly) -> list[Poly]:
    """Irreducible monic integer factors of a monic squarefree integer poly."""
    n = deg(f)
    if n <= 1:
        return [f]
    primes = _good_primes(f)
    patterns = []
    modular: dict[int, list[Poly]] = {}
    common = (1 << n) - 2
    for p in primes:
        fac = gf_factor_squarefree(gf_monic(gf_from_z(f, p), p), p)
        modular[p] = fac
        if len(fac) == 1:
            return [f]
        common &= _degree_mask([deg(g) for g in fac], n)
        patterns.append(len(fac))
        if common == 0:
            return [f]
    p = primes[patterns.index(min(patterns))]
    parts = modular[p]
    bound = 2 * _mignotte_bound(f)
    lifted, modulus = hensel_lift_factors(f, parts, p, bound)
    # recombine subsets, smallest first
    import itertools

    result: list[Poly] = []
    remaining = list(range(len(lifted)))
    fcur = f
    size = 1
    while 2 * size <= len(remaining):
        hit = None
        for combo in itertools.combinations(remaining, size):
            cand = (1,)
            for i in combo:
                cand = _poly_mod(z_mul(cand, lifted[i]), modulus)
            cand = trim([_symmetric(c, modulus) for c in cand])
            if z_divides(cand, fcur):
                hit = (combo, cand)
                break
        if hit is None:
            size += 1
            continue
        combo, cand = hit
        result.append(cand)
        fcur = z_div_exact(fcur, cand)
        remaining = [i for i in remaining if i not in combo]
    if deg(fcur) > 0:
        result.append(fcur)
    assert sum(deg(g) for g in result) == n
    return sorted(result)


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition of a primitive poly: [(primitive squarefree part, multiplicity)]."""
    out: list[tuple[Poly, int]] = []
    fp = z_derivative(f)
    a = q_gcd(f, fp)
    if deg(a) == 0:
        return [(f, 1)]
    b = z_div_exact(f, a)
    c = z_div_exact(fp, a)
    i = 1
    while True:
        d = trim([x - y for x, y in _pad_sub(c, z_derivative(b))])
        if not d:
            if deg(b) > 0:
                out.append((b, i))
            break
        g = q_gcd(b, d)
        if deg(g) > 0:
            out.append((g, i))
            b = z_div_exact(b, g)
            c = z_div_exact(d, g)
        else:
            c = d
        if deg(b) == 0:
            break
        i += 1
    return out


def z_factor(f: Poly) -> tuple[int, list[tuple[Poly, int]]]:
    """Factor f over Q: (integer content with sign, [(primitive irreducible, mult)]).

    After x^k is stripped, the squarefree parts go through the modular
    (Zassenhaus) route, which also finds the linear factors; a linear
    leftover is recorded as it is.  Product check: content * prod(parts^mult)
    == f exactly.
    """
    f = trim(f)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    cont, prim = z_primitive(f)
    found: dict[Poly, int] = {}

    # strip x^k
    k = 0
    while prim and prim[0] == 0:
        prim = prim[1:]
        k += 1
    if k:
        found[(0, 1)] = k

    work = trim(prim)
    if deg(work) >= 2:
        for part, mult in squarefree_decomposition(work):
            if deg(part) == 0:
                continue
            # monicize:  F(y) = lc^(n-1) part(y / lc)
            lc = part[-1]
            n = deg(part)
            monic = tuple(
                1 if i == n else c * lc ** (n - 1 - i) for i, c in enumerate(part)
            )
            for g in factor_squarefree_monic(monic):
                # map back: g(lc x), primitivized
                back = tuple(c * lc**i for i, c in enumerate(g))
                _, back = z_primitive(back)
                found[back] = found.get(back, 0) + mult
    elif deg(work) == 1:
        _, lin = z_primitive(work)
        found[lin] = found.get(lin, 0) + 1

    # normalize: positive leading coefficient, recover content sign
    parts: dict[Poly, int] = {}
    sign_flip = 1
    for g, m in found.items():
        if g[-1] < 0:
            g = tuple(-c for c in g)
            if m % 2:
                sign_flip = -sign_flip
        parts[g] = parts.get(g, 0) + m
    prod_poly: Poly = (cont * sign_flip,)
    for g, m in parts.items():
        for _ in range(m):
            prod_poly = z_mul(prod_poly, g)
    assert prod_poly == f, "product check failed"
    return cont * sign_flip, sorted(parts.items())
