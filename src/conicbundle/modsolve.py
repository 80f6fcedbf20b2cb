"""Projective congruence solving and planar lattice enumeration.

Engine for the layered conic count: find every class (sigma : tau) on the
projective line over Z/g with all three parameterization quadratics zero,
turn each class into the index-g sublattice {(u,v) : tau*u - sigma*v = 0
mod g}, its reduced basis built for many classes at once (Gauss reduction
on int64 arrays below BASIS_G and on object arrays from it), and lay the
rows of many lattices out in one table whose cells are streamed in bounded
chunks.  Classes mod p^k come from one exact route for every p and k: the
level-1 roots of a linear (or, when p divides it, quadratic) congruence,
then one Hensel digit per level from two linear congruences mod p.  Each
becomes its lattice's Hermite basis in Python; the lattices of every
divisor of many fibres at once are then joined from those on arrays, by a
Garner (CRT) step per prime over the grid of each fibre's choices.
"""
from __future__ import annotations

from math import gcd
from typing import NamedTuple

import numpy as np

from .numth import FactoredInteger
from .zpoly import gf_roots

_COMBO_CAP = 10_000


def _common_digits(congruences, p: int):
    """Residues c mod p with alpha + beta*c = 0 mod p for every (alpha, beta)."""
    digits = range(p)
    for alpha, beta in congruences:
        if beta % p:
            c = -alpha * pow(beta, -1, p) % p
            digits = [c] if c in digits else []
        elif alpha % p:
            return []
    return digits


def _chart_levels(a, b, c, e, f, p: int, k: int, roots: list[int]) -> list[list[int]]:
    """Lift the common roots mod p of L = b + e*t and Q = a + c*t + f*t^2.

    Returns the common roots mod p^j for j = 1..k.  A root t mod p^j lifts to
    t + p^j*d exactly when L(t)/p^j + e*d and Q(t)/p^j + Q'(t)*d vanish mod p
    (the d^2 term carries p^2j), so each digit solves two linear congruences.
    """
    levels = [roots]
    pj = p
    for _ in range(1, k):
        nxt = []
        for t in levels[-1]:
            lin = ((b + e * t) // pj, e)
            quad = ((a + c * t + f * t * t) // pj, c + 2 * f * t)
            nxt.extend(t + pj * d for d in _common_digits((lin, quad), p))
        levels.append(nxt)
        pj *= p
    return levels[:k]


def class_levels(coeffs, p: int, k: int) -> list[list[tuple[int, int]]]:
    """Classes (sigma : tau) of P^1(Z/p^j) killing all three quadratics, j = 1..k.

    On the chart (1, t) the components are L(t), -Q(t) and t*L(t) with
    L = cxy + cyz*t and Q = cxx + cxz*t + czz*t^2; the chart (u, 1) with
    p | u is the same problem with (cxx, cxy) swapped against (czz, cyz).
    Level 1 is the root of the linear L, or the roots of Q when p divides
    both coefficients of L; every further level is one Hensel digit.
    Representatives are (1, t) or (u, 1) with p | u; entry j-1 is level j.
    """
    cxx, cxy, cxz, cyz, czz = coeffs
    if cyz % p:
        t = -cxy * pow(cyz, -1, p) % p
        roots = [t] if (cxx + cxz * t + czz * t * t) % p == 0 else []
    elif cxy % p:
        roots = []
    else:
        roots = gf_roots((cxx, cxz, czz), p)
    ts = _chart_levels(cxx, cxy, cxz, cyz, czz, p, k, roots)
    zero = [0] if cyz % p == 0 and czz % p == 0 else []
    us = _chart_levels(czz, cyz, cxz, cxy, cxx, p, k, zero)
    return [
        [(1, t) for t in sorted(tl)] + [(u, 1) for u in sorted(ul)]
        for tl, ul in zip(ts, us)
    ]


def solutions_mod_prime_power(coeffs, p: int, k: int) -> list[tuple[int, int]]:
    """Classes (sigma : tau) in P^1(Z/p^k) where all three quadratics vanish."""
    return class_levels(coeffs, p, k)[-1]


def divisor_solutions(coeffs, fd: FactoredInteger):
    """Yield (p, lattices) for each prime p of |fd.value| with classes: the
    lattice (q, g', d, u0) of every class (sigma : tau) mod q = p^j, levels
    ascending, whose Hermite basis is (g', 0), (u0, d) with d = gcd(tau, q),
    g' = q / d and u0 = sigma (tau / d)^-1 mod g', or 1 where g' = 1.

    The levels come from one class_levels call per prime; a level with no
    classes has no lifts, so the levels above it are empty too.  Before a
    prime's lattices are yielded, a divisor of two or more prime powers with
    more than _COMBO_CAP classes raises ArithmeticError: its classes number
    the product of its powers' classes, at most that of a level of this
    prime times the largest levels of the primes before it.
    """
    before = 0
    for p, k in fd.factors:
        lattices, most = [], 0
        for j, sols in enumerate(class_levels(coeffs, p, k), 1):
            if not sols:
                break
            total = len(sols) * before
            if total > _COMBO_CAP:
                raise ArithmeticError(f"solution class explosion: {total} CRT combinations")
            q = p**j
            for sigma, tau in sols:
                d = gcd(tau, q)
                gp = q // d
                lattices.append((q, gp, d, sigma * pow(tau // d, -1, gp) % gp if gp > 1 else 1))
            most = max(most, len(sols))
        if lattices:
            before = max(before, 1) * most
            yield p, lattices


def divisor_grid(fibres, dtype):
    """The lattice of every class mod every divisor g of each fibre, from its
    prime-power lattices, on `dtype` arrays (g, g', u0, d, sigma): the class
    (sigma : d) mod g, whose lattice has the Hermite basis (g', 0), (u0, d).

    A fibre is a list of primes, the largest power first, each a list of
    lattices (q, g', d, u0) as divisor_solutions yields them.  Its divisors
    are the choices of one lattice or none per prime, in turn, the first
    prime's choice most significant and none first; so its first entry is
    the divisor 1, of the lattice Z^2, and it has the product of its
    primes' numbers of lattices plus one entries.

    A class mod g joins one class mod each q_i of g = prod q_i, and its
    lattice is the intersection of theirs: d = prod d_i, g' = prod g'_i and
    u0 = u0_i d / d_i mod g'_i for each i.  Garner's step builds x with x =
    u0_i d / d_i mod P_i, P_i the largest q of prime i, on arrays one prime
    at a time, the first prime needing none: with N the product of the P
    before P_k, x joins prime k as a = x d_k mod N, b = u0_k d mod P_k, x' =
    a + N ((b - a) N^-1 mod P_k), N^-1 mod P_k by one `pow` per fibre and
    prime (no choice at P_k is the lattice (1, 1, 1, 0)).  Then u0 = x mod
    g', and (x : d) is primitive, so sigma = x mod g: u0_i = 1 is a unit
    where g'_i = 1, and so is u0_i where 1 < d_i < q_i.  Every value and
    product stays below the product G of a fibre's P (P_k^2 <= P_1 P_k, the
    largest power coming first), so int64 holds any fibre with G < 2^63; a
    fibre past that raises OverflowError on int64.
    """
    g = None
    tops, sizes = [1] * len(fibres), [1] * len(fibres)
    for i in range(max(1, max(map(len, fibres)))):
        table, steps, old, new = [], [], 0, 0
        for f, primes in enumerate(fibres):
            lattices = primes[i] if i < len(primes) else []
            top = lattices[-1][0] if lattices else 1
            # per fibre: its first new entry, its choices, its first old
            # entry and first choice, then P, N and N^-1 mod P
            steps.append((new, 1 + len(lattices), old, len(table), top, tops[f],
                          pow(tops[f], -1, top)))
            table += [(1, 1, 1, 0)] + lattices
            old += sizes[f]
            sizes[f] *= 1 + len(lattices)
            new += sizes[f]
            tops[f] *= top
        table = np.array(table, dtype=dtype).T
        if g is None:
            g, gp, d, x = table
            continue
        step = np.repeat(np.array(steps, dtype=dtype).T, sizes, axis=1)
        first, n, par, opt = step[:4].astype(np.int64, copy=False)
        P, N, inv = step[4:]
        k, r = np.divmod(np.arange(new) - first, n)
        par += k
        q, gp_k, d_k, u0_k = table[:, opt + r]
        a = x[par] * d_k % N
        dp = d[par]
        x = a + N * ((u0_k * dp % P - a) * inv % P)
        g, gp, d = g[par] * q, gp[par] * gp_k, dp * d_k
    if dtype != object and max(tops) >= 2**63:
        raise OverflowError("a fibre's divisors are past the int64 grid")
    return g, gp, x % gp, d, x % g


def _gauss_reduce(W):
    """Gauss (Lagrange) reduction of the bases b1, b2 (the rows b1u, b1v,
    b2u, b2v of W), per entry: the shorter vector first, then b2 less the
    nearest integer multiple of b1 (halves rounded away from 0), swapped
    while that leaves b2 shorter than b1.  An entry stops at the first step
    that leaves its b2 no shorter than its b1: its multiple is 0 from then
    on."""
    sq = W * W
    n1, n2 = sq[0] + sq[1], sq[2] + sq[3]
    swap = n1 > n2
    V = np.where(swap, W[[2, 3, 0, 1]], W)
    n1 = np.where(swap, n2, n1)
    swap = True
    while True:
        t = 2 * (V[0] * V[2] + V[1] * V[3])
        V[2:] -= np.sign(t) * ((abs(t) + n1) // (2 * n1) * swap) * V[:2]
        n2 = V[2] * V[2] + V[3] * V[3]
        swap = n2 < n1
        if not swap.any():
            return V
        V = np.where(swap, V[[2, 3, 0, 1]], V)
        n1 = np.where(swap, n2, n1)


def class_bases(gp, u0, d):
    """Reduced bases (b1u, b1v, b2u, b2v) of the lattices with the Hermite
    bases (g', 0), (u0, d), one per entry of the arrays.

    Gauss reduction makes them reduced: |b1| <= |b2| and |<b1, b2>| <= |b1|^2
    / 2.  It runs on int64 where g = g' d < BASIS_G, each term then at most 3
    (g^2 + 1) < 2^62, and on object arrays elsewhere.  The bases come back in
    g's dtype, an entry that does not fit raising OverflowError; each is at
    most 2 g / sqrt(3), as |b1| >= 1 and |b1| |b2| <= 2 g / sqrt(3).
    """
    g = gp * d
    W = np.array([gp, 0 * gp, u0, d])
    small = np.flatnonzero(g < BASIS_G)
    if len(small) == len(g):
        return _gauss_reduce(W.astype(np.int64, copy=False)).astype(W.dtype, copy=False)
    out = np.empty_like(W)
    for i, dtype in ((small, np.int64), (np.flatnonzero(g >= BASIS_G), object)):
        if len(i):
            out[:, i] = _gauss_reduce(W[:, i].astype(dtype))
    return out


# the int64 reach of the Gauss reduction
BASIS_G = 1 << 30


class Lattices(NamedTuple):
    """The lattices of one fibre, one entry each: reduced basis b1, b2, layer
    g and box half-width U (int64 or object arrays)."""

    b1u: np.ndarray
    b1v: np.ndarray
    b2u: np.ndarray
    b2v: np.ndarray
    g: np.ndarray
    U: np.ndarray


class Rows(NamedTuple):
    """Row n2 of lattice `lat` holds the cells n1*b1 + n2*b2, lo <= n1 <= hi
    (none where lo > hi)."""

    lat: np.ndarray
    n2: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def linear_range(base, c, lo_val, hi_val, lo, hi):
    """Least and greatest integer n of the caller's range [lo, hi] with
    lo_val <= base + n*c <= hi_val, per entry; c may have either sign or be
    0 (every n of [lo, hi], or none), and an empty range has first > last."""
    zero = c == 0
    c = np.where(zero, 1, c)
    neg = c < 0
    first = -((base - np.where(neg, hi_val, lo_val)) // c)
    last = (np.where(neg, lo_val, hi_val) - base) // c
    inside = (lo_val <= base) & (base <= hi_val)
    first = np.where(zero, np.where(inside, lo, 1), first)
    last = np.where(zero, np.where(inside, hi, 0), last)
    return np.maximum(first, lo), np.minimum(last, hi)


def lattice_rows(lats: Lattices, n2_lo: np.ndarray, n2_hi: np.ndarray) -> Rows:
    """Rows n2_lo..n2_hi of every lattice at once, each with the n1 range of
    its cells in the half box 0 <= u <= U, |v| <= U.

    The half box holds one of each pair +-(u, v) off the line u = 0, and
    both of them on it.  Rows |n2| <= U (|b1u| + |b1v|) / |det| cover the
    whole box, and its cells have |n1| <= U (|b2u| + |b2v|) / |det|
    (Cramer), which bounds n1 where b1u or b1v is 0.
    """
    counts = (n2_hi - n2_lo + 1).astype(np.int64)
    lat = np.repeat(np.arange(len(counts)), counts)
    n2 = (n2_lo - np.cumsum(counts) + counts)[lat] + np.arange(len(lat))
    U = lats.U[lat]
    det = abs(lats.b1u * lats.b2v - lats.b1v * lats.b2u)
    far = (lats.U * (abs(lats.b2u) + abs(lats.b2v)) // det)[lat]
    lo, hi = linear_range(n2 * lats.b2u[lat], lats.b1u[lat], 0, U, -far, far)
    lo, hi = linear_range(n2 * lats.b2v[lat], lats.b1v[lat], -U, U, lo, hi)
    return Rows(lat, n2, lo, hi)


def iter_lattice_points(lats: Lattices, rows: Rows, chunk: int):
    """Yield the rows' cells as (u, v, g) arrays of at most `chunk` cells,
    splitting rows across chunks."""
    lat = rows.lat
    b1u, b1v, g = lats.b1u[lat], lats.b1v[lat], lats.g[lat]
    u0, v0 = rows.n2 * lats.b2u[lat], rows.n2 * lats.b2v[lat]
    counts = np.maximum(rows.hi - rows.lo + 1, 0).astype(np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    for s in range(0, total, chunk):
        e = min(s + chunk, total)
        r0 = int(np.searchsorted(ends, s, side="right"))
        r1 = int(np.searchsorted(ends, e, side="left")) + 1
        take = np.minimum(ends[r0:r1], e) - np.maximum(starts[r0:r1], s)
        rep = np.repeat(np.arange(r0, r1), take)
        n1 = rows.lo[rep] + (np.arange(s, e) - starts[rep])
        yield n1 * b1u[rep] + u0[rep], n1 * b1v[rep] + v0[rep], g[rep]
