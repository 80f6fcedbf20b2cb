"""Projective congruence solving and planar lattice enumeration.

Engine for the layered conic count: find every class (sigma : tau) on the
projective line over Z/g with all three parameterization quadratics zero,
turn each class into the index-g sublattice {(u,v) : tau*u - sigma*v = 0
mod g}, its reduced basis built for many classes at once (an inverse per
class, then Gauss reduction on int64 arrays below BASIS_G and on object
arrays from it), and lay the rows of many lattices out in one table whose
cells are streamed in bounded chunks.  Classes mod p^k come from one exact
route for every p and k: the level-1 roots of a linear (or, when p divides
it, quadratic) congruence, then one Hensel digit per level from two linear
congruences mod p.  An incremental (Garner) CRT joins the prime powers,
extending the divisors built so far by one prime power at a time.
"""
from __future__ import annotations

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
    """Yield (g, classes) for every divisor g > 1 of |fd.value| with classes.

    One pass over the prime powers: each nonempty level p^j of a prime
    (from one class_levels call; a level with no classes has no lifts, so
    the levels above it are empty too) extends every divisor g built from
    the later primes by Garner's step, which joins a mod g and s mod p^j
    into a + g ((s - a) g^-1 mod p^j) mod g p^j, for sigma and for tau.
    Taking the primes last first puts the divisors in the order of their
    exponent vectors, the first prime's exponent most significant.  A
    divisor of two or more prime powers with more than _COMBO_CAP classes
    raises ArithmeticError before its list is built.
    """
    layers = [(1, [(0, 0)])]
    for p, k in reversed(fd.factors):
        grown = []
        for j, sols in enumerate(class_levels(coeffs, p, k), 1):
            if not sols:
                break
            pj = p**j
            for g, classes in layers:
                total = len(sols) * len(classes)
                if g > 1 and total > _COMBO_CAP:
                    raise ArithmeticError(
                        f"solution class explosion: {total} CRT combinations"
                    )
                h = pow(g, -1, pj)
                grown.append((g * pj, [
                    (a + g * ((s - a) * h % pj), b + g * ((t - b) * h % pj))
                    for s, t in sols
                    for a, b in classes
                ]))
        layers += grown
    yield from layers[1:]


def _gauss_reduce(b1u, b1v, b2u, b2v):
    """Gauss (Lagrange) reduction of the bases b1, b2, per entry: the shorter
    vector first, then b2 less the nearest integer multiple of b1 (halves
    rounded away from 0), swapped while that leaves b2 shorter than b1.  An
    entry leaves the loop at the first step that leaves its b2 no shorter
    than its b1."""
    n1, n2 = b1u * b1u + b1v * b1v, b2u * b2u + b2v * b2v
    swap = n1 > n2
    x1, y1, x2, y2 = (np.where(swap, q, p) for p, q in ((b1u, b2u), (b1v, b2v), (b2u, b1u),
                                                         (b2v, b1v)))
    n1 = np.where(swap, n2, n1)
    out = np.empty((4, len(n1)), dtype=n1.dtype)
    i = np.arange(len(n1))
    while len(i):
        dot = x1 * x2 + y1 * y2
        mu = np.where(dot >= 0, (2 * dot + n1) // (2 * n1), -((n1 - 2 * dot) // (2 * n1)))
        x2, y2 = x2 - mu * x1, y2 - mu * y1
        n2 = x2 * x2 + y2 * y2
        done = n2 >= n1
        out[:, i[done]] = x1[done], y1[done], x2[done], y2[done]
        more = ~done
        i, x1, y1, x2, y2, n1 = i[more], x2[more], y2[more], x1[more], y1[more], n2[more]
    return out


def class_bases(sigma, tau, g):
    """Reduced bases (b1u, b1v, b2u, b2v) of the lattices {(u, v) : tau u -
    sigma v = 0 mod g} of primitive classes, one per entry of the arrays.

    With d = gcd(tau, g) and g' = g / d the lattice has the basis (g', 0),
    (u0, d), u0 = sigma (tau / d)^-1 mod g' by `pow` (0 where g' = 1), which
    Gauss reduction makes reduced: |b1| <= |b2| and |<b1, b2>| <= |b1|^2 / 2.
    It runs on int64 where g < BASIS_G, each term then at most 3 (g^2 + 1) <
    2^62, and on object arrays elsewhere.  The bases come back in g's dtype,
    an entry that does not fit raising OverflowError; each is at most 2 g /
    sqrt(3), as |b1| >= 1 and |b1| |b2| <= 2 g / sqrt(3).
    """
    d = np.gcd(tau, g)
    gp = g // d
    u0 = np.array([s * pow(t, -1, m) % m for s, t, m in
                   zip(sigma.tolist(), (tau // d).tolist(), gp.tolist())], dtype=g.dtype)
    out = np.empty((4, len(g)), dtype=g.dtype)
    for i, dtype in ((np.flatnonzero(g < BASIS_G), np.int64),
                     (np.flatnonzero(g >= BASIS_G), object)):
        if len(i):
            b1u = gp[i].astype(dtype)
            out[:, i] = _gauss_reduce(b1u, 0 * b1u, u0[i].astype(dtype), d[i].astype(dtype))
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


def _multi_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    rep = np.repeat(np.arange(len(counts)), counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return starts[rep] + offsets


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
    n2 = _multi_arange(n2_lo, counts)
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
