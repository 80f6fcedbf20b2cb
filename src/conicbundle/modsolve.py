"""Projective congruence solving and planar lattice enumeration.

Engine for the layered conic count: find every class (sigma : tau) on the
projective line over Z/g with all three parameterization quadratics zero,
turn each class into the index-g sublattice {(u,v) : tau*u - sigma*v = 0
mod g}, and lay the rows of all lattices of a fibre out in one table whose
cells are streamed in bounded chunks.  Classes mod p^k come from one exact
route for every p and k: the level-1 roots of a linear (or, when p divides
it, quadratic) congruence, then one Hensel digit per level from two linear
congruences mod p.  An incremental (Garner) CRT joins the prime powers,
extending the divisors built so far by one prime power at a time.
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


def lagrange_reduce(b1, b2):
    """Gauss-reduce a 2-D lattice basis (shortest vector first)."""
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
    """Reduced basis of {(u,v) : tau*u - sigma*v = 0 mod g} for a primitive class."""
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


# stands for an unbounded end of a range; real ends stay below 2^62
_FAR = 2**62


def _multi_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    rep = np.repeat(np.arange(len(counts)), counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return starts[rep] + offsets


def linear_range(base, c, lo_val, hi_val):
    """Least and greatest integer n with lo_val <= base + n*c <= hi_val, per
    entry; c may have either sign or be 0, and an empty range has lo > hi."""
    zero = c == 0
    c = np.where(zero, 1, c)
    neg = c < 0
    lo = -((base - np.where(neg, hi_val, lo_val)) // c)
    hi = (np.where(neg, lo_val, hi_val) - base) // c
    inside = (lo_val <= base) & (base <= hi_val)
    lo = np.where(zero, np.where(inside, -_FAR, 1), lo)
    hi = np.where(zero, np.where(inside, _FAR, 0), hi)
    return lo, hi


def lattice_rows(lats: Lattices, n2_lo: np.ndarray, n2_hi: np.ndarray) -> Rows:
    """Rows n2_lo..n2_hi of every lattice at once, each with the n1 range of
    its cells in the half box 0 <= u <= U, |v| <= U.

    The half box holds one of each pair +-(u, v) off the line u = 0, and
    both of them on it.  Rows |n2| <= U (|b1u| + |b1v|) / |det| cover the
    whole box (Cramer).
    """
    counts = (n2_hi - n2_lo + 1).astype(np.int64)
    lat = np.repeat(np.arange(len(counts)), counts)
    n2 = _multi_arange(n2_lo, counts)
    U = lats.U[lat]
    lo_u, hi_u = linear_range(n2 * lats.b2u[lat], lats.b1u[lat], 0, U)
    lo_v, hi_v = linear_range(n2 * lats.b2v[lat], lats.b1v[lat], -U, U)
    return Rows(lat, n2, np.maximum(lo_u, lo_v), np.minimum(hi_u, hi_v))


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
