"""Projective congruence solving and planar lattice enumeration.

Engine for the layered conic count: find every class (sigma : tau) on the
projective line over Z/g with all three parameterization quadratics zero,
turn each class into the index-g sublattice {(u,v) : tau*u - sigma*v = 0
mod g}, and stream the lattice points inside a sup-norm box.  Classes mod
p^k come from one exact route for every p and k: the level-1 roots of a
linear (or, when p divides it, quadratic) congruence, then one Hensel digit
per level from two linear congruences mod p.  CRT joins the prime powers.
"""
from __future__ import annotations

import itertools
from math import gcd

import numpy as np

from .numth import FactoredInteger, find_roots_mod_p

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
        roots = find_roots_mod_p([cxx, cxz, czz], p)
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


def _crt_combine(parts) -> list[tuple[int, int]]:
    """Combine per-modulus class lists [(modulus, classes)] into classes mod the product."""
    moduli = [m for m, _ in parts]
    lists = [s for _, s in parts]
    m = 1
    for mi in moduli:
        m *= mi
    total = 1
    for s in lists:
        total *= len(s)
    if total > _COMBO_CAP:
        raise ArithmeticError(f"solution class explosion: {total} CRT combinations")
    # CRT basis: e_i = 1 mod m_i, 0 mod m_j
    basis = []
    for mi in moduli:
        rest = m // mi
        basis.append(rest * pow(rest, -1, mi) % m)
    out = []
    for combo in itertools.product(*lists):
        sig = sum(e * c[0] for e, c in zip(basis, combo)) % m
        tau = sum(e * c[1] for e, c in zip(basis, combo)) % m
        out.append((sig, tau))
    return out


def divisor_solutions(coeffs, fd: FactoredInteger):
    """Yield (g, classes) for every divisor g > 1 of |fd.value|.

    Each prime's classes come from one class_levels call shared across
    divisors; divisors whose class list is empty are skipped (a level with
    no classes has no lifts, so every higher level is empty too).
    """
    per = []
    for p, k in fd.factors:
        levels = class_levels(coeffs, p, k)
        per.append([(p**j, sols) for j, sols in enumerate(levels, 1) if sols])

    def rec(i, g, parts):
        if i == len(per):
            if g > 1:
                yield g, _crt_combine(parts) if len(parts) > 1 else list(parts[0][1])
            return
        yield from rec(i + 1, g, parts)
        for pj, sols in per[i]:
            yield from rec(i + 1, g * pj, parts + [(pj, sols)])

    yield from rec(0, 1, [])


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


def _multi_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    rep = np.repeat(np.arange(len(counts)), counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return starts[rep] + offsets


def _n1_bounds(base: np.ndarray, c: int, U: int):
    """Integer interval of n with |base + n*c| <= U (c != 0)."""
    if c > 0:
        lo = -((U + base) // c)          # ceil((-U - base)/c)
        hi = (U - base) // c
    else:
        lo = -((U - base) // (-c))       # ceil((U - base)/c), c < 0 flips
        hi = (U + base) // (-c)
    return lo, hi


def _row_ranges(b1, b2, U: int):
    """Per-n2 interval of n1 with n1*b1 + n2*b2 inside the sup-norm-U box."""
    b1u, b1v = b1
    b2u, b2v = b2
    det = b1u * b2v - b1v * b2u
    assert det != 0
    n2_cap = (U * (abs(b1u) + abs(b1v))) // abs(det) + 1
    n2 = np.arange(-n2_cap, n2_cap + 1, dtype=np.int64)
    lo = np.full(len(n2), -(2**62), dtype=np.int64)
    hi = np.full(len(n2), 2**62, dtype=np.int64)
    for base, c in ((n2 * b2u, b1u), (n2 * b2v, b1v)):
        if c != 0:
            l, h = _n1_bounds(base, c, U)
            np.maximum(lo, l, out=lo)
            np.minimum(hi, h, out=hi)
        else:
            bad = np.abs(base) > U
            lo[bad] = 1
            hi[bad] = 0
    counts = np.maximum(hi - lo + 1, 0)
    return n2, lo, counts


def _emit_rows(b1, b2, n2, lo, counts):
    n1 = _multi_arange(lo, counts)
    n2_rep = np.repeat(n2, counts)
    u = n1 * b1[0] + n2_rep * b2[0]
    v = n1 * b1[1] + n2_rep * b2[1]
    return u, v


def iter_lattice_points(b1, b2, U: int, chunk: int = 4_000_000):
    """Yield the box's lattice points in (u, v) array chunks of bounded size."""
    n2, lo, counts = _row_ranges(b1, b2, U)
    total = int(counts.sum())
    if total <= chunk:
        yield _emit_rows(b1, b2, n2, lo, counts)
        return
    cum = np.cumsum(counts)
    start = 0
    while start < len(n2):
        base = cum[start - 1] if start else 0
        stop = int(np.searchsorted(cum, base + chunk, side="right")) + 1
        stop = max(stop, start + 1)
        sl = slice(start, stop)
        yield _emit_rows(b1, b2, n2[sl], lo[sl], counts[sl])
        start = stop
