"""Local density factors and the leading-constant bracket for fibre conics.

Everything here is exact rational arithmetic.  The non-archimedean side
counts parameter classes where the quadratic parameterization degenerates
modulo prime powers; the archimedean side is a plane area certified by
dyadic cell subdivision.  The only approximation anywhere is the explicit
(lower, upper) bracket returned for area-dependent quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conic import FibreConic, certified_min_m
from .intervals import ParamIntervals
from .modsolve import class_levels, solutions_mod_prime_power
from .numth import euler_phi, factor, is_prime
from .surface import PEYRE_PREFACTOR, CubicSurfaceNF, zeta2_bracket


class ToleranceNotMet(Exception):
    """Subdivision hit the depth cap before the requested relative width.

    Carries the best bracket obtained so the caller can still report it.
    """

    def __init__(self, msg, lower: Fraction, upper: Fraction):
        super().__init__(msg)
        self.lower = lower
        self.upper = upper


# --------------------------------------------------------------------------
# non-archimedean factors


def rho_star(C: FibreConic, p: int, d: int) -> int:
    """Weighted count of parameter classes killed modulo p^d.

    phi(p^d) times the number of classes (u:v) mod p^d, u,v not both
    divisible by p, on which all three parameterization components vanish
    mod p^d.  Vanishes for d beyond the p-valuation of the determinant.
    """
    if d < 1:
        raise ValueError("exponent must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return euler_phi(p**d) * len(solutions_mod_prime_power(C.coeffs, p, d))


def bad_primes(C: FibreConic) -> list[tuple[int, int]]:
    """(p, valuation) pairs for the primes dividing the determinant."""
    return list(factor(C.pi_det).factors)


def _rho_levels(C: FibreConic, p: int, v: int) -> tuple[int, ...]:
    """rho_star(C, p, d) for d = 1..v from one class_levels call."""
    levels = class_levels(C.coeffs, p, v)
    return tuple((p - 1) * p ** (d - 1) * len(cl) for d, cl in enumerate(levels, 1))


def _sigma_p_from_rhos(p: int, rhos: tuple[int, ...]) -> Fraction:
    # 1 - p^-2 counts coprime-at-p pairs; each class lost at level d is
    # recovered with weight p^d through the content rescaling the height
    acc = Fraction(0)
    pk = 1
    for r in rhos:
        pk *= p
        acc += Fraction(r, pk)
    return Fraction(p * p - 1, p * p) + Fraction(p - 1, p) * acc


def sigma_p(C: FibreConic, p: int) -> Fraction:
    """Exact local density factor at p (equals 1 - p^-2 off the determinant)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    v = 0
    det = abs(C.pi_det)
    while det % p == 0:
        det //= p
        v += 1
    return _sigma_p_from_rhos(p, _rho_levels(C, p, v))


def bad_prime_product(C: FibreConic) -> Fraction:
    """prod over p | det of sigma_p / (1 - p^-2), exact."""
    prod = Fraction(1)
    for p, _ in bad_primes(C):
        prod *= sigma_p(C, p) / Fraction(p * p - 1, p * p)
    return prod


# --------------------------------------------------------------------------
# archimedean factor


def _classify_level_np(C: FibreConic, I, J, num: int, den: int):
    """Vectorized inside/outside/undecided split for one subdivision level.

    Same integer semantics as the ParamIntervals path; caller guarantees
    every intermediate fits in int64.
    """
    i0, i1 = I, I + 1
    j0, j1 = J, J + 1
    u2lo = np.where(i0 >= 0, i0 * i0, np.where(i1 <= 0, i1 * i1, 0))
    u2hi = np.maximum(i0 * i0, i1 * i1)
    v2lo = np.where(j0 >= 0, j0 * j0, np.where(j1 <= 0, j1 * j1, 0))
    v2hi = np.maximum(j0 * j0, j1 * j1)
    p00, p01, p10, p11 = i0 * j0, i0 * j1, i1 * j0, i1 * j1
    uvlo = np.minimum(np.minimum(p00, p01), np.minimum(p10, p11))
    uvhi = np.maximum(np.maximum(p00, p01), np.maximum(p10, p11))

    def scaled(k, lo, hi):
        return (k * lo, k * hi) if k >= 0 else (k * hi, k * lo)

    def component(a, b, c):
        # |a u^2 + b uv + c v^2| over the box: (mig, mag)
        alo, ahi = scaled(a, u2lo, u2hi)
        blo, bhi = scaled(b, uvlo, uvhi)
        clo, chi = scaled(c, v2lo, v2hi)
        lo = alo + blo + clo
        hi = ahi + bhi + chi
        mag = np.maximum(np.abs(lo), np.abs(hi))
        mig = np.where(lo > 0, lo, np.where(hi < 0, -hi, 0))
        return mig, mag

    x_mig, x_mag = component(C.cxy, C.cyz, 0)
    y_mig, y_mag = component(C.cxx, C.cxz, C.czz)
    z_mig, z_mag = component(0, C.cxy, C.cyz)
    w = C.weight
    upper = np.maximum(np.maximum(x_mag, w * y_mag), z_mag)
    lower = np.maximum(np.maximum(x_mig, w * y_mig), z_mig)
    inside = upper * den <= num
    keep = ~(inside | (lower * den > num))
    return int(np.count_nonzero(inside)), I[keep], J[keep]


# cap on undecided cells per level; ~100MB of index arrays at the limit
_MAX_BOUNDARY_CELLS = 4_000_000


def sigma_inf(
    C: FibreConic, tol: float = 1e-4, max_depth: int = 24
) -> tuple[Fraction, Fraction]:
    """Certified bracket for the area of the weighted unit ball.

    The region is {(u, v) real : max(|x|, w|y|, |z|) of q(u, v) <= 1}.
    Dyadic squares at level e have side 2^-e; a square is accepted once
    interval bounds prove it entirely inside or outside, and the boundary
    layer shrinks until its area is below tol relative to the interior.
    All tests are integer comparisons (degree-2 homogeneity moves the
    threshold to 4^e).
    """
    reltol = Fraction(tol)
    if reltol <= 0:
        raise ValueError("tolerance must be positive")
    box = ParamIntervals(C.cxx, C.cxy, C.cxz, C.cyz, C.czz, C.weight)
    m = certified_min_m(C)
    k0 = 0
    while m * 4**k0 < 1:
        k0 += 1
    # norm >= m * max(|u|,|v|)^2, so the region lives in [-2^k0, 2^k0]^2
    maxc = max(abs(C.cxx), abs(C.cxy), abs(C.cxz), abs(C.cyz), abs(C.czz))
    e = -k0
    I = np.array([-1, -1, 0, 0], dtype=np.int64)
    J = np.array([-1, 0, -1, 0], dtype=np.int64)
    inner = Fraction(0)
    for _ in range(max_depth + 1):
        if e >= 0:
            num, den = 4**e, 1
        else:
            num, den = 1, 4 ** (-e)
        area = Fraction(1, 4) ** e
        side = 1 << max(e + k0, 0)
        if 3 * maxc * C.weight * (side + 1) ** 2 * den < 2**62:
            n_in, I, J = _classify_level_np(C, I, J, num, den)
        else:
            # big-int fallback, same tests cell by cell
            n_in = 0
            keep_i, keep_j = [], []
            for i, j in zip(I.tolist(), J.tolist()):
                u, v = (i, i + 1), (j, j + 1)
                if box.norm_upper(u, v) * den <= num:
                    n_in += 1
                elif box.norm_lower(u, v) * den <= num:
                    keep_i.append(i)
                    keep_j.append(j)
            I = np.array(keep_i, dtype=np.int64)
            J = np.array(keep_j, dtype=np.int64)
        inner += n_in * area
        pending = len(I) * area
        if len(I) == 0:
            return inner, inner
        if inner > 0 and pending <= reltol * inner:
            return inner, inner + pending
        if len(I) > _MAX_BOUNDARY_CELLS:
            # boundary layer would outgrow memory before the depth cap
            raise ToleranceNotMet(
                f"boundary layer reached {len(I)} cells at level {e} with "
                f"bracket [{float(inner)}, {float(inner + pending)}]",
                inner,
                inner + pending,
            )
        I = np.repeat(2 * I, 4) + np.tile([0, 0, 1, 1], len(I))
        J = np.repeat(2 * J, 4) + np.tile([0, 1, 0, 1], len(J))
        e += 1
    raise ToleranceNotMet(
        f"subdivision depth {max_depth} reached with bracket "
        f"[{float(inner)}, {float(inner + pending)}]",
        inner,
        inner + pending,
    )


# --------------------------------------------------------------------------
# assembly


def _leading_constant(
    a_lo: Fraction, a_hi: Fraction, nonarch: Fraction
) -> tuple[Fraction, Fraction]:
    """prefactor * sigma_inf * (1/zeta(2)) * nonarch, bracketed outward."""
    z_lo, z_hi = zeta2_bracket()
    return (
        PEYRE_PREFACTOR * a_lo * nonarch / z_hi,
        PEYRE_PREFACTOR * a_hi * nonarch / z_lo,
    )


def peyre_constant(
    C: FibreConic, tol: float = 1e-4, max_depth: int = 24
) -> tuple[Fraction, Fraction]:
    """Bracket for the leading constant of the linear point-count growth.

    prefactor * sigma_inf * (1/zeta(2)) * prod_{p | det} sigma_p/(1-p^-2),
    every factor exact except the two explicit brackets.
    """
    nonarch = bad_prime_product(C)
    return _leading_constant(*sigma_inf(C, tol=tol, max_depth=max_depth), nonarch)


def nonarch_lower_bound_check(
    C: FibreConic, X: CubicSurfaceNF, B_eta: int
) -> tuple[bool, Fraction, Fraction]:
    """Exact comparison of the bad-prime product against its divisor-sum floor.

    Left side: prod_{p | det} sigma_p/(1-p^-2).  Right side: sum over
    divisors a <= B_eta of |det| coprime to the resultant invariant of X
    of (phi(a)/a)^2.  Returns (left >= right, left, right); the zeta
    factors of both sides cancel, so no brackets are needed.
    """
    lhs = bad_prime_product(C)
    w0 = abs(X.w0)
    rhs = Fraction(0)
    for a in factor(C.pi_det).divisors():
        if a > B_eta:
            break
        if math.gcd(a, w0) != 1:
            continue
        rhs += Fraction(euler_phi(a), a) ** 2
    return lhs >= rhs, lhs, rhs


@dataclass(frozen=True)
class BadPrimeRow:
    p: int
    valuation: int
    rho_values: tuple[int, ...]
    sigma: Fraction


@dataclass(frozen=True)
class LocalDensityReport:
    """Everything the densities CLI prints for one fibre."""

    determinant: int
    bad_primes: tuple[BadPrimeRow, ...]
    sigma_inf_lower: Fraction
    sigma_inf_upper: Fraction
    zeta2_lower: Fraction
    zeta2_upper: Fraction
    constant_lower: Fraction
    constant_upper: Fraction


def local_density_report(
    C: FibreConic, tol: float = 1e-4, max_depth: int = 24
) -> LocalDensityReport:
    rows = []
    nonarch = Fraction(1)
    for p, v in bad_primes(C):
        rhos = _rho_levels(C, p, v)
        sp = _sigma_p_from_rhos(p, rhos)
        rows.append(BadPrimeRow(p, v, rhos, sp))
        nonarch *= sp / Fraction(p * p - 1, p * p)
    a_lo, a_hi = sigma_inf(C, tol=tol, max_depth=max_depth)
    z_lo, z_hi = zeta2_bracket()
    c_lo, c_hi = _leading_constant(a_lo, a_hi, nonarch)
    return LocalDensityReport(
        determinant=C.pi_det,
        bad_primes=tuple(rows),
        sigma_inf_lower=a_lo,
        sigma_inf_upper=a_hi,
        zeta2_lower=z_lo,
        zeta2_upper=z_hi,
        constant_lower=c_lo,
        constant_upper=c_hi,
    )
