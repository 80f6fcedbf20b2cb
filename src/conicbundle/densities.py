"""Local density factors and the leading-constant bracket for fibre conics.

Everything here is exact rational arithmetic.  The non-archimedean side
counts parameter classes where the quadratic parameterization degenerates
modulo prime powers; the archimedean side is a plane area, written by
homogeneity as two integrals of 1/N along the unit-box edges and bracketed
with the exact cell bounds of `conic.edge_cell_bounds`.  The only
approximation anywhere is the explicit (lower, upper) bracket returned for
area-dependent quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conic import FibreConic, certified_min_m, edge_cell_bounds, edge_coeffs
from .modsolve import class_levels, solutions_mod_prime_power
from .numth import euler_phi, factor, is_prime
from .surface import PEYRE_PREFACTOR, CubicSurfaceNF, zeta2_bracket


class ToleranceNotMet(Exception):
    """Subdivision hit the depth or pending-cell cap before the requested
    relative width.

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


# cap on the pending cells of one level
_MAX_BOUNDARY_CELLS = 1 << 20


def _recip_sum(num: int, dens, bits: int, up: bool) -> Fraction:
    """sum(num / d for d in dens), rounded down (up) to a multiple of
    2^-P, where P gives each term at least `bits` bits."""
    if not len(dens):
        return Fraction(0)
    P = max(0, bits + int(dens.max()).bit_length() - num.bit_length() + 1)
    q = num << P
    if up:
        total = -sum((-q) // d for d in dens.tolist())
    else:
        total = sum(q // d for d in dens.tolist())
    return Fraction(total, 1 << P)


def sigma_inf(
    C: FibreConic, tol: float = 1e-4, max_depth: int = 24
) -> tuple[Fraction, Fraction]:
    """Certified bracket for the area of the weighted unit ball.

    The region is {(u, v) real : max(|x|, w|y|, |z|) of q(u, v) <= 1}.  By
    homogeneity its area is the integral of 1/N(1, t) plus that of
    1/N(s, 1) over [-1, 1].  One walk goes level by level over the dyadic
    cells of both edges: a cell with integer bounds lo <= 4 S^2 N <= hi
    contributes [4S/hi, 4S/lo] and is accepted once hi - lo <= lo/n, n the
    smallest integer with 1/n <= tol/(1 + tol), so upper - lower <=
    tol * lower holds for the sum (the sums are rounded outward far below
    that margin).  Past max_depth or _MAX_BOUNDARY_CELLS pending cells it
    raises ToleranceNotMet with a finite bracket: a pending cell whose lo is
    below the certified floor m counts 1/m for 1/N.
    """
    reltol = Fraction(tol)
    if reltol <= 0:
        raise ValueError("tolerance must be positive")
    n = -(-reltol.denominator // reltol.numerator) + 1
    bits = 64 + 2 * n.bit_length()
    w = C.weight
    table = np.array(edge_coeffs(C), dtype=object)
    mag = 64 * w * (sum(abs(c) for c in C.coeffs) + 1)
    e = np.array([0, 0, 1, 1])
    a = np.array([-1, 0, -1, 0])
    lower = upper = Fraction(0)
    for k in range(max_depth + 1):
        S = 1 << k
        # int64 while every intermediate stays below 2^63
        dtype = np.int64 if mag << (2 * k) < 2**63 else object
        c = tuple(col.astype(dtype) for col in table[e].T)
        lo, hi = edge_cell_bounds(c, w, a.astype(dtype), S)
        # an int64 lo is below 2^62, so a larger n acts as 2^62
        done = hi - lo <= lo // (n if dtype is object else min(n, 1 << 62))
        lower += _recip_sum(4 * S, hi[done], bits, up=False)
        upper += _recip_sum(4 * S, lo[done], bits, up=True)
        keep = ~done
        e, a, lo, hi = e[keep], a[keep], lo[keep], hi[keep]
        if not len(a):
            return lower, upper
        if k == max_depth or 2 * len(a) > _MAX_BOUNDARY_CELLS:
            break
        e = np.repeat(e, 2)
        a = np.repeat(2 * a, 2) + np.tile(np.array([0, 1]), len(a))
    m = certified_min_m(C)
    # N >= m on the edges: lo below 4 S^2 m is replaced by it
    floored = lo.astype(object) * m.denominator < 4 * S * S * m.numerator
    lower += _recip_sum(4 * S, hi, bits, up=False)
    upper += _recip_sum(4 * S, lo[~floored], bits, up=True)
    upper += int(np.count_nonzero(floored)) / (S * m)
    why = (
        f"subdivision depth {max_depth}" if k == max_depth
        else f"{len(a)} pending cells at level {k}"
    )
    raise ToleranceNotMet(
        f"{why} reached with bracket [{float(lower)}, {float(upper)}]",
        lower,
        upper,
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
