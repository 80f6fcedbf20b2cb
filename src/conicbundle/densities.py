"""Local density factors and the leading-constant bracket for fibre conics.

Everything here is exact rational arithmetic.  The non-archimedean side
counts parameter classes where the quadratic parameterization degenerates
modulo prime powers; the archimedean side is a plane area, written by
homogeneity as two integrals of 1/N along the unit-box edges.  On an edge
N is |L| or w|Q| between the tie points of `conic.edge_pieces`, so each
piece integrates in closed form to a logarithm, an arctangent or a rational
number; these are enclosed in fixed-point integers at one working precision
(`conic._EDGE_BITS`), by argument reduction and a series with an explicit
error bound, and `constant_sum` adds the fibres' products on one dyadic
grid, rounded outward.  The only approximation anywhere is the explicit
(lower, upper) bracket returned for area-dependent quantities.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .conic import FibreConic, certified_min_m
from .modsolve import class_levels, solutions_mod_prime_power
from .numth import euler_phi, factor, is_prime
from .surface import PEYRE_PREFACTOR, CubicSurfaceNF, zeta2_bracket


class ToleranceNotMet(Exception):
    """The bracket at the fixed working precision is wider than the
    requested relative width.

    Carries the bracket so the caller can still report it.
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
    # recovered with weight p^d through the content rescaling the height:
    # 1 - p^-2 + (1 - 1/p) sum_d rho_d / p^d, over the denominator p^(v + 2)
    n = 0
    for r in rhos:
        n = n * p + r
    v = len(rhos)
    return Fraction((p * p - 1) * p**v + (p - 1) * p * n, p ** (v + 2))


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


@dataclass(frozen=True)
class BadPrimeRow:
    p: int
    valuation: int
    rho_values: tuple[int, ...]
    sigma: Fraction


def _bad_prime_rows(C: FibreConic) -> tuple[list[BadPrimeRow], Fraction]:
    """The row of every p | det, its rho levels from one class_levels call,
    and prod over them of sigma_p / (1 - p^-2), exact."""
    rows = []
    num = den = 1
    for p, v in bad_primes(C):
        rhos = _rho_levels(C, p, v)
        sp = _sigma_p_from_rhos(p, rhos)
        rows.append(BadPrimeRow(p, v, rhos, sp))
        num, den = num * sp.numerator * p * p, den * sp.denominator * (p * p - 1)
    return rows, Fraction(num, den)


def bad_prime_product(C: FibreConic) -> Fraction:
    """prod over p | det of sigma_p / (1 - p^-2), exact."""
    return _bad_prime_rows(C)[1]


# --------------------------------------------------------------------------
# archimedean factor


# The working precision: a fibre's quantities are fixed-point integers on the
# grid 2^-k of its edge decomposition, k = _EDGE_BITS + 2 b with b the bit
# length of w * sum |c|, and the transcendentals carry _GUARD more bits.
# sigma_inf >= 2^(2 - b), so a grid step is below 2^-(_EDGE_BITS + b) of it.
_GUARD = 24
# argument reduction: atan(2^-j) for j = 0.._TURNS and log(1 + 2^-j) for
# j = 1.._TURNS leave a series argument below 2^-_TURNS
_TURNS = 8


def _series(y: int, x: int, P: int, alternating: bool) -> tuple[int, int]:
    """(S, e) with |S - 2^P f(z)| <= e, z = y / x in [0, 1/2], f(z) the
    series sum z^(2n+1) / (2n+1), with signs (-1)^n if alternating (atan),
    else all + (artanh).

    Z = floor(2^P z) and Z2 = floor(Z^2 / 2^P) are at most 2^P z and 2^P
    z^2, and Z2 > 2^P z^2 - 2 z - 1 >= 2^P z^2 - 2 once Z >= 1.  So the n-th
    power t_n = floor(t_(n-1) Z2 / 2^P) (t_0 = Z) is at most u_n = 2^P
    z^(2n+1), and e_n = u_n - t_n <= z^2 e_(n-1) + 2 z + 1 (as t_(n-1) <=
    2^P z), so e_n < 8/3 for z <= 1/2 (e_0 < 1).  floor(t_n / (2n+1)) is
    then within 4 of u_n / (2n+1).  The sum stops at the first t_N = 0,
    where u_N = e_N, and the terms left out add up to at most u_N / (1 -
    z^2) < 4 (to at most u_N < 3 when they alternate); so e = 4 N + 4.
    """
    Z = (y << P) // x
    Z2 = Z * Z >> P
    S = n = 0
    t = Z
    while t:
        term = t // (2 * n + 1)
        S += -term if alternating and n % 2 else term
        t = t * Z2 >> P
        n += 1
    return S, 4 * n + 4


@lru_cache(maxsize=64)
def _constants(P: int):
    """(value, error) pairs at scale 2^P: log 2 = 2 artanh(1/3), log(1 +
    2^-j) = 2 artanh(1 / (2^(j+1) + 1)), and atan(2^-j), where atan(1) =
    4 atan(1/5) - atan(1/239) (Machin)."""

    def artanh2(d):
        S, e = _series(1, d, P, False)
        return 2 * S, 2 * e

    a5, e5 = _series(1, 5, P, True)
    a239, e239 = _series(1, 239, P, True)
    atans = [(4 * a5 - a239, 4 * e5 + e239)]
    atans += [_series(1, 1 << j, P, True) for j in range(1, _TURNS + 1)]
    logs = [artanh2(3)] + [artanh2((2 << j) + 1) for j in range(1, _TURNS + 1)]
    return logs, atans


def _rounded(V: int, e: int, P: int, F: int) -> tuple[int, int]:
    """The scale-2^F integers below and above [V - e, V + e] / 2^(P - F)."""
    s = P - F
    return (V - e) >> s, -((-V - e) >> s)


def _log_fix(p: int, q: int, F: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^F log(p / q) <= hi, for integers p >= q > 0.

    p/q = 2^k0 r with r in [1, 2), and r is divided by 1 + 2^-j for j = 1,
    2, ... _TURNS whenever it is at least that, so r < 1 + 2^-j after step
    j (1 + 2^-(j-1) <= (1 + 2^-j)^2).  log r = 2 artanh(z), z = (r - 1) /
    (r + 1) < 2^-(_TURNS + 1).  Every division is exact on the pair (p, q),
    so the error is that of the series and of the constants used, summed
    exactly (`_series`), and then rounded outward.
    """
    P = F + _GUARD
    logs, _ = _constants(P)
    k0 = p.bit_length() - q.bit_length()
    if p < q << k0:
        k0 -= 1
    q <<= k0
    V, e = k0 * logs[0][0], k0 * logs[0][1]
    for j in range(1, _TURNS + 1):
        if p << j >= q * ((1 << j) + 1):
            p, q = p << j, q * ((1 << j) + 1)
            V, e = V + logs[j][0], e + logs[j][1]
    S, es = _series(p - q, p + q, P, False)
    return _rounded(V + 2 * S, e + 2 * es, P, F)


def _atan2_fix(y: int, x: int, F: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^F arg(x + i y) <= hi, for integers y >= 0 and
    (x, y) != (0, 0), so the angle lies in [0, pi].

    A quarter turn (x, y) -> (y, -x) takes off pi/2 = 2 atan(1) while x <=
    0; then the angle is below pi/2 = 2 atan(1), and multiplying x + i y by
    2^j - i takes off atan(2^-j) whenever y 2^j >= x, for j = 0.._TURNS:
    exact Gaussian-integer steps after which the angle is below atan(2^-j)
    (atan(2^-(j-1)) <= 2 atan(2^-j)), so y / x < 2^-_TURNS at the end and
    atan(y / x) is one `_series` call.  Errors add as in `_log_fix`.
    """
    P = F + _GUARD
    _, atans = _constants(P)
    V = e = 0
    while x <= 0:
        x, y = y, -x
        V, e = V + 2 * atans[0][0], e + 2 * atans[0][1]
    for j in range(_TURNS + 1):
        if y << j >= x:
            x, y = (x << j) + y, (y << j) - x
            V, e = V + atans[j][0], e + atans[j][1]
    S, es = _series(y, x, P, True)
    return _rounded(V + S, e + es, P, F)


def _linear_piece(a1: int, a0: int, T0: int, T1: int, g: int, F: int, w: int):
    """The integral of 1 / (w |a1 t + a0|) over [T0, T1] / 2^g, where a1 t +
    a0 has no root, as (lo, hi) on the scale 2^F: log(V1 / V0) / (w a1)."""
    if a1 == 0:
        num, den = (T1 - T0) << F, abs(a0) * w << g
        return num // den, -(-num // den)
    V0, V1 = abs(a1 * T0 + (a0 << g)), abs(a1 * T1 + (a0 << g))
    lo, hi = _log_fix(max(V0, V1), min(V0, V1), F)
    d = abs(a1) * w
    return lo // d, -(-hi // d)


def _quadratic_piece(c, T0: int, T1: int, g: int, F: int, w: int):
    """The integral of 1 / (w |Q|) over [T0, T1] / 2^g, Q = czz t^2 + cxz t
    + cxx without a root there, as (lo, hi) on the scale 2^F.

    With p = 2 czz t + cxz (Gradshteyn & Ryzhik 2.172-2.173), A = p0 p1 -
    D, B = p1 - p0 at the ends and D = cxz^2 - 4 czz cxx, s = sqrt(|D|):
    - D = 0: Q = (p^2 / 4 czz), and the integral is 2 |B| / (w |p0 p1|);
    - D < 0: it is 2 atan2(|B| s, A') / (w s), A' = p0 p1 + s^2, the angle
      between the ends of atan(p / s);
    - D > 0: it is log(rho) / (w s), rho = (|A| + |B| s)^2 / (A^2 - B^2 D),
      the larger of R and 1/R for R = (A + B s) / (A - B s), which is the
      ratio of (p - s) / (p + s) at the two ends; A^2 - B^2 D = 16 czz^2
      Q0 Q1 > 0.
    The angle or log is evaluated at s_lo = S / 2^G, S = isqrt(4^G |D|),
    s <= s_lo + 2^-G, G = F + 2; its slope in s is below 1/(2s) <= 1/2,
    resp. 2 |B| / (|A| + |B| s) <= 2 (s >= 1), so it moves by less than an
    ulp, and 1 / s lies in [2^G / (S + 1), 2^G / S].
    """
    cxx, cxz, czz = c[0], c[2], c[4]
    if czz == 0:
        return _linear_piece(cxz, cxx, T0, T1, g, F, w)
    D = cxz * cxz - 4 * czz * cxx
    P0, P1 = 2 * czz * T0 + (cxz << g), 2 * czz * T1 + (cxz << g)  # 2^g p
    B = abs(P1 - P0) << g  # 4^g |B|
    if D == 0:
        num, den = B << (F + 1), abs(P0 * P1) * w
        return num // den, -(-num // den)
    G = F + 2
    S = isqrt(abs(D) << 2 * G)
    if D < 0:
        lo, hi = _atan2_fix(B * S, (P0 * P1 - (D << 2 * g)) << G, F)
        lo, hi = 2 * max(lo - 1, 0), 2 * (hi + 1)
    else:
        A = abs(P0 * P1 - (D << 2 * g))
        lo, hi = _log_fix(((A << G) + B * S) ** 2, (A * A - B * B * D) << 2 * G, F)
        hi += 1
    return (lo << G) // (w * (S + 1)), -(-(hi << G) // (w * S))


def sigma_inf(C: FibreConic, tol: float = 1e-4) -> tuple[Fraction, Fraction]:
    """Certified bracket for the area of the weighted unit ball.

    The region is {(u, v) real : max(|x|, w|y|, |z|) of q(u, v) <= 1}.  By
    homogeneity its area is the integral of 1/N(1, t) plus that of
    1/N(s, 1) over [-1, 1].  `conic.edge_pieces` splits each edge at the
    tie points of |L| and w|Q| on the grid 2^-k of the working precision
    (`FibreConic.edges`); each piece's integral of 1/|L| or 1/(w|Q|) is
    enclosed in closed form, a log, an arctangent or a rational number, and
    each tie interval adds [0, width / m], m the fibre's floor
    `certified_min_m`.
    The bracket depends on the fibre only; tol only decides whether it is
    returned or ToleranceNotMet is raised (upper - lower > tol * lower).
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"--tol must be a finite number > 0, got {tol}")
    w = C.weight
    k, edges = C.edges
    m = certified_min_m(C)
    lo = hi = 0
    for c, g, ties, pieces in edges:
        for t0, t1 in ties:
            num, den = (t1 - t0) * m.denominator << k, m.numerator << g
            hi += -(-num // den)
        for t0, t1, linear in pieces:
            if linear:
                a, b = _linear_piece(c[3], c[1], t0, t1, g, k, 1)
            else:
                a, b = _quadratic_piece(c, t0, t1, g, k, w)
            lo, hi = lo + a, hi + b
    lower, upper = Fraction(lo, 1 << k), Fraction(hi, 1 << k)
    if upper - lower > Fraction(tol) * lower:
        raise ToleranceNotMet(
            f"bracket [{float(lower)}, {float(upper)}] has relative width "
            f"{float((upper - lower) / lower):.3g} at the working precision 2^-{k}, "
            f"above tol {tol}",
            lower,
            upper,
        )
    return lower, upper


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


def peyre_constant(C: FibreConic, tol: float = 1e-4) -> tuple[Fraction, Fraction]:
    """Bracket for the leading constant of the linear point-count growth.

    prefactor * sigma_inf * (1/zeta(2)) * prod_{p | det} sigma_p/(1-p^-2),
    every factor exact except the two explicit brackets.
    """
    nonarch = bad_prime_product(C)
    return _leading_constant(*sigma_inf(C, tol=tol), nonarch)


def constant_sum(
    fibres: Iterable, tol: float = 1e-4, strict: bool = False
) -> tuple[Fraction, Fraction, int, list]:
    """(lower, upper, count, failed) over (key, conic) pairs: the sum of the
    peyre_constant brackets of the `count` conics whose sigma_inf reaches
    tol, and the keys of those that raise ToleranceNotMet (which strict
    raises instead).

    The constant is linear in sigma_inf * nonarch, so the common factors
    are applied once to the two sums.  These are integers over one grid
    2^-P: each fibre's products are rounded onto it, down for the lower sum
    and up for the upper, after P grows (it never shrinks) to at least
    66 - e, where 2^e is below the fibre's lower product.  So each fibre's
    rounding is below 2^-66 of its lower product, and both sums together
    move less than 2^-65 lower outward from the exact bracket, within the
    2^-64 lower that this route allows.
    """
    lower = upper = P = count = 0
    failed = []
    for key, C in fibres:
        try:
            a_lo, a_hi = sigma_inf(C, tol=tol)
        except ToleranceNotMet:
            if strict:
                raise
            failed.append(key)
            continue
        nonarch = bad_prime_product(C)
        lo, hi = a_lo * nonarch, a_hi * nonarch
        count += 1
        e = lo.numerator.bit_length() - lo.denominator.bit_length() - 1
        grow = max(0, 66 - e - P)
        P += grow
        lower = (lower << grow) + (lo.numerator << P) // lo.denominator
        upper = (upper << grow) - (-hi.numerator << P) // hi.denominator
    lower, upper = Fraction(lower, 1 << P), Fraction(upper, 1 << P)
    return (*_leading_constant(lower, upper, Fraction(1)), count, failed)


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


def local_density_report(C: FibreConic, tol: float = 1e-4) -> LocalDensityReport:
    rows, nonarch = _bad_prime_rows(C)
    a_lo, a_hi = sigma_inf(C, tol=tol)
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
