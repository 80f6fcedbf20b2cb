"""Local density factors and the leading-constant bracket for fibre conics.

Everything here is exact rational arithmetic.  The non-archimedean side
counts parameter classes where the quadratic parameterization degenerates
modulo prime powers; the archimedean side is a plane area, written by
homogeneity as two integrals of 1/N along the unit-box edges and bracketed
with the exact cell bounds of `conic.edge_cell_bounds`.  One dyadic walk
brackets the area for a whole stream of fibres at once (`sigma_inf_walk`):
each step is one edge_cell_bounds call over the pending cells of many
fibres, in int64 unless one of them needs Python ints, under a fixed budget
of pending cells and a cap of _MAX_DEPTH levels per fibre; `sigma_inf` is its
one-fibre case.  The accepted cells' reciprocals are summed by long
division of all of them at once in int64 digits, and `constant_sum` adds
the fibres' products on one dyadic grid, rounded outward.  The only
approximation anywhere is the explicit (lower, upper) bracket returned for
area-dependent quantities.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, tee

import numpy as np

from .conic import (
    CannotCertify,
    FibreConic,
    certified_min_m,
    edge_cell_bounds,
    edge_coeffs,
)
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


# caps on the levels of one fibre and on its pending cells at one level
_MAX_DEPTH = 24
_MAX_BOUNDARY_CELLS = 1 << 20
# a fibre takes part in the walk's next level only if the fibres before it
# hold fewer pending cells than this, so one edge_cell_bounds call sees at
# most this many cells plus one fibre's
_WALK_CELLS = 1 << 11

# the level-0 cells of a fibre: edge e, t in [a, a + 1]
_START_E = np.array([0, 0, 1, 1])
_START_A = np.array([-1, 0, -1, 0])


def _add_recip_sums(acc, ids, levels, starts, dens, bits: int, up: bool) -> None:
    """acc[f] += sum(4 S / d for d in f's group of dens), rounded down (up)
    to a multiple of 2^-P, where P gives each term at least `bits` bits.

    Group g is dens[starts[g]:starts[g + 1]], of fibre ids[g] at level
    levels[g] (S = 2^level); acc[f] = (num, P) stands for num / 2^P.  The
    group's sum is that of floor(2^E / d), E = level + 2 + P (ceil: floor
    plus [remainder != 0]), by schoolbook long division of every cell at
    once in base 2^c.  int64 cells (d < 2^62) take c = min(63 - bitlen(max
    d), 62 - bitlen(len(dens))), so r 2^c (r < d) and each group's digit sum
    stay in int64; a cell of E bits starts with the chunk 2^(E - c(M - 1)),
    M its number of digits, so that all digits end together.  Object cells
    take one digit of E bits: a plain division.
    """
    if not len(dens):
        return
    starts = np.asarray(starts)
    bounds = [*starts.tolist(), len(dens)]
    tops = [top.bit_length() for top in np.maximum.reduceat(dens, starts).tolist()]
    levels = np.asarray(levels).tolist()
    # 4 S = 2^(k + 2), and each term 2^E / d keeps at least `bits` bits
    E = [max(k + 2, bits + b) for k, b in zip(levels, tops)]
    c = max(E) if dens.dtype == object else min(63 - max(tops), 62 - len(dens).bit_length())
    M = [-(-e // c) for e in E]
    r = np.zeros_like(dens)
    totals = [0] * len(E)
    for step in range(max(M), 0, -1):
        r <<= c
        for s, t, e, m in zip(bounds, bounds[1:], E, M):
            if m == step:
                r[s:t] = 1 << (e - c * (m - 1))
        q = r // dens
        r -= q * dens
        totals = [(x << c) + y for x, y in zip(totals, np.add.reduceat(q, starts).tolist())]
    if up:
        rest = np.add.reduceat(r != 0, starts, dtype=np.int64).tolist()
        totals = [x + y for x, y in zip(totals, rest)]
    for f, k, e, x in zip(np.asarray(ids).tolist(), levels, E, totals):
        (num, P0), P = acc[f], e - k - 2
        acc[f] = ((num << max(0, P - P0)) + (x << max(0, P0 - P)), max(P, P0))


def _exact(acc) -> Fraction:
    num, P = acc
    return Fraction(num, 1 << P)


def _runs(x: np.ndarray) -> np.ndarray:
    """True at each entry of x that differs from the one before it."""
    new = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=new[1:])
    return new


def _fibre_rows(conics) -> dict:
    """The walk's per-fibre columns for newly joined conics."""
    c = np.array([edge_coeffs(C) for C in conics], dtype=object).reshape(-1, 2, 5)
    w = np.array([C.weight for C in conics], dtype=object)
    # int64 through level kmax: 64 w (sum |c| + 1) 4^k bounds every
    # intermediate of edge_cell_bounds, and stays below 2^63
    kmax = np.array([
        (63 - (64 * C.weight * (sum(abs(x) for x in C.coeffs) + 1)).bit_length()) // 2
        for C in conics
    ], dtype=np.int64)
    fits = kmax >= 0
    return {
        "c": c,
        "w": w,
        "c64": np.where(fits[:, None, None], c, 0).astype(np.int64),
        "w64": np.where(fits, w, 0).astype(np.int64),
        "kmax": kmax,
        "level": np.zeros(len(kmax), dtype=np.int64),
    }


def _failure(C: FibreConic, k: int, lo, hi, sums: list, bits: int) -> Exception:
    """What a fibre stops with at level k, given the bounds of its pending
    cells and its running [lower, upper] sums: the CannotCertify of its
    floor m, or a ToleranceNotMet whose bracket counts 1/m for 1/N on each
    pending cell whose lo is below 4 S^2 m (N >= m on the edges)."""
    S = 1 << k
    try:
        m = certified_min_m(C)
    except CannotCertify as exc:
        return exc
    floored = lo.astype(object) * m.denominator < 4 * S * S * m.numerator
    _add_recip_sums(sums, [0], [k], [0], hi, bits, up=False)
    _add_recip_sums(sums, [1], [k], [0], lo[~floored], bits, up=True)
    a_lo = _exact(sums[0])
    a_hi = _exact(sums[1]) + int(np.count_nonzero(floored)) / (S * m)
    why = (
        f"subdivision depth {_MAX_DEPTH}" if k == _MAX_DEPTH
        else f"{len(lo)} pending cells at level {k}"
    )
    return ToleranceNotMet(
        f"{why} reached with bracket [{float(a_lo)}, {float(a_hi)}]", a_lo, a_hi
    )


def sigma_inf_walk(conics: Iterable[FibreConic], tol: float = 1e-4) -> Iterator:
    """sigma_inf of each conic, in order, from one walk over all of them:
    (lower, upper), or the ToleranceNotMet (or CannotCertify) it fails with.

    Each step makes one edge_cell_bounds call over the pending cells of
    every fibre taking part: in int64, or in Python ints if some fibre's
    magnitude bound 64 w (sum |c| + 1) 4^k leaves int64 at its level.  The
    pending cells are kept in fibre order, oldest first, and a fibre takes
    part only while the cells before it number fewer than _WALK_CELLS; new
    fibres join under the same rule, and conics are read only as they join.
    So the size of a call is bounded in cells, whatever the number of
    fibres.  The acceptance rule, the rounding grid (per fibre and level)
    and both caps (_MAX_DEPTH levels, _MAX_BOUNDARY_CELLS pending cells) are
    per fibre, so each result is the one the fibre gets alone.
    """
    reltol = Fraction(tol)
    if reltol <= 0:
        raise ValueError("tolerance must be positive")
    n = -(-reltol.denominator // reltol.numerator) + 1
    bits = 64 + 2 * n.bit_length()
    source = iter(conics)
    # row f of tab and of these lists is the f-th fibre not yet handed out;
    # out[f] is None until it finishes or fails
    tab = _fibre_rows([])
    window, lower, upper, out = [], [], [], []
    # the pending cells (row, edge, a), contiguous per fibre and in row order
    fib = e = a = np.empty(0, dtype=np.int64)
    more = True
    while True:
        if more and len(fib) < _WALK_CELLS:
            want = max(1, -(-(_WALK_CELLS - len(fib)) // 4))
            new = list(islice(source, want))
            more = len(new) == want
            rows = _fibre_rows(new)
            tab = {key: np.concatenate((col, rows[key])) for key, col in tab.items()}
            fib = np.concatenate((fib, np.repeat(np.arange(len(out), len(tab["w"])), 4)))
            e = np.concatenate((e, np.tile(_START_E, len(new))))
            a = np.concatenate((a, np.tile(_START_A, len(new))))
            window += new
            lower += [(0, 0)] * len(new)
            upper += [(0, 0)] * len(new)
            out += [None] * len(new)
        if not len(fib):
            return
        cut = len(fib)
        if cut > _WALK_CELLS:
            cut = int(np.searchsorted(fib, fib[_WALK_CELLS - 1], side="right"))
        f, fe, fa = fib[:cut], e[:cut], a[:cut]
        k = tab["level"][f]
        if (k > tab["kmax"][f]).any():
            c, w = tab["c"][f, fe], tab["w"][f]
            S, a_c, nn = np.left_shift(1, k).astype(object), fa.astype(object), n
        else:
            c, w = tab["c64"][f, fe], tab["w64"][f]
            # an int64 lo is below 2^62, so a larger n acts as 2^62
            S, a_c, nn = np.left_shift(1, k), fa, min(n, 1 << 62)
        lo, hi = edge_cell_bounds(tuple(c.T), w, a_c, S)
        # bank the accepted cells
        done = hi - lo <= lo // nn
        fd = f[done]
        first = np.flatnonzero(_runs(fd))
        ids, levels = fd[first], k[done][first]
        _add_recip_sums(lower, ids, levels, first, hi[done], bits, up=False)
        _add_recip_sums(upper, ids, levels, first, lo[done], bits, up=True)
        # finish or fail the fibres that stop here, split the others' cells
        pend = ~done
        first = np.flatnonzero(_runs(f))
        ids, levels = f[first], k[first]
        left = np.add.reduceat(pend, first, dtype=np.int64)
        stop = (left > 0) & ((levels == _MAX_DEPTH) | (2 * left > _MAX_BOUNDARY_CELLS))
        for g in ids[left == 0].tolist():
            out[g] = (_exact(lower[g]), _exact(upper[g]))
        for g, kg in zip(ids[stop].tolist(), levels[stop].tolist()):
            mine = pend & (f == g)
            out[g] = _failure(window[g], kg, lo[mine], hi[mine], [lower[g], upper[g]], bits)
        go = (left > 0) & ~stop
        tab["level"][ids[go]] += 1
        keep = pend & go[np.cumsum(_runs(f)) - 1]
        fib = np.concatenate((np.repeat(f[keep], 2), fib[cut:]))
        e = np.concatenate((np.repeat(fe[keep], 2), e[cut:]))
        a = np.concatenate(((2 * fa[keep, None] + [0, 1]).ravel(), a[cut:]))
        # hand out the finished fibres at the front and drop their rows
        ready = next((g for g, r in enumerate(out) if r is None), len(out))
        yield from out[:ready]
        del window[:ready], lower[:ready], upper[:ready], out[:ready]
        tab = {key: col[ready:] for key, col in tab.items()}
        fib -= ready
        del lo, hi  # not held through the next level's call


def sigma_inf(C: FibreConic, tol: float = 1e-4) -> tuple[Fraction, Fraction]:
    """Certified bracket for the area of the weighted unit ball.

    The region is {(u, v) real : max(|x|, w|y|, |z|) of q(u, v) <= 1}.  By
    homogeneity its area is the integral of 1/N(1, t) plus that of
    1/N(s, 1) over [-1, 1].  The walk goes level by level over the dyadic
    cells of both edges: a cell with integer bounds lo <= 4 S^2 N <= hi
    contributes [4S/hi, 4S/lo] and is accepted once hi - lo <= lo/n, n the
    smallest integer with 1/n <= tol/(1 + tol), so upper - lower <=
    tol * lower holds for the sum (the sums are rounded outward far below
    that margin).  Past _MAX_DEPTH levels or _MAX_BOUNDARY_CELLS pending
    cells it raises ToleranceNotMet with a finite bracket: a pending cell
    whose lo is below the certified floor m counts 1/m for 1/N.  This is
    the one-fibre case of `sigma_inf_walk`, which walks many fibres at once,
    one edge_cell_bounds call per level.
    """
    (res,) = sigma_inf_walk([C], tol=tol)
    if isinstance(res, Exception):
        raise res
    return res


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
    """(lower, upper, count, failed) over (key, conic) pairs, in one
    sigma_inf_walk: the sum of the peyre_constant brackets of the `count`
    conics whose sigma_inf reaches tol, and the keys of those that raise
    ToleranceNotMet (which strict raises instead).

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
    keys, conics = tee(fibres)
    areas = sigma_inf_walk((C for _, C in conics), tol=tol)
    for (key, C), area in zip(keys, areas):
        if isinstance(area, ToleranceNotMet) and not strict:
            failed.append(key)
        elif isinstance(area, Exception):
            raise area
        else:
            nonarch = bad_prime_product(C)
            lo, hi = area[0] * nonarch, area[1] * nonarch
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
