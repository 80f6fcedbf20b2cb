"""Multiplicative-function sums over primes and squarefree integers.

The engine room for the growth-exponent experiments: distinct-root counts
of binary forms modulo every prime of an array at once (one numpy kernel
per block of primes, exact in int64 while degree * p^2 < 2^63), the
degeneracy count for the fibration discriminant, partial sums of
multiplicative functions with exponent fitting, and the final lemma's sum.

Prime sums take one path.  A MultiplicativeFn gives its values at a whole
prime array at once, exactly as integer numerators and denominators and as
float64.  Every squarefree partial sum comes from one recursion over the
primes up to sqrt(x) reading the running prime sums only at the values
x // m (the second phase of the min_25 / Lucy method, Deleglise & Rivat,
Experiment. Math. 5, 1996), in float64, in exact Fractions, or in 96-bit
fixed point rounded down at every step.  For floats one walk of the
segmented prime sieve, in blocks, feeds every running prime sum, so it
holds the primes up to sqrt(x), one segment, one block and O(sqrt(x))
values.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .forms import BinaryForm, resultant
from .numth import prime_segments, primes_up_to
from .surface import CubicSurfaceNF
from .zpoly import gf_roots, z_derivative

_FIX_BITS = 96


# --------------------------------------------------------------------------
# sieves

shared_primes = primes_up_to  # every prime <= n, ascending, uncached


# --------------------------------------------------------------------------
# distinct projective roots of binary forms mod p


def projective_roots_mod_p(form: BinaryForm, p: int) -> int:
    """Number of classes (s:t) mod p killing the form (p+1 when p divides it):
    the roots of f(x, 1), plus (1:0) when p divides the s^d coefficient."""
    if all(c % p == 0 for c in form.coeffs):
        return p + 1
    return len(gf_roots(form.dehomogenized(), p)) + (form.coeffs[0] % p == 0)


# Batched kernel: for a block of primes at once, r = x^p mod f by square-
# and-multiply on an int64 array of residue polynomials, then the trace of
# Frobenius a -> a^p on F_p[x]/(f).  For p > n not dividing lc(f) disc(f)
# that algebra is a product of fields, on each of which Frobenius has trace
# 1 if it is F_p and 0 otherwise, so the trace counts the distinct roots,
# and as the count is <= n < p the trace mod p is the count itself.  In
# the basis x^j the trace is 1 + [x^1] r + sum_{2<=j<n} [x^j] r^j mod f.
# Operands are residues below p and at most n products of two are summed
# before the next reduction, so every intermediate is below n * p^2 (and
# the 30-bit limb steps of _residues below 2^63 for any p < 2^32): the
# kernel is exact while n * p^2 < 2^63, n = max(degree, 1).

_BLOCK = 8192  # primes per kernel pass: memory is O(_BLOCK * n^2)
_LIMB = 30


def _residues(a: int, ps: np.ndarray) -> np.ndarray:
    """a mod p for every p, for an integer of any size (30-bit limbs)."""
    m = abs(a)
    r = np.zeros(len(ps), dtype=np.int64)
    for shift in range((m.bit_length() - 1) // _LIMB * _LIMB, -1, -_LIMB):
        r = ((r << _LIMB) + ((m >> shift) & ((1 << _LIMB) - 1))) % ps
    return (-r) % ps if a < 0 else r


def _divides(a: int, ps: np.ndarray) -> np.ndarray:
    """Mask of the p dividing a; only p <= |a| can, so most need no division."""
    if a == 0:
        return np.ones(len(ps), dtype=bool)
    hit = ps <= abs(a)
    hit[hit] = _residues(a, ps[hit]) == 0
    return hit


def _pow_vec(a: np.ndarray, e: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """a^e mod p elementwise (right-to-left binary powering)."""
    out = np.ones_like(a)
    while e.any():
        out = np.where(e & 1, out * a % ps, out)
        a = a * a % ps
        e = e >> 1
    return out


def _mul_x(r: np.ndarray, xn: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """x * r mod f, given xn = x^n mod f (row j holds the x^j coefficients)."""
    out = r[-1] * xn
    out[1:] += r[:-1]
    return out % ps


def _mul_mod(a: np.ndarray, b: np.ndarray, red: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """a * b mod f, given red[k] = x^(n+k) mod f."""
    n = len(a)
    prod = np.zeros((2 * n - 1, a.shape[1]), dtype=np.int64)
    for i in range(n):
        prod[i : i + n] += a[i] * b
    prod %= ps
    out = prod[:n]
    for k in range(n - 1):
        out += prod[n + k] * red[k]
    return out % ps


def _affine_root_counts(monic_low: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Distinct roots in F_p of the monic f = x^n + sum monic_low[j] x^j,
    for primes p > n not dividing disc(f).

    Arrays are coefficient-major: axis 0 is the power of x, the last axis
    runs over the primes, so every step is a contiguous vector operation.
    """
    n, nb = monic_low.shape
    # reduction table: red[k] = x^(n+k) mod f, k = 0..n-2
    red = np.empty((n - 1, n, nb), dtype=np.int64)
    red[0] = (-monic_low) % ps
    for k in range(1, n - 1):
        red[k] = _mul_x(red[k - 1], red[0], ps)

    r = np.zeros((n, nb), dtype=np.int64)
    r[0] = 1
    for bit in range(int(ps.max()).bit_length() - 1, -1, -1):
        r = _mul_mod(r, r, red, ps)
        r = np.where((ps >> bit) & 1, _mul_x(r, red[0], ps), r)

    trace, rj = 1 + r[1], r
    for j in range(2, n):
        rj = _mul_mod(rj, r, red, ps)
        trace += rj[j]
    return trace % ps


def projective_root_counts(form: BinaryForm, ps: np.ndarray) -> np.ndarray:
    """Vector of projective root counts mod p over the given primes.

    The affine part f(x, 1) of degree n >= 2 goes through one batched numpy
    kernel per block of primes: x^p mod f by square-and-multiply, then the
    trace of Frobenius on F_p[x]/(f).  The finitely many primes p <= n or
    dividing Res(f, f'), which the leading coefficient of f(x, 1) and its
    discriminant divide, take the scalar projective_roots_mod_p, and primes
    dividing the content every class.
    Raises ValueError for a prime with n * p^2 >= 2^63, beyond which the
    kernel's int64 arithmetic would wrap.
    """
    if form.is_zero():
        raise ValueError("zero form has no root count")
    ps = np.asarray(ps, dtype=np.int64)
    c, prim = form.primitive()
    dehom = prim.dehomogenized()
    n = len(dehom) - 1
    if len(ps) and max(n, 1) * int(ps.max()) ** 2 >= 2**63:
        raise ValueError(
            f"prime {int(ps.max())} too large for a degree-{n} root count: "
            "the int64 kernel needs degree * p^2 < 2^63"
        )
    out = _divides(prim.coeffs[0], ps).astype(np.int64)  # the root (1 : 0)
    if n >= 2:
        res = resultant(BinaryForm(dehom[::-1]), BinaryForm(z_derivative(dehom)[::-1]))
        scalar = _divides(res, ps) | (ps <= n)
    else:
        scalar = _divides(dehom[-1], ps)
    regular = np.flatnonzero(~scalar)
    if n == 1:
        out[regular] += 1
    elif n >= 2:
        for lo in range(0, len(regular), _BLOCK):
            sel = regular[lo : lo + _BLOCK]
            pb = ps[sel]
            inv = _pow_vec(_residues(dehom[-1], pb), pb - 2, pb)
            monic_low = np.stack([_residues(a, pb) * inv % pb for a in dehom[:-1]])
            out[sel] += _affine_root_counts(monic_low, pb)
    for i in np.flatnonzero(scalar).tolist():
        out[i] = projective_roots_mod_p(prim, int(ps[i]))
    # primes dividing the content kill every class
    dead = _divides(c, ps)
    out[dead] = ps[dead] + 1
    return out


# --------------------------------------------------------------------------
# discriminant factor bookkeeping


@dataclass(frozen=True)
class DeltaFactorData:
    """Irreducible factors of the fibration discriminant and their invariants.

    w_f multiplies together everything whose primes can break the per-factor
    root-count decomposition: the content, the base resultant invariant, all
    pairwise factor resultants, and the leading values a_i.
    """

    delta_i: tuple[BinaryForm, ...]
    a_i: tuple[int, ...]
    content: int
    w0: int
    w_f: int


def delta_factor_data(X: CubicSurfaceNF) -> DeltaFactorData:
    fac = X.factorization
    deltas = tuple(f for f, _ in fac.factors)
    a_i = tuple(f.coeffs[0] if f.coeffs[0] != 0 else 1 for f in deltas)
    res_prod = 1
    for i in range(len(deltas)):
        for j in range(len(deltas)):
            if i != j:
                res_prod *= resultant(deltas[i], deltas[j])
    w_f = abs(fac.content * X.w0 * res_prod * math.prod(a_i))
    assert w_f != 0, "separable validated surface cannot give zero here"
    return DeltaFactorData(deltas, a_i, fac.content, X.w0, w_f)


# --------------------------------------------------------------------------
# the degeneracy count rho* for the discriminant


def rho_star_prime_vector(
    X: CubicSurfaceNF, ps: np.ndarray, data: DeltaFactorData
) -> np.ndarray:
    """rho*(p) at every prime in ps, as one array: the primitive pairs
    (s, t) mod p with the discriminant divisible by p, which is (p - 1)
    times the number of projective root classes of the discriminant.

    Off the w_f primes the root classes are the per-factor sum; the
    finitely many w_f primes are recomputed directly from the full
    discriminant.  data is delta_factor_data(X), computed once by the caller.
    """
    n = np.zeros(len(ps), dtype=np.int64)
    for f in data.delta_i:
        n += projective_root_counts(f, ps)
    for i in np.flatnonzero(_divides(data.w_f, ps)).tolist():
        n[i] = projective_roots_mod_p(X.disc, int(ps[i]))
    return (ps - 1) * n


# --------------------------------------------------------------------------
# Wirsing-style partial sums with exponent fitting


@dataclass(frozen=True)
class MultiplicativeFn:
    """A multiplicative function supported on squarefree integers.

    Defined by its values at primes: g(a) is the product of g(p) over the
    primes p dividing a squarefree a, and 0 on every other a.  Both fields
    map an ascending int64 prime array to the values at every prime:
    exact(ps) as integer arrays (num, den) with g(p) = num / den, and
    floats(ps) as a float64 array.
    """

    name: str
    exact: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    floats: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class WirsingReport:
    function: str
    x: int
    k_hat: float
    c_hat: float
    hypothesis_a15: tuple[float, float]  # (slope of prime log-sum, sup residual)
    hypothesis_a16: float  # worst product ratio over checkpoint pairs
    hypothesis_a17: float  # partial sum of g(p)^2 log p
    sums_at: tuple[tuple[int, object], ...]  # (checkpoint, Fraction | float)


def _default_checkpoints(x: int) -> list[int]:
    cps = set()
    e = 2
    while True:
        v = int(round(10 ** (e / 2)))
        if v > x:
            break
        cps.add(v)
        e += 1
    cps.add(x)
    return sorted(c for c in cps if c >= 2)


def _fit_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    # least squares slope/intercept; degenerate spreads collapse to slope 0
    if len(xs) < 2 or float(np.ptp(xs)) < 1e-12:
        return 0.0, float(ys[-1]) if len(ys) else 0.0
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


# the float route holds the primes up to sqrt(x), one sieve segment, one
# block of _PRIME_BLOCK primes and ~2 sqrt(x) values x // m, at most ~45 MiB
# peak RSS here, nearly all of it the imports.  So the cap bounds only the
# run time: ~3 s on split and ~60 s on S1, whose root counts take nearly
# all of it, on 2 cores
MAX_WIRSING_X = 2 * 10**8

_PRIME_BLOCK = 1 << 14  # primes per g.floats call


def _breakpoints(top: int, cps, recursed) -> np.ndarray:
    """The sorted values v at which the recursion reads the prime sums:
    1..sqrt(top), the checkpoints cps, and c // m for m <= sqrt(c) for each
    checkpoint c in recursed (with 1..sqrt(c), every value c // m)."""
    return np.unique(np.concatenate(
        [np.arange(1, math.isqrt(top) + 1), cps]
        + [c // np.arange(1, math.isqrt(c) + 1) for c in recursed]
    ))


def _prime_sum_recursion(c: int, small: list, g_small: list, G: dict, one, mul):
    """Sum of g(a) over squarefree a <= c, from the prime sums G[v] = sum of
    g(p) over p <= v at the values v = c // m and the g(p) of the primes
    small, ascending and at least up to sqrt(c).

    A squarefree a > 1 all of whose prime factors are >= p_j, with p_k its
    smallest, is p_k alone or p_k times such an a' built from primes >=
    p_(k+1), where p_k^2 <= a.  So with F(n, j) = sum of g(a) over those
    a <= n,
        F(n, j) = G(n) - G(p_(j-1)) + sum_(k >= j, p_k^2 <= n) g(p_k) F(n // p_k, k + 1),
    with G(p_(-1)) = 0, and the sum is 1 + F(c, 0), unrolled here on a
    stack of (n, j, weight), in the arithmetic of the values, with unit one
    and products mul(a, b): floats, Fractions or fixed point (_exact_sums).
    """
    below = [0] + [G[p] for p in small]  # below[j] = G(p_(j-1))
    total, stack = one, [(c, 0, one)]
    while stack:
        n, j, w = stack.pop()
        total += mul(w, G[n] - below[j])
        for k in range(j, len(small)):
            p = small[k]
            if p * p > n:
                break
            stack.append((n // p, k + 1, mul(w, g_small[k])))
    return total


def _exact_sums(g: MultiplicativeFn, cps: list[int], floored: bool) -> list[Fraction]:
    """[sum of g(a) over squarefree a <= c for c in the sorted cps], by the
    recursion on one g.exact call on the primes up to cps[-1]: exact, or in
    96-bit fixed point with every prime value, weight product and node term
    floored, all nonnegative, so a lower bound.  With u = 2^-96, M >= 1 above
    every g(p) and L the most prime factors of a squarefree a <= c, a weight
    of k >= 1 floored factors is < (2k - 1) M^(k-1) u low, so a node over
    m >= 1 primes loses < u + 2k M^k m u, k <= L - 1 (the root, k = 0: m u).
    The nodes and their m primes count distinct squarefree numbers <= c, so
        0 <= exact - floored < 2 L M^(L-1) c u.
    """
    ps = shared_primes(cps[-1])
    num, den = g.exact(ps)
    if floored:
        one, mul = 1 << _FIX_BITS, lambda a, b: a * b >> _FIX_BITS  # floored
        gp = [(n << _FIX_BITS) // d for n, d in zip(num.tolist(), den.tolist())]
    else:
        one, mul = Fraction(1), operator.mul
        gp = [Fraction(n, d) for n, d in zip(num.tolist(), den.tolist())]
    run = list(accumulate(gp, initial=0))  # run[i] = sum of g(p) over the first i primes
    vals = _breakpoints(cps[-1], cps, cps)
    G = {v: run[i] for v, i in zip(vals.tolist(), np.searchsorted(ps, vals, "right").tolist())}
    n_small = int(np.searchsorted(ps, math.isqrt(cps[-1]), "right"))
    small, g_small = ps[:n_small].tolist(), gp[:n_small]
    sums = [_prime_sum_recursion(c, small, g_small, G, one, mul) for c in cps]
    return [Fraction(s, one) for s in sums] if floored else sums


def wirsing_sum(
    g: MultiplicativeFn,
    x: int,
    checkpoints=None,
    exact_threshold: int = 2000,
) -> WirsingReport:
    """Partial sums of a squarefree-supported multiplicative function.

    Every sum is _prime_sum_recursion's: exact Fractions (_exact_sums) at
    checkpoints up to the exact threshold, g.exact called once on the
    primes up to the largest of them, and float64 above.  For g(p) >= 0,
    g.floats within gamma_eta of g(p), u = 2^-53, gamma_k = k u / (1 - k u)
    and L = bit_length(c), a float sum is within S (gamma_(c + L (eta + 1)
    + 2) + 3 gamma_(pi(c) + eta) S) of the exact S, to first order in u.
    One walk of the segmented prime sieve, calling g.floats once per block
    of _PRIME_BLOCK primes, feeds those prime sums and those behind the
    hypothesis diagnostics, holding no primes beyond one segment and those
    up to sqrt(x).  So the memory is flat in x: `wirsing-check` peaks at
    41-43 MiB RSS at x = 10^7 and 44-45 MiB at 2·10^8, ~36 MiB of it the
    imports.  x <= MAX_WIRSING_X.
    k_hat is the slope of the prime sum of g(p) log p against log t, the
    normalization that defines the growth exponent; c_hat is the linear
    coefficient of the checkpoint sums against (log x)^k with the exponent
    snapped to the nearest integer when it is within 0.2 of one.
    """
    x = int(x)
    if x < 2:
        raise ValueError("need x >= 2")
    if x > MAX_WIRSING_X:
        raise ValueError(f"x = {x} is above the partial-sum limit {MAX_WIRSING_X}")
    cps = sorted({int(c) for c in (checkpoints or _default_checkpoints(x)) if c >= 2})
    if not cps:
        raise ValueError("no usable checkpoints (need values >= 2)")
    if cps[-1] > x:
        raise ValueError("checkpoint beyond x")
    if cps[-1] != x:
        cps.append(x)
    exact_cps = [c for c in cps if c <= exact_threshold]
    sums = dict(zip(exact_cps, _exact_sums(g, exact_cps, floored=False) if exact_cps else ()))
    float_cps = cps[len(exact_cps) :]

    # one walk of the prime sieve feeds one table of running sums over the
    # primes <= v, with rows g(p), g(p) log p, log1p |g(p)| and
    # g(p)^2 log p, read at the values v of 1..sqrt(x), the checkpoints and
    # c // m for the float checkpoints c: those above sqrt(c) come from
    # m <= sqrt(c).  Each block's cumsum goes on from the last column, so
    # every value is bitwise that of one np.cumsum over all the primes.
    r = math.isqrt(x)
    vals = _breakpoints(x, cps, float_cps)
    table = np.zeros((4, len(vals)))
    carry, i = np.zeros((4, 1)), 0
    small, g_small = [], []  # the primes <= sqrt(x), which the recursion walks, and g there
    for seg in prime_segments(x):
        for lo in range(0, len(seg), _PRIME_BLOCK):
            pb = seg[lo : lo + _PRIME_BLOCK]
            gb, logs = g.floats(pb), np.log(pb)
            if pb[0] <= r:  # the first segment
                small += pb.tolist()
                g_small += gb.tolist()
            # filled in place: stacked copies of the rows fault in ~2.5x the
            # pages, ~0.2 s more at x = 2·10^8
            run = np.empty((4, len(pb) + 1))
            run[:, :1], run[0, 1:], run[1, 1:] = carry, gb, gb * logs
            run[2, 1:], run[3, 1:] = np.log1p(np.abs(gb)), gb * gb * logs
            np.cumsum(run, axis=1, out=run)
            j = int(np.searchsorted(vals, pb[-1], side="right"))
            table[:, i:j] = run[:, np.searchsorted(pb, vals[i:j], side="right")]
            carry, i = run[:, -1:].copy(), j
    table[:, i:] = carry
    G = dict(zip(vals.tolist(), table[0].tolist()))
    for c in float_cps:
        sums[c] = _prime_sum_recursion(c, small, g_small, G, 1.0, operator.mul)
    sums_at = [(c, sums[c]) for c in cps]

    # prime-sum normalization: the exponent is DEFINED by
    # sum_{p<=t} g(p) log p = k log t + O(1), and fitting that line is far
    # less transient-biased than the partial-sum log-log slope, whose
    # finite-x bias is of order k^2/log x (fatal for k >= 2 at desk scale).
    floats = np.array([float(v) for _, v in sums_at], dtype=np.float64)
    cp_arr = np.array(cps, dtype=np.float64)
    t_at, prod_at = table[1:3, np.searchsorted(vals, cps)]
    a15_slope, a15_b = _fit_line(np.log(cp_arr), t_at)
    a15_resid = float(np.max(np.abs(t_at - a15_slope * np.log(cp_arr) - a15_b)))
    k_hat = a15_slope
    k_use = float(round(k_hat)) if abs(k_hat - round(k_hat)) <= 0.2 else k_hat
    pos = floats > 0
    if abs(k_use) < 1e-9 or int(pos.sum()) < 2:
        c_hat = float(floats[-1])
    else:
        c_hat, _ = _fit_line(np.log(cp_arr[pos]) ** k_use, floats[pos])
    worst = 0.0
    for i in range(len(cps)):
        for j in range(i + 1, len(cps)):
            if cps[i] < 3:
                continue
            prod = math.exp(prod_at[j] - prod_at[i])
            bound = (math.log(cps[j]) / math.log(cps[i])) ** abs(k_hat)
            worst = max(worst, prod / bound)
    return WirsingReport(
        function=g.name,
        x=x,
        k_hat=float(k_hat),
        c_hat=float(c_hat),
        hypothesis_a15=(a15_slope, a15_resid),
        hypothesis_a16=float(worst),
        hypothesis_a17=float(table[3, -1]),  # at vals[-1] = x
        sums_at=tuple(sums_at),
    )


def squarefree_harmonic() -> MultiplicativeFn:
    """g(p) = 1/p: partial sums grow like (6/pi^2) log x."""
    return MultiplicativeFn(
        "squarefree-harmonic",
        exact=lambda ps: (np.ones_like(ps), ps),
        floats=lambda ps: 1.0 / ps.astype(np.float64),
    )


def rho_delta_fn(X: CubicSurfaceNF, strict_wf: bool = False) -> MultiplicativeFn:
    """The final-lemma weight: rho*(p) phi(p)^2 / p^4 on coprime primes."""
    data = delta_factor_data(X)
    W = data.w_f if strict_wf else abs(X.w0)

    def rho(ps: np.ndarray) -> np.ndarray:
        r = rho_star_prime_vector(X, ps, data)
        r[_divides(W, ps)] = 0
        return r

    def exact(ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        po = ps.astype(object)  # p^4 leaves int64 above p = 55108
        return rho(ps).astype(object) * (po - 1) ** 2, po**4

    def floats(ps: np.ndarray) -> np.ndarray:
        r = rho(ps).astype(np.float64)
        pf = ps.astype(np.float64)
        return r * (pf - 1.0) ** 2 / pf**4

    return MultiplicativeFn("rho-delta", exact, floats)


# --------------------------------------------------------------------------
# the final lemma's sum


def final_lemma_sum(
    X: CubicSurfaceNF,
    x: int,
    strict_wf: bool = False,
    exact_threshold: int = 10**4,
) -> Fraction:
    """Sum over squarefree a <= x coprime to the resultant invariant of
    rho*(a) phi(a)^2 / a^4.

    Exact below the threshold.  Above it the recursion of _exact_sums runs
    in 96-bit fixed point, every prime value, weight product and node term
    floored, so the result is a rational lower bound.  Every g(p) =
    rho*(p) phi(p)^2 / p^4 <= (p + 1) (p - 1)^3 / p^4 is below 1, so the
    error is below 2 L x 2^-96, L the largest number of prime factors of a
    squarefree a <= x (L = 5 at x = 10^4, 7 at 10^6).
    """
    x = int(x)
    if x < 1:
        raise ValueError("need x >= 1")
    g = rho_delta_fn(X, strict_wf)
    (total,) = _exact_sums(g, [x], floored=x > exact_threshold)
    return total
