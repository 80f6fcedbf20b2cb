"""Multiplicative-function sums over primes and squarefree integers.

The engine room for the growth-exponent experiments: distinct-root counts
of binary forms modulo every prime of an array at once (one numpy kernel
per block of primes, exact in int64 while degree * p^2 < 2^63), the
degeneracy count for the fibration discriminant, partial sums of
multiplicative functions with exponent fitting, and the height-weighted
lattice sums.

Prime sums take one path.  A MultiplicativeFn gives its values at a whole
prime array at once, exactly as integer numerators and denominators and as
float64.  Exact partial sums come from one squarefree loop that builds
g(a) from those prime values; float partial sums come from a value sieve
run by segments of [0, x]: per segment copies of a wheel pattern for the
primes up to 13, one slice per larger prime up to sqrt(x), then batched
scatters for the primes above sqrt(x).  Beside fixed-size segments and
batches it holds only the primes and their values.

Every rational sum goes through one exact-or-floored summation: exact
Fractions for small arguments, otherwise every term rounded down at 96
fractional bits, so the returned rational is a lower bound with error
below terms * 2^-96.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .forms import BinaryForm, factor_over_q, resultant
from .numth import factor, primes_up_to
from .surface import CubicSurfaceNF, singular_fibre_indices
from .zpoly import gf_roots

_FIX_BITS = 96


def _rational_sum(terms, exact: bool) -> Fraction:
    """Sum of the nonnegative n / d over the (n, d) terms: exact, or with
    every term floored at 96 fractional bits (a lower bound)."""
    if exact:
        return sum((Fraction(n, d) for n, d in terms), Fraction(0))
    return Fraction(sum((n << _FIX_BITS) // d for n, d in terms), 1 << _FIX_BITS)


# --------------------------------------------------------------------------
# sieves (the prime list is built once, grown on demand, read-only to callers)

_prime_cache = {"limit": 0, "primes": np.empty(0, dtype=np.int64)}


def shared_primes(limit: int) -> np.ndarray:
    """All primes <= limit, from a cached sieve that only ever grows."""
    if limit > _prime_cache["limit"]:
        _prime_cache["primes"] = primes_up_to(limit)
        _prime_cache["limit"] = limit
    ps = _prime_cache["primes"]
    return ps[: int(np.searchsorted(ps, limit, side="right"))]


def _smallest_factor_table(limit: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n (0 for n < 2)."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    rest = np.arange(limit + 1, dtype=np.int32)
    spf[spf == 0] = rest[spf == 0]
    spf[:2] = 0
    return spf


# --------------------------------------------------------------------------
# distinct projective roots of binary forms mod p


def projective_roots_mod_p(form: BinaryForm, p: int) -> int:
    """Number of classes (s:t) mod p killing the form (p+1 when p divides it):
    the roots of f(x, 1), plus (1:0) when p divides the s^d coefficient."""
    if all(c % p == 0 for c in form.coeffs):
        return p + 1
    return len(gf_roots(form.dehomogenized(), p)) + (form.coeffs[0] % p == 0)


# Batched kernel: for a block of primes at once, x^p mod f by square-and-
# multiply on an int64 array of residue polynomials, then
# deg gcd(x^p - x, f) = n - rank of multiplication by (x^p - x) on
# F_p[x]/(f), from a batched elimination mod p.  Operands are residues
# below p and at most n products of two are summed before the next
# reduction, so every intermediate is below n * p^2 (and the 30-bit limb
# steps of _residues below 2^63 for any p < 2^32): the kernel is exact
# while n * p^2 < 2^63, n = max(degree, 1).

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


def _affine_root_counts(monic_low: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Distinct roots in F_p of the monic f = x^n + sum monic_low[j] x^j.

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
        sq = np.zeros((2 * n - 1, nb), dtype=np.int64)
        for i in range(n):
            sq[i : i + n] += r[i] * r
        sq %= ps
        r = sq[:n]
        for k in range(n - 1):
            r += sq[n + k] * red[k]
        r %= ps
        r = np.where((ps >> bit) & 1, _mul_x(r, red[0], ps), r)

    # rows g * x^j mod f of the multiplication-by-g matrix, g = x^p - x
    mat = np.empty((n, n, nb), dtype=np.int64)
    r[1] = (r[1] - 1) % ps
    mat[0] = r
    for j in range(1, n):
        mat[j] = _mul_x(mat[j - 1], red[0], ps)

    # fraction-free row echelon mod p with a per-prime pivot row
    rows = np.arange(n)[:, None]
    idx = np.arange(nb)
    rank = np.zeros(nb, dtype=np.int64)
    for c in range(n):
        cand = (mat[:, c] != 0) & (rows >= rank)
        has = cand.any(axis=0)
        piv = np.where(has, cand.argmax(axis=0), rank)
        pivot_row = mat[piv, :, idx].T
        mat[piv, :, idx] = mat[rank, :, idx]
        mat[rank, :, idx] = pivot_row.T
        below = (rows > rank) & has
        scale = np.where(below, pivot_row[c], 1)
        coef = np.where(below, mat[:, c], 0)
        mat = mat * scale[:, None] - coef[:, None] * pivot_row
        mat %= ps
        rank += has
    return n - rank


def projective_root_counts(form: BinaryForm, ps: np.ndarray) -> np.ndarray:
    """Vector of projective root counts mod p over the given primes.

    The affine part f(x, 1) of degree n >= 2 goes through one batched numpy
    kernel per block of primes: x^p mod f by square-and-multiply, then
    deg gcd(x^p - x, f) as n minus a rank mod p.  The finitely many primes
    dividing the leading coefficient of f(x, 1) take the scalar
    projective_roots_mod_p, and primes dividing the content every class.
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
    singular = _divides(dehom[-1], ps)
    regular = np.flatnonzero(~singular)
    if n == 1:
        out[regular] += 1
    elif n >= 2:
        for lo in range(0, len(regular), _BLOCK):
            sel = regular[lo : lo + _BLOCK]
            pb = ps[sel]
            inv = _pow_vec(_residues(dehom[-1], pb), pb - 2, pb)
            monic_low = np.stack([_residues(a, pb) * inv % pb for a in dehom[:-1]])
            out[sel] += _affine_root_counts(monic_low, pb)
    for i in np.flatnonzero(singular).tolist():
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


def varrho_star_delta(X: CubicSurfaceNF, a: int) -> int:
    """Primitive pairs (s, t) mod a with the discriminant divisible by a.

    Multiplicative in a; per prime it is (p - 1) times the number of
    projective root classes.  Only squarefree moduli are accepted.
    """
    if a < 1:
        raise ValueError("modulus must be positive")
    if a == 1:
        return 1
    fa = factor(a)
    if not fa.is_squarefree():
        raise ValueError(f"{a} is not squarefree")
    out = 1
    for p, _ in fa.factors:
        out *= (p - 1) * projective_roots_mod_p(X.disc, p)
    return out


def rho_star_prime_vector(X: CubicSurfaceNF, ps: np.ndarray) -> np.ndarray:
    """varrho_star_delta at every prime in ps, as one array.

    Off the w_f primes this is the per-factor sum of root counts; the
    finitely many w_f primes are recomputed directly from the full
    discriminant.
    """
    data = delta_factor_data(X)
    n = np.zeros(len(ps), dtype=np.int64)
    for f in data.delta_i:
        n += projective_root_counts(f, ps)
    for i in np.flatnonzero(_divides(data.w_f, ps)).tolist():
        n[i] = projective_roots_mod_p(X.disc, int(ps[i]))
    return (ps - 1) * n


# --------------------------------------------------------------------------
# prime statistics of one irreducible factor


def tau_statistics(
    delta: BinaryForm, x: int, exact_threshold: int = 10**4
) -> tuple[Fraction, float]:
    """(sum of tau(p)/p, sum of tau(p) log p / p) over primes p <= x.

    tau counts distinct projective roots mod p.  The first component is
    exact up to the 96-bit floor (fully exact below the threshold); the
    second is float by nature of the log weight.
    """
    fac = factor_over_q(delta)
    if fac.distinct_count != 1 or fac.factors[0][1] != 1 or abs(fac.content) != 1:
        raise ValueError("tau statistics want a primitive irreducible form")
    ps = shared_primes(int(x))
    taus = projective_root_counts(delta, ps)
    terms = ((t, p) for t, p in zip(taus.tolist(), ps.tolist()) if t)
    harmonic = _rational_sum(terms, x <= exact_threshold)
    logs = np.log(ps.astype(np.float64))
    weighted = float(np.sum(taus * logs / ps))
    return harmonic, weighted


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


# the float route holds the primes and their values (16 bytes per prime,
# ~177 MB here) beside a 2 MiB segment and its scatter batches, ~208 MiB
# peak RSS in all; the cap bounds its run time (~14 s on 2 cores)
MAX_WIRSING_X = 2 * 10**8

_SEGMENT = 1 << 18  # cells per partial-sum sieve segment (2 MiB of float64)
_SCATTER = 1 << 13  # (k, q) entries per cofactor scatter batch
_WHEEL_TOP = 13  # the wheel holds the primes <= 13: period 30030
_PRIME_BLOCK = 1 << 14  # primes per g.floats call and per tail block


def _running_sum_at(blocks, at: np.ndarray) -> np.ndarray:
    """The running sum of the concatenated float64 blocks, read at the
    ascending indices at.  Each block is summed in place, continued from
    the last one, so every value is bitwise that of one np.cumsum."""
    out = np.empty(len(at), dtype=np.float64)
    lo, carry = 0, 0.0
    for w in blocks:
        w[0] += carry
        np.cumsum(w, out=w)
        carry = float(w[-1])
        i, j = np.searchsorted(at, [lo, lo + len(w)])
        out[i:j] = w[at[i:j] - lo]
        lo += len(w)
    return out


def _squarefree_sums(
    g: MultiplicativeFn, ps: np.ndarray, cps: list[int], exact: bool
) -> list[Fraction]:
    """[sum of g(a) over a <= c for c in cps] for the sorted cps, where ps
    holds every prime up to cps[-1]: exact, or 96-bit floored term by term.

    Each a comes from its factorization along the smallest-prime-factor
    table, multiplying integer numerators and denominators: a is dropped at
    its first repeated prime or zero-valued prime.
    """
    pn, pd = g.exact(ps)
    gn = dict(zip(ps.tolist(), pn.tolist()))
    gd = dict(zip(ps.tolist(), pd.tolist()))
    spf = _smallest_factor_table(cps[-1])

    def terms(lo: int, hi: int):
        for a in range(lo, hi + 1):
            n, d, m = 1, 1, a
            while m > 1:
                p = int(spf[m])
                m //= p
                if m % p == 0 or not gn[p]:
                    break
                n *= gn[p]
                d *= gd[p]
            else:
                yield n, d

    sums, total, lo = [], Fraction(0), 1
    for c in cps:
        total += _rational_sum(terms(lo, c), exact)
        sums.append(total)
        lo = c + 1
    return sums


def _partial_sum_sieve(ps: np.ndarray, gp: np.ndarray, x: int, cps) -> np.ndarray:
    """[sum of g(a) over squarefree a <= c for c in cps], cps ascending in
    [0, x].

    [0, x] is sieved in segments of _SEGMENT cells, one buffer for all:
    v[a - lo] = prod of g(p) over p | a, each product in ascending prime
    order, then 0 off the squarefree a.  A segment starts as copies of a
    wheel pattern that holds the products over the primes <= 13 dividing
    a; each larger prime <= sqrt(x) is one slice multiply, and the primes
    above sqrt(x) are one scatter in batches of _SCATTER entries.
    """
    n_small = int(np.searchsorted(ps, math.isqrt(x), side="right"))
    n_wheel = int(np.searchsorted(ps[:n_small], _WHEEL_TOP, side="right"))
    period = math.prod(ps[:n_wheel].tolist())
    wheel = np.ones(period, dtype=np.float64)
    for p, gv in zip(ps[:n_wheel].tolist(), gp[:n_wheel].tolist()):
        wheel[::p] *= gv
    small = list(zip(ps[n_wheel:n_small].tolist(), gp[n_wheel:n_small].tolist()))
    squares = ps[:n_small] * ps[:n_small]
    big, gbig = ps[n_small:], gp[n_small:]
    q0 = int(big[0]) if len(big) else x + 1
    buf = np.empty(min(_SEGMENT, x + 1), dtype=np.float64)

    def segments():
        for lo in range(0, x + 1, _SEGMENT):
            hi = min(lo + _SEGMENT, x + 1)
            v = buf[: hi - lo]
            r = lo % period
            v[: period - r] = wheel[r : r + len(v)]
            for i in range(period - r, len(v), period):
                v[i : i + period] = wheel[: len(v) - i]
            for p, gv in small:
                v[(-lo) % p :: p] *= gv
            # a = k q with q > sqrt(x) prime: q is the largest factor of a,
            # so a fixes (k, q) and the cells k q - lo are distinct.  Entry
            # e of the flat (k, q) list, k = ks[j], is q = big[firsts[j] +
            # e - starts[j]].
            ks = np.arange(1, (hi - 1) // q0 + 1)
            firsts = np.searchsorted(big, -(-lo // ks))
            counts = np.searchsorted(big, (hi - 1) // ks, side="right") - firsts
            ends = np.cumsum(counts)
            starts = ends - counts
            shift = firsts - starts
            total = int(ends[-1]) if len(ks) else 0
            for e0 in range(0, total, _SCATTER):
                e1 = min(e0 + _SCATTER, total)
                j0, j1 = np.searchsorted(ends, [e0, e1 - 1], side="right").tolist()
                c = counts[j0 : j1 + 1].copy()
                c[0] -= e0 - starts[j0]
                c[-1] -= ends[j1] - e1
                pos = np.repeat(shift[j0 : j1 + 1], c)
                pos += np.arange(e0, e1)
                cells = np.repeat(ks[j0 : j1 + 1], c) * big[pos]
                cells -= lo
                v[cells] *= gbig[pos]
            n_dense = int(np.searchsorted(squares, len(v)))
            for p2 in squares[:n_dense].tolist():
                v[(-lo) % p2 :: p2] = 0.0
            # a larger p^2 has at most one multiple in the segment
            offs = (-lo) % squares[n_dense:]
            v[offs[offs < len(v)]] = 0.0
            if lo == 0:
                v[0] = 0.0
            yield v

    return _running_sum_at(segments(), np.asarray(cps, dtype=np.int64))


def wirsing_sum(
    g: MultiplicativeFn,
    x: int,
    checkpoints=None,
    exact_threshold: int = 2000,
) -> WirsingReport:
    """Partial sums of a squarefree-supported multiplicative function.

    Sums at checkpoints up to the exact threshold are exact Fractions from
    one squarefree pass, with g.exact called once on the primes up to the
    largest of them; larger ones read the float value sieve, run by
    segments of _SEGMENT cells (2 MiB) with its cofactor scatters in
    batches of _SCATTER entries.  g.floats is called on blocks of
    _PRIME_BLOCK primes, so the memory is 16 bytes per prime <= x (the
    primes and their values) plus fixed-size blocks: `wirsing-check` peaks
    at ~48 MiB RSS at x = 10^7 and ~208 MiB at 2·10^8, ~36 MiB of it the
    imports.  x is capped at MAX_WIRSING_X.
    k_hat is the slope of the prime sum of g(p) log p against log t, the
    normalization that defines the growth exponent; c_hat is the linear
    coefficient of the checkpoint sums against (log x)^k with the exponent
    snapped to the nearest integer when it is within 0.2 of one.
    """
    x = int(x)
    if x < 2:
        raise ValueError("need x >= 2")
    if x > MAX_WIRSING_X:
        raise ValueError(f"x = {x} is above the partial-sum sieve limit {MAX_WIRSING_X}")
    cps = sorted({int(c) for c in (checkpoints or _default_checkpoints(x)) if c >= 2})
    if not cps:
        raise ValueError("no usable checkpoints (need values >= 2)")
    if cps[-1] > x:
        raise ValueError("checkpoint beyond x")
    if cps[-1] != x:
        cps.append(x)
    ps = shared_primes(x)
    sums = {}
    exact_cps = [c for c in cps if c <= exact_threshold]
    if exact_cps:
        n_exact = int(np.searchsorted(ps, exact_cps[-1], side="right"))
        sums = dict(zip(exact_cps, _squarefree_sums(g, ps[:n_exact], exact_cps, True)))
    gp = np.empty(len(ps), dtype=np.float64)
    blocks = [slice(lo, lo + _PRIME_BLOCK) for lo in range(0, len(ps), _PRIME_BLOCK)]
    for b in blocks:
        gp[b] = g.floats(ps[b])
    float_cps = cps[len(exact_cps) :]
    if float_cps:
        sums.update(zip(float_cps, _partial_sum_sieve(ps, gp, x, float_cps).tolist()))
    sums_at = [(c, sums[c]) for c in cps]

    # prime-sum normalization: the exponent is DEFINED by
    # sum_{p<=t} g(p) log p = k log t + O(1), and fitting that line is far
    # less transient-biased than the partial-sum log-log slope, whose
    # finite-x bias is of order k^2/log x (fatal for k >= 2 at desk scale).
    # The prime sums are read at the last prime <= each checkpoint.
    floats = np.array([float(v) for _, v in sums_at], dtype=np.float64)
    cp_arr = np.array(cps, dtype=np.float64)
    idx = np.searchsorted(ps, cps, side="right") - 1
    t_at = _running_sum_at((gp[b] * np.log(ps[b]) for b in blocks), idx)
    prod_at = _running_sum_at((np.log1p(np.abs(gp[b])) for b in blocks), idx)
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
    a17 = sum(float(np.sum(gp[b] * gp[b] * np.log(ps[b]))) for b in blocks)
    return WirsingReport(
        function=g.name,
        x=x,
        k_hat=float(k_hat),
        c_hat=float(c_hat),
        hypothesis_a15=(a15_slope, a15_resid),
        hypothesis_a16=float(worst),
        hypothesis_a17=a17,
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
    W = delta_factor_data(X).w_f if strict_wf else abs(X.w0)

    def rho(ps: np.ndarray) -> np.ndarray:
        r = rho_star_prime_vector(X, ps)
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

    Exact below the threshold; above it every term is floored at 96
    fractional bits, so the result is a rational lower bound within
    x * 2^-96 of the true value.
    """
    x = int(x)
    if x < 1:
        raise ValueError("need x >= 1")
    g = rho_delta_fn(X, strict_wf)
    (total,) = _squarefree_sums(g, shared_primes(x), [x], x <= exact_threshold)
    return total


# --------------------------------------------------------------------------
# height-weighted lattice sum in a congruence class


def G_sum(
    X: CubicSurfaceNF,
    sigma: int,
    tau: int,
    a: int,
    x: int,
    exact_threshold: int = 2000,
) -> Fraction:
    """Sum of 1/max(|s|,|t|)^2 over coprime (s,t) = (sigma,tau) mod a,
    s > 0, height <= x, discriminant nonzero.

    Counts pairs row by row at each height, so the rational arithmetic
    touches one term per height value.  Exact below the threshold, 96-bit
    floored above it.
    """
    if a < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(math.gcd(sigma, tau), a) != 1:
        raise ValueError("class not primitive for the modulus")
    x = int(x)
    if x < 1:
        raise ValueError("need x >= 1")
    bad = [(i.s, i.t) for i in singular_fibre_indices(X) if i.s > 0]
    terms = []
    for h in range(1, x + 1):
        t_edge = np.arange(-h, h + 1, dtype=np.int64)
        s_all = np.concatenate(
            [
                np.full(2 * h + 1, h, dtype=np.int64),
                np.arange(1, h, dtype=np.int64),
                np.arange(1, h, dtype=np.int64),
            ]
        )
        t_all = np.concatenate(
            [
                t_edge,
                np.full(h - 1, h, dtype=np.int64),
                np.full(h - 1, -h, dtype=np.int64),
            ]
        )
        keep = np.gcd(s_all, np.abs(t_all)) == 1
        if a > 1:
            keep &= ((s_all - sigma) % a == 0) & ((t_all - tau) % a == 0)
        n = int(np.count_nonzero(keep))
        for s0, t0 in bad:
            if max(s0, abs(t0)) == h:
                if (s0 - sigma) % a == 0 and (t0 - tau) % a == 0:
                    n -= 1
        if n > 0:
            terms.append((n, h * h))
    return _rational_sum(terms, x <= exact_threshold)
