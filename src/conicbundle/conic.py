"""Exact point counting on a nonsingular plane conic with a weighted height.

The conic Q(x,y,z) = cxx x^2 + cxy xy + cxz xz + cyz yz + czz z^2 (cxy, cyz
not both zero) carries the height H(x:y:z) = max(|x|, weight*|y|, |z|) on
primitive integer triples.  Points are produced by the quadratic map

    q(u, v) = Pi . (u^2, uv, v^2),   Pi = [[cxy, cyz, 0],
                                           [-cxx, -cxz, -czz],
                                           [0, cxy, cyz]],

which hits every rational point exactly once per primitive (u : v).  Since
det(Pi) equals the conic invariant cxx*cyz^2 - cxy*cxz*cyz + czz*cxy^2, the
content of q(u, v) divides |det(Pi)| for coprime (u, v); combined with a
certified positive floor for the sup norm of q on the unit box boundary this
turns "all points of height <= B" into a finite, provably complete search.
On the two box edges (1, t) and (s, 1) that norm is max(|L|, w|Q|), L
linear and Q quadratic in t; `edge_pieces` splits each edge where the two
tie, and the floor is the exact minimum over the few places the norm can
take it, with each irrational tie point enclosed in a rational interval.

The floor gives each lattice (the base box, and one sublattice per solution
class of every layer) a sup-norm box, and the box gives the rows of the
lattice and the range of n1 along each row.  What is scanned is less: along
a row each component of q is a quadratic in n1, and the cells that can have
height <= B*g lie in one interval of n1 per component, whose ends are fixed
by exact evaluation; a row longer than 64 cells is narrowed to that
interval, a shorter one is cheaper to scan whole.  All rows of all lattices
of a fibre form one table, streamed in bounded chunks through one
acceptance test.

Each point is counted once, by the one parameter pair that owns it: of
+-(u, v) the owner has u > 0, or u = 0 and v > 0, and a coprime pair whose
image has content exactly g is counted only in the layer of g (the base box
is the layer g = 1).  So no pair is ever found twice and nothing is
deduplicated; the count is a running total.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, inf, isqrt

import numpy as np

from .modsolve import (
    Lattices,
    Rows,
    class_lattice_basis,
    divisor_solutions,
    iter_lattice_points,
    lattice_rows,
)
from .numth import factor, projective_normal


@dataclass(frozen=True)
class FibreConic:
    """Integer conic coefficients plus the height weight for the y coordinate."""

    cxx: int
    cxy: int
    cxz: int
    cyz: int
    czz: int
    weight: int = 1
    pi_det: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.weight < 1:
            raise ValueError("height weight must be a positive integer")
        det = (
            self.cxx * self.cyz**2
            - self.cxy * self.cxz * self.cyz
            + self.czz * self.cxy**2
        )
        if det == 0:
            raise ValueError("parameterization matrix is singular (invariant is 0)")
        object.__setattr__(self, "pi_det", det)

    @property
    def coeffs(self) -> tuple[int, int, int, int, int]:
        return (self.cxx, self.cxy, self.cxz, self.cyz, self.czz)

    @cached_property
    def edges(self):
        """(k, ((c, k', ties, pieces) for c in edge_coeffs)): `edge_pieces` of both
        edges at the working precision k, computed once for the floor and sigma_inf."""
        w = self.weight
        k = _EDGE_BITS + 2 * (w * sum(map(abs, self.coeffs))).bit_length()
        return k, tuple((c, *edge_pieces(c, w, k)) for c in edge_coeffs(self))

    def quadratic(self, x: int, y: int, z: int) -> int:
        return (
            self.cxx * x * x
            + self.cxy * x * y
            + self.cxz * x * z
            + self.cyz * y * z
            + self.czz * z * z
        )


@dataclass(frozen=True, order=True)
class HeightedPoint:
    x: int
    y: int
    z: int
    height: int

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


def parameterize(C: FibreConic, u: int, v: int) -> tuple[int, int, int]:
    """Raw image of (u, v) under the quadratic map; rejects (0, 0)."""
    if u == 0 and v == 0:
        raise ValueError("(0, 0) is not a projective parameter")
    return _edge_components(C.coeffs, v, u)


def height(C: FibreConic, p) -> int:
    """Weighted sup-norm height of the primitive form of p."""
    x, y, z = projective_normal(p)
    return max(abs(x), C.weight * abs(y), abs(z))


def point_from_pair(C: FibreConic, u: int, v: int) -> HeightedPoint:
    x, y, z = projective_normal(parameterize(C, u, v))
    return HeightedPoint(x, y, z, max(abs(x), C.weight * abs(y), abs(z)))


# --------------------------------------------------------------------------
# the norm on the two unit-box edges
#
# By q(-u, -v) = q(u, v) the boundary of the unit box is covered by the two
# edges (1, t) and (s, 1), -1 <= s, t <= 1, and the edge (s, 1) of C is the
# edge (1, t) of C with (cxx, cxy) swapped against (czz, cyz): x and z trade
# places and y is unchanged.  On (1, t) the components are x = L(t),
# y = -Q(t) and z = t L(t), with L = cxy + cyz t and Q = cxx + cxz t +
# czz t^2, so |z| <= |x| and N = max(|L|, w |Q|).  N > 0 there: L and Q
# have no common root, since their resultant is det(Pi).


def edge_coeffs(C: FibreConic):
    """Coefficients whose edge (1, t) is C's edge (1, t), resp. (s, 1)."""
    return C.coeffs, (C.czz, C.cyz, C.cxz, C.cxy, C.cxx)


# The working precision of the edge decomposition: tie points are isolated on
# the grid 2^-k, k = _EDGE_BITS + 2 b with b the bit length of w * sum |c|.
_EDGE_BITS = 64


def _max(a, b):
    # a + b and a - b have the same parity, so the halving is exact
    return (a + b + abs(a - b)) // 2


def _edge_components(c, T, S):
    """S^2 * q(1, T/S) for edge coefficients c."""
    cxx, cxy, cxz, cyz, czz = c
    return (
        cxy * S * S + cyz * S * T,
        -(cxx * S * S + cxz * S * T + czz * T * T),
        cxy * S * T + cyz * T * T,
    )


def edge_norm(c, w, T, S):
    """S^2 * max(|x|, w|y|, |z|) of q(1, T/S), exact."""
    x, y, z = _edge_components(c, T, S)
    return _max(_max(abs(x), w * abs(y)), abs(z))


def _root_intervals(a: int, b: int, c: int, k: int):
    """[T0, T1] with T0 <= 2^k t <= T1 for each real root t of a t^2 + b t + c
    (not all zero).  isqrt gives R <= 2^k sqrt(D) < R + 1, exact when R^2 =
    4^k D, so a root of a quadratic lies within 1/|2a| + 2 grid steps."""
    one = 1 << k
    if a == 0:
        return [((-c * one) // b, -((c * one) // b))] if b else []
    D = b * b - 4 * a * c
    if D < 0:
        return []
    R = isqrt(D << 2 * k)
    ex = R * R != D << 2 * k
    out = []
    for lo, hi in ((-b * one + R, -b * one + R + ex), (-b * one - R - ex, -b * one - R)):
        if a < 0:
            lo, hi = -hi, -lo
        out.append((lo // (2 * abs(a)), -(-hi // (2 * abs(a)))))
    return out


def edge_pieces(c, w: int, k: int):
    """The edge (1, t) of edge coefficients c split where |L| and w|Q| tie:
    (k', ties, pieces) on the grid t = T / 2^k', k' >= k.

    The tie points are the roots in (-1, 1) of w Q - L and w Q + L.  Each
    lies in a tie interval [T0, T1] (`_root_intervals`; overlapping ones
    merged), on which L has no root: k is doubled until the exact signs of
    L at both ends agree, which ends, since N > 0 at a tie.  Between them
    lie the pieces (T0, T1, linear): no tie point inside, so N is |L|
    (linear) or w|Q| on the whole closed piece, as the sign of L^2 - w^2 Q^2
    at its midpoint says, and that term has no root there, so N > 0 keeps
    the sign of L, resp. Q, constant.
    """
    cxx, cxy, cxz, cyz, czz = c
    while True:
        one = 1 << k
        found = sorted(
            (max(t0, -one), min(t1, one))
            for sign in (1, -1)
            for t0, t1 in _root_intervals(w * czz, w * cxz - sign * cyz, w * cxx - sign * cxy, k)
            if t1 > -one and t0 < one
        )
        ties = []
        for t0, t1 in found:
            if ties and t0 <= ties[-1][1]:
                ties[-1] = (ties[-1][0], max(ties[-1][1], t1))
            else:
                ties.append((t0, t1))
        if all((cxy * one + cyz * t0) * (cxy * one + cyz * t1) > 0 for t0, t1 in ties):
            break
        k *= 2
    ends = [-one, *(t for tie in ties for t in tie), one]
    pieces = []
    for t0, t1 in zip(ends[::2], ends[1::2]):
        if t0 < t1:
            # at the midpoint M / 2^(k+1): |L| >= w |Q| on the scale 4^(k+1)
            M, S = t0 + t1, 2 * one
            lin = abs(cxy * S + cyz * M) * S >= w * abs(cxx * S * S + cxz * S * M + czz * M * M)
            pieces.append((t0, t1, lin))
    return k, ties, pieces


def certified_min_m(C: FibreConic) -> Fraction:
    """Positive rational floor for max(|x|,w|y|,|z|) of q on max(|u|,|v|) = 1.

    On each edge (the other two follow from q(-u, -v) = q(u, v)) N is |L|,
    linear, or w|Q| with Q of constant sign between tie points, so its
    minimum lies at t = +-1, at the vertex of Q, or at a tie point.  The
    floor is the exact least value of N at the first two (by edge_norm) and
    of |L| <= N at the ends of each tie interval, which bounds N there, as
    L has no root in it.
    """
    w = C.weight
    best = None
    for c, kk, ties, _ in C.edges[1]:
        _, cxy, cxz, cyz, czz = c
        cands = [(edge_norm(c, w, 1, 1), 1), (edge_norm(c, w, -1, 1), 1)]
        if abs(cxz) < 2 * abs(czz):
            cands.append((edge_norm(c, w, -cxz, 2 * czz), 4 * czz * czz))
        cands += [(abs(cxy * (1 << kk) + cyz * t), 1 << kk) for tie in ties for t in tie]
        for num, den in cands:
            if best is None or num * best[1] < best[0] * den:
                best = (num, den)
    return Fraction(*best)


# --------------------------------------------------------------------------
# complete enumeration


@dataclass
class ConicCountResult:
    """`certified` is always True: every floor is certified."""

    count: int
    points: list[HeightedPoint] | None
    min_norm: Fraction
    certified: bool


def _ceil_sqrt_ratio(num: int, den: int) -> int:
    """Smallest integer U with U^2 >= num/den (num, den > 0)."""
    return isqrt(num // den) + 1


def _forms(C: FibreConic):
    """(a, b, c) with a u^2 + b uv + c v^2 = q1, -q2 and q3 of q(u, v)."""
    return ((C.cxy, C.cyz, 0), (C.cxx, C.cxz, C.czz), (0, C.cxy, C.cyz))


def _form(f, uu, uv, vv):
    """The one formula for q's components, shared by the acceptance test and
    the row hulls; f may hold numbers or per-entry arrays."""
    return f[0] * uu + f[1] * uv + f[2] * vv


def _content_height(C: FibreConic, u, v):
    """(|L|, |q2|, max(|q1|, w |q2|, |q3|)) of q(u, v), L = cxy u + cyz v:
    q1 = u L and q3 = v L, so max(|q1|, |q3|) = max(|u|, |v|) |L|, and for
    coprime (u, v) the content gcd(q1, q2, q3) is gcd(|L|, |q2|)."""
    L = np.abs(C.cxy * u + C.cyz * v)
    q2 = np.abs(_form(_forms(C)[1], u * u, u * v, v * v))
    hw = np.maximum(np.maximum(np.abs(u), np.abs(v)) * L, C.weight * q2)
    return L, q2, hw


class _Collector:
    """Chunk pipeline: ownership filter, height test, exact content, count."""

    def __init__(self, C: FibreConic, bound: int, want_points: bool):
        self.C = C
        self.bound = bound
        self.count = 0
        self.points: list[HeightedPoint] | None = [] if want_points else None

    def feed(self, u: np.ndarray, v: np.ndarray, g: np.ndarray) -> None:
        """Count the pairs (u, v) of layer g (per cell): coprime, owner of
        +-(u, v), content g.  Exact on int64 rows that `_enumerate` judged
        safe and on object rows alike.

        d = gcd(u, v) divides L and d^2 divides q2, so d | gcd(|L|, |q2|):
        "coprime with content g" is "gcd(|L|, |q2|) = g and gcd(u, v, g) = 1",
        which needs one gcd on the cells that pass the height test, and a
        second only where that one holds and g > 1."""
        own = (u > 0) | ((u == 0) & (v > 0))
        u, v, g = u[own], v[own], g[own]
        L, q2, hw = _content_height(self.C, u, v)
        ok = hw <= self.bound * g
        u, v, g = u[ok], v[ok], g[ok]
        ok = np.gcd(L[ok], q2[ok]) == g
        deep = np.flatnonzero(ok & (g > 1))
        ok[deep] = np.gcd(np.gcd(u[deep], g[deep]), v[deep]) == 1
        u, v = u[ok], v[ok]
        self.count += len(u)
        if self.points is not None:
            self.points.extend(
                point_from_pair(self.C, a, b) for a, b in zip(u.tolist(), v.tolist())
            )


def _fibre_lattices(u1, layer_bounds, int64_ok):
    """The base box (layer 1: b1 = (0, 1), so n1 = v, and rows u = 0..u1)
    and every class lattice of every layer, with each lattice's rows n2.

    Exact on Python ints; int64 when int64_ok holds and every row offset
    n2*b2 stays below 2^62 beside the box, object arrays otherwise.
    """
    entries = [(0, 1, 1, 0, 1, u1, 0, u1)]
    for g, sols, ug in layer_bounds:
        for sigma, tau in sols:
            (a, b), (c, d) = class_lattice_basis(sigma, tau, g)
            # Cramer: |n2| <= U (|b1u| + |b1v|) / g covers the box (det = g)
            n2 = ug * (abs(a) + abs(b)) // g
            entries.append((a, b, c, d, g, ug, -n2, n2))
    reach = max(e[5] + e[7] * max(abs(e[2]), abs(e[3])) for e in entries)
    dtype = np.int64 if int64_ok and reach < 2**62 else object
    cols = [np.array(col, dtype=dtype) for col in zip(*entries)]
    return Lattices(*cols[:6]), cols[6], cols[7]


def _first_true(pred, lo, hi, seed):
    """Least n in [lo, hi] with pred, or hi + 1, per entry, for a predicate
    that is false and then true along [lo, hi].

    pred(n, idx) judges the entries idx (an index array, or a slice for all
    of them) at n.  The seed is only a guess: judging it and its left
    neighbour settles every entry whose seed was right, and the rest are
    bisected.
    """
    bad, good = lo - 1, hi + 1
    s = np.minimum(np.maximum(seed, lo), hi)
    every = slice(None)
    at = pred(s, every)
    left_of = pred(np.maximum(s - 1, lo), every) & (s > lo)
    good = np.where(at, np.where(left_of, s - 1, s), good)
    bad = np.where(at, np.where(left_of, bad, s - 1), s)
    idx = np.flatnonzero(good - bad > 1)
    while len(idx):
        mid = (good[idx] + bad[idx]) // 2
        t = pred(mid, idx)
        good[idx[t]] = mid[t]
        bad[idx[~t]] = mid[~t]
        idx = idx[good[idx] - bad[idx] > 1]
    return good


def _float(x: int) -> float:
    try:
        return float(x)
    except OverflowError:
        return float("nan")  # a seed is only a guess


def _floats(x: np.ndarray) -> np.ndarray:
    """x as float64 (NaN where an object entry overflows)."""
    if x.dtype == object:
        return np.array([_float(t) for t in x.tolist()], dtype=float)
    return x.astype(float)


def _as_ints(x, dtype):
    """Float array x (finite, integral) as integers of the given dtype."""
    if dtype == object:
        return np.array([int(t) for t in x.tolist()], dtype=object)
    return x.astype(np.int64)


# Only rows of more than _LONG_ROW box cells are clipped: on a 2-core box
# scanning a cell costs ~0.1 us, clipping ~1-2 us a row and ~0.4 ms a
# fibre, so clipping a shorter row, or a fibre of short rows, costs more
# than it saves.  Rows are clipped in batches of _HULL_ROWS, which bounds
# the temporaries (~1.5 KB a row).
_LONG_ROW = 64
_HULL_ROWS = 256
# the cells of one acceptance-test call
_CHUNK = 4096


def _lattice_coeffs(C: FibreConic, lats: Lattices):
    """Per component (row) and lattice (column): F_k(n1*b1 + n2*b2) =
    A n1^2 + B n1 n2 + C n2^2 as the exact sign of A and floats |A|, B, C."""
    forms = np.array(_forms(C), dtype=object)  # component k, coefficient j
    b1u, b1v = lats.b1u.astype(object), lats.b1v.astype(object)
    sign = np.sign(forms @ np.array([b1u * b1u, b1u * b1v, b1v * b1v])).astype(np.int64)
    b1u, b1v, b2u, b2v = (_floats(x) for x in lats[:4])
    monomials = np.array([  # coefficient kind, j, lattice
        [b1u * b1u, b1u * b1v, b1v * b1v],
        [2 * b1u * b2u, b1u * b2v + b1v * b2u, 2 * b1v * b2v],
        [b2u * b2u, b2u * b2v, b2v * b2v],
    ])
    F = _floats(forms.ravel()).reshape(3, 3)
    Af, Bf, Cf = (F[None, :, :, None] * monomials[:, None]).sum(axis=2)
    return sign, np.abs(Af), Bf, Cf


def _height_rows(C: FibreConic, bound: int, lats: Lattices, rows: Rows) -> Rows:
    """Clip every row's n1 range to a hull of the height region.

    Along a row, component k of q is F_k = A n1^2 + B n2 n1 + C n2^2 with
    A = F_k(b1).  A cell of height <= bound*g has sign(A) F_k <= cap_k (caps
    bound*g, bound*g // w, bound*g), convex in n1, and |F_k| <= cap_k where
    A = 0, so each component keeps one interval of n1.  Rows of at most
    _LONG_ROW box cells are left as they are.
    """
    long = np.flatnonzero(rows.hi - rows.lo >= _LONG_ROW)
    lo, hi = rows.lo.copy(), rows.hi.copy()
    if len(long):
        coeffs = _lattice_coeffs(C, lats)
        for start in range(0, len(long), _HULL_ROWS):
            r = long[start:start + _HULL_ROWS]
            lo[r], hi[r] = _row_hull(C, bound, lats, coeffs, rows.lat[r], rows.n2[r],
                                     lo[r], hi[r])
    return Rows(rows.lat, rows.n2, lo, hi)


def _hull_seeds(coeffs, lat, n2, lo, hi, cap):
    """Float guesses, inside [lo, hi], of where each entry's interval starts
    and of where it has ended: the real roots of sign(A) F = cap, or of
    |F| = cap where A = 0, rounded inwards."""
    sign, Af, Bf, Cf = (x[:, lat].ravel() for x in coeffs)
    with np.errstate(all="ignore"):
        nf = np.concatenate([_floats(n2)] * 3)
        capf = _floats(cap)
        Bn, Cn = Bf * nf, Cf * nf * nf
        # A n^2 + B n + C0 - cap <= 0 by the stable root formula
        B, cq = sign * Bn, sign * Cn - capf
        disc = B * B - 4 * Af * cq
        q = -(B + np.copysign(np.sqrt(np.maximum(disc, 0)), B)) / 2
        r1, r2 = q / Af, np.where(q == 0, q / Af, cq / q)
        vertex = -B / (2 * Af)
        # |Bn n + Cn| <= cap where A = 0
        l1, l2 = (-capf - Cn) / Bn, (capf - Cn) / Bn
        lin = sign == 0
        end_lo = np.where(lin, np.minimum(l1, l2), np.where(disc < 0, vertex, np.minimum(r1, r2)))
        end_hi = np.where(lin, np.maximum(l1, l2), np.where(disc < 0, vertex, np.maximum(r1, r2)))
        lof, hif = _floats(lo), _floats(hi)
        seed_lo = np.where(np.isnan(end_lo), lof, np.ceil(end_lo))
        seed_hi = np.where(np.isnan(end_hi), hif, np.floor(end_hi) + 1)
        return np.clip(np.concatenate([seed_lo, seed_hi]), np.concatenate([lof, lof]),
                       np.concatenate([hif, hif]))


def _row_hull(C, bound, lats, coeffs, lat, n2, lo, hi):
    """Each row's n1 range (lo, hi) clipped to its three convex intervals.

    Float roots only seed the interval ends; one `_first_true` call fixes all
    of them by exact evaluation of F_k through (u, v), on the dtype of the
    rows, at cells inside the box.
    """
    dtype = lo.dtype
    R = len(lat)

    def tile(x):  # entry k*R + r is component k of row r
        return np.concatenate([x] * 3)

    lo, hi = tile(lo), tile(hi)
    cap = bound * lats.g[lat]
    cap = np.concatenate([cap, cap // C.weight, cap])
    seed = _as_ints(_hull_seeds(coeffs, lat, n2, lo, hi, cap), dtype)
    sgn = coeffs[0][:, lat].ravel()
    lin = sgn == 0
    # h is sgn * F, or |F| where A = 0: max(G, flip * G) with G = sgn * F and
    # flip = -1 there; elsewhere flip = 0 gives max(G, 0), which is convex
    # too and meets every cap (>= 0) exactly where G does
    sgn = np.where(lin, 1, sgn).astype(dtype)
    flip = np.where(lin, -1, 0).astype(dtype)
    E = len(lo)

    def pair(x):  # search entry d*E + e: where entry e starts (d = 0), ends (1)
        return np.concatenate([x, x])

    a, b, c = (pair(sgn * np.repeat(np.array(x, dtype=dtype), R)) for x in zip(*_forms(C)))
    flip, cap2, lo2, hi2 = pair(flip), pair(cap), pair(lo), pair(hi)
    b1u, b1v = pair(tile(lats.b1u[lat])), pair(tile(lats.b1v[lat]))
    u0, v0 = pair(tile(n2 * lats.b2u[lat])), pair(tile(n2 * lats.b2v[lat]))
    upper = np.arange(2 * E) >= E
    step = np.where(upper, -1, 1).astype(dtype)

    def h(n, j):
        u = n * b1u[j]
        u += u0[j]
        v = n * b1v[j]
        v += v0[j]
        G = _form((a[j], b[j], c[j]), u * u, u * v, v * v)
        return np.maximum(G, flip[j] * G)

    def pred(n, j):
        # where an entry starts: feasible, or at or past the minimum of h;
        # where it has ended: the negation with the neighbour on the left,
        # infeasible and rising.  Both are false, then true along the row.
        m = np.minimum(np.maximum(n + step[j], lo2[j]), hi2[j])
        hn = h(n, j)
        return ((hn <= cap2[j]) | (h(m, j) >= hn)) ^ upper[j]

    ends = _first_true(pred, lo2, hi2, seed)
    L, H = ends[:E], ends[E:] - 1
    H = np.where(h(L, slice(0, E)) <= cap, H, L - 1)
    return L.reshape(3, -1).max(axis=0), H.reshape(3, -1).min(axis=0)


def _enumerate(C, bound, u1, layer_bounds, want_points):
    """Shared enumeration core: every lattice of the fibre (the base box is
    layer 1) in one row table, long rows clipped to their height hull, and
    each pair counted in the layer of its exact content."""
    u_cap = max([u1] + [ug for _, _, ug in layer_bounds])
    # int64 safety for 3 summed coefficient*U^2 terms, the weighted norm,
    # and the bound*content comparison of the acceptance test
    maxc = max(1, max(abs(c) for c in C.coeffs))
    int64_ok = (
        3 * maxc * u_cap * u_cap * max(C.weight, 1) < 2**62
        and bound * abs(C.pi_det) < 2**62
    )
    col = _Collector(C, bound, want_points)
    lats, n2_lo, n2_hi = _fibre_lattices(u1, layer_bounds, int64_ok)
    rows = _height_rows(C, bound, lats, lattice_rows(lats, n2_lo, n2_hi))
    for u, v, g in iter_lattice_points(lats, rows, _CHUNK):
        col.feed(u, v, g)
    points = sorted(col.points) if want_points else None
    return col.count, points


def _layers(C: FibreConic, bound: int):
    """The certified floor m, the base box half-width u1 and, per divisor g
    of |det(Pi)| with solution classes, (g, classes, half-width)."""
    m = certified_min_m(C)
    u1 = _ceil_sqrt_ratio(bound * m.denominator, m.numerator)
    layer_bounds = [
        (g, sols, _ceil_sqrt_ratio(bound * g * m.denominator, m.numerator))
        for g, sols in divisor_solutions(C.coeffs, factor(abs(C.pi_det)))
    ]
    return m, u1, layer_bounds


def height_bound(B) -> int:
    """floor(B) for a height bound B >= 1; NaN and infinities are refused."""
    if not 1 <= B < inf:
        raise ValueError(f"--height must be a finite number >= 1, got {B}")
    return floor(B)


def count_points(C: FibreConic, B, *, want_points: bool = False) -> ConicCountResult:
    """Exact number of rational points on C with height <= B.

    A base box covers all parameters giving points with unit content; for
    every divisor g of |det(Pi)| the parameters giving content-g points lie
    on index-g sublattices (one per solution class of q = 0 mod g), inside
    the correspondingly larger box.  The boxes only fix which rows of each
    lattice exist and how far each row may reach; what is scanned of a row
    longer than 64 cells is its height interval, the cells that can satisfy
    the three convex height conditions and u >= 0.  Every candidate is
    verified by exact evaluation, so the floor `min_norm` only ever affects
    completeness, and it is certified.

    Each point has one owner: the coprime pair (u, v) with u > 0, or u = 0
    and v > 0, counted only in the layer of the exact content g of q(u, v).
    That layer always reaches it, since max(|u|, |v|) <= sqrt(B*g/m) bounds
    the layer's box and its class mod g is one of the layer's classes.
    """
    bound = height_bound(B)
    m, u1, layer_bounds = _layers(C, bound)
    count, points = _enumerate(C, bound, u1, layer_bounds, want_points)
    return ConicCountResult(
        count=count,
        points=points,
        min_norm=m,
        certified=True,
    )


def count_points_reference(C: FibreConic, B) -> int:
    """Independent oracle: solve Q = 0 directly over |x|, |z| <= B.

    Q is linear in y once (x, z) is fixed, so each coprime-coordinate choice
    determines at most one y.  Never touches the parameterization.
    """
    bound = floor(B)
    w = C.weight
    total = 1 if w <= bound else 0  # (0:1:0) is on every conic of this shape
    for x in range(-bound, bound + 1):
        for z in range(-bound, bound + 1):
            if x == 0 and z == 0:
                continue
            lin = C.cxy * x + C.cyz * z
            rest = C.cxx * x * x + C.cxz * x * z + C.czz * z * z
            if lin == 0:
                # lin = rest = 0 would put a whole line on the conic
                assert rest != 0
                continue
            if rest % lin:
                continue
            y = -rest // lin
            if x < 0 or (x == 0 and y < 0) or (x == 0 and y == 0 and z < 0):
                continue
            if gcd(gcd(abs(x), abs(y)), abs(z)) != 1:
                continue
            if max(abs(x), w * abs(y), abs(z)) <= bound:
                total += 1
    return total
