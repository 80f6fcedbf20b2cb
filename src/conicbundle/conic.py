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
height <= B*g lie in one interval of n1 per component, whose exact ends are
closed forms in the integer square root of its discriminant; a row longer
than 64 cells is narrowed to that interval, a shorter one is cheaper to
scan whole.  In a fibre with enough long rows, a narrowed row is then
counted, not scanned, unless the points are wanted: along it every test
but the height is a residue of n1 modulo one prime (coprimality, and the
classes of the layers above), so inclusion-exclusion over those primes
counts its cells in a few terms, its height set being the interval less
at most one hole per component, where the side of the height condition
that is not convex fails.  The rows left, of all lattices of a fibre,
form one table, streamed in bounded chunks through one acceptance test.
Fixed budgets bound the rows a fibre may build and the cells it may scan.

A fibre's table (its floor, classes, lattices, rows and the count of its
counted rows) is built for many fibres at once by `fibre_tables`.  Per
fibre only the classes mod each prime power of det(Pi) are solved, in
Python; a group of fibres then gets, on arrays, the class and lattice of
every divisor from the grid of its fibres' prime-power choices (joined by
a Garner step per prime), the half-widths, reduced bases and row ranges,
and, a piece of whole fibres at a time, the rows, their clipping to the
height hull and their counting by congruences.  What a table leaves is
scanned per fibre, by `count_points`, and no count depends on the group or
the piece it was built in.

Each point is counted once, by the one parameter pair that owns it: of
+-(u, v) the owner has u > 0, or u = 0 and v > 0, and a coprime pair whose
image has content exactly g is counted only in the layer of g (the base box
is the layer g = 1).  So no pair is ever found twice and nothing is
deduplicated; the count is a running total.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from math import floor, gcd, inf, isqrt, prod
from typing import NamedTuple

import numpy as np

from .modsolve import (
    Lattices,
    Rows,
    class_bases,
    divisor_grid,
    divisor_solutions,
    iter_lattice_points,
    lattice_rows,
    linear_range,
)
from .numth import factor, primes_up_to, projective_normal


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


def _forms(C: FibreConic):
    """(a, b, c) with a u^2 + b uv + c v^2 = q1, -q2 and q3 of q(u, v)."""
    return ((C.cxy, C.cyz, 0), (C.cxx, C.cxz, C.czz), (0, C.cxy, C.cyz))


def _content_height(C: FibreConic, u, v):
    """(|L|, |q2|, max(|q1|, w |q2|, |q3|)) of q(u, v), L = cxy u + cyz v:
    q1 = u L and q3 = v L, so max(|q1|, |q3|) = max(|u|, |v|) |L|, and for
    coprime (u, v) the content gcd(q1, q2, q3) is gcd(|L|, |q2|)."""
    L = np.abs(C.cxy * u + C.cyz * v)
    q2 = np.abs(C.cxx * u * u + C.cxz * u * v + C.czz * v * v)
    hw = np.maximum(np.maximum(np.abs(u), np.abs(v)) * L, C.weight * q2)
    return L, q2, hw


class _Collector:
    """Chunk pipeline: ownership and height in one mask, then exact content
    on the cells that pass it, count."""

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
        which needs one gcd on the cells that own their pair and pass the
        height test, and a second only where that one holds and g > 1."""
        L, q2, hw = _content_height(self.C, u, v)
        i = np.flatnonzero(((u > 0) | ((u == 0) & (v > 0))) & (hw <= self.bound * g))
        g = g[i]
        ok = np.gcd(L[i], q2[i]) == g
        deep = np.flatnonzero(ok & (g > 1))
        ok[deep] = np.gcd(np.gcd(u[i[deep]], g[deep]), v[i[deep]]) == 1
        self.count += int(np.count_nonzero(ok))
        if self.points is not None:
            i = i[ok]
            self.points.extend(
                point_from_pair(self.C, a, b) for a, b in zip(u[i].tolist(), v[i].tolist())
            )


# Work budgets of one fibre, refused before the work starts: the rows of its
# lattices (S1 at B = 10^6 builds at most ~12,000 in a fibre) and the cells
# left to scan (at most ~2.1M there with every row scanned; ~0.12 us each).
_ROW_BUDGET = 1 << 18
_CELL_BUDGET = 1 << 24


class FibreTable(NamedTuple):
    """What count_points needs of a fibre besides its conic: the floor m,
    the lattices of every layer (the base box first) with the class (sigma,
    tau) of each (rows 0 and 1 of `classes`; the box's is (0, 1)), the rows
    left to scan, and the count of the rows counted by congruences (None
    where the table was built without counting).  The long rows come
    clipped to the height hull, and the counted ones emptied, a piece of
    whole fibres at a time; neither depends on the piece."""

    m: Fraction
    classes: np.ndarray
    lats: Lattices
    rows: Rows
    counted: int | None


def _int64_ok(C: FibreConic, bound: int, g: int, u_cap: int) -> bool:
    """Whether the fibre's lattices, rows and acceptance test fit int64,
    with g and u_cap the index and half-width of its largest layer (g = 1
    and the base box's where it has none), whose U and U g are the largest.
    Each clause keeps products below 2^62: 3 max|c| U^2 w those of
    `_Collector.feed` (3 summed coefficient*U^2 terms, the weighted norm),
    so U < 2^30.2; bound |det| its bound*g (g | det); and U g < 2^61 those
    of the lattices.  `divisor_grid` builds every layer's class and Hermite
    basis with values and products below g, the product of the largest
    prime powers, so below 2^61 (its int64 reach is 2^63).  A reduced basis
    has 1 <= |b1| <= |b2| and |b1| |b2| <= 2 g / sqrt(3), so |b1u| + |b1v|
    <= 1.52 sqrt(g) and |b2u| + |b2v| <= 1.63 g.  So in `_lattice_tables` U
    (|b1u| + |b1v|) <= 1.52 U g and its n2 range is at most 1.52 U; in
    `lattice_rows` each term of det = g is at most 1.16 g, U (|b2u| +
    |b2v|) <= 1.63 U g before its division by det, far <= 1.63 U and each
    row offset |n2 b2| <= U (|b1u| + |b1v|) |b2| / g <= 1.63 U; and the
    cells n1 b1 + n2 b2 of the box, built by `iter_lattice_points`, have
    terms of at most 2.7 U."""
    maxc = max(1, max(abs(c) for c in C.coeffs))
    return (3 * maxc * u_cap * u_cap * C.weight < 2**62
            and bound * abs(C.pi_det) < 2**62
            and u_cap * g < 2**61)


def fibre_tables(conics, bound: int, *, count: bool = True):
    """The FibreTable of each conic in turn (bound = floor of the height
    bound), built for a group of fibres at a time; unless count is False,
    its long rows are counted by congruences where that pays.

    Per fibre the floor, the factorisation and the lattices of its classes
    mod prime powers come from `_layers`.  A group of at most _BASES
    lattices and _GROUP_FIBRES fibres (or one fibre) then gets, as arrays,
    the classes and Hermite bases of every divisor from the grid of its
    fibres' prime-power choices (`divisor_grid`), their half-widths, reduced
    bases, row ranges and row budgets, all checked before any row is built:
    in one build for the fibres that fit int64 (`_int64_ok`) and in one on
    object arrays for the others.  The rows are built, clipped to the height
    hull and counted a piece of whole fibres at a time (`_row_pieces`), each
    lattice with its own fibre's forms, weight and primes, so no count
    depends on the group or the piece.  More rows in a fibre than
    _ROW_BUDGET raise ArithmeticError.
    """
    group, size = [], 0
    for C in conics:
        m, primes, top = _layers(C, bound)
        n = prod(1 + len(lattices) for lattices in primes)
        if group and (size + n > _BASES or len(group) == _GROUP_FIBRES):
            yield from _group_tables(group, bound, count)
            group, size = [], 0
        group.append((C, m, primes, top))
        size += n
    yield from _group_tables(group, bound, count)


def _group_tables(group, bound, count):
    """The FibreTables of a group of fibres (C, m, primes, (g, U) of the
    largest layer), in order: the lattices of its int64 fibres built
    together, and those of its object fibres together; a dtype that no
    fibre takes builds nothing."""
    narrow = [_int64_ok(C, bound, *top) for C, _, _, top in group]
    built = {ok: _lattice_tables([(C, m, primes) for (C, m, primes, _), n
                                  in zip(group, narrow) if n == ok], bound, count, dtype)
             for ok, dtype in ((True, np.int64), (False, object)) if ok in narrow}
    for (_, m, _, _), ok in zip(group, narrow):
        yield FibreTable(m, *next(built[ok]))


def _lattice_tables(fibres, bound, count, dtype):
    """The classes, lattices, rows and count of each fibre (C, m, primes),
    on `dtype` arrays, as the last four fields of its FibreTable: the base
    box (b1 = (0, 1), so n1 = v, and rows u = 0..u1), then the lattice of
    every class of every divisor g > 1 with classes, all from one
    `divisor_grid` (whose divisor 1 is the box).  The half-widths, bases,
    row ranges and row budgets are built and checked here; the rows when
    the iterator returned is read."""
    g, gp, u0, d, sigma = divisor_grid([primes for _, _, primes in fibres], dtype)
    sizes = [prod(1 + len(lats) for lats in primes) for _, _, primes in fibres]
    first = list(accumulate(sizes, initial=0))[:-1]
    U = _half_widths(g, [m for _, m, _ in fibres], sizes, bound)
    bases = class_bases(gp, u0, d)
    # Cramer: |n2| <= U (|b1u| + |b1v|) / g covers the box (det = g); the
    # divisor 1 has the basis (1, 0), (0, 1), so n2 = U = u1 there
    n2 = U * (abs(bases[0]) + abs(bases[1])) // g
    bases[:, first] = np.array([[0], [1], [1], [0]])
    lats = Lattices(*bases, g, U)
    n2_lo = -n2
    n2_lo[first] = 0
    rows = np.add.reduceat(n2 - n2_lo + 1, first).tolist()
    for n in rows:
        if n > _ROW_BUDGET:
            raise ArithmeticError(
                f"row budget exceeded: the fibre's lattices have {n} rows, "
                f"more than the {_ROW_BUDGET} one fibre may build"
            )
    return _row_pieces(fibres, bound, count, np.array([sigma, d]), lats, n2_lo, n2, first,
                       sizes, rows)


def _half_widths(g, ms, sizes, bound):
    """isqrt(bound g // m) + 1 of each entry, exactly, with m = ms[f] for
    the next sizes[f] entries: the half-width of layer g, which exceeds
    sqrt(bound g / m) by at most 1.  On int64 it is the floor of the float
    root y, which lies within y 2^-51 of the exact one (each of g, bound /
    m, their product and the root rounds by at most 2^-53), that is within
    2^-20 as y < U < 2^30.2 (`_int64_ok`), but by isqrt where y lies within
    2^-20 of an integer."""
    if g.dtype == object:
        near, s = np.arange(len(g)), np.empty(len(g), dtype=object)
    else:
        y = np.sqrt(g * np.repeat([bound * m.denominator / m.numerator for m in ms], sizes))
        s = y.astype(np.int64)
        near = np.flatnonzero(abs(y - s - 0.5) >= 0.5 - 2.0**-20)
    if len(near):
        fib = np.repeat(np.arange(len(ms)), sizes)[near].tolist()
        s[near] = np.array([isqrt(bound * ms[f].denominator * x // ms[f].numerator)
                            for x, f in zip(g[near].tolist(), fib)], dtype=s.dtype)
    return s + 1


def _row_pieces(fibres, bound, count, classes, lats, n2_lo, n2_hi, first, sizes, rows):
    """(classes, Lattices, Rows, counted) of each fibre (C, m, primes), a
    piece of whole fibres of at most _CHUNK rows, or one fibre that alone
    has more, at a time: one `lattice_rows` call builds the piece's rows, one
    `_height_rows` call clips its long rows (more than _LONG_ROW box cells)
    and, if count, one `_count_rows` call counts those of its fibres whose
    long rows hold at least _COUNT_CELLS box cells."""
    start = 0
    while start < len(first):
        stop, total = start + 1, rows[start]
        while stop < len(first) and total + rows[stop] <= _CHUNK:
            total += rows[stop]
            stop += 1
        l0 = first[start]
        l1 = first[stop - 1] + sizes[stop - 1]
        piece_lats = Lattices(*(x[l0:l1] for x in lats))
        piece = lattice_rows(piece_lats, n2_lo[l0:l1], n2_hi[l0:l1])
        long = np.flatnonzero(piece.hi - piece.lo >= _LONG_ROW)
        counted = [0 if count else None] * (stop - start)
        if len(long):
            piece, totals = _clip_piece([C for C, _, _ in fibres[start:stop]],
                                        classes[:, l0:l1], bound, count, piece_lats,
                                        sizes[start:stop], rows[start:stop], piece, long)
            counted = totals or counted
        r = 0
        for f, total in zip(range(start, stop), counted):
            a, n = first[f], rows[f]
            yield (classes[:, a:a + sizes[f]], Lattices(*(x[a:a + sizes[f]] for x in lats)),
                   Rows(piece.lat[r:r + n] - (a - l0), *(x[r:r + n] for x in piece[1:])), total)
            r += n
        start = stop


def _clip_piece(conics, classes, bound, count, lats, sizes, rows, piece, long):
    """The rows of a piece of fibres (conics, and the classes of their
    lattices lats), with the long rows `long` clipped to the height hull
    (`_height_rows`) and, if count, those of the fibres whose long rows hold
    at least _COUNT_CELLS box cells counted by congruences (`_count_rows`)
    and emptied; and the count of each fibre, or None where no fibre was
    counted."""
    # box cells per long row, before clipping; those of fibre f are
    # long[ends[f]:ends[f + 1]]
    span = piece.hi[long] - piece.lo[long]
    ends = np.searchsorted(long, np.cumsum([0] + rows))
    piece, P, Q = _height_rows(conics, sizes, bound, lats, piece, long)
    if count:
        cells = np.diff(np.concatenate([[0], np.cumsum(span)])[ends])
        mine = np.repeat(cells >= _COUNT_CELLS, np.diff(ends))
        if mine.any():
            totals, piece = _count_rows(classes, sizes, lats, piece, long[mine], P[:, mine],
                                        Q[:, mine])
            return piece, totals
    return piece, None


# Only rows of more than _LONG_ROW box cells are clipped: on a 2-core box
# scanning a cell costs ~0.1 us and clipping ~0.85 us a row beside ~0.5 ms
# a piece of fibres (S1 at B = 10^5, ~16 fibres a piece), so a row of a
# few cells is cheaper to scan whole.  There, in alternating runs of
# fibre_tables and count_points, 128 was slower than 64 by 17 %, and 32
# faster by 4 % (0.256 against 0.268 s) but it added 0.4 MiB to the 37.3
# MiB peak RSS of that growth row; at B = 100 (count-surface, S1 cutoff 28,
# split cutoff 20) and at B = 10^6 the three measured alike.  Rows are
# clipped in batches of _HULL_ROWS, which bounds the temporaries (~1.2 KB a
# row), and counted in batches of at most _TERMS inclusion-exclusion terms
# (~100 bytes each).
_LONG_ROW = 64
_HULL_ROWS = 256
_TERMS = 1 << 13
# Counting by congruences costs ~0.15 ms a fibre (its layer primes and
# terms) and ~0.7 us a long row beyond the hull, so only a fibre whose long
# rows hold at least _COUNT_CELLS box cells is counted; the cells of the
# others are scanned (~0.1 us each).  At S1, B = 10^5, 2^11 took 0.270 s
# against 0.283 s for 2^13, and 2^15 was slower than 2^13 by 22 %.
_COUNT_CELLS = 1 << 11
# the cells of one acceptance-test call, and the rows of one lattice_rows call
_CHUNK = 4096
# A group of fibres, whose divisor grid and bases are built together, holds
# at most _BASES lattices and _GROUP_FIBRES fibres (or one fibre); its
# classes and conics stay alive until its last fibre is counted.  A group
# costs ~0.25 ms of array calls, and its grid ~20 us more per prime after
# the first, so one fibre a group made S1 at B = 100 (cutoff 28) three
# times as slow.  S1 fibres (~4.5 lattices each) fill 64 fibres first;
# _BASES binds on the split surface (~106 lattices a fibre).  In 6
# alternating perfbench count-wide runs (2 cores) the median wall_s was
# 0.480 s at 512 lattices, 0.428 s at 1024 and 0.406 s at 2048 (0.552 s
# before the grid), at a median peak RSS of 37.00, 37.00 and 37.21 MiB
# (37.32 MiB).
_BASES = 1 << 11
_GROUP_FIBRES = 64


def _height_rows(conics, sizes, bound: int, lats: Lattices, rows: Rows, long):
    """Clip the n1 range of the rows `long` (index array) of a piece of
    fibres to a hull of the height region and find the holes the hull
    leaves.  The lattices of fibre f (conics[f]) are the next sizes[f] of
    lats.  Returns the rows and, per component (row k) and long row, the
    ends P, Q of its hole (P > Q where it has none).

    Along a row, component k of q is F_k = A n1^2 + B n2 n1 + C n2^2 with
    A = F_k(b1).  A cell of height <= bound*g has sign(A) F_k <= cap_k (caps
    bound*g, bound*g // w, bound*g), convex in n1, and |F_k| <= cap_k where
    A = 0, so each component keeps one interval of n1.  What the hull keeps
    of the other side, sign(A) F_k >= -cap_k, is the hull less one interval,
    the hole.  Per component and lattice, |A|, s B, s C (s = sign(A), 1
    where A = 0) and cap_k are tabulated once for the piece, by
    `_hull_tables`, for the lattices (col) of the long rows, each from its
    own fibre's forms and weight.
    """
    used, col = np.unique(rows.lat[long], return_inverse=True)
    owner = np.repeat(np.arange(len(sizes)), sizes)[used]
    b1u, b1v, b2u, b2v, g = (x[used].astype(object) for x in lats[:5])
    # lattice, component k, coefficient j
    forms = np.array([_forms(C) for C in conics], dtype=object)[owner]
    A, B, Cn = ((forms * np.array(monomials, dtype=object).T[:, None, :]).sum(axis=2).T
                for monomials in ([b1u * b1u, b1u * b1v, b1v * b1v],
                                  [2 * b1u * b2u, b1u * b2v + b1v * b2u, 2 * b1v * b2v],
                                  [b2u * b2u, b2u * b2v, b2v * b2v]))
    s = np.where(A < 0, -1, 1)
    cap = bound * g
    weight = np.array([C.weight for C in conics], dtype=object)[owner]
    exact = np.array([np.abs(A), s * B, s * Cn, [cap, cap // weight, cap]], dtype=object)
    tables = _hull_tables(exact)
    lo, hi = rows.lo.copy(), rows.hi.copy()
    P, Q = np.empty((2, 3, len(long)), dtype=lo.dtype)
    for start in range(0, len(long), _HULL_ROWS):
        part = slice(start, start + _HULL_ROWS)
        r = long[part]
        lo[r], hi[r], P[:, part], Q[:, part] = _row_hull(tables, col[part], rows.n2[r], lo[r],
                                                         hi[r])
    return Rows(rows.lat, rows.n2, lo, hi), P, Q


def _hull_tables(exact):
    """The exact table (coefficient, component, lattice) of Python ints,
    its int64 copy (0 where out of int64 reach) and its float magnitudes,
    capped at 2^62 so that no entry overflows a float."""
    mag = np.minimum(np.abs(exact), 2**62)
    return exact, np.where(mag < 2**62, exact, 0).astype(np.int64), mag.astype(float)


def _row_hull(tables, lat, n2, lo, hi):
    """Each row's n1 range [lo, hi] clipped to its three convex intervals,
    and per component and row the hole in that, where sign(A) F_k <=
    -cap_k - 1: (L, H, P, Q), with P > Q where a hole is empty.

    Each entry (component, row) is solved on int64 where the float bound
    b^2 (|b| where a = 0) + 4 (a + 1)(|c| + cap + 1) on the terms of
    `_entry_ends` is below 2^61, a factor 4 from overflow, which covers the
    float error; on Python ints elsewhere.  Its ends are exact either way,
    and clipped to [lo - 1, hi + 1], which changes neither the hull nor a
    hole inside it.
    """
    exact, narrow, mag = tables
    R = len(lat)
    k, col = np.repeat(np.arange(3), R), np.concatenate([lat, lat, lat])
    n2, lo3, hi3 = (np.concatenate([x, x, x]) for x in (n2, lo, hi))
    af, bf, cf, capf = mag[:, k, col]
    m = np.maximum(np.abs(n2).astype(float), 1)
    bf *= m
    fast = np.where(af > 0, bf * bf, bf) + 4 * (af + 1) * (cf * m * m + capf + 1) < 2**61
    ends = np.empty((4, 3 * R), dtype=lo.dtype)
    for i, table, dtype in ((np.flatnonzero(fast), narrow, np.int64),
                            (np.flatnonzero(~fast), exact, object)):
        if len(i):
            a, sb, sc, cap = table[:, k[i], col[i]]
            t = n2[i].astype(dtype)
            first, last = lo3[i] - 1, hi3[i] + 1
            ends[:, i] = np.clip(_entry_ends(a, sb * t, sc * t * t, cap, first, last), first,
                                 last)
    l, h, p, q = ends.reshape(4, 3, R)
    L, H = np.maximum(l.max(axis=0), lo), np.minimum(h.min(axis=0), hi)
    return L, H, np.maximum(p, L), np.minimum(q, H)


def _entry_ends(a, b, c, cap, first, last):
    """(l, h, p, q) per entry, a >= 0: the integers n with a n^2 + b n + c
    <= cap form [l, h] and those with a n^2 + b n + c <= -cap - 1 form
    [p, q]; where a = 0, [l, h] holds the n of [first, last] with |b n + c|
    <= cap and [p, q] is empty.  An empty range has l > h, resp. p > q.

    For a > 0, a n^2 + b n + e <= 0 iff |2 a n + b| <= sqrt(D), D = b^2 -
    4 a e, iff |2 a n + b| <= r = floor(sqrt(D)) (r = -1 where D < 0, which
    no n meets): n from ceil((-b - r) / 2a) to floor((r - b) / 2a).
    """
    lin = a == 0
    # on the linear entries the quadratics are n^2 + c, whose ends are replaced
    a, bq = a + lin, np.where(lin, 0, b)
    r = _isqrt(bq * bq - 4 * a * np.array([c - cap, c + cap + 1]))
    l, p = -((bq + r) // (2 * a))
    h, q = (r - bq) // (2 * a)
    lin_lo, lin_hi = linear_range(c, b, -cap, cap, first, last)
    return (np.where(lin, lin_lo, l), np.where(lin, lin_hi, h),
            np.where(lin, 1, p), np.where(lin, 0, q))


def _isqrt(D):
    """floor(sqrt(D)) per entry, -1 where D < 0: on int64 (D below 2^61) a
    float root, which is at most 1 off, and an exact correction; isqrt on
    object entries."""
    if D.dtype == object:
        return np.array([isqrt(d) if d >= 0 else -1 for d in D.ravel().tolist()],
                        dtype=object).reshape(D.shape)
    r = np.sqrt(np.maximum(D, 0).astype(float)).astype(np.int64)
    r -= r * r > D
    r += (r + 1) * (r + 1) <= D
    return r


@lru_cache(maxsize=None)
def _factor_tables(bits: int):
    """For n < 2^bits: spf[n], the least prime factor of n, and nxt[n], n
    with every factor spf[n] taken out (spf[1] = nxt[1] = 1)."""
    size = 1 << bits
    spf = np.arange(size)
    spf[0] = 1
    for p in primes_up_to(isqrt(size - 1))[::-1].tolist():  # the least prime wins
        spf[p * p :: p] = p
    q = np.arange(size) // spf
    same = spf[q] == spf
    nxt = q
    while True:  # as many rounds as the largest exponent
        new = np.where(same, nxt[q], q)
        if np.array_equal(new, nxt):
            spf.flags.writeable = nxt.flags.writeable = False  # shared by every caller
            return spf, nxt
        nxt = new


def _lattice_events(lats: Lattices, classes, used):
    """The layer primes of the fibre, whose lattices have the classes
    `classes` (rows sigma and tau), and per lattice (those in `used`) the
    congruences, beside coprimality at primes outside its layer g, that
    reject a cell n1 along its row n2: at each layer prime p,

    - p | (u, v), for p | g: n1 b1 + n2 b2 = 0 mod p.  As det = +-g, b2 =
      lambda b1 mod p, so this is n1 = gamma n2 mod p, gamma = -lambda, or
      p | n2 where b1 = 0 mod p;
    - content g p, for each class (s : t) mod g p that lifts the lattice's
      class: t u - s v = g (alpha n1 + beta n2) = 0 mod g p, which is n1 =
      gamma n2 mod p, gamma = -beta / alpha, or p | n2 where alpha = 0 mod p
      (beta = 0 mod p too would put the lattice, of index g, inside the
      class's lattice, of index g p).

    Each prime of a layer divisor is a layer divisor itself (they are
    products of prime powers with classes), so the primes are the layer
    divisors that no smaller one divides.  Per lattice:
    `kill`, the bits (by index in the primes) of the p whose congruence
    rejects the whole row where p | n2, and the inclusion-exclusion terms
    over the sets of distinct residues gamma n2 (at most one per prime):
    (sign, modulus e, Gamma mod e from the gammas by CRT, excl).  Where p |
    n2 every gamma n2 is 0 mod p, one residue, which the Moebius factor of
    a row counts if p is not in g: excl has bit p for such p, and for the
    gammas after the first at p.
    """
    b1u, b1v, b2u, b2v, gs = (x.tolist() for x in lats[:5])
    layers = {}
    for g, s, t in zip(gs, *classes.tolist()):
        layers.setdefault(g, []).append((s, t))
    primes = [p for p in layers if p > 1 and all(p % d for d in layers if 1 < d < p)]
    kill = [0] * len(gs)
    terms = [[] for _ in gs]
    for l in used:
        g = gs[l]
        gammas = {}
        for i, p in enumerate(primes):
            found = []
            if g % p == 0:
                if b1u[l] % p or b1v[l] % p:
                    x, y = (b1u[l], b2u[l]) if b1u[l] % p else (b1v[l], b2v[l])
                    found.append(-y * pow(x, -1, p) % p)
                else:
                    kill[l] |= 1 << i
            for s, t in layers.get(g * p, ()):
                alpha, beta = t * b1u[l] - s * b1v[l], t * b2u[l] - s * b2v[l]
                if alpha % g or beta % g:
                    continue  # it lifts another class mod g
                if alpha // g % p:
                    found.append(-(beta // g) * pow(alpha // g, -1, p) % p)
                else:
                    kill[l] |= 1 << i
            if found:
                gammas[i] = list(dict.fromkeys(found))
        table = [(1, 1, 0, 0)]
        for i, residues in gammas.items():
            p = primes[i]
            table += [(-sign, e * p, G + e * ((c - G) * pow(e, -1, p) % p),
                       excl | (1 << i if g % p or j else 0))
                      for sign, e, G, excl in table for j, c in enumerate(residues)]
        terms[l] = table
    return primes, kill, terms


def _count_rows(classes, sizes, lats, rows, long, P, Q):
    """Count the accepted cells of those clipped rows `long` of a piece of
    fibres, with holes [P, Q] from `_height_rows`, that congruences count in
    no more terms than the rows have cells, and return the count of each
    fibre and the rows with those emptied.  The lattices of fibre f are the
    next sizes[f] of lats, their classes those of `classes`.  Rows n2 = 0
    are left to the scan.

    Along row n2 of a lattice of layer g, a cell n1 of the hull [a, b] is
    accepted iff it lies outside the row's holes (has height <= bound*g),
    is coprime, has content g and owns its pair.  Each of the middle two
    fails by a residue of n1 mod one prime: for q not in g, q | (u, v) iff
    q | (n1, n2), that is n1 = 0 mod q for the q | n2 (Moebius over the
    squarefree d | n2 prime to g); the rest are the congruences n1 = gamma
    n2 mod p of `_lattice_events`, per fibre.  So one inclusion-exclusion
    term counts the n1 = Gamma n2 mod d e (Gamma n2 is 0 mod d, as d | n2)
    of [a, b], less those of the holes; a row where p | n2 for a p in
    `kill` has none.  Every cell counted owns its pair: the half box holds
    none with u < 0, and the one coprime cell with u = 0 that does not,
    (0, -1), lies in a lattice u = 0 mod g (b1 = (0, 1)) only, on its row
    n2 = 0.
    """
    totals = [0] * len(sizes)
    sel = np.flatnonzero((rows.n2[long] != 0) & (rows.lo[long] <= rows.hi[long]))
    if not len(sel):
        return totals, rows
    r = long[sel]
    lat, n2, a, b = (x[r] for x in rows)
    # the fibre of each row, and per fibre its layer primes, and per lattice
    # its kill bits and terms
    first = np.cumsum(sizes) - sizes
    fib = np.searchsorted(first, lat, side="right") - 1
    primes, kill, tables = [[]] * len(sizes), [], []
    for f, (l0, size) in enumerate(zip(first.tolist(), sizes)):
        used = {l - l0 for l in lat[fib == f].tolist()}
        if not used:
            kill += [0] * size
            tables += [[]] * size
            continue
        own = Lattices(*(x[l0:l0 + size] for x in lats))
        primes[f], k, t = _lattice_events(own, classes[:, l0:l0 + size], used)
        kill += k
        tables += t
    m = np.abs(n2).astype(np.int64)  # below _ROW_BUDGET
    # the distinct primes of each row (column of qs), then 1s; those of g
    # set to 1 too, which leaves the Moebius primes
    spf, nxt = _factor_tables(int(m.max()).bit_length())
    qs, rest = [], m
    p = spf[rest]
    while p.max() > 1:
        qs.append(p)
        rest = nxt[rest]
        p = spf[rest]
    g = lats.g[lat]
    qs = np.array(qs, dtype=np.int64).reshape(-1, len(r))
    qs = np.where(g % qs != 0, qs, 1)
    # ones: the bits of the columns of 1s, which no divisor takes
    ones = (1 << np.arange(len(qs))) @ (qs == 1)
    # k layer primes make at least 2^k lattices, each with a row, so k < 18
    # (_ROW_BUDGET) and a set of them fits the bits of an int64; a fibre's
    # primes are padded with 2^62, which divides no n2
    k = max(map(len, primes))
    big = any(p >= 2**63 for ps in primes for p in ps)
    ps = np.array([ps + [2**62] * (k - len(ps)) for ps in primes],
                  dtype=object if big else np.int64).reshape(len(primes), k)
    bits = (1 << np.arange(k)) @ (m % ps[fib].T == 0)
    live = (bits & np.array(kill)[lat]) == 0
    # every lattice's terms padded to its fibre's n_max with empty ones (sign
    # 0), in a table of n_top terms a lattice
    fibre_max = np.array([max(map(len, tables[l0:l0 + size]), default=0)
                          for l0, size in zip(first.tolist(), sizes)])
    n_max = fibre_max[fib]
    n_top = int(fibre_max.max())
    per_row = (1 << (qs > 1).sum(axis=0)) * n_max
    use = np.flatnonzero(live & (per_row <= b - a + 1))
    # with f(x) = #{n1 <= x in a term's class}, a row has f(b) - f(a - 1)
    # cells, less those of the union of its holes: by inclusion-exclusion,
    # f(Q) - f(P - 1) for each nonempty intersection [P, Q] of k holes, with
    # the sign (-1)^k, each an entry of its own (top f(P - 1), bottom f(Q)
    # for a negative one)
    entry, top, bottom = [use], [b[use]], [a[use] - 1]
    P, Q = P[:, sel[use]], Q[:, sel[use]]
    sought = [k for k in range(3) if np.any(P[k] <= Q[k])]
    for size in range(1, len(sought) + 1):
        for ks in combinations(sought, size):
            lo, hi = P[list(ks)].max(axis=0), Q[list(ks)].min(axis=0)
            i = np.flatnonzero(lo <= hi)
            entry.append(use[i])
            ends = (lo[i] - 1, hi[i]) if size % 2 else (hi[i], lo[i] - 1)
            top.append(ends[0])
            bottom.append(ends[1])
    entry, bottom = np.concatenate(entry), np.concatenate(bottom)
    length = np.concatenate(top) - bottom
    # int64 while every modulus d e and every Gamma n2 stays below 2^62
    flat = [term for terms in tables for term in terms + [(0, 1, 0, 0)] * (n_top - len(terms))]
    wide = rows.lo.dtype == object or max(term[1] for term in flat) * int(m.max()) >= 2**62
    table = np.array(flat, dtype=object if wide else np.int64).T
    # by fibre, in batches of at most _TERMS terms
    order = np.argsort(fib[entry], kind="stable")
    entry, bottom, length = entry[order], bottom[order], length[order]
    args = (qs[:, entry], ones[entry], bits[entry], n2[entry], bottom, length,
            lat[entry] * n_top)
    cut = np.flatnonzero(np.diff(fib[entry], prepend=-1)).tolist() + [len(entry)]
    for start, stop in zip(cut, cut[1:]):
        f = int(fib[entry[start]])
        step = max(1, _TERMS // int(per_row[entry[start:stop]].max()))  # entries of one batch
        for part in range(start, stop, step):
            at = slice(part, min(part + step, stop))
            totals[f] += _part_count(*(x[..., at] for x in args), table, int(fibre_max[f]))
    done = r[np.concatenate([np.flatnonzero(~live), use])]
    left = rows.hi.copy()
    left[done] = rows.lo[done] - 1
    return totals, Rows(rows.lat, rows.n2, rows.lo, left)


def _part_count(qs, ones, bits, n2, bottom, length, first, table, n_max):
    """The count of a batch of entries: per entry (column of qs, a prime or
    1 each) the sum over the squarefree divisors d of the product of its
    primes and over the n_max terms of its lattice (from first in table)
    that bits admits of mu(d) sign f, with f the number of n1 in (bottom,
    bottom + length] with n1 = Gamma n2 mod d e, or minus that number in
    (bottom + length, bottom] where length < 0."""
    d, mu = np.ones((1, len(n2)), dtype=np.int64), [1]
    for q in qs:
        d = np.concatenate([d, d * q])
        mu += [-x for x in mu]
    t, e = np.nonzero((np.arange(len(mu))[:, None] & ones) == 0)
    sign, mod, gamma, excl = table[:, first[e][:, None] + np.arange(n_max)]
    mod = mod * d[t, e][:, None]
    f = ((bottom[e][:, None] - gamma * n2[e][:, None]) % mod + length[e][:, None]) // mod
    f *= sign * ((bits[e][:, None] & excl) == 0)
    return int(np.array(mu)[t] @ f.sum(axis=1))


def _enumerate(C, bound, table: FibreTable, want_points):
    """Shared enumeration core, on the fibre's table: every lattice of the
    fibre (the base box is layer 1) in one row table, whose long rows come
    clipped to their height hull and, in a counting table, counted by
    congruences where that pays; every other cell is scanned, each pair
    counted in the layer of its exact content.  More cells to scan than
    _CELL_BUDGET raise ArithmeticError before the scan, and a counting
    table, which keeps no points of its counted rows, raises ValueError
    where the points are wanted."""
    _, _, lats, rows, counted = table
    if want_points and counted is not None:
        raise ValueError("the points of a fibre need a table built without counting")
    # the last lattice is one of the largest layer, of the largest U
    u_cap = int(lats.U[-1])
    col = _Collector(C, bound, want_points)
    # a row holds at most 2 u_cap + 1 cells
    if len(rows.lat) * (2 * u_cap + 1) > _CELL_BUDGET:
        cells = int(np.maximum(rows.hi - rows.lo + 1, 0).sum())
        if cells > _CELL_BUDGET:
            raise ArithmeticError(
                f"cell budget exceeded: the fibre has {cells} cells to scan, "
                f"more than the {_CELL_BUDGET} one fibre may scan"
            )
    for u, v, g in iter_lattice_points(lats, rows, _CHUNK):
        col.feed(u, v, g)
    points = sorted(col.points) if want_points else None
    return (counted or 0) + col.count, points


def _layers(C: FibreConic, bound: int):
    """The certified floor m, the lattices of the classes mod the prime
    powers of |det(Pi)| (`divisor_solutions`), per prime with classes, the
    largest power first, and (g, U) of the largest layer: g the product of
    those powers, U = isqrt(bound g // m) + 1 its half-width (the base box's
    where g = 1), which exceeds sqrt(bound g / m) by at most 1."""
    m = certified_min_m(C)
    primes = sorted((lats for _, lats in divisor_solutions(C.coeffs, factor(abs(C.pi_det)))),
                    key=lambda lats: lats[-1][0], reverse=True)
    g = prod(lats[-1][0] for lats in primes)
    return m, primes, (g, isqrt(bound * m.denominator * g // m.numerator) + 1)


def height_bound(B) -> int:
    """floor(B) for a height bound B >= 1; NaN and infinities are refused."""
    if not 1 <= B < inf:
        raise ValueError(f"--height must be a finite number >= 1, got {B}")
    return floor(B)


def count_points(C: FibreConic, B, *, want_points: bool = False,
                 table: FibreTable | None = None) -> ConicCountResult:
    """Exact number of rational points on C with height <= B.

    table is C's FibreTable at this B, as `fibre_tables` yields it for many
    fibres at once, its rows already clipped and, where that pays, counted a
    piece of fibres at a time; without one, a table of C alone is built the
    same way, without counting where want_points.  A counting table has no
    points of its counted rows: with want_points it raises ValueError.

    A base box covers all parameters giving points with unit content; for
    every divisor g of |det(Pi)| the parameters giving content-g points lie
    on index-g sublattices (one per solution class of q = 0 mod g), inside
    the correspondingly larger box.  The boxes only fix which rows of each
    lattice exist and how far each row may reach; a row longer than
    _LONG_ROW cells is narrowed to its height interval, the cells that can
    satisfy the three convex height conditions and u >= 0, and then, unless
    the table is built without counting or the long rows are few
    (_COUNT_CELLS), counted by congruences (`_count_rows`) where that takes
    no more terms than it has cells.  The ends of that interval and of its
    holes are exact, from the integer square roots of the quadratics'
    discriminants, and every other cell is verified by exact evaluation, so
    the floor `min_norm` only ever affects completeness, and it is
    certified.  A fibre needing more than _ROW_BUDGET rows or _CELL_BUDGET
    cells to scan raises ArithmeticError.

    Each point has one owner: the coprime pair (u, v) with u > 0, or u = 0
    and v > 0, counted only in the layer of the exact content g of q(u, v).
    That layer always reaches it, since max(|u|, |v|) <= sqrt(B*g/m) bounds
    the layer's box and its class mod g is one of the layer's classes.
    """
    bound = height_bound(B)
    if table is None:
        table = next(fibre_tables([C], bound, count=not want_points))
    count, points = _enumerate(C, bound, table, want_points)
    return ConicCountResult(
        count=count,
        points=points,
        min_norm=table.m,
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
