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
The floor comes from exact integer bounds of that norm on dyadic cells of
the two box edges (1, t) and (s, 1); there is no sampled or uncertified
fallback: a floor that cannot be certified raises CannotCertify.

Each point is counted once, by the one parameter pair that owns it: of
+-(u, v) the owner has u > 0, or u = 0 and v > 0, and a coprime pair whose
image has content exactly g is counted only in the layer of g (the base box
is the layer g = 1).  So no pair is ever found twice and nothing is
deduplicated; the count is a running total.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, gcd, isqrt

import numpy as np

from .modsolve import class_lattice_basis, divisor_solutions, iter_lattice_points
from .numth import factor, projective_normal


class CannotCertify(Exception):
    """The norm floor was not certified within the subdivision depth cap."""


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

    @property
    def pi_matrix(self):
        return (
            (self.cxy, self.cyz, 0),
            (-self.cxx, -self.cxz, -self.czz),
            (0, self.cxy, self.cyz),
        )

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
    return (
        C.cxy * u * u + C.cyz * u * v,
        -C.cxx * u * u - C.cxz * u * v - C.czz * v * v,
        C.cxy * u * v + C.cyz * v * v,
    )


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
# places and y is unchanged.  A cell of level k is t in [a/S, (a+1)/S] with
# S = 2^k; scaled by S^2 its components are integers at the cell ends.  The
# cell arithmetic below uses only +, -, *, abs and // on exact halves, so one
# formula serves Python ints and integer numpy arrays (int64 or object).


def edge_coeffs(C: FibreConic):
    """Coefficients whose edge (1, t) is C's edge (1, t), resp. (s, 1)."""
    return C.coeffs, (C.czz, C.cyz, C.cxz, C.cxy, C.cxx)


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


def edge_cell_bounds(c, w, a, S):
    """(lo, hi) with lo <= 4 S^2 max(|x|, w|y|, |z|) of q(1, t) <= hi on the
    cell t in [a/S, (a+1)/S].

    On the cell each scaled component is its chord through the two end
    values plus alpha (T - a)(T - a - 1), alpha its T^2 coefficient, and that
    product lies between -alpha/4 and 0; the factor 4 keeps it integral.
    """
    lo = hi = 0
    ends = zip(_edge_components(c, a, S), _edge_components(c, a + 1, S))
    for (f0, f1), alpha, wt in zip(ends, (0, -c[4], c[3]), (1, w, 1)):
        f_lo = 2 * (f0 + f1 - abs(f0 - f1)) - (alpha + abs(alpha)) // 2
        f_hi = 2 * (f0 + f1 + abs(f0 - f1)) + (abs(alpha) - alpha) // 2
        lo = _max(lo, wt * _max(f_lo, -f_hi))
        hi = _max(hi, wt * _max(f_hi, -f_lo))
    return lo, hi


def certified_min_m(C: FibreConic, max_depth: int = 44) -> Fraction:
    """Positive rational floor for max(|x|,w|y|,|z|) of q on max(|u|,|v|) = 1.

    Depth-first branch-and-bound over the dyadic cells of the edges (1, t)
    and (s, 1) (the other two follow from q(-u, -v) = q(u, v)).  The target
    is 16/17 of the smallest cell-end norm met so far, and a cell is done
    once its lower bound reaches the target; lowering the target never
    undoes a cell already done, so the last target is a floor.
    """
    edges = edge_coeffs(C)
    w = C.weight
    # smallest end norm met so far: best / 4^kb
    best, kb = edge_norm(edges[0], w, 0, 1), 0
    stack = [(e, a, 0) for e in (0, 1) for a in (-1, 0)]
    while stack:
        e, a, k = stack.pop()
        S = 1 << k
        c = edges[e]
        corner = edge_norm(c, w, a, S)
        if corner << (2 * kb) < best << (2 * k):
            best, kb = corner, k
        # the target 16/17 * best/4^kb on the scale 4 S^2 of the cell bounds
        target = -((-64 * best << (2 * k)) // (17 << (2 * kb)))
        if edge_cell_bounds(c, w, a, S)[0] >= target:
            continue
        if k >= max_depth:
            raise CannotCertify(
                f"subdivision depth {max_depth} exhausted near cell {(e, a, k)}"
            )
        stack.append((e, 2 * a, k + 1))
        stack.append((e, 2 * a + 1, k + 1))
    return Fraction(16 * best, 17 << (2 * kb))


# --------------------------------------------------------------------------
# complete enumeration


@dataclass
class ConicCountResult:
    """`certified` is always True: an uncertified floor raises instead."""

    count: int
    points: list[HeightedPoint] | None
    u_bound: int
    min_norm: Fraction
    certified: bool
    layers: int


def _ceil_sqrt_ratio(num: int, den: int) -> int:
    """Smallest integer U with U^2 >= num/den (num, den > 0)."""
    return isqrt(num // den) + 1


def _pair_chunks_box(U: int, chunk: int):
    """Half box max(|u|,|v|) <= U owning one of each +-(u, v): the cell (0, 1),
    then the rows u = 1..U in strips of roughly `chunk` cells."""
    yield np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    width = 2 * U + 1
    rows = max(1, min(U, chunk // width))
    v_line = np.arange(-U, U + 1, dtype=np.int64)
    u0 = 1
    while u0 <= U:
        u1 = min(u0 + rows - 1, U)
        u = np.repeat(np.arange(u0, u1 + 1, dtype=np.int64), width)
        v = np.tile(v_line, u1 - u0 + 1)
        yield u, v
        u0 = u1 + 1


class _Collector:
    """Chunk pipeline: ownership filter, exact-content and height test, count."""

    def __init__(self, C: FibreConic, bound: int, u_cap: int, want_points: bool):
        self.C = C
        self.bound = bound
        self.count = 0
        self.points: list[HeightedPoint] | None = [] if want_points else None
        maxc = max(1, max(abs(c) for c in C.coeffs))
        # int64 safety for 3 summed coefficient*U^2 terms, the weighted norm,
        # and the bound*content comparison
        self.int64_ok = (
            3 * maxc * u_cap * u_cap * max(C.weight, 1) < 2**62
            and bound * abs(C.pi_det) < 2**62
        )

    def feed(self, u: np.ndarray, v: np.ndarray, g: int) -> None:
        """Count the pairs of layer g: coprime, owner of +-(u, v), content g."""
        half = (u > 0) | ((u == 0) & (v > 0))
        u, v = u[half], v[half]
        keep = np.gcd(u, v) == 1
        u, v = u[keep], v[keep]
        if not len(u):
            return
        if self.int64_ok:
            C = self.C
            uu = u * u
            uv = u * v
            vv = v * v
            q1 = np.abs(C.cxy * uu + C.cyz * uv)
            q2 = np.abs(C.cxx * uu + C.cxz * uv + C.czz * vv)
            q3 = np.abs(C.cxy * uv + C.cyz * vv)
            content = np.gcd(np.gcd(q1, q2), q3)
            hw = np.maximum(np.maximum(q1, C.weight * q2), q3)
            ok = (content == g) & (hw <= self.bound * g)
        else:
            ok = np.array(
                [self._accept_exact(a, b, g) for a, b in zip(u.tolist(), v.tolist())],
                dtype=bool,
            )
        u, v = u[ok], v[ok]
        self.count += len(u)
        if self.points is not None:
            self.points.extend(
                point_from_pair(self.C, a, b) for a, b in zip(u.tolist(), v.tolist())
            )

    def _accept_exact(self, u: int, v: int, g: int) -> bool:
        q1, q2, q3 = parameterize(self.C, u, v)
        c = gcd(gcd(abs(q1), abs(q2)), abs(q3))
        return c == g and max(abs(q1), self.C.weight * abs(q2), abs(q3)) <= self.bound * g


def _enumerate(C, bound, u1, layer_bounds, want_points, chunk=4_000_000):
    """Shared enumeration core: the base box (layer 1) plus per-divisor lattice
    boxes, each pair counted in the layer of its exact content."""
    u_cap = max([u1] + [ug for _, _, ug in layer_bounds])
    col = _Collector(C, bound, u_cap, want_points)
    for u, v in _pair_chunks_box(u1, chunk):
        col.feed(u, v, 1)
    for g, sols, ug in layer_bounds:
        for sigma, tau in sols:
            b1, b2 = class_lattice_basis(sigma, tau, g)
            for u, v in iter_lattice_points(b1, b2, ug, chunk=chunk):
                col.feed(u, v, g)
    points = sorted(col.points) if want_points else None
    return col.count, points, u_cap


def count_points(C: FibreConic, B, *, want_points: bool = False) -> ConicCountResult:
    """Exact number of rational points on C with height <= B.

    A base box covers all parameters giving points with unit content; for
    every divisor g of |det(Pi)| the parameters giving content-g points lie
    on index-g sublattices (one per solution class of q = 0 mod g), searched
    inside the correspondingly larger box.  Every candidate is verified by
    exact evaluation, so the floor `min_norm` only ever affects completeness,
    and it is certified (CannotCertify propagates; nothing is counted
    against an uncertified floor).

    Each point has one owner: the coprime pair (u, v) with u > 0, or u = 0
    and v > 0, counted only in the layer of the exact content g of q(u, v).
    That layer always reaches it, since max(|u|, |v|) <= sqrt(B*g/m) bounds
    the layer's box and its class mod g is one of the layer's classes.
    """
    bound = floor(B)
    if bound < 1:
        raise ValueError("height bound must be >= 1")
    m = certified_min_m(C)
    u1 = _ceil_sqrt_ratio(bound * m.denominator, m.numerator)
    layer_bounds = []
    fd = factor(abs(C.pi_det))
    for g, sols in divisor_solutions(C.coeffs, fd):
        if not sols:
            continue
        ug = _ceil_sqrt_ratio(bound * g * m.denominator, m.numerator)
        layer_bounds.append((g, sols, ug))
    count, points, u_cap = _enumerate(C, bound, u1, layer_bounds, want_points)
    return ConicCountResult(
        count=count,
        points=points,
        u_bound=u_cap,
        min_norm=m,
        certified=True,
        layers=len(layer_bounds),
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
