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

Each point is counted once, by the one parameter pair that owns it: of
+-(u, v) the owner has u > 0, or u = 0 and v > 0, and a coprime pair whose
image has content exactly g is counted only in the layer of g (the base box
is the layer g = 1).  So no pair is ever found twice and nothing is
deduplicated; the count is a running total.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, gcd, isqrt

import numpy as np

from .intervals import ParamIntervals
from .modsolve import class_lattice_basis, divisor_solutions, iter_lattice_points
from .numth import factor


class CannotCertify(Exception):
    """Branch-and-bound could not separate the boundary norm from zero."""


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


def _normalize_triple(x: int, y: int, z: int) -> tuple[int, int, int]:
    g = gcd(gcd(abs(x), abs(y)), abs(z))
    if g == 0:
        raise ValueError("zero vector has no projective normalization")
    x, y, z = x // g, y // g, z // g
    lead = x if x else (y if y else z)
    if lead < 0:
        x, y, z = -x, -y, -z
    return x, y, z


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
    x, y, z = _normalize_triple(*p)
    return max(abs(x), C.weight * abs(y), abs(z))


def point_from_pair(C: FibreConic, u: int, v: int) -> HeightedPoint:
    x, y, z = _normalize_triple(*parameterize(C, u, v))
    return HeightedPoint(x, y, z, max(abs(x), C.weight * abs(y), abs(z)))


# --------------------------------------------------------------------------
# certified floor for the parameterization norm on the unit box boundary


def _ceil_frac_times(f: Fraction, scale: int) -> int:
    n = f.numerator * scale
    d = f.denominator
    return -((-n) // d)


def _sampled_min_norm(par: ParamIntervals, bits: int) -> Fraction:
    """Smallest norm on the 2^bits grid of the two independent boundary edges."""
    G = 1 << bits
    m_hat = min(
        min(par.norm_at(G, a) for a in range(-G, G + 1)),
        min(par.norm_at(a, G) for a in range(-G, G + 1)),
    )
    if m_hat <= 0:
        raise CannotCertify("sampled boundary norm is zero")
    return Fraction(m_hat, 4**bits)


@functools.lru_cache(maxsize=None)
def _certified_min_m(C: FibreConic, max_depth: int, sample_bits: int) -> Fraction:
    par = ParamIntervals(C.cxx, C.cxy, C.cxz, C.cyz, C.czz, C.weight)
    m_best = _sampled_min_norm(par, sample_bits)
    tau = m_best / 2
    thresholds: dict[int, int] = {}
    # cells: (edge, a, k) is the segment [a/2^k, (a+1)/2^k] of the free
    # coordinate, fixed coordinate = 1; the (-1,*) images follow by symmetry
    stack = [(e, a, 0) for e in (0, 1) for a in (-1, 0)]
    while stack:
        e, a, k = stack.pop()
        s = 1 << k
        # a dip narrower than the phase-1 grid would make tau unprovable;
        # cell corners keep the candidate honest, and lowering tau never
        # invalidates a cell already accepted against a larger threshold
        corner = par.norm_at(s, a) if e == 0 else par.norm_at(a, s)
        if corner <= 0:
            raise CannotCertify("boundary norm vanishes at a corner")
        corner_val = Fraction(corner, 4**k)
        if corner_val < m_best:
            m_best = corner_val
            tau = m_best / 2
            thresholds.clear()
        T = thresholds.get(k)
        if T is None:
            T = thresholds[k] = _ceil_frac_times(tau, 4**k)
        if e == 0:
            lo = par.norm_lower((s, s), (a, a + 1))
        else:
            lo = par.norm_lower((a, a + 1), (s, s))
        if lo >= T:
            continue
        if k >= max_depth:
            raise CannotCertify(
                f"subdivision depth {max_depth} exhausted near cell {(e, a, k)}"
            )
        stack.append((e, 2 * a, k + 1))
        stack.append((e, 2 * a + 1, k + 1))
    return tau


def certified_min_m(C: FibreConic, max_depth: int = 44) -> Fraction:
    """Positive rational floor for max(|x|,w|y|,|z|) of q on max(|u|,|v|) = 1.

    Phase 1 samples the two independent boundary edges for a candidate
    minimum; phase 2 proves half that value by interval subdivision (the
    other two edges follow from q(-u,-v) = q(u,v)).
    """
    return _certified_min_m(C, max_depth, 6)


# --------------------------------------------------------------------------
# complete enumeration


@dataclass
class ConicCountResult:
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
    and it is certified.

    Each point has one owner: the coprime pair (u, v) with u > 0, or u = 0
    and v > 0, counted only in the layer of the exact content g of q(u, v).
    That layer always reaches it, since max(|u|, |v|) <= sqrt(B*g/m) bounds
    the layer's box and its class mod g is one of the layer's classes.
    """
    bound = floor(B)
    if bound < 1:
        raise ValueError("height bound must be >= 1")
    certified = True
    try:
        m = certified_min_m(C)
    except CannotCertify:
        certified = False
        m = _heuristic_min_m(C) / 4
    u1 = _ceil_sqrt_ratio(bound * m.denominator, m.numerator)
    layer_bounds = []
    fd = factor(abs(C.pi_det))
    for g, sols in divisor_solutions(C.coeffs, fd):
        if not sols:
            continue
        ug = _ceil_sqrt_ratio(bound * g * m.denominator, m.numerator)
        layer_bounds.append((g, sols, ug))
    count, points, u_cap = _enumerate(C, bound, u1, layer_bounds, want_points)
    if not certified:
        _heuristic_cross_check(C, bound, count)
    return ConicCountResult(
        count=count,
        points=points,
        u_bound=u_cap,
        min_norm=m,
        certified=certified,
        layers=len(layer_bounds),
    )


def _heuristic_min_m(C: FibreConic) -> Fraction:
    """Uncertified sampled boundary minimum (fallback when b&b gives up)."""
    par = ParamIntervals(C.cxx, C.cxy, C.cxz, C.cyz, C.czz, C.weight)
    return _sampled_min_norm(par, 9)


def _heuristic_cross_check(C: FibreConic, bound: int, count: int) -> None:
    if bound > 2000:
        return
    ref = count_points_reference(C, bound)
    if ref != count:
        raise ArithmeticError(
            f"uncertified enumeration disagrees with direct scan: {count} vs {ref}"
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
