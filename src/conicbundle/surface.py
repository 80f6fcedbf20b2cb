"""Cubic surfaces fibred into conics: validation, the fibration, brute force.

The surface lives in P^3 with coordinates (x0 : x1 : x2 : x3) and is cut out
by a cubic of the special shape

    F = cxx(x0,x1) x2^2 + cxz(x0,x1) x2 x3 + czz(x0,x1) x3^2
        + cxy(x0,x1) x2 + cyz(x0,x1) x3

with cxx, cxz, czz linear and cxy, cyz quadratic binary forms.  Every fibre
of the projection to (x0 : x1) is a plane conic whose coefficients are the
five forms evaluated at the fibre index; the field names say which conic
monomial each form multiplies.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator

import numpy as np

from .conic import FibreConic
from .forms import (
    BinaryForm,
    FactorizationQ,
    discriminant_quintic,
    factor_over_q,
    form_from_list,
    is_separable,
    picard_rank,
    resultant,
)


class SurfaceValidationError(ValueError):
    """A structural requirement on the input surface failed."""


class SeparabilityFailure(SurfaceValidationError):
    """The degree-5 discriminant form has a repeated factor."""


class ZeroResultant(SurfaceValidationError):
    """The two quadratic coefficient forms share a root."""


class DegenerateForm(SurfaceValidationError):
    """A coefficient form is zero where a nonzero one is required."""


class SingularFibre(ValueError):
    """Requested fibre lies over a zero of the discriminant."""


# --------------------------------------------------------------------------
# ground field constants (the rationals)

# (1/2) * 2^r1 (2 pi)^r2 h R / (|mu| sqrt|disc|) for Q: one real place, no
# complex places, class number and regulator 1, units {+-1}, discriminant 1
PEYRE_PREFACTOR = Fraction(1, 2)


def pi_bracket() -> tuple[Fraction, Fraction]:
    """Rational interval containing pi (float value padded past 1 ulp)."""
    import math

    f = Fraction(math.pi)
    eps = Fraction(1, 2**48)
    return f - eps, f + eps


def zeta2_bracket() -> tuple[Fraction, Fraction]:
    """Exact rational bracket around zeta(2) = pi^2/6."""
    lo, hi = pi_bracket()
    return lo * lo / 6, hi * hi / 6


# --------------------------------------------------------------------------
# points and fibre indices


@dataclass(frozen=True, order=True)
class ProjPoint3:
    """Primitive, sign-normalized integer quadruple in P^3."""

    coords: tuple[int, int, int, int]

    def __post_init__(self):
        c = self.coords
        if all(v == 0 for v in c):
            raise ValueError("zero vector is not projective")
        g = 0
        for v in c:
            g = gcd(g, abs(v))
        if g != 1:
            raise ValueError("coordinates are not primitive")
        lead = next(v for v in c if v)
        if lead < 0:
            raise ValueError("sign normalization: first nonzero must be positive")

    @classmethod
    def from_raw(cls, x0: int, x1: int, x2: int, x3: int) -> "ProjPoint3":
        g = 0
        for v in (x0, x1, x2, x3):
            g = gcd(g, abs(v))
        if g == 0:
            raise ValueError("zero vector is not projective")
        c = (x0 // g, x1 // g, x2 // g, x3 // g)
        lead = next(v for v in c if v)
        if lead < 0:
            c = tuple(-v for v in c)
        return cls(c)

    @property
    def height(self) -> int:
        return max(abs(v) for v in self.coords)


@dataclass(frozen=True, order=True)
class FibreIndex:
    """Coprime pair (s, t), normalized to s > 0, or s = 0 and t = 1."""

    s: int
    t: int

    def __post_init__(self):
        if gcd(self.s, self.t) != 1:
            raise ValueError("fibre index must be a coprime pair")
        if not (self.s > 0 or (self.s == 0 and self.t == 1)):
            raise ValueError("fibre index not in normalized form")

    @classmethod
    def from_raw(cls, s: int, t: int) -> "FibreIndex":
        g = gcd(abs(s), abs(t))
        if g == 0:
            raise ValueError("(0, 0) is not a fibre index")
        s, t = s // g, t // g
        if s < 0 or (s == 0 and t < 0):
            s, t = -s, -t
        return cls(s, t)

    @property
    def height(self) -> int:
        return max(abs(self.s), abs(self.t))


# --------------------------------------------------------------------------
# the surface


@dataclass(frozen=True)
class CubicSurfaceNF:
    cxx: BinaryForm
    cxz: BinaryForm
    czz: BinaryForm
    cxy: BinaryForm
    cyz: BinaryForm
    disc: BinaryForm
    w0: int
    factorization: FactorizationQ
    rho: int

    @property
    def forms(self) -> tuple[BinaryForm, ...]:
        return (self.cxx, self.cxy, self.cxz, self.cyz, self.czz)

    def to_dict(self) -> dict:
        return {
            "a": list(self.cxx.coeffs),
            "d": list(self.cxz.coeffs),
            "f": list(self.czz.coeffs),
            "b": list(self.cxy.coeffs),
            "e": list(self.cyz.coeffs),
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def surface_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def evaluate(self, x0: int, x1: int, x2: int, x3: int) -> int:
        return (
            self.cxx(x0, x1) * x2 * x2
            + self.cxz(x0, x1) * x2 * x3
            + self.czz(x0, x1) * x3 * x3
            + self.cxy(x0, x1) * x2
            + self.cyz(x0, x1) * x3
        )


def validate(
    xx, xz, zz, xy, yz, *, singular_point_height: int = 0
) -> CubicSurfaceNF:
    """Check a coefficient tuple and assemble the surface record.

    Arguments are the five coefficient forms in the file-key order (the three
    degree-1 forms for the x^2, xz, z^2 conic monomials, then the degree-2
    forms for xy and yz).  Lists of integers are accepted in place of forms.
    With singular_point_height > 0, additionally search for rational singular
    points up to that height and reject the surface if one exists.
    """
    cxx, cxz, czz = (_as_form(f, 1, n) for f, n in ((xx, "a"), (xz, "d"), (zz, "f")))
    cxy, cyz = (_as_form(f, 2, n) for f, n in ((xy, "b"), (yz, "e")))
    disc = discriminant_quintic(cxx, cxy, cxz, cyz, czz)
    if disc.is_zero():
        zero_names = [
            n
            for n, f in (("a", cxx), ("b", cxy), ("d", cxz), ("e", cyz), ("f", czz))
            if f.is_zero()
        ]
        detail = f" (zero coefficient forms: {', '.join(zero_names)})" if zero_names else ""
        raise DegenerateForm("discriminant form vanishes identically" + detail)
    w0 = resultant(cxy, cyz)
    if w0 == 0:
        raise ZeroResultant("quadratic coefficient forms share a root")
    if not is_separable(disc):
        raise SeparabilityFailure("discriminant form has a repeated factor")
    fac = factor_over_q(disc)
    surface = CubicSurfaceNF(
        cxx=cxx,
        cxz=cxz,
        czz=czz,
        cxy=cxy,
        cyz=cyz,
        disc=disc,
        w0=w0,
        factorization=fac,
        rho=picard_rank(fac),
    )
    if singular_point_height > 0:
        bad = find_rational_singular_points(surface, singular_point_height)
        if bad:
            raise SurfaceValidationError(
                f"surface is singular at rational point {bad[0].coords}"
            )
    return surface


def _as_form(f, degree: int, key: str) -> BinaryForm:
    if not isinstance(f, BinaryForm):
        f = form_from_list(list(f))
    if f.degree != degree:
        raise ValueError(
            f"coefficient '{key}' must be a degree-{degree} form "
            f"({degree + 1} integers), got degree {f.degree}"
        )
    return f


def find_rational_singular_points(X: CubicSurfaceNF, bound: int) -> list[ProjPoint3]:
    """Primitive points of height <= bound where F and all four partials vanish."""
    a, d, f, b, e = X.cxx, X.cxz, X.czz, X.cxy, X.cyz
    das, dat = a.partial_s(), a.partial_t()
    dds, ddt = d.partial_s(), d.partial_t()
    dfs, dft = f.partial_s(), f.partial_t()
    dbs, dbt = b.partial_s(), b.partial_t()
    des, det_ = e.partial_s(), e.partial_t()
    out = []
    r = range(-bound, bound + 1)
    x23 = np.array([(x2, x3) for x2 in r for x3 in r], dtype=np.int64)
    X2, X3 = x23[:, 0], x23[:, 1]
    X2S, X2X3, X3S = X2 * X2, X2 * X3, X3 * X3
    for x0 in range(0, bound + 1):
        for x1 in r:
            av, dv, fv, bv, ev = (g(x0, x1) for g in (a, d, f, b, e))
            F = av * X2S + dv * X2X3 + fv * X3S + bv * X2 + ev * X3
            P0 = (
                das(x0, x1) * X2S + dds(x0, x1) * X2X3 + dfs(x0, x1) * X3S
                + dbs(x0, x1) * X2 + des(x0, x1) * X3
            )
            P1 = (
                dat(x0, x1) * X2S + ddt(x0, x1) * X2X3 + dft(x0, x1) * X3S
                + dbt(x0, x1) * X2 + det_(x0, x1) * X3
            )
            P2 = 2 * av * X2 + dv * X3 + bv
            P3 = dv * X2 + 2 * fv * X3 + ev
            hit = (F == 0) & (P0 == 0) & (P1 == 0) & (P2 == 0) & (P3 == 0)
            for x2, x3 in x23[hit].tolist():
                if x0 == 0 and x1 == 0 and x2 == 0 and x3 == 0:
                    continue
                p = ProjPoint3.from_raw(x0, x1, int(x2), int(x3))
                if p.coords == (x0, x1, int(x2), int(x3)) and p not in out:
                    out.append(p)
    return sorted(out)


# --------------------------------------------------------------------------
# fibration


def fibre_conic(X: CubicSurfaceNF, idx: FibreIndex) -> FibreConic:
    """Conic over the fibre index, weighted by max(|s|, |t|)."""
    s, t = idx.s, idx.t
    dval = X.disc(s, t)
    if dval == 0:
        raise SingularFibre(f"fibre ({s}:{t}) is singular")
    return FibreConic(
        cxx=X.cxx(s, t),
        cxy=X.cxy(s, t),
        cxz=X.cxz(s, t),
        cyz=X.cyz(s, t),
        czz=X.czz(s, t),
        weight=idx.height,
    )


def phi_map(idx: FibreIndex, p) -> ProjPoint3:
    """Plane point (x : y : z) into the fibre plane: (s y : t y : x : z)."""
    x, y, z = p
    if x == 0 and y == 0 and z == 0:
        raise ValueError("zero vector is not projective")
    return ProjPoint3.from_raw(idx.s * y, idx.t * y, x, z)


def fibration_index(X: CubicSurfaceNF, p: ProjPoint3) -> FibreIndex:
    """Fibre containing a surface point.

    Generically (x0 : x1); on the line x0 = x1 = 0 the ratio is recovered
    from the two quadratics obtained by splitting each coefficient form into
    its s-part and t-part (the plane through the point determines the fibre).
    """
    x0, x1, x2, x3 = p.coords
    if (x0, x1) != (0, 0):
        return FibreIndex.from_raw(x0, x1)
    a, d, f = X.cxx.coeffs, X.cxz.coeffs, X.czz.coeffs
    q0 = a[0] * x2 * x2 + d[0] * x2 * x3 + f[0] * x3 * x3
    q1 = -(a[1] * x2 * x2 + d[1] * x2 * x3 + f[1] * x3 * x3)
    if q0 == 0 and q1 == 0:
        raise ValueError(
            "fibration undefined at this point (base point on the section line)"
        )
    return FibreIndex.from_raw(q1, q0)


def section_base_directions(X: CubicSurfaceNF) -> tuple[tuple[int, int], ...]:
    """Primitive (x2, x3) directions on the section line shared by all fibres.

    The s-part and t-part quadratics of the coefficient forms vanish together
    exactly where the fibration is undefined; each rational common root is a
    surface point lying on every fibre conic, so a fibre-by-fibre sum counts
    it once per fibre and needs the correction.
    """
    a, d, f = X.cxx.coeffs, X.cxz.coeffs, X.czz.coeffs
    q0 = BinaryForm((a[0], d[0], f[0]))
    q1 = BinaryForm((a[1], d[1], f[1]))
    if q0.is_zero() and q1.is_zero():
        # would force an identically zero discriminant, which validation rejects
        raise ValueError("fibration undefined on the whole section line")
    if q0.is_zero() or q1.is_zero():
        shared = [g for g, _ in factor_over_q(q1 if q0.is_zero() else q0).factors
                  if g.degree == 1]
    else:
        lin1 = {g.coeffs for g, _ in factor_over_q(q1).factors if g.degree == 1}
        shared = [g for g, _ in factor_over_q(q0).factors
                  if g.degree == 1 and g.coeffs in lin1]
    out = []
    for g in shared:
        c0, c1 = g.coeffs
        x2, x3 = c1, -c0
        if x2 < 0 or (x2 == 0 and x3 < 0):
            x2, x3 = -x2, -x3
        out.append((x2, x3))
    return tuple(sorted(out))


def domain_B(X: CubicSurfaceNF, x) -> Iterator[FibreIndex]:
    """Normalized fibre indices of height <= x with nonsingular fibre.

    Deterministic lexicographic order in (s, t).
    """
    if x < 1:
        raise ValueError("height bound must be >= 1")
    cap = int(x)
    if X.disc(0, 1) != 0:
        yield FibreIndex(0, 1)
    for s in range(1, cap + 1):
        for t in range(-cap, cap + 1):
            if gcd(s, t) != 1:
                continue
            if X.disc(s, t) != 0:
                yield FibreIndex(s, t)


# --------------------------------------------------------------------------
# ground truth on the surface


@dataclass
class BruteForceResult:
    count: int
    points: list[ProjPoint3]
    by_fibre: dict[FibreIndex, int]
    excluded_singular: int
    excluded_high_fibre: int


def brute_force_surface_count(
    X: CubicSurfaceNF,
    B,
    *,
    restrict_to_nonsingular_fibres: bool = True,
    fibre_height_cap: int | None = None,
) -> BruteForceResult:
    """Exhaustive search of primitive quadruples of height <= B on the surface.

    Every solution of F = 0 is assigned to its fibre; points over zeros of
    the discriminant are dropped when restrict_to_nonsingular_fibres is set,
    and fibre_height_cap drops points whose fibre index exceeds the cap
    (those reached through the section line can sit over indices far higher
    than B).
    """
    bound = int(B)
    if bound < 1:
        raise ValueError("height bound must be >= 1")
    pts = _raw_surface_points(X, bound)
    by_fibre: dict[FibreIndex, int] = {}
    kept: list[ProjPoint3] = []
    excluded_singular = 0
    excluded_high = 0
    for p in pts:
        try:
            idx = fibration_index(X, p)
        except ValueError:
            # undefined only at surface singular points on the section
            # line; those belong to no nonsingular fibre
            if restrict_to_nonsingular_fibres:
                excluded_singular += 1
                continue
            raise
        if restrict_to_nonsingular_fibres and X.disc(idx.s, idx.t) == 0:
            excluded_singular += 1
            continue
        if fibre_height_cap is not None and idx.height > fibre_height_cap:
            excluded_high += 1
            continue
        kept.append(p)
        by_fibre[idx] = by_fibre.get(idx, 0) + 1
    kept.sort()
    return BruteForceResult(
        count=len(kept),
        points=kept,
        by_fibre=by_fibre,
        excluded_singular=excluded_singular,
        excluded_high_fibre=excluded_high,
    )


def _raw_surface_points(X: CubicSurfaceNF, bound: int) -> list[ProjPoint3]:
    """All primitive normalized quadruples with F = 0 and sup norm <= bound."""
    r = np.arange(-bound, bound + 1, dtype=np.int64)
    X2, X3 = np.meshgrid(r, r, indexing="ij")
    X2, X3 = X2.ravel(), X3.ravel()
    X2S, X2X3, X3S = X2 * X2, X2 * X3, X3 * X3
    out: list[ProjPoint3] = []

    def sweep(x0: int, x1: int):
        av, dv, fv = X.cxx(x0, x1), X.cxz(x0, x1), X.czz(x0, x1)
        bv, ev = X.cxy(x0, x1), X.cyz(x0, x1)
        F = av * X2S + dv * X2X3 + fv * X3S + bv * X2 + ev * X3
        hit = np.flatnonzero(F == 0)
        for i in hit.tolist():
            x2, x3 = int(X2[i]), int(X3[i])
            g = gcd(gcd(abs(x0), abs(x1)), gcd(abs(x2), abs(x3)))
            if g != 1:
                continue
            out.append(ProjPoint3((x0, x1, x2, x3)))

    # normalized reps only: first nonzero coordinate positive
    for x0 in range(1, bound + 1):
        for x1 in range(-bound, bound + 1):
            sweep(x0, x1)
    for x1 in range(1, bound + 1):
        sweep(0, x1)
    # the line x0 = x1 = 0 lies on the surface: its reps are (0,0,x2,x3)
    for x2 in range(0, bound + 1):
        for x3 in range(-bound, bound + 1):
            if x2 == 0 and x3 <= 0:
                continue
            if gcd(x2, abs(x3)) != 1:
                continue
            out.append(ProjPoint3((0, 0, x2, x3)))
    return out


# --------------------------------------------------------------------------
# JSON I/O


def surface_from_dict(data: dict, **kw) -> CubicSurfaceNF:
    missing = [k for k in ("a", "d", "f", "b", "e") if k not in data]
    if missing:
        raise ValueError(f"surface file missing keys: {', '.join(missing)}")
    extra = [k for k in data if k not in ("a", "d", "f", "b", "e")]
    if extra:
        raise ValueError(f"surface file has unknown keys: {', '.join(extra)}")
    return validate(data["a"], data["d"], data["f"], data["b"], data["e"], **kw)


def load_surface(path: str, **kw) -> CubicSurfaceNF:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("surface file must contain a JSON object")
    return surface_from_dict(data, **kw)
