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
    picard_rank,
    resultant,
)
from .numth import projective_normal


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
        if projective_normal(self.coords) != self.coords:
            raise ValueError("coordinates not primitive with first nonzero positive")

    @classmethod
    def from_raw(cls, x0: int, x1: int, x2: int, x3: int) -> "ProjPoint3":
        return cls(projective_normal((x0, x1, x2, x3)))

    @property
    def height(self) -> int:
        return max(abs(v) for v in self.coords)


@dataclass(frozen=True, order=True)
class FibreIndex:
    """Coprime pair (s, t), normalized to s > 0, or s = 0 and t = 1."""

    s: int
    t: int

    def __post_init__(self):
        if projective_normal((self.s, self.t)) != (self.s, self.t):
            raise ValueError("fibre index not coprime with first nonzero positive")

    @classmethod
    def from_raw(cls, s: int, t: int) -> "FibreIndex":
        if s == t == 0:
            raise ValueError("(0, 0) is not a fibre index")
        return cls(*projective_normal((s, t)))

    @property
    def height(self) -> int:
        return max(abs(self.s), abs(self.t))

    def __str__(self) -> str:
        return f"({self.s} : {self.t})"


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


def validate(xx, xz, zz, xy, yz) -> CubicSurfaceNF:
    """Check a coefficient tuple and assemble the surface record.

    Arguments are the five coefficient forms in the file-key order (the three
    degree-1 forms for the x^2, xz, z^2 conic monomials, then the degree-2
    forms for xy and yz).  Lists of integers are accepted in place of forms.
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
    fac = factor_over_q(disc)
    if not fac.is_separable():
        raise SeparabilityFailure("discriminant form has a repeated factor")
    return CubicSurfaceNF(
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


def _as_form(f, degree: int, key: str) -> BinaryForm:
    if not isinstance(f, BinaryForm):
        try:
            f = BinaryForm(tuple(f))
        except TypeError:
            raise ValueError(
                f"coefficient '{key}' must be a list of integers, got {f!r}"
            ) from None
    if f.degree != degree:
        raise ValueError(
            f"coefficient '{key}' must be a degree-{degree} form "
            f"({degree + 1} integers), got degree {f.degree}"
        )
    return f


def find_rational_singular_points(X: CubicSurfaceNF, bound: int) -> list[ProjPoint3]:
    """Primitive points of height <= bound where F and all four partials vanish."""
    a, d, f, b, e = X.cxx, X.cxz, X.czz, X.cxy, X.cyz
    return sorted(
        _cubic_zeros(
            bound,
            [
                (a, d, f, b, e, None),
                tuple(g.partial_s() for g in (a, d, f, b, e)) + (None,),
                tuple(g.partial_t() for g in (a, d, f, b, e)) + (None,),
                (None, None, None, a.scale(2), d, b),
                (None, None, None, d, f.scale(2), e),
            ],
        )
    )


def _cubic_zeros(bound: int, polys) -> list[ProjPoint3]:
    """Primitive normalized points of sup norm <= bound where every poly vanishes.

    A poly is six forms in (x0, x1), None for zero, giving the coefficients
    of x2^2, x2 x3, x3^2, x2, x3 and 1.  For each (x0, x1) it is evaluated in
    int64 over the whole (x2, x3) grid, after a bound on its terms has shown
    that no value can leave int64 (OverflowError otherwise).
    """
    r = np.arange(-bound, bound + 1, dtype=np.int64)
    X2, X3 = (g.ravel() for g in np.meshgrid(r, r, indexing="ij"))
    monos = (X2 * X2, X2 * X3, X3 * X3, X2, X3, 1)
    size = (bound * bound,) * 3 + (bound, bound, 1)
    # (x0, x1) with first nonzero entry positive, and the line x0 = x1 = 0
    pairs = [(0, 0)] + [(0, x1) for x1 in range(1, bound + 1)]
    pairs += [(x0, x1) for x0 in range(1, bound + 1) for x1 in r.tolist()]
    out = []
    for x0, x1 in pairs:
        hit = np.ones(len(X2), dtype=bool)
        for poly in polys:
            c = [0 if g is None else g(x0, x1) for g in poly]
            if sum(abs(ci) * n for ci, n in zip(c, size)) >= 2**63:
                raise OverflowError(
                    f"cubic values at ({x0}, {x1}) and height {bound} "
                    "do not fit in int64"
                )
            vals = sum(ci * m for ci, m in zip(c, monos) if ci)
            hit &= vals == 0
            if not hit.any():
                break
        else:
            for x2, x3 in zip(X2[hit].tolist(), X3[hit].tolist()):
                if (x0, x1) == (0, 0) and (x2 < 0 or (x2 == 0 and x3 <= 0)):
                    continue
                if gcd(gcd(x0, x1), gcd(x2, x3)) == 1:
                    out.append(ProjPoint3((x0, x1, x2, x3)))
    return out


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
    # c0 x2 + c1 x3 vanishes on the direction (c1, -c0)
    return tuple(sorted(projective_normal((g.coeffs[1], -g.coeffs[0])) for g in shared))


def singular_fibre_indices(X: CubicSurfaceNF) -> tuple[FibreIndex, ...]:
    """Fibres over rational zeros of the discriminant, i.e. its linear factors."""
    out = []
    for f, _mult in X.factorization.factors:
        if f.degree != 1:
            continue
        c0, c1 = f.coeffs
        idx = FibreIndex.from_raw(c1, -c0)
        assert X.disc(idx.s, idx.t) == 0
        out.append(idx)
    out.sort(key=lambda i: (i.height, i.s, i.t))
    return tuple(out)


MAX_FIBRE_HEIGHT = 1000  # ~1.2M fibres on the test surfaces


def fibre_height_cap(x) -> int:
    """int(x) for a fibre height x in [1, MAX_FIBRE_HEIGHT], the bound of a
    walk over the whole base; any other x, NaN and inf included, is refused."""
    if not 1 <= x <= MAX_FIBRE_HEIGHT:
        raise ValueError(f"fibre height bound {x} is outside [1, {MAX_FIBRE_HEIGHT}]")
    return int(x)


def domain_B(X: CubicSurfaceNF, x) -> Iterator[FibreIndex]:
    """Normalized fibre indices of height <= x <= MAX_FIBRE_HEIGHT with nonsingular fibre.

    Deterministic lexicographic order in (s, t).
    """
    cap = fibre_height_cap(x)
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
    by_fibre: dict[FibreIndex, int]


def brute_force_surface_count(
    X: CubicSurfaceNF, B, *, fibre_height_cap: float | None = None
) -> BruteForceResult:
    """Exhaustive search of primitive quadruples of height <= B on the surface.

    Every solution of F = 0 is assigned to its fibre; points over zeros of
    the discriminant are dropped, and fibre_height_cap drops points whose
    fibre index exceeds the cap (those reached through the section line can
    sit over indices far higher than B).
    """
    bound = int(B)
    if bound < 1:
        raise ValueError("height bound must be >= 1")
    by_fibre: dict[FibreIndex, int] = {}
    for p in _cubic_zeros(bound, [(X.cxx, X.cxz, X.czz, X.cxy, X.cyz, None)]):
        try:
            idx = fibration_index(X, p)
        except ValueError:
            # undefined only at surface singular points on the section
            # line; those belong to no nonsingular fibre
            continue
        if X.disc(idx.s, idx.t) == 0:
            continue
        if fibre_height_cap is not None and idx.height > fibre_height_cap:
            continue
        by_fibre[idx] = by_fibre.get(idx, 0) + 1
    return BruteForceResult(sum(by_fibre.values()), by_fibre)


# --------------------------------------------------------------------------
# JSON I/O


def surface_from_dict(data: dict) -> CubicSurfaceNF:
    """The surface of a decoded surface file: each key a list of JSON integers."""
    keys = ("a", "d", "f", "b", "e")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(f"surface file missing keys: {', '.join(missing)}")
    extra = [k for k in data if k not in keys]
    if extra:
        raise ValueError(f"surface file has unknown keys: {', '.join(extra)}")
    return validate(*(data[k] for k in keys))


def load_surface(path: str) -> CubicSurfaceNF:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("surface file must contain a JSON object")
    return surface_from_dict(data)
