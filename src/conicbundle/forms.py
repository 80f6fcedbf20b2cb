"""Integer binary forms in two variables (s, t) and exact form algebra.

Coefficient convention: ``coeffs[i]`` multiplies ``s**(d-i) * t**i`` where
``d = len(coeffs) - 1``.  All arithmetic is exact over Z.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from . import zpoly
from .numth import projective_normal


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous integer polynomial in (s, t), descending powers of s."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a binary form needs at least one coefficient")
        # bool is an Integral, and int() would truncate 1.5 or parse "10"
        if any(isinstance(c, bool) or not isinstance(c, Integral) for c in self.coeffs):
            raise TypeError(f"binary form coefficients must be integers, got {self.coeffs!r}")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __call__(self, s: int, t: int) -> int:
        return self.evaluate(s, t)

    def evaluate(self, s: int, t: int) -> int:
        # Horner against s, multiplying in one power of t per step:
        # ((c0*s + c1*t)*s + c2*t^2)*s + ...  ==  sum c_i s^(d-i) t^i
        acc = 0
        ti = 1
        for c in self.coeffs:
            acc = acc * s + c * ti
            ti *= t
        return acc

    def add(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in form addition")
        return BinaryForm(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def sub(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in form subtraction")
        return BinaryForm(tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def mul(self, other: "BinaryForm") -> "BinaryForm":
        # a convolution: the same in either coefficient order
        return BinaryForm(zpoly.z_mul(self.coeffs, other.coeffs))

    def scale(self, k: int) -> "BinaryForm":
        return BinaryForm(tuple(k * c for c in self.coeffs))

    def primitive(self) -> tuple[int, "BinaryForm"]:
        """(signed content, primitive form with positive first nonzero coefficient).

        Raises ValueError on the zero form, as projective_normal does.
        """
        prim = projective_normal(self.coeffs)
        i = next(i for i, v in enumerate(prim) if v)
        return self.coeffs[i] // prim[i], BinaryForm(prim)

    def dehomogenized(self) -> tuple[int, ...]:
        """Coefficients of f(x, 1), ascending in x.  Trailing zeros trimmed."""
        return zpoly.trim(tuple(reversed(self.coeffs)))

    def __str__(self) -> str:
        """Leading term first, e.g. ``s^4*t - 2*s^3*t^2 + 3``; ``0`` if zero."""
        d = self.degree
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = []
            if d - i:
                mono.append("s" if d - i == 1 else f"s^{d - i}")
            if i:
                mono.append("t" if i == 1 else f"t^{i}")
            body = "*".join(mono)
            mag = abs(c)
            if not body:
                term = str(mag)
            elif mag == 1:
                term = body
            else:
                term = f"{mag}*{body}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(f: BinaryForm, g: BinaryForm) -> int:
    """Resultant with respect to the declared degrees (projective convention)."""
    m, n = f.degree, g.degree
    if m == 0 and n == 0:
        return 1
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    rows = []
    for shift in range(n):
        rows.append([0] * shift + list(f.coeffs) + [0] * (size - m - 1 - shift))
    for shift in range(m):
        rows.append([0] * shift + list(g.coeffs) + [0] * (size - n - 1 - shift))
    return _bareiss_det(rows)


def discriminant_quintic(cxx: BinaryForm, cxy: BinaryForm, cxz: BinaryForm,
                         cyz: BinaryForm, czz: BinaryForm) -> BinaryForm:
    """Degree-5 fibration discriminant: cxx*cyz^2 - cxy*cxz*cyz + czz*cxy^2.

    Arguments are the five coefficient forms of the bundle, named by their
    role in the fibre conic Q = cxx*x^2 + cxy*xy + cxz*xz + cyz*yz + czz*z^2.
    The three quadratic-coefficient forms must be linear and the two linear-
    coefficient forms quadratic in (s, t).
    """
    if not (cxx.degree == cxz.degree == czz.degree == 1):
        raise ValueError("x^2, xz, z^2 coefficient forms must be linear")
    if not (cxy.degree == cyz.degree == 2):
        raise ValueError("x and z coefficient forms must be quadratic")
    return cxx.mul(cyz.mul(cyz)).sub(cxy.mul(cxz).mul(cyz)).add(czz.mul(cxy.mul(cxy)))


@dataclass(frozen=True)
class FactorizationQ:
    """Factorization of a binary form over Q into primitive integer factors."""

    content: int                                   # signed integer content
    factors: tuple[tuple[BinaryForm, int], ...]    # (irreducible primitive form, mult)

    @property
    def distinct_count(self) -> int:
        return len(self.factors)

    def is_separable(self) -> bool:
        # Q is perfect, so squarefree over Q means separable over Qbar.
        return all(m == 1 for _, m in self.factors)

    def recompose(self) -> BinaryForm:
        out = BinaryForm((self.content,))
        for f, m in self.factors:
            for _ in range(m):
                out = out.mul(f)
        return out


def factor_over_q(form: BinaryForm) -> FactorizationQ:
    """Factor a nonzero binary form into content times primitive irreducibles.

    z_factor factors f(x, 1); the power of t is the degree f(x, 1) lost, and
    is returned as the form (0, 1).  Every other factor has a positive
    leading s coefficient.  The recomposition is checked exactly.
    """
    if form.is_zero():
        raise ValueError("cannot factor the zero form")
    asc = form.dehomogenized()  # univariate in x = s/t, ascending
    k = form.degree - zpoly.deg(asc)
    content, parts = zpoly.z_factor(asc)
    factors: list[tuple[BinaryForm, int]] = []
    if k:
        factors.append((BinaryForm((0, 1)), k))
    for g, mult in parts:
        factors.append((BinaryForm(tuple(reversed(g))), mult))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    result = FactorizationQ(content=content, factors=tuple(factors))
    assert result.recompose().coeffs == form.coeffs, "factor product mismatch"
    return result


def picard_rank(fac: FactorizationQ) -> int:
    """2 plus the number of Q-irreducible factors of the fibration discriminant."""
    return 2 + fac.distinct_count
