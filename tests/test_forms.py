import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st
from sympy.abc import s as S, t as T, x as X

from conicbundle.forms import (
    BinaryForm,
    FactorizationQ,
    factor_over_q,
    picard_rank,
    resultant,
)
from conicbundle.zpoly import z_factor, z_mul


def _to_sympy(form):
    d = form.degree
    return sum(int(c) * S ** (d - i) * T**i for i, c in enumerate(form.coeffs))


def test_binary_form_evaluation_convention():
    # coeffs are leading-first: coeffs[i] multiplies s^(d-i) t^i
    f = BinaryForm((2, -3, 5))
    assert f(1, 0) == 2
    assert f(0, 1) == 5
    assert f(1, 1) == 4
    assert f(2, -1) == 2 * 4 + (-3) * (-2) + 5


def test_binary_form_str():
    assert str(BinaryForm((1, -2, -1, 2, 0))) == "s^4 - 2*s^3*t - s^2*t^2 + 2*s*t^3"
    assert str(BinaryForm((0, -1, 0, 3))) == "-s^2*t + 3*t^3"
    assert str(BinaryForm((-7,))) == "-7"
    assert str(BinaryForm((0, 0))) == "0"


def test_content_and_primitive():
    f = BinaryForm((6, -9, 12))
    assert f.content() == 3
    sign_content, prim = f.primitive()
    assert sign_content in (3, -3)
    assert [c * sign_content for c in prim.coeffs] == list(f.coeffs)


def test_dehomogenized_ascending():
    f = BinaryForm((1, -1, 2, -2, 0, -1))
    # f(x, 1) with ascending coefficient order, trailing zeros trimmed
    assert f.dehomogenized() == (-1, 0, -2, 2, -1, 1)


def _sylvester_rows(a, b):
    m, n = a.degree, b.degree
    size = m + n
    rows = [[0] * k + list(a.coeffs) + [0] * (size - m - 1 - k) for k in range(n)]
    rows += [[0] * k + list(b.coeffs) + [0] * (size - n - 1 - k) for k in range(m)]
    return rows


@pytest.mark.parametrize("seed", range(5))
def test_resultant_matches_sympy(seed):
    rng = random.Random(seed)
    for _ in range(10):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        a = BinaryForm(tuple(rng.randint(-8, 8) for _ in range(da + 1)))
        b = BinaryForm(tuple(rng.randint(-8, 8) for _ in range(db + 1)))
        if a.is_zero() or b.is_zero():
            continue
        got = resultant(a, b)
        # exact rational elimination cross-checked against an unrelated
        # determinant algorithm on the same matrix
        assert got == sympy.Matrix(_sylvester_rows(a, b)).det()
        if a.coeffs[0] == 0 or b.coeffs[0] == 0:
            continue  # degree drops at t = 1, dehomogenized oracle diverges
        want = sympy.resultant(
            sympy.Poly(_to_sympy(a).subs(T, 1), S),
            sympy.Poly(_to_sympy(b).subs(T, 1), S),
            S,
        )
        # sympy orders its arguments by degree internally, which can flip
        # the sign when deg(a)*deg(b) is odd; magnitude must still agree
        assert abs(got) == abs(want)


def test_resultant_sign_convention():
    # lc(f)^deg(g) * prod of g over the roots of f, both worked by hand:
    # f = -6s has root 0, so (-6)^3 * g(0) = -216 * 7
    assert resultant(BinaryForm((-6, 0)), BinaryForm((-5, 7, 6, 7))) == -1512
    # f = 4s + 5 has root -5/4 and g(-5/4) = 51/64, so 4^3 * 51/64 = 51
    assert resultant(BinaryForm((4, 5)), BinaryForm((-3, 3, 3, -6))) == 51


def test_resultant_shared_root_is_zero():
    a = BinaryForm((1, -1))          # s - t
    b = BinaryForm((1, 0, -1))       # s^2 - t^2
    assert resultant(a, b) == 0


def test_resultant_bilinear_in_scaling():
    a = BinaryForm((2, 1))
    b = BinaryForm((1, 1, 3))
    r = resultant(a, b)
    assert resultant(BinaryForm((4, 2)), b) == 2 ** b.degree * r


def test_is_separable():
    assert factor_over_q(BinaryForm((1, 0, -1))).is_separable()      # distinct roots
    assert not factor_over_q(BinaryForm((1, -2, 1))).is_separable()  # (s-t)^2
    assert not factor_over_q(BinaryForm((1, 0, 0))).is_separable()   # s^2 t^0 .. s^2
    assert factor_over_q(BinaryForm((1, 1))).is_separable()


def test_factor_over_q_s1_quintic_irreducible():
    f = BinaryForm((1, -1, 2, -2, 0, -1))
    fac = factor_over_q(f)
    assert fac.content == 1
    assert fac.distinct_count == 1
    assert fac.factors[0][1] == 1
    assert fac.recompose() == f


def test_factor_over_q_split_quintic():
    # s t (s-t) (s+t) (s-2t)
    f = BinaryForm((0, 1, -2, -1, 2, 0))
    fac = factor_over_q(f)
    assert fac.content == 1
    assert fac.distinct_count == 5
    got = sorted(tuple(p.coeffs) for p, _ in fac.factors)
    assert got == [(0, 1), (1, -2), (1, -1), (1, 0), (1, 1)]
    assert fac.is_separable()


def test_factor_over_q_content_and_multiplicity():
    # 12 (s-t)^2 (s^2+t^2)
    a = BinaryForm((1, -2, 1))
    b = BinaryForm((1, 0, 1))
    prod_coeffs = [0] * 5
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            prod_coeffs[i + j] += 12 * ca * cb
    f = BinaryForm(tuple(prod_coeffs))
    fac = factor_over_q(f)
    assert fac.content == 12
    by_mult = {tuple(p.coeffs): m for p, m in fac.factors}
    assert by_mult == {(1, -1): 2, (1, 0, 1): 1}
    assert not fac.is_separable()
    assert fac.recompose() == f


@pytest.mark.parametrize("seed", range(4))
def test_factor_over_q_random_vs_sympy(seed):
    rng = random.Random(100 + seed)
    for _ in range(8):
        coeffs = tuple(rng.randint(-5, 5) for _ in range(rng.randint(3, 6)))
        f = BinaryForm(coeffs)
        if f.is_zero():
            continue
        fac = factor_over_q(f)
        assert fac.recompose() == f
        # distinct primitive factors counted by sympy on the (s,t) polynomial
        expr = sympy.factor_list(_to_sympy(f), S, T)
        nontrivial = [p for p, _ in expr[1] if p.free_symbols]
        assert fac.distinct_count == len(nontrivial)


def _signed(content, factors):
    """{factor: mult} with each factor's first nonzero coefficient positive,
    and the content carrying the signs taken out."""
    out = {}
    for g, m in factors:
        g = tuple(g)
        if next(c for c in g if c) < 0:
            g = tuple(-c for c in g)
            content *= (-1) ** m
        out[g] = out.get(g, 0) + m
    return content, out


def _sympy_form_factors(form):
    """factor_list of the form in (s, t), factors as descending coefficient tuples."""
    content, parts = sympy.factor_list(_to_sympy(form), S, T)
    factors = []
    for g, m in parts:
        g = sympy.Poly(g, S, T)
        d = g.total_degree()
        factors.append(([int(g.coeff_monomial(S ** (d - i) * T**i)) for i in range(d + 1)], m))
    return _signed(int(content), factors)


def _sympy_poly_factors(asc):
    """factor_list of the ascending integer polynomial in x, factors descending."""
    content, parts = sympy.factor_list(sum(c * X**i for i, c in enumerate(asc)), X)
    factors = [([int(c) for c in sympy.Poly(g, X).all_coeffs()], m) for g, m in parts]
    return _signed(int(content), factors)


_coeffs = st.integers(-10**30, 10**30)
_nonzero = st.integers(1, 10**30) | st.integers(-10**30, -1)


def _primitive_factor(low, lead):
    g = gcd(*low, lead)
    return tuple(c // g for c in (*low, lead))


# ascending coefficients of a primitive polynomial of degree 1-3
_factors = st.builds(
    _primitive_factor,
    st.integers(1, 3).flatmap(lambda d: st.lists(_coeffs, min_size=d, max_size=d)),
    _nonzero,
)


@given(
    factors=st.lists(st.tuples(_factors, st.integers(1, 3)), min_size=1, max_size=4),
    s_power=st.integers(0, 3),
    t_power=st.integers(0, 3),
    content=_nonzero,
)
@example(factors=[((-1, 1), 2)], s_power=3, t_power=0, content=1)   # x^3 (x-1)^2
@example(factors=[((1, 0, 1), 2)], s_power=0, t_power=0, content=1)  # (x^2+1)^2
@example(factors=[((1, 1), 1), ((2, 0, 3), 1)], s_power=2, t_power=2, content=-6)
def test_factoring_over_q_matches_sympy(factors, s_power, t_power, content):
    # f(x) = content x^s_power prod g^m; the form is t^t_power times its
    # homogenization, so s_power is the power of s and of x alike
    asc = (0,) * s_power + (content,)
    for g, m in factors:
        for _ in range(m):
            asc = z_mul(asc, g)
    form = BinaryForm((0,) * t_power + tuple(reversed(asc)))

    c, parts = z_factor(asc)
    assert _signed(c, [(g[::-1], m) for g, m in parts]) == _sympy_poly_factors(asc)

    fac = factor_over_q(form)
    assert _signed(fac.content, [(g.coeffs, m) for g, m in fac.factors]) == (
        _sympy_form_factors(form)
    )


def test_picard_rank():
    assert picard_rank(factor_over_q(BinaryForm((1, -1, 2, -2, 0, -1)))) == 3
    assert picard_rank(factor_over_q(BinaryForm((0, 1, -2, -1, 2, 0)))) == 7
