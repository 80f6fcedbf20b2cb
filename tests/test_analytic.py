import dataclasses
import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conicbundle import analytic, numth
from conicbundle.analytic import (
    G_sum,
    MultiplicativeFn,
    delta_factor_data,
    final_lemma_sum,
    projective_root_counts,
    projective_roots_mod_p,
    rho_delta_fn,
    rho_star_prime_vector,
    shared_primes,
    squarefree_harmonic,
    tau_statistics,
    varrho_star_delta,
    wirsing_sum,
)
from conicbundle.forms import BinaryForm
from conicbundle.numth import euler_phi, phi_dagger
from conicbundle.zpoly import z_add, z_mul


def scan_projective_roots(form, p):
    n = sum(1 for t in range(p) if form.evaluate(1, t) % p == 0)
    if form.coeffs[-1] % p == 0:  # t^deg coefficient: value at (0, 1)
        n += 1
    return n


def scan_varrho(X, a):
    n = 0
    for s in range(a):
        for t in range(a):
            if math.gcd(math.gcd(s, t), a) != 1:
                continue
            if X.disc.evaluate(s, t) % a == 0:
                n += 1
    return n


# ---------------------------------------------------------------- root counts


def test_projective_roots_small_primes_vs_scan(s1, split_surface):
    for X in (s1, split_surface):
        for p in (2, 3, 5, 7, 11, 41, 97):
            assert projective_roots_mod_p(X.disc, p) == scan_projective_roots(X.disc, p)


def test_projective_roots_random_forms_vs_scan():
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randint(1, 5)
        f = BinaryForm(tuple(rng.randint(-9, 9) for _ in range(d + 1)))
        if f.is_zero():
            continue
        for p in (2, 3, 13):
            assert projective_roots_mod_p(f, p) == scan_projective_roots(f, p)


def test_projective_roots_frobenius_path(s1):
    # primes above the direct-scan cutoff exercise the x^p mod f route
    for p in (1009, 10007):
        assert projective_roots_mod_p(s1.disc, p) == scan_projective_roots(s1.disc, p)


def test_projective_root_counts_vector_matches_scalar(s1, split_surface):
    # every prime <= 10^5: S1's discriminant is an irreducible quintic, the
    # split discriminant a product of factors linear or constant in x
    ps = shared_primes(10**5)
    for f in (s1.disc, split_surface.disc, *delta_factor_data(split_surface).delta_i):
        vec = projective_root_counts(f, ps)
        for p, n in zip(ps.tolist(), vec.tolist()):
            assert n == projective_roots_mod_p(f, p), (str(f), p)


def _form_with_special_primes(rng, d, q_disc, q_lead, q_content):
    # q_content times a form whose f(x, 1) has degree d and a leading
    # coefficient divisible by q_lead, and for d >= 2 is (x - a)^2 h mod
    # q_disc, so q_disc divides its discriminant
    h = [rng.randint(-50, 50) for _ in range(max(d - 2, 0))] + [q_lead * rng.choice([-3, -1, 1, 2])]
    if d >= 2:
        a = rng.randint(-50, 50)
        low = list(z_mul(z_mul((-a, 1), (-a, 1)), h))
        low = list(z_add(low, [q_disc * rng.randint(-5, 5) for _ in range(d)]))
    else:
        low = [rng.randint(-50, 50)] + h
    return BinaryForm(tuple(q_content * c for c in reversed(low)))


def test_projective_root_counts_random_forms_match_scalar():
    # degrees 1-8, each on every prime <= 10^4 (p <= degree among them), on
    # every eighth prime above, and on primes dividing its discriminant,
    # leading coefficient and content
    rng = random.Random(16)
    ps = shared_primes(10**5)
    head = int(np.searchsorted(ps, 10**4))
    for d in range(1, 9):
        q_disc, q_lead, q_content = (int(rng.choice(ps[head:])) for _ in range(3))
        form = _form_with_special_primes(rng, d, q_disc, q_lead, q_content)
        assert form.degree == d and len(form.dehomogenized()) == d + 1
        picked = np.union1d(ps[:head], ps[head + d :: 8])
        picked = np.union1d(picked, [q_disc, q_lead, q_content])
        vec = projective_root_counts(form, picked)
        for p, n in zip(picked.tolist(), vec.tolist()):
            assert n == projective_roots_mod_p(form, p), (str(form), p)
        assert vec[picked == q_content] == q_content + 1


# primes near 10^6 and 10^7, and small ones to divide coefficients by
_BIG_PRIMES = [999979, 999983, 1000003, 1000033, 9999971, 9999991, 10000019, 10000079]
_SMALL_PRIMES = list(sympy.primerange(2, 60))
_PRIME_POOL = _SMALL_PRIMES + _BIG_PRIMES
_COEFF = st.integers(-(10**12), 10**12)


@st.composite
def _forms_and_primes(draw):
    shape = draw(st.sampled_from(["random", "square", "zero-ends"]))
    if shape == "square":  # g^2 h: not squarefree
        g = BinaryForm(tuple(draw(st.lists(_COEFF, min_size=2, max_size=3))))
        h = BinaryForm(tuple(draw(st.lists(_COEFF, min_size=1, max_size=3))))
        form = g.mul(g).mul(h)
    else:
        coeffs = draw(st.lists(_COEFF, min_size=2, max_size=7))
        if shape == "zero-ends":
            coeffs[0] = 0
            coeffs[-1] = draw(st.sampled_from([0, coeffs[-1]]))
        form = BinaryForm(tuple(coeffs))
    # a prime dividing the leading coefficient, and one dividing every coefficient
    q_lead = draw(st.sampled_from(_PRIME_POOL))
    q_all = draw(st.sampled_from(_PRIME_POOL))
    coeffs = list(form.coeffs)
    coeffs[0] *= q_lead
    form = BinaryForm(tuple(c * q_all for c in coeffs))
    extra = draw(st.lists(st.sampled_from(_PRIME_POOL), max_size=6))
    ps = sorted({2, 3, q_lead, q_all, *extra})
    return form, np.array(ps, dtype=np.int64)


@given(_forms_and_primes())
def test_projective_root_counts_batched_equals_scalar(case):
    form, ps = case
    assume(not form.is_zero())
    vec = projective_root_counts(form, ps)
    assert vec.tolist() == [projective_roots_mod_p(form, p) for p in ps.tolist()]


def test_projective_root_counts_int64_bound(s1):
    # the kernel is exact while degree * p^2 < 2^63
    f = s1.disc
    edge = math.isqrt((2**63 - 1) // f.degree)
    below, above = sympy.prevprime(edge + 1), sympy.nextprime(edge)
    vec = projective_root_counts(f, np.array([below], dtype=np.int64))
    assert vec.tolist() == [projective_roots_mod_p(f, below)]
    with pytest.raises(ValueError, match=r"degree \* p\^2 < 2\^63"):
        projective_root_counts(f, np.array([above], dtype=np.int64))


@settings(max_examples=40)
@given(
    coeffs=st.lists(st.integers(-(10**6), 10**6), min_size=3, max_size=8),
    step=st.integers(0, 3),
)
@example(coeffs=[1, 0, -1], step=0)
@example(coeffs=[3, -5, 0, 0, 0, 0, 0, 7], step=0)
def test_projective_root_counts_at_the_int64_bound(coeffs, step):
    # the step-th prime at or below sqrt((2^63 - 1) / n), n the degree of
    # the kernel's affine part, against the scalar route; the step-th prime
    # above it is refused
    form = BinaryForm(tuple(coeffs))
    assume(not form.is_zero())
    n = max(len(form.primitive()[1].dehomogenized()) - 1, 1)
    edge = math.isqrt((2**63 - 1) // n)
    below, above = edge + 1, edge
    for _ in range(step + 1):
        below, above = sympy.prevprime(below), sympy.nextprime(above)
    vec = projective_root_counts(form, np.array([below], dtype=np.int64))
    assert vec.tolist() == [projective_roots_mod_p(form, below)]
    with pytest.raises(ValueError, match=r"degree \* p\^2 < 2\^63"):
        projective_root_counts(form, np.array([above], dtype=np.int64))


# ---------------------------------------------------------------- varrho*


def test_varrho_matches_scan(s1, split_surface):
    for X in (s1, split_surface):
        for a in (1, 2, 3, 5, 6, 7, 10, 15, 30):
            assert varrho_star_delta(X, a) == scan_varrho(X, a)
    assert varrho_star_delta(s1, 41) == scan_varrho(s1, 41)


def test_varrho_multiplicative(s1, split_surface):
    for X in (s1, split_surface):
        for a, b in ((2, 3), (3, 5), (2, 15), (5, 14)):
            assert varrho_star_delta(X, a * b) == varrho_star_delta(
                X, a
            ) * varrho_star_delta(X, b)


def test_varrho_rejects_bad_moduli(s1):
    with pytest.raises(ValueError):
        varrho_star_delta(s1, 4)
    with pytest.raises(ValueError):
        varrho_star_delta(s1, 0)


def test_rho_star_prime_vector_matches_scalar(s1, split_surface):
    ps = shared_primes(2000)
    for X in (s1, split_surface):
        vec = rho_star_prime_vector(X, ps, delta_factor_data(X))
        for p, n in zip(ps.tolist(), vec.tolist()):
            assert n == varrho_star_delta(X, p), (X is s1, p)


# ---------------------------------------------------------------- factor data


def test_delta_factor_data_s1(s1):
    data = delta_factor_data(s1)
    assert len(data.delta_i) == 1
    assert data.delta_i[0].degree == 5
    assert data.a_i == (1,)
    assert data.content == 1
    assert abs(data.w0) == 1
    assert data.w_f == 1


def test_delta_factor_data_split(split_surface):
    data = delta_factor_data(split_surface)
    assert len(data.delta_i) == 5
    assert all(f.degree == 1 for f in data.delta_i)
    assert data.a_i == (1, 1, 1, 1, 1)
    assert data.content == 1
    assert abs(data.w0) == 1
    assert data.w_f == 144


def test_prime_identity_off_w_f(s1, split_surface):
    # varrho(p) = (p-1) * sum of per-factor projective root counts away
    # from the w_f primes; at p | w_f the package must still return the
    # direct count (vector path repair)
    for X in (s1, split_surface):
        data = delta_factor_data(X)
        for p in [int(q) for q in shared_primes(97).tolist()]:
            direct = (p - 1) * projective_roots_mod_p(X.disc, p)
            assert varrho_star_delta(X, p) == direct
            if data.w_f % p != 0:
                per_factor = sum(projective_roots_mod_p(f, p) for f in data.delta_i)
                assert direct == (p - 1) * per_factor


# ---------------------------------------------------------------- tau


XSQ_PLUS_1 = BinaryForm((1, 0, 1))


def test_tau_closed_form_exact():
    # roots of s^2 + t^2 mod p: one at p = 2, two iff p = 1 mod 4
    harmonic, _ = tau_statistics(XSQ_PLUS_1, 9000)
    expected = Fraction(1, 2) + 2 * sum(
        (Fraction(1, p) for p in sympy.primerange(3, 9001) if p % 4 == 1),
        Fraction(0),
    )
    assert harmonic == expected


def test_tau_floored_is_lower_bound():
    exact, w1 = tau_statistics(XSQ_PLUS_1, 12000, exact_threshold=20000)
    floored, w2 = tau_statistics(XSQ_PLUS_1, 12000, exact_threshold=10000)
    assert floored <= exact
    assert exact - floored <= 12000 * Fraction(1, 2**96)
    assert w1 == w2


def test_tau_weighted_residual_band():
    # measured transient: log x minus the weighted sum sits near 1.85
    for x in (10**3, 10**4, 10**5):
        _, weighted = tau_statistics(XSQ_PLUS_1, x)
        assert 1.7 <= math.log(x) - weighted <= 2.0


def test_tau_rejects_non_irreducible():
    with pytest.raises(ValueError):
        tau_statistics(BinaryForm((1, 0, -1)), 100)  # splits
    with pytest.raises(ValueError):
        tau_statistics(BinaryForm((2, 0, 2)), 100)  # content 2
    with pytest.raises(ValueError):
        tau_statistics(BinaryForm((1, 0, 2, 0, 1)), 100)  # square of a quadratic


# ---------------------------------------------------------------- wirsing


def brute_squarefree_harmonic_terms(x):
    # g(a) = prod 1/p = 1/a on squarefree a, as (1, a)
    return [(1, a) for a in range(1, x + 1) if all(e == 1 for e in sympy.factorint(a).values())]


def brute_squarefree_harmonic(x):
    return sum((Fraction(n, d) for n, d in brute_squarefree_harmonic_terms(x)), Fraction(0))


def test_wirsing_harmonic_small_sums_exact():
    rep = wirsing_sum(squarefree_harmonic(), 300, checkpoints=[50, 300])
    sums = dict(rep.sums_at)
    assert sums[50] == brute_squarefree_harmonic(50)
    assert sums[300] == brute_squarefree_harmonic(300)


def test_wirsing_exact_and_float_routes_agree():
    exact = wirsing_sum(squarefree_harmonic(), 1500, exact_threshold=2000)
    floats = wirsing_sum(squarefree_harmonic(), 1500, exact_threshold=2)
    for (c1, v1), (c2, v2) in zip(exact.sums_at, floats.sums_at):
        assert c1 == c2
        assert abs(float(v1) - float(v2)) < 1e-9
    assert exact.k_hat == pytest.approx(floats.k_hat, abs=1e-9)


def ascending_prime_sieve(ps, gp, x):
    # the value sieve as one slice multiply per prime, each product built in
    # ascending prime order, then one cumsum over every a <= x
    vals = np.ones(x + 1, dtype=np.float64)
    vals[0] = 0.0
    for p, gv in zip(ps.tolist(), gp.tolist()):
        vals[p::p] *= gv
    for p in ps[ps * ps <= x].tolist():
        vals[p * p :: p * p] = 0.0
    return np.cumsum(vals)


# Error of the float route, from its operation count (Higham, Accuracy and
# Stability of Numerical Algorithms, ch. 3-4), with u = 2^-53 and
# gamma_k = k u / (1 - k u).  Every g(p) >= 0 here, and g.floats is within
# gamma_eta of g(p): eta = 6 bounds the roundings of r (p - 1)^2 / p^4
# (and of 1 / p).  The prime sums G come from one running sum over the
# pi(c) primes, so each is within gamma_(pi(c) + eta) G(c) of its value,
# and a difference G(n) - G(q) within u |G(n) - G(q)| + 3 gamma G(c).  A
# recursion node adds w (G(n) - G(q)) with w = g(a) for a distinct
# squarefree a <= c, a product of at most L = bit_length(c) values, so
# its weight is within gamma_(L (eta + 1) + 1) and the sum of the weights
# is at most S(c).  The sum runs over at most c nodes.  With G(c) <= S(c),
#   |float - S(c)| <= S (gamma_(c + L (eta + 1) + 2) + 3 gamma_(pi(c) + eta) S),
# first order in u; the factor 1.01 covers the dropped higher orders.
_U = 2.0**-53
_ETA = 6


def _gamma(k):
    return k * _U / (1 - k * _U)


def recursion_error_bound(s, c, eta):
    pi_c, depth = len(shared_primes(c)), c.bit_length()
    return 1.01 * s * (_gamma(c + depth * (eta + 1) + 2) + 3 * _gamma(pi_c + eta) * s)


def test_prime_sum_recursion_matches_ascending_prime_loop(floored_sums):
    top = 10**6
    ps_top = shared_primes(top)
    xs = list(range(2, 201)) + [10**6]
    for p in (2, 3, 29, 31, 97, 997):
        xs += [p * p - 1, p * p, p * p + 1]
    small = sorted(x for x in set(xs) if x <= 3 * 10**4)
    for g, brute in zip(*floored_sums):
        got = dict(wirsing_sum(g, top, checkpoints=xs, exact_threshold=1).sums_at)
        # against the sieve on the same float values (eta = 0); the sieve's
        # own error is at most gamma_(L) per cell and gamma_(x) for its cumsum
        sieve = ascending_prime_sieve(ps_top, g.floats(ps_top), top)
        for x in xs:
            s = float(sieve[x])
            bound = recursion_error_bound(s, x, 0) + 1.01 * _gamma(x + x.bit_length()) * s
            assert abs(got[x] - s) <= bound, (g.name, x)
        # against the brute sums, each term floored at 96 bits, then rounded
        for x in small:
            s = brute[x - 1]
            bound = recursion_error_bound(s, x, _ETA) + _U * s + x * 2.0**-96
            assert abs(got[x] - s) <= bound, (g.name, x)


def prefix_floor96(terms, top):
    """[the sum of the terms n / d with a <= c, each floored at 96 bits, for
    c = 1..top] as floats, from (a, n, d) triples."""
    at = [0] * (top + 1)
    for a, n, d in terms:
        at[a] += (n << 96) // d
    return [float(Fraction(v, 1 << 96)) for v in itertools.accumulate(at[1:])]


@pytest.fixture(scope="module")
def floored_sums(s1, split_surface):
    # the brute sums at every c <= 30031, each term floored at 96 bits, so at
    # most c 2^-96 below the exact ones, then rounded to float; rho*(p) from
    # the vector route, which the root-count tests check against the scalar one
    top = 30031
    gs = (squarefree_harmonic(), rho_delta_fn(s1), rho_delta_fn(split_surface))
    keyed = [[(d, n, d) for n, d in brute_squarefree_harmonic_terms(top)]]
    ps = shared_primes(top)
    for X in (s1, split_surface):
        rho_at = dict(zip(ps.tolist(), rho_star_prime_vector(X, ps, delta_factor_data(X)).tolist()))
        terms = brute_final_lemma_terms(X, top, rho_at)  # (num, a^4)
        keyed.append([(math.isqrt(math.isqrt(d)), n, d) for n, d in terms])
    return gs, [prefix_floor96(terms, top) for terms in keyed]


# x next to the primorial 30030 = 2*3*5*7*11*13, the start of the deepest
# recursion chain in range, or next to a prime square, where p^2 <= n flips
_PRIMORIAL_END = st.builds(lambda d: 30030 + d, st.integers(-1, 1))
_SQUARE_ENDS = st.builds(lambda p, d: p * p + d,
                         st.sampled_from(list(sympy.primerange(2, 176))), st.integers(-1, 1))


@given(
    x=st.one_of(st.integers(2, 3 * 10**4), _PRIMORIAL_END, _SQUARE_ENDS),
    picks=st.lists(st.floats(0, 1), max_size=12),
    which=st.integers(0, 2),
)
# x < 4 has no prime up to sqrt(x), and x < 9 one
@example(x=2, picks=[], which=0)
@example(x=3, picks=[], which=1)
@example(x=4, picks=[0.5], which=2)
@example(x=5, picks=[0.6, 0.9], which=1)
@example(x=8, picks=[0.3, 0.5], which=2)
@example(x=9, picks=[0.5, 0.9], which=0)
def test_prime_sum_recursion_matches_exact_sums(floored_sums, x, picks, which):
    gs, sums = floored_sums
    cps = sorted(int(f * x) for f in picks) + [x]
    rep = wirsing_sum(gs[which], x, checkpoints=cps, exact_threshold=1)
    for c, got in rep.sums_at:
        want = sums[which][c - 1]
        bound = recursion_error_bound(want, c, _ETA) + _U * want + c * 2.0**-96
        assert abs(got - want) <= bound, (gs[which].name, c)


@functools.cache
def squarefree_factors(top):
    """{a: its prime factors} for every squarefree a <= top, from sympy."""
    out = {}
    for a in range(1, top + 1):
        fac = sympy.factorint(a)
        if all(e == 1 for e in fac.values()):
            out[a] = list(fac)
    return out


def cycled_fn(values):
    """The squarefree-supported g with g(p) = n / d for the i-th prime
    p and (n, d) = values[i % len(values)]."""
    index = {p: i for i, p in enumerate(shared_primes(3000).tolist())}

    def exact(ps):
        nd = [values[index[p] % len(values)] for p in ps.tolist()]
        return np.array([n for n, _ in nd], dtype=object), np.array([d for _, d in nd], dtype=object)

    def floats(ps):
        num, den = exact(ps)
        return (num / den).astype(np.float64)

    return MultiplicativeFn("cycled", exact, floats)


# 0 <= g(p) <= 3: zero values, and values above 1
_PRIME_VALUE = st.integers(1, 50).flatmap(lambda d: st.tuples(st.integers(0, 3 * d), st.just(d)))


@given(
    x=st.one_of(st.integers(2, 3000), st.sampled_from([2309, 2310, 2311]), _SQUARE_ENDS.filter(
        lambda x: x <= 3000)),
    picks=st.lists(st.floats(0, 1), max_size=8),
    values=st.lists(_PRIME_VALUE, min_size=1, max_size=40),
)
@example(x=2, picks=[], values=[(0, 1)])
@example(x=3, picks=[0.5], values=[(3, 1)])
@example(x=8, picks=[], values=[(1, 3), (150, 50)])
@example(x=9, picks=[0.9], values=[(7, 3), (0, 5)])
@example(x=10, picks=[], values=[(1, 2), (2, 3), (0, 1)])
@example(x=2808, picks=[0.6], values=[(49, 50), (1, 49), (147, 49)])
@example(x=2809, picks=[], values=[(1, 3)])
@example(x=2810, picks=[0.3], values=[(2, 47), (141, 47), (0, 2)])
@example(x=2309, picks=[0.2, 0.5], values=[(3, 1), (1, 50)])
@example(x=2311, picks=[], values=[(1, 50), (150, 50), (99, 37)])
# weights of 2 and 3 off the 2^-96 grid, exact values 3 beyond: a weight
# rounded up instead of down takes the sum above the exact one
@example(x=3000, picks=[], values=[(1, 4), (1, 7)] + [(3, 1)] * 38)
def test_rational_recursion_matches_brute_sums(x, picks, values):
    # the exact route equals the brute per-integer sum; the floored route is
    # below it and within the derived bound
    g = cycled_fn(values)
    cps = sorted({max(1, int(f * x)) for f in picks} | {x})
    exact = analytic._exact_sums(g, cps, floored=False)
    floored = analytic._exact_sums(g, cps, floored=True)
    num, den = g.exact(shared_primes(x))
    gp = {p: Fraction(n, d) for p, n, d in zip(shared_primes(x).tolist(), num, den)}
    factors, total, want = squarefree_factors(3000), Fraction(0), {}
    for a in range(1, x + 1):
        if a in factors:
            total += math.prod((gp[p] for p in factors[a]), start=Fraction(1))
        want[a] = total
    m = max([1, *gp.values()])
    for c, e, f in zip(cps, exact, floored):
        assert isinstance(e, Fraction) and e == want[c], c
        assert 0 <= want[c] - f <= floored_error_bound(c, m), c


def test_wirsing_sum_memory_is_flat_in_x(monkeypatch):
    # The float route holds the O(sqrt(x)) values x // m and one block of
    # _PRIME_BLOCK primes from one sieve segment, and no array over all the
    # primes <= x.  Per value: the value and its four table entries (40
    # bytes), and as a key of the dict G an int, a float, two list slots
    # and a dict entry (~140 bytes); 200 bytes covers np.unique's copies.
    # Per prime of a block: at most 16 float64 arrays over it.  Per byte of
    # a segment: the byte and, for each odd number, a prime in two int64
    # arrays.
    monkeypatch.setattr(numth, "_SEGMENT", 1 << 16)
    monkeypatch.setattr(analytic, "_PRIME_BLOCK", 1 << 12)
    wirsing_sum(squarefree_harmonic(), 10**4)  # np.polyfit imports numpy.ma on first use
    for x in (2 * 10**6, 8 * 10**6):
        cps = analytic._default_checkpoints(x)
        values = math.isqrt(x) + sum(math.isqrt(c) for c in cps) + len(cps)
        bound = 200 * values + 16 * 8 * analytic._PRIME_BLOCK + 9 * numth._SEGMENT
        tracemalloc.start()
        try:
            wirsing_sum(squarefree_harmonic(), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (x, peak, bound)
    # an int64 array over the pi(8·10^6) = 539777 primes would not fit
    assert bound < 8 * 539777


def test_wirsing_exact_route_evaluates_each_prime_once():
    g = squarefree_harmonic()
    calls = []

    def exact(ps):
        calls.append(ps.tolist())
        return g.exact(ps)

    rep = wirsing_sum(dataclasses.replace(g, exact=exact), 5000, checkpoints=[300, 50, 50, 7])
    # one exact call, on exactly the primes up to the largest exact checkpoint
    assert calls == [shared_primes(300).tolist()]
    sums = dict(rep.sums_at)
    assert [c for c, _ in rep.sums_at] == [7, 50, 300, 5000]
    for c in (7, 50, 300):
        assert sums[c] == brute_squarefree_harmonic(c)
    assert isinstance(sums[5000], float)


def test_wirsing_checkpoint_at_threshold_stays_exact():
    rep = wirsing_sum(squarefree_harmonic(), 2500, checkpoints=[2000], exact_threshold=2000)
    sums = dict(rep.sums_at)
    assert isinstance(sums[2000], Fraction)
    assert sums[2000] == brute_squarefree_harmonic(2000)
    assert isinstance(sums[2500], float)


def test_wirsing_zero_function():
    g = MultiplicativeFn(
        "zero",
        exact=lambda ps: (np.zeros_like(ps), np.ones_like(ps)),
        floats=lambda ps: np.zeros(len(ps)),
    )
    rep = wirsing_sum(g, 5000)
    assert all(float(v) == 1.0 for _, v in rep.sums_at)
    assert rep.k_hat == pytest.approx(0.0, abs=1e-12)
    assert rep.c_hat == pytest.approx(1.0, abs=1e-12)


def test_wirsing_validation():
    with pytest.raises(ValueError):
        wirsing_sum(squarefree_harmonic(), 1)
    with pytest.raises(ValueError):
        wirsing_sum(squarefree_harmonic(), 100, checkpoints=[200])


def scalar_rho_delta(X, p, strict):
    """rho*(p) phi(p)^2 / p^4 from the scalar root count, 0 at the W primes."""
    W = delta_factor_data(X).w_f if strict else abs(X.w0)
    if W % p == 0:
        return Fraction(0)
    r = (p - 1) * projective_roots_mod_p(X.disc, p)
    return Fraction(r * (p - 1) ** 2, p**4)


def test_rho_delta_fn_values(s1, split_surface):
    ps = shared_primes(200)
    for X in (s1, split_surface):
        for strict in (False, True):
            num, den = rho_delta_fn(X, strict_wf=strict).exact(ps)
            assert len(num) == len(den) == len(ps)
            for p, n, d in zip(ps.tolist(), num.tolist(), den.tolist()):
                assert Fraction(n, d) == scalar_rho_delta(X, p, strict), (p, strict)
    # disc = s t (s-t) (s+t) (s-2t): all of P^1(F_2) is a root; w_f = 144
    ps = shared_primes(5)
    num, den = rho_delta_fn(split_surface).exact(ps)
    assert Fraction(int(num[0]), int(den[0])) == Fraction((2 - 1) * 3 * (2 - 1) ** 2, 2**4)
    num, den = rho_delta_fn(split_surface, strict_wf=True).exact(ps)
    assert num.tolist()[:2] == [0, 0] and num[2] != 0


def test_rho_delta_fn_factors_the_discriminant_once(split_surface, monkeypatch):
    # every block's rho_star_prime_vector call reuses one delta_factor_data
    data_calls, blocks = [], []
    factor_data, vector = analytic.delta_factor_data, analytic.rho_star_prime_vector
    monkeypatch.setattr(
        analytic, "delta_factor_data", lambda X: data_calls.append(X) or factor_data(X)
    )
    monkeypatch.setattr(
        analytic, "rho_star_prime_vector", lambda *a: blocks.append(a) or vector(*a)
    )
    monkeypatch.setattr(analytic, "_PRIME_BLOCK", 1 << 8)
    wirsing_sum(rho_delta_fn(split_surface), 10**5)
    assert len(blocks) > 10
    assert len(data_calls) == 1


def test_rho_delta_prime_values_match_scalar(s1, split_surface):
    ps = shared_primes(200)
    for X in (s1, split_surface):
        for strict in (False, True):
            vec = rho_delta_fn(X, strict_wf=strict).floats(ps)
            assert vec.dtype == np.float64 and len(vec) == len(ps)
            for p, v in zip(ps.tolist(), vec.tolist()):
                expect = scalar_rho_delta(X, p, strict)
                assert v == pytest.approx(float(expect), rel=1e-12, abs=1e-12)
                if expect == 0:
                    assert v == 0.0


# ---------------------------------------------------------------- final lemma


def scan_varrho_prime(X, p):
    """Row-vectorized affine scan of disc(s, t) = 0 mod p, (s, t) != (0, 0)."""
    d = X.disc.degree
    t = np.arange(p, dtype=np.int64)
    tp = np.ones((d + 1, p), dtype=np.int64)
    for i in range(1, d + 1):
        tp[i] = tp[i - 1] * t % p
    cnt = 0
    for s in range(p):
        acc = np.zeros(p, dtype=np.int64)
        sp = 1
        for i in range(d, -1, -1):
            acc = (acc + (X.disc.coeffs[i] % p) * sp * tp[i]) % p
            sp = sp * s % p
        cnt += int(np.count_nonzero(acc == 0))
    return cnt - 1  # drop (0, 0)


def brute_final_lemma_terms(X, x, rho_at):
    """(num, a^4) for every nonzero term of the final lemma's sum up to x."""
    W = abs(X.w0)
    terms = []
    for a in range(1, x + 1):
        fac = sympy.factorint(a)
        if any(e > 1 for e in fac.values()):
            continue
        if math.gcd(a, W) != 1:
            continue
        num = 1
        for p in fac:
            num *= rho_at[p] * (p - 1) ** 2
        if num:
            terms.append((num, a**4))
    return terms


def brute_final_lemma(X, x, rho_at):
    return sum((Fraction(n, d) for n, d in brute_final_lemma_terms(X, x, rho_at)), Fraction(0))


def floor96(terms):
    """The sum with every term floored at 96 fractional bits."""
    return Fraction(sum((n << 96) // d for n, d in terms), 1 << 96)


def test_final_lemma_matches_brute(s1, split_surface):
    x = 300
    for X in (s1, split_surface):
        # the fast row scan is itself validated against the plain scan
        for p in (2, 3, 5, 7, 41):
            assert scan_varrho_prime(X, p) == scan_varrho(X, p)
        rho_at = {int(p): scan_varrho_prime(X, int(p)) for p in sympy.primerange(2, x + 1)}
        assert final_lemma_sum(X, x) == brute_final_lemma(X, x, rho_at)


def test_final_lemma_frozen_and_floor(s1):
    exact = final_lemma_sum(s1, 3000)
    floored = final_lemma_sum(s1, 3000, exact_threshold=1000)
    assert float(exact) == pytest.approx(2.1946882394609464, abs=1e-12)
    assert floored <= exact
    assert exact - floored < Fraction(1, 10**20)


def floored_error_bound(x, m=1):
    """2 L m^(L-1) x 2^-96, the bound of the 96-bit floored recursion, for
    prime values <= m (m >= 1) and L the most prime factors of a squarefree
    a <= x."""
    L, primorial = 0, 1
    for p in sympy.primerange(2, x + 1):
        if primorial * p > x:
            break
        L, primorial = L + 1, primorial * p
    return Fraction(2 * L * x, 2**96) * Fraction(m) ** max(L - 1, 0)


@pytest.mark.parametrize("x", [3000, 10**4])
def test_floored_final_lemma_within_the_derived_bound(s1, split_surface, x):
    # every g(p) = rho*(p) phi(p)^2 / p^4 is below 1, so m = 1
    for X in (s1, split_surface):
        floored = final_lemma_sum(X, x, exact_threshold=1000)
        exact = final_lemma_sum(X, x)
        assert floored.denominator <= 2**96 < exact.denominator
        assert 0 <= exact - floored < floored_error_bound(x)


def test_floored_sums_floor_each_term_at_96_bits():
    # tau(p) of s^2 + t^2: one root at p = 2, two iff p = 1 mod 4
    taus = [(1 if p == 2 else 2 if p % 4 == 1 else 0, p) for p in sympy.primerange(2, 12001)]
    terms = [(t, p) for t, p in taus if t]
    floored, _ = tau_statistics(XSQ_PLUS_1, 12000, exact_threshold=10000)
    assert floored == floor96(terms)
    exact = sum((Fraction(n, d) for n, d in terms), Fraction(0))
    assert floored != Fraction(math.floor(exact * 2**96), 2**96)


def test_final_lemma_edges(s1):
    assert final_lemma_sum(s1, 1) == 1
    with pytest.raises(ValueError):
        final_lemma_sum(s1, 0)
    # monotone nondecreasing
    vals = [final_lemma_sum(s1, x) for x in (1, 10, 50, 200)]
    assert vals == sorted(vals)


def test_final_lemma_strict_variant_smaller(split_surface):
    # strict coprimality (w_f = 144) drops the p = 2, 3 terms
    assert final_lemma_sum(split_surface, 200, strict_wf=True) < final_lemma_sum(
        split_surface, 200
    )


def test_final_lemma_agrees_with_wirsing_route(s1, split_surface):
    # the final lemma's sum is the exact head of the wirsing route at one
    # checkpoint: the two entry points must agree
    for X in (s1, split_surface):
        rep = wirsing_sum(rho_delta_fn(X), 800, checkpoints=[800])
        assert dict(rep.sums_at)[800] == final_lemma_sum(X, 800)


# ---------------------------------------------------------------- G sum


def brute_G(X, sigma, tau, a, x):
    tot = Fraction(0)
    for s in range(1, x + 1):
        for t in range(-x, x + 1):
            if math.gcd(s, abs(t)) != 1:
                continue
            if max(s, abs(t)) > x:
                continue
            if (s - sigma) % a or (t - tau) % a:
                continue
            if X.disc.evaluate(s, t) == 0:
                continue
            tot += Fraction(1, max(s, abs(t)) ** 2)
    return tot


def test_g_sum_frozen_fixture(s1):
    assert G_sum(s1, 0, 0, 1, 10) == Fraction(197053, 26460)


def test_g_sum_matches_brute(s1, split_surface):
    assert G_sum(s1, 0, 0, 1, 20) == brute_G(s1, 0, 0, 1, 20)
    # split exercises the singular-fibre exclusion
    assert G_sum(split_surface, 0, 0, 1, 25) == brute_G(split_surface, 0, 0, 1, 25)
    for a, sig, tau in ((2, 1, 0), (2, 1, 1), (3, 2, 1), (5, 3, 4), (6, 1, 2)):
        assert G_sum(s1, sig, tau, a, 30) == brute_G(s1, sig, tau, a, 30)


def test_g_sum_rejects_imprimitive_class(s1):
    with pytest.raises(ValueError):
        G_sum(s1, 2, 2, 2, 10)
    with pytest.raises(ValueError):
        G_sum(s1, 0, 3, 3, 10)


def test_g_sum_monotone(s1):
    assert G_sum(s1, 0, 0, 1, 50) >= G_sum(s1, 0, 0, 1, 30)


def test_g_sum_floored_route_is_lower_bound(s1):
    exact = G_sum(s1, 0, 0, 1, 120, exact_threshold=2000)
    floored = G_sum(s1, 0, 0, 1, 120, exact_threshold=10)
    assert floored <= exact
    assert exact - floored < Fraction(1, 10**20)


def test_g_sum_log_ratio_band(s1):
    # frozen measurement: G/log x moves 2.69091 -> 2.62602 over a decade
    g3 = float(G_sum(s1, 0, 0, 1, 10**3)) / math.log(10**3)
    assert g3 == pytest.approx(2.69091, abs=5e-4)


def test_modulus_penalty_bounded_below(s1):
    # G(x, a) * a * phi(a) * phi_dagger(a) / log x stays above 1 in the
    # (1, 0) class; measured 2.72 / 3.36 / 5.39 / 5.20 at x = 2000
    x = 2000
    for a, frozen in ((2, 2.7249), (3, 3.3603), (5, 5.3906), (6, 5.2010)):
        v = G_sum(s1, 1, 0, a, x)
        penalty = float(v) * a * euler_phi(a) * phi_dagger(a) / math.log(x)
        assert penalty > 1.0
        assert penalty == pytest.approx(frozen, abs=2e-3)
