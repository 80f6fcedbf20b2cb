import random
import tracemalloc
from math import gcd, isqrt
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from conicbundle import numth
from conicbundle.numth import (
    projective_normal,
    euler_phi,
    factor,
    is_prime,
    prime_segments,
    primes_up_to,
)


def test_primes_up_to_matches_sympy():
    ours = primes_up_to(10**4)
    theirs = np.array(list(sympy.primerange(2, 10**4 + 1)))
    assert np.array_equal(ours, theirs)


def plain_sieve(n):
    sieve = np.ones(max(n + 1, 2), dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


@given(n=st.integers(0, 3 * 10**4), log_segment=st.integers(4, 12))
@example(n=0, log_segment=4)
@example(n=1, log_segment=4)
@example(n=2, log_segment=4)
@example(n=3, log_segment=4)
def test_segmented_primes_up_to_matches_plain_sieve(n, log_segment):
    with mock.patch.object(numth, "_SEGMENT", 1 << log_segment):
        got = primes_up_to(n)
        segments = list(prime_segments(n))
    assert got.dtype == np.int64
    assert np.array_equal(got, plain_sieve(n))
    # the primes up to sqrt(n) come first, then one array per segment
    assert np.array_equal(segments[0], plain_sieve(isqrt(n)))
    assert len(segments) == 1 + -(-(n - isqrt(n)) // (1 << log_segment))
    assert all(s.dtype == np.int64 for s in segments)
    assert np.array_equal(np.concatenate(segments), plain_sieve(n))


def test_primes_up_to_at_segment_ends_and_prime_squares():
    # every n < 1200 with 16-byte segments meets each segment end and prime
    # square at and next to n
    with mock.patch.object(numth, "_SEGMENT", 16):
        for n in range(1200):
            assert np.array_equal(primes_up_to(n), plain_sieve(n)), n
    # the default segment: (sqrt(n), n] is marked from isqrt(n) + 1, so n
    # ends segment k where n - isqrt(n) = k * _SEGMENT
    ns = [p * p + d for p in (1021, 1031) for d in (-1, 0, 1)]
    for k in (1, 2):
        n = k * numth._SEGMENT
        while n - isqrt(n) < k * numth._SEGMENT:
            n += 1
        assert n - isqrt(n) == k * numth._SEGMENT
        ns += [n - 1, n, n + 1]
    for n in ns:
        assert np.array_equal(primes_up_to(n), plain_sieve(n)), n


def test_primes_up_to_holds_one_prime_array(monkeypatch):
    # one array sized by pi(n) < 1.25506 n / ln n, shrunk in place: beside
    # its result the sieve holds that bound's slack and one segment, where
    # a list of per-segment arrays joined at the end holds the result twice
    monkeypatch.setattr(numth, "_SEGMENT", 1 << 16)
    tracemalloc.start()
    try:
        ps = primes_up_to(2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ps) == 148933
    assert peak < 1.5 * ps.nbytes


def test_is_prime_small_and_carmichael():
    for n in range(-3, 100):
        assert is_prime(n) == sympy.isprime(n)
    # classic strong pseudoprime bait
    for n in (561, 1105, 25326001, 3215031751):
        assert is_prime(n) == sympy.isprime(n)
    assert is_prime(2**61 - 1)


_PSI_12 = 318665857834031151167461
_PSI_13 = 3317044064679887385961981


def test_is_prime_past_the_first_twelve_witnesses():
    # psi_12 is a strong pseudoprime to every prime base up to 37; base 41
    # exposes it.  Past psi_13 no fixed witness set proves a prime.
    assert not is_prime(_PSI_12)
    assert factor(_PSI_12).factors == ((399165290221, 1), (798330580441, 1))
    assert sympy.factorint(_PSI_12) == {399165290221: 1, 798330580441: 1}
    for n in (_PSI_13, 2**89 - 1):
        with pytest.raises(ArithmeticError, match=str(n)):
            is_prime(n)


def test_factor_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 10**9)
        f = factor(n)
        prod = 1
        for p, e in f.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n
        assert f.value == n


def test_factor_negative_and_units():
    f = factor(-12)
    assert f.sign == -1
    assert f.factors == ((2, 2), (3, 1))
    assert factor(1).factors == ()
    with pytest.raises(ValueError):
        factor(0)


def test_divisors_sorted_and_complete():
    f = factor(360)
    divs = f.divisors()
    assert divs == sorted(d for d in range(1, 361) if 360 % d == 0)


def test_is_squarefree():
    assert factor(30).is_squarefree()
    assert not factor(12).is_squarefree()


def test_euler_phi_against_sympy():
    for n in range(1, 500):
        assert euler_phi(n) == sympy.totient(n)


def test_projective_normal():
    assert projective_normal((-2, -4, -6, -8)) == (1, 2, 3, 4)
    assert projective_normal((0, -3)) == (0, 1)
    assert projective_normal((0, 0, -5, 10)) == (0, 0, 1, -2)
    with pytest.raises(ValueError):
        projective_normal((0, 0, 0))
    rng = random.Random(5)
    for _ in range(200):
        v = tuple(rng.randint(-6, 6) * rng.choice((1, 7, 10**20)) for _ in range(3))
        if not any(v):
            continue
        w = projective_normal(v)
        assert next(x for x in w if x) > 0
        assert gcd(*w) == 1
        # same projective point: every 2x2 minor vanishes
        assert all(v[i] * w[j] == v[j] * w[i] for i in range(3) for j in range(3))


def test_factor_gives_up_past_the_squaring_budget(monkeypatch):
    import conicbundle.numth as numth

    n = 10000000019 * 30000000001
    assert factor(n).factors == ((10000000019, 1), (30000000001, 1))
    monkeypatch.setattr(numth, "_RHO_SQUARINGS", 1000)
    with pytest.raises(ArithmeticError, match=str(n)):
        factor(n)
