import json
from fractions import Fraction
from math import gcd, prod
from time import perf_counter

import pytest

from conicbundle.conic import count_points
from conicbundle.surface import (
    PEYRE_PREFACTOR,
    CubicSurfaceNF,
    DegenerateForm,
    FibreIndex,
    ProjPoint3,
    SeparabilityFailure,
    SingularFibre,
    SurfaceValidationError,
    ZeroResultant,
    brute_force_surface_count,
    domain_B,
    fibration_index,
    fibre_conic,
    find_rational_singular_points,
    load_surface,
    phi_map,
    pi_bracket,
    section_base_directions,
    surface_from_dict,
    validate,
    zeta2_bracket,
)


def test_s1_invariants(s1):
    assert s1.disc.coeffs == (1, -1, 2, -2, 0, -1)
    assert s1.disc(1, 1) == -1
    assert s1.disc(1, 2) == -41
    assert s1.w0 == 1
    assert s1.rho == 3
    assert s1.factorization.content == 1
    assert s1.factorization.distinct_count == 1


def test_split_invariants(split_surface):
    X = split_surface
    assert X.disc(1, 1) == 0
    assert X.rho == 7
    assert X.factorization.distinct_count == 5
    assert X.w0 == 1


def test_validate_highly_composite_coefficients_is_fast():
    # a0 and the leading coefficient of the discriminant have 2^9 divisors
    # each; a scan over candidate rational roots r/s took seconds here
    M = prod([2, 3, 5, 7, 11, 13, 17, 19, 23])
    start = perf_counter()
    X = validate([M, 0], [0, M], [M, -1], [1, 0, M], [0, 1, 0])
    assert perf_counter() - start < 1.0
    assert X.disc.coeffs == (M, -1, 99540857289673800, -2 * M,
                             11103427717736446058066100, -49770428644836900)
    assert X.factorization.content == 1
    assert X.factorization.factors == ((X.disc, 1),)
    assert X.rho == 3


def test_validate_wrong_degree():
    with pytest.raises(ValueError):
        validate([1, 0, 0], [0, 1], [1, -1], [1, 0, 1], [0, 1, 0])


def test_validate_degenerate_form():
    with pytest.raises(DegenerateForm):
        validate([0, 0], [0, 0], [0, 0], [0, 0, 0], [0, 0, 0])


def test_validate_zero_resultant_reported_first():
    # b and e share a root; Delta also picks up a square factor, but the
    # resultant check must name the failure deterministically
    with pytest.raises(ZeroResultant):
        validate([1, 0], [0, 1], [1, -1], [1, 0, 0], [2, 0, 0])


def test_validate_separability_failure():
    # disc = -2 s^3 (s^2 - s t + 2 t^2): repeated factor, resultant fine
    with pytest.raises(SeparabilityFailure):
        validate([-2, -2], [-2, -2], [-2, 0], [1, 0, 1], [0, 1, 0])


def test_validate_singular_point_search_rejects(split_surface):
    coeffs = dict(a=[0, 1], d=[2, 1], f=[2, 0], b=[0, 0, 1], e=[1, 0, 0])
    with pytest.raises(SurfaceValidationError):
        validate(coeffs["a"], coeffs["d"], coeffs["f"], coeffs["b"], coeffs["e"],
                 singular_point_height=1)
    # the offending point is the pencil base point
    pts = find_rational_singular_points(split_surface, 1)
    assert ProjPoint3.from_raw(0, 0, 1, -1) in pts


def test_s1_smooth_at_small_heights(s1):
    assert find_rational_singular_points(s1, 4) == []


def test_evaluate_matches_forms(s1):
    assert s1.evaluate(1, 1, 1, 1) == (
        s1.cxx(1, 1) + s1.cxz(1, 1) + s1.czz(1, 1) + s1.cxy(1, 1) + s1.cyz(1, 1)
    )
    # a known rational point: fibre (1,1) parameter image
    idx = FibreIndex(1, 1)
    C = fibre_conic(s1, idx)
    res = count_points(C, 10, want_points=True)
    for pt in res.points:
        amb = phi_map(idx, pt.triple)
        assert s1.evaluate(*amb.coords) == 0


def test_fibre_index_normalization():
    assert FibreIndex.from_raw(-2, 4) == FibreIndex(1, -2)
    assert FibreIndex.from_raw(0, -3) == FibreIndex(0, 1)
    assert FibreIndex(3, -5).height == 5
    with pytest.raises(ValueError):
        FibreIndex.from_raw(0, 0)


def test_fibre_conic_weight_and_det(s1):
    C = fibre_conic(s1, FibreIndex(1, 2))
    assert C.weight == 2
    assert C.pi_det == s1.disc(1, 2)
    with pytest.raises(SingularFibre):
        fibre_conic(validate([0, 1], [2, 1], [2, 0], [0, 0, 1], [1, 0, 0]),
                    FibreIndex(1, 1))


def test_phi_map_fibration_index_roundtrip(s1):
    for idx in list(domain_B(s1, 5))[:40]:
        C = fibre_conic(s1, idx)
        res = count_points(C, 8, want_points=True)
        for pt in res.points:
            amb = phi_map(idx, pt.triple)
            assert s1.evaluate(*amb.coords) == 0
            back = fibration_index(s1, amb)
            assert back == idx


def test_domain_b_order_and_coverage(s1):
    got = list(domain_B(s1, 3))
    assert got[0] == FibreIndex(0, 1)
    expect = [FibreIndex(0, 1)]
    for s in range(1, 4):
        for t in range(-3, 4):
            if gcd(s, t) == 1 and s1.disc(s, t) != 0:
                expect.append(FibreIndex(s, t))
    assert got == expect
    # all indices normalized and nonsingular
    for idx in got:
        assert gcd(idx.s, abs(idx.t)) == 1 or idx == FibreIndex(0, 1)
        assert s1.disc(idx.s, idx.t) != 0


def test_domain_b_excludes_singular(split_surface):
    got = list(domain_B(split_surface, 2))
    for bad in [(0, 1), (1, 0), (1, 1), (1, -1), (2, 1)]:
        assert FibreIndex(*bad) not in got


def test_brute_force_by_fibre_matches_conics(s1):
    res = brute_force_surface_count(s1, 12, fibre_height_cap=12)
    total = 0
    for idx, n in res.by_fibre.items():
        C = fibre_conic(s1, idx)
        assert count_points(C, 12).count == n
        total += n
    assert total == res.count


def test_proj_point_normalization():
    p = ProjPoint3.from_raw(-2, -4, -6, -8)
    assert p.coords == (1, 2, 3, 4)
    assert p.height == 4
    with pytest.raises(ValueError):
        ProjPoint3.from_raw(0, 0, 0, 0)


def test_surface_io_roundtrip(s1, s1_file, tmp_path):
    X = load_surface(s1_file)
    assert X.surface_hash == s1.surface_hash
    assert X.canonical_json() == s1.canonical_json()
    d = json.loads(X.canonical_json())
    Y = surface_from_dict(d)
    assert Y.surface_hash == X.surface_hash
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises((ValueError, json.JSONDecodeError)):
        load_surface(str(bad))


def test_s1_hash_frozen(s1):
    assert s1.surface_hash == (
        "6ae548ed61c7a9f9f7159fa7d2f8a44772a1071eaba65d6b12c3335ecf8f0fb5"
    )


def test_pi_bracket_sane():
    lo, hi = pi_bracket()
    assert lo < hi
    assert Fraction(314159, 100000) < lo and hi < Fraction(314160, 100000)


def test_field_context_prefactor():
    assert PEYRE_PREFACTOR == Fraction(1, 2)
    z_lo, z_hi = zeta2_bracket()
    # truncation of pi^2/6 = 1.64493406684822643647...
    assert z_lo <= Fraction(16449340668482264, 10**16) <= z_hi
    assert z_hi - z_lo < Fraction(1, 10**12)


def test_section_base_directions(s1, split_surface):
    # s-part x2^2 + x3^2 has no rational root, so no shared direction
    assert section_base_directions(s1) == ()
    # 2*x3*(x2 + x3) and x2*(x2 + x3) share the factor x2 + x3
    dirs = section_base_directions(split_surface)
    assert dirs == ((1, -1),)
    x2, x3 = dirs[0]
    for idx in list(domain_B(split_surface, 6)):
        C = fibre_conic(split_surface, idx)
        q = (C.cxx * x2 * x2 + C.cxy * x2 * 0 + C.cxz * x2 * x3
             + C.cyz * 0 * x3 + C.czz * x3 * x3)
        assert q == 0  # the shared direction lies on every fibre conic
    with pytest.raises(ValueError):
        fibration_index(split_surface, ProjPoint3.from_raw(0, 0, x2, x3))
