import json
import math
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

import conicbundle
from conicbundle.analytic import MAX_WIRSING_X, final_lemma_sum
from conicbundle.conic import count_points
from conicbundle.harness import (
    CountRecord,
    ResultCache,
    analyze,
    count_surface,
    default_cache_dir,
    growth_table,
    main,
    sum_constants,
    write_growth_csv,
)
from conicbundle.surface import MAX_FIBRE_HEIGHT, domain_B, fibre_conic


# ---------------------------------------------------------------- records


def test_count_record_equality_ignores_runtime():
    a = CountRecord("id", 10.0, "fibration", 2.0, 5, 0, runtime_ms=3)
    b = CountRecord("id", 10.0, "fibration", 2.0, 5, 0, runtime_ms=99)
    c = CountRecord("id", 10.0, "fibration", 2.0, 6, 0, runtime_ms=3)
    assert a == b
    assert a != c


def test_count_record_payload_roundtrip():
    a = CountRecord("id", 10.0, "direct", None, 5, 1, runtime_ms=3)
    assert CountRecord.from_payload(a.to_payload()) == a
    assert "runtime_ms:" in a.render()


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "c")
    rec = CountRecord("deadbeef", 30.0, "fibration", 2.3, 1642, 0, runtime_ms=7)
    params = {"B": 30.0, "method": "fibration", "x_cutoff": 2.3}
    assert cache.get("deadbeef", "count_surface", params) is None
    cache.put("deadbeef", "count_surface", params, rec.to_payload())
    got = cache.get("deadbeef", "count_surface", params)
    assert CountRecord.from_payload(got) == rec
    # different params -> different key
    assert cache.get("deadbeef", "count_surface", {**params, "B": 31.0}) is None


def test_cache_never_serves_another_algorithm_version(tmp_path, monkeypatch):
    import conicbundle.harness as harness

    cache = ResultCache(tmp_path)
    params = {"B": 30.0}
    monkeypatch.setattr(harness, "_ALGORITHM_VERSION", harness._ALGORITHM_VERSION + 1)
    cache.put("deadbeef", "count_surface", params, {"count": 1})
    assert cache.get("deadbeef", "count_surface", params) == {"count": 1}
    monkeypatch.undo()
    assert cache.get("deadbeef", "count_surface", params) is None
    cache.put("deadbeef", "count_surface", params, {"count": 2})
    assert cache.get("deadbeef", "count_surface", params) == {"count": 2}
    assert len(list(tmp_path.iterdir())) == 2


def test_cache_put_uses_its_own_temp_file(tmp_path):
    cache = ResultCache(tmp_path)
    params = {"B": 30.0}
    key = ResultCache._key("deadbeef", "count_surface", params)
    # a fixed "<key>.tmp" name would collide with another writer's file
    (tmp_path / f"{key}.tmp").mkdir()
    cache.put("deadbeef", "count_surface", params, {"count": 1})
    assert cache.get("deadbeef", "count_surface", params) == {"count": 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{key}.tmp", f"{key}.txt"]
    assert (tmp_path / f"{key}.txt").read_text() == json.dumps(
        {"op": "count_surface", "params": params, "result": {"count": 1},
         "surface": "deadbeef"}
    ) + "\n"


def test_cache_put_failure_leaves_no_temp_file(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("conicbundle.harness.os.replace", fail)
    with pytest.raises(OSError):
        cache.put("deadbeef", "count_surface", {"B": 30.0}, {"count": 1})
    assert list(tmp_path.iterdir()) == []


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("CONICBUNDLE_CACHE", str(tmp_path / "alt"))
    assert default_cache_dir() == tmp_path / "alt"


# ---------------------------------------------------------------- analyze


def test_analyze_s1(s1):
    rep = analyze(s1)
    assert rep.picard_rank == 3
    assert rep.distinct_factor_count == 1
    assert rep.w0 == 1
    assert rep.w_f == 1
    assert rep.singular_fibres == ()
    assert rep.disc_content == 1
    text = rep.render()
    assert "picard_rank: 3" in text


def test_analyze_split(split_surface):
    rep = analyze(split_surface)
    assert rep.picard_rank == 7
    assert rep.distinct_factor_count == 5
    assert rep.w_f == 144
    sing = [(idx.s, idx.t) for idx in rep.singular_fibres]
    assert sing == [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)]


# ---------------------------------------------------------------- counting


def test_count_surface_methods_agree_small(s1):
    fib = count_surface(s1, 12, method="fibration", x_cutoff=12)
    direct = count_surface(s1, 12, method="direct", x_cutoff=12)
    assert fib.count == direct.count
    assert fib.excluded_singular_fibres == 0


def test_count_surface_monotone_in_cutoff(s1):
    counts = [
        count_surface(s1, 15, method="fibration", x_cutoff=c).count
        for c in (1, 2, 4, 8, 15)
    ]
    assert counts == sorted(counts)


def test_count_surface_requires_cutoff(s1):
    with pytest.raises(ValueError):
        count_surface(s1, 10, method="fibration")
    with pytest.raises(ValueError):
        count_surface(s1, 10, method="fibration", x_cutoff=0.5)
    with pytest.raises(ValueError):
        count_surface(s1, 8, method="direct", x_cutoff=0.5)


def test_count_surface_direct_guard(s1):
    with pytest.raises(ValueError):
        count_surface(s1, 300, method="direct")


def test_count_surface_split_excludes_singular(split_surface):
    rec = count_surface(split_surface, 8, method="fibration", x_cutoff=8)
    assert rec.excluded_singular_fibres == 5
    direct = count_surface(split_surface, 8, method="direct", x_cutoff=8)
    assert rec.count == direct.count


def test_count_surface_cache_returns_stored_record(s1, tmp_path):
    cache = ResultCache(tmp_path)
    first = count_surface(s1, 12, method="fibration", x_cutoff=2, cache=cache)
    again = count_surface(s1, 12, method="fibration", x_cutoff=2, cache=cache)
    assert first == again
    assert first.runtime_ms == again.runtime_ms  # byte-identical, not re-run


def _record_text(surface_id, op, params, shape):
    """A cache file of valid JSON whose record has the given wrong shape."""
    if shape in ("[]", '"x"'):
        return shape
    record = {"surface": surface_id, "op": op, "params": params}
    return json.dumps({**record, "result": json.loads(shape)})


# a count-surface result must hold every field of its record, with integer
# counts
_BAD_SHAPES = ["[]", '"x"', "5", "{}", '{"count": "3"}', '{"count": 1.5}', '{"count": true}']


def _without_runtime(out):
    return [line for line in out.splitlines() if not line.startswith("runtime_ms:")]


@pytest.mark.parametrize("shape", [*_BAD_SHAPES, '{"count": 1}'])
def test_cli_malformed_count_record_is_a_miss(s1, s1_file, tmp_path, capsys, shape):
    # a record of another shape is recomputed and overwritten, not a traceback
    argv = ("count-surface", s1_file, "--height", 10, "--cutoff", 5)
    assert run_cli("--no-cache", *argv) == 0
    cold = capsys.readouterr().out
    cache = ResultCache(tmp_path)
    params = {"B": 10, "method": "fibration", "x_cutoff": 5.0}
    path = cache._path(s1.surface_hash, "count-surface", params)
    path.write_text(_record_text(s1.surface_hash, "count-surface", params, shape))
    assert run_cli("--cache-dir", tmp_path, *argv) == 0
    assert _without_runtime(capsys.readouterr().out) == _without_runtime(cold)
    result = json.loads(path.read_text())["result"]
    assert CountRecord.from_payload(result) == count_surface(s1, 10, "fibration", 5)


@pytest.mark.parametrize("field", ["count", "excluded_singular_fibres", "runtime_ms"])
def test_cli_count_record_with_a_negative_field_is_a_miss(s1, s1_file, tmp_path, capsys, field):
    # a record of every field, one of them negative, is recounted
    argv = ("count-surface", s1_file, "--height", 10, "--cutoff", 5)
    assert run_cli("--no-cache", *argv) == 0
    cold = capsys.readouterr().out
    cache = ResultCache(tmp_path)
    params = {"B": 10, "method": "fibration", "x_cutoff": 5.0}
    fresh = count_surface(s1, 10, "fibration", 5)
    cache.put(s1.surface_hash, "count-surface", params, {**fresh.to_payload(), field: -7})
    assert run_cli("--cache-dir", tmp_path, *argv) == 0
    assert _without_runtime(capsys.readouterr().out) == _without_runtime(cold)
    result = cache.get(s1.surface_hash, "count-surface", params)
    assert CountRecord.from_payload(result) == fresh and result[field] >= 0


def test_cli_record_of_other_params_is_a_miss(s1, s1_file, tmp_path, capsys):
    # the file of (B = 10, cutoff 5) holds the record of (B = 12, cutoff 5),
    # as a colliding key would: a miss, which is recounted and replaced
    argv = ("count-surface", s1_file, "--height", 10, "--cutoff", 5)
    assert run_cli("--no-cache", *argv) == 0
    cold = capsys.readouterr().out
    cache = ResultCache(tmp_path)
    params = {"B": 10, "method": "fibration", "x_cutoff": 5.0}
    other = {**params, "B": 12}
    record = count_surface(s1, 12, "fibration", 5)
    assert record.count != count_surface(s1, 10, "fibration", 5).count
    path = cache._path(s1.surface_hash, "count-surface", params)
    path.write_text(json.dumps({"surface": s1.surface_hash, "op": "count-surface",
                                "params": other, "result": record.to_payload()}))
    assert cache.get(s1.surface_hash, "count-surface", params) is None
    assert run_cli("--cache-dir", tmp_path, *argv) == 0
    assert _without_runtime(capsys.readouterr().out) == _without_runtime(cold)
    assert json.loads(path.read_text())["params"] == params


# a fibre-counts result must be a dict of counts, ints >= 0: a record of
# another shape is a miss for every fibre, an entry of another type or a
# negative one (here on every fibre, "s:t") a miss for its own fibre only
_BAD_COUNTS = ["[]", '"x"', "5", "{}", '{"counts": []}',
               '{"counts": {"s:t": "3"}}', '{"counts": {"s:t": 1.5}}', '{"counts": {"s:t": true}}',
               '{"counts": {"s:t": -1000}}']


def _fibre_keys(X, cutoff):
    return [f"{idx.s}:{idx.t}" for idx in domain_B(X, cutoff)]


def _exact_counts(X, cutoff, B):
    """count_points at height B on every fibre up to the cutoff, by "s:t"."""
    return {f"{idx.s}:{idx.t}": count_points(fibre_conic(X, idx), B).count
            for idx in domain_B(X, cutoff)}


def _record_calls(monkeypatch):
    """The conics harness.count_points is called on from now on."""
    import conicbundle.harness as harness

    calls = []

    def recorded(C, B, **kw):
        calls.append(C)
        return count_points(C, B, **kw)

    monkeypatch.setattr(harness, "count_points", recorded)
    return calls


@pytest.mark.parametrize("shape", _BAD_COUNTS)
def test_cli_malformed_fibre_count_record_is_a_miss(
    s1, s1_file, tmp_path, capsys, monkeypatch, shape
):
    argv = ("count-surface", s1_file, "--height", 10, "--cutoff", 3)
    assert run_cli("--no-cache", *argv) == 0
    cold = capsys.readouterr().out
    cache = ResultCache(tmp_path)
    path = cache._path(s1.surface_hash, "fibre-counts", {"B": 10})
    if "s:t" in shape:
        entry = json.loads(shape)["counts"]["s:t"]
        shape = json.dumps({"counts": dict.fromkeys(_fibre_keys(s1, 3), entry)})
    path.write_text(_record_text(s1.surface_hash, "fibre-counts", {"B": 10}, shape))
    calls = _record_calls(monkeypatch)
    assert run_cli("--cache-dir", tmp_path, *argv) == 0
    assert len(calls) == len(_fibre_keys(s1, 3))  # every fibre is recounted
    assert _without_runtime(capsys.readouterr().out) == _without_runtime(cold)
    counts = json.loads(path.read_text())["result"]["counts"]
    assert all(type(n) is int for n in counts.values())
    assert counts == _exact_counts(s1, 3, 10)


class _SerialPool:
    """A stand-in process pool that maps in this process: no process starts."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("setup", ["fresh", "two workers", "foreign entry"])
def test_larger_cutoff_extends_the_fibre_counts_record(
    s1, s1_file, tmp_path, capsys, monkeypatch, setup
):
    # one record per (surface, B): a second cutoff counts only the fibres the
    # first left out, and the directory holds it and the two count records
    import concurrent.futures

    workers = 2 if setup == "two workers" else 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cache = ResultCache(tmp_path)
    path = cache._path(s1.surface_hash, "fibre-counts", {"B": 10})
    foreign = {"999:1": 7} if setup == "foreign entry" else {}
    if foreign:
        cache.put(s1.surface_hash, "fibre-counts", {"B": 10}, {"counts": foreign})
    calls = _record_calls(monkeypatch)
    counted = []
    for cutoff in (3, 5):
        argv = ("count-surface", s1_file, "--height", 10, "--cutoff", cutoff)
        assert run_cli("--cache-dir", tmp_path, *argv, "--workers", workers) == 0
        counted.append(len(calls))
        cached = _without_runtime(capsys.readouterr().out)
        assert run_cli("--no-cache", *argv) == 0
        assert cached == _without_runtime(capsys.readouterr().out)
        calls.clear()
    first, both = _fibre_keys(s1, 3), _fibre_keys(s1, 5)
    assert counted == [len(first), len(both) - len(first)]
    assert len(list(tmp_path.iterdir())) == 3
    counts = json.loads(path.read_text())["result"]["counts"]
    assert counts == {**foreign, **_exact_counts(s1, 5, 10)}


# ---------------------------------------------------------------- constants


def test_sum_constants_tiny_domain(s1):
    r = sum_constants(s1, 1, tol=0.05)
    assert r.fibre_count <= 4
    assert r.fibre_count == 4
    assert 0 < r.lower <= r.upper
    assert r.failed_fibres == ()


def test_sum_constants_monotone(s1):
    r1 = sum_constants(s1, 1, tol=0.05)
    r2 = sum_constants(s1, 2, tol=0.05)
    assert r2.lower >= r1.lower
    assert r2.fibre_count > r1.fibre_count


def test_sum_constants_strict_raises(s1):
    from conicbundle.densities import ToleranceNotMet

    # 1e-40 is below what the fixed working precision certifies
    with pytest.raises(ToleranceNotMet):
        sum_constants(s1, 2, tol=1e-40, strict=True)
    r = sum_constants(s1, 2, tol=1e-40, strict=False)
    # every fibre's sigma_inf bracket misses tol, so none contributes to the sum
    assert r.fibre_count == 0
    assert len(r.failed_fibres) == 8
    assert r.lower == r.upper == 0


def test_sum_constants_growth_exponent_vs_final_lemma(s1):
    # the height-sum carries one extra log factor over the lemma sum;
    # after stripping it the fitted exponents sit within 0.4 (measured
    # gap 0.12); the chain inequality itself holds at every probe
    xs = [10, 30, 100]
    S = [float(sum_constants(s1, x, tol=0.05).midpoint) for x in xs]
    L = [float(final_lemma_sum(s1, x)) for x in xs]
    assert all(s >= l for s, l in zip(S, L))
    assert S[0] == pytest.approx(17.413014, rel=1e-3)
    assert S[1] == pytest.approx(28.908908, rel=1e-3)
    assert S[2] == pytest.approx(45.351907, rel=1e-3)
    ll = np.log(np.log(np.array(xs, float)))
    s_stripped = np.polyfit(ll, np.log(np.array(S)) - np.log(np.log(xs)), 1)[0]
    s_lemma = np.polyfit(ll, np.log(np.array(L)), 1)[0]
    assert abs(s_stripped - s_lemma) <= 0.4


# ---------------------------------------------------------------- growth


def test_growth_table_single_height(s1):
    rows = growth_table(s1, [40], delta=0.25)
    assert len(rows) == 1
    row = rows[0]
    assert row.height_bound == 40
    assert row.x_cutoff == pytest.approx(40**0.25)
    assert row.rho == 3
    assert row.count > 0
    expected = row.count / (40 * math.log(40) ** 2)
    assert row.normalized == pytest.approx(expected)


def test_growth_table_matches_count_surface(s1):
    rows = growth_table(s1, [20, 60], delta=0.25)
    for row in rows:
        rec = count_surface(s1, row.height_bound, x_cutoff=row.x_cutoff)
        assert row.count == rec.count


def test_growth_table_validation(s1):
    with pytest.raises(ValueError):
        growth_table(s1, [30, 20])
    with pytest.raises(ValueError):
        growth_table(s1, [])
    with pytest.raises(ValueError):
        growth_table(s1, [10, 20], delta=0.0)
    with pytest.raises(ValueError):
        growth_table(s1, [10, 20], delta=1.5)
    with pytest.raises(ValueError, match="--heights"):
        growth_table(s1, [1, 10])


def test_write_growth_csv(s1, tmp_path):
    rows = growth_table(s1, [10, 40], delta=0.25)
    out = tmp_path / "g.csv"
    write_growth_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == [
        "height_bound",
        "x_cutoff",
        "count",
        "excluded_singular_fibres",
        "rho",
        "normalized",
    ]
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 10
    assert int(first[2]) == rows[0].count


# ---------------------------------------------------------------- CLI


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_cli_analyze(s1_file, capsys, tmp_path):
    rc = run_cli("--cache-dir", tmp_path, "analyze", s1_file)
    out = capsys.readouterr().out
    assert rc == 0
    assert "picard_rank: 3" in out


def test_cli_analyze_invalid_surface(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # zero quadratic part forces an identically vanishing discriminant
    bad.write_text(json.dumps({"a": [1, 0], "d": [0, 0], "f": [0, 0],
                               "b": [0, 0, 0], "e": [0, 0, 0]}))
    rc = run_cli("--no-cache", "analyze", bad)
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_count_fibre_with_points(s1_file, capsys):
    rc = run_cli("--no-cache", "count-fibre", s1_file,
                 "--s", 1, "--t", 2, "--height", 17, "--dump-points")
    out = capsys.readouterr().out
    assert rc == 0
    assert "count: 13" in out
    assert out.count("point:") == 13


@pytest.mark.parametrize("a", ["[1.5, 0]", '"10"', "[true, 0]", "[1e23, 0]"])
def test_cli_refuses_non_integer_coefficients(a, tmp_path, capsys):
    # int() would read each as S1's a = [1, 0], and 1e23 as 99999999999999991611392
    path = tmp_path / "surface.json"
    path.write_text('{"a": %s, "d": [0, 1], "f": [1, -1], "b": [1, 0, 1], "e": [0, 1, 0]}' % a)
    rc = run_cli("--no-cache", "analyze", path)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error[ValueError]: coefficient 'a' must be a list of integers")


@pytest.mark.parametrize("argv", [["analyze"], ["wirsing-check", "--function", "rho-delta",
                                                "--x", "1000", "--surface"]])
def test_cli_runs_when_w_f_has_large_prime_factors(argv, tmp_path, capsys):
    # w_f = w0 = pq with two 14-digit primes, past what rho factors in its
    # budget; both commands need w_f itself, never its prime factors
    p, q = 10000000000037, 30000000000011
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"a": [1, 0], "d": [0, 1], "f": [1, -1],
                                "b": [1, 0, p * q], "e": [0, 1, 0]}))
    start = time.perf_counter()
    rc = run_cli("--no-cache", *argv, path)
    assert time.perf_counter() - start < 5
    assert rc == 0, capsys.readouterr().err
    if argv == ["analyze"]:
        assert f"w_f: {p * q}\n" in capsys.readouterr().out


def test_cli_count_fibre_singular(split_file, capsys):
    rc = run_cli("--no-cache", "count-fibre", split_file,
                 "--s", 1, "--t", 1, "--height", 10)
    assert rc == 2


def test_cli_densities(s1_file, capsys):
    rc = run_cli("--no-cache", "densities", s1_file, "--s", 1, "--t", 2)
    out = capsys.readouterr().out
    assert rc == 0
    assert "prime 41" in out
    assert "80/41" in out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("command, flag", [
    (["count-fibre", "{surface}", "--s", "1", "--t", "2"], "--height"),
    (["count-surface", "{surface}", "--cutoff", "3"], "--height"),
    (["densities", "{surface}", "--s", "1", "--t", "2"], "--tol"),
    (["sum-constants", "{surface}", "--x", "2"], "--tol"),
])
def test_cli_refuses_a_non_finite_or_non_positive_number(command, flag, value, s1_file, capsys):
    argv = [a.format(surface=s1_file) for a in command]
    assert run_cli("--no-cache", *argv, f"{flag}={value}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error[ValueError]: {flag} must be a finite number")


def test_cli_densities_unattainable_tol(s1_file, capsys):
    rc = run_cli("--no-cache", "densities", s1_file,
                 "--s", 1, "--t", 2, "--tol", "1e-30")
    assert rc == 3
    assert "ToleranceNotMet" in capsys.readouterr().err


def test_cli_count_surface_cached_rerun_identical(s1_file, tmp_path, capsys):
    args = ("--cache-dir", tmp_path / "cache", "count-surface", s1_file,
            "--height", 30, "--method", "fibration", "--cutoff", 30)
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    second = capsys.readouterr().out
    assert first == second  # including runtime_ms: replayed from the cache
    assert "count: 1642" in first


def test_cli_count_surface_direct_guard(s1_file, capsys):
    rc = run_cli("--no-cache", "count-surface", s1_file,
                 "--height", 250, "--method", "direct")
    assert rc == 2


def test_cli_count_surface_direct_cutoff_nan_and_inf(s1_file, capsys):
    # NaN is no cutoff >= 1; inf filters no fibre, as 1e30 does
    args = ("--no-cache", "count-surface", s1_file, "--height", 5, "--method", "direct")
    assert run_cli(*args, "--cutoff", "nan") == 2
    err = capsys.readouterr().err
    assert err.startswith("error[ValueError]: ") and "x_cutoff >= 1" in err
    assert run_cli(*args, "--cutoff", "1e30") == 0
    big = capsys.readouterr().out
    assert run_cli(*args, "--cutoff", "inf") == 0
    out = capsys.readouterr().out
    assert "x_cutoff: inf" in out
    count = [line for line in out.splitlines() if line.startswith("count:")]
    assert count == [line for line in big.splitlines() if line.startswith("count:")]


def test_cli_count_surface_direct_overflow_exits_2(tmp_path, capsys):
    # a 21-digit coefficient does not fit the int64 surface kernel
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"a": [123456789123456789123, 0], "d": [0, 1],
                               "f": [1, -1], "b": [1, 0, 1], "e": [0, 1, 0]}))
    rc = run_cli("--no-cache", "count-surface", big,
                 "--height", 3, "--method", "direct")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error[OverflowError]: ")
    assert err.count("\n") == 1


def test_cli_count_surface_direct_refuses_int64_wrap(tmp_path, capsys):
    # F = 2^64 at (1:-1:1:1) and (1:0:1:1) would wrap to 0 in int64
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"a": [2**62, 0], "d": [2**62, 1], "f": [2**62, -1],
                               "b": [2**62, 0, 1], "e": [0, 1, 0]}))
    rc = run_cli("--no-cache", "count-surface", big,
                 "--height", 1, "--method", "direct")
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error[OverflowError]: ")
    assert captured.err.count("\n") == 1


def test_cli_memory_error_exits_2(s1_file, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 9.74 GiB")

    monkeypatch.setattr("conicbundle.harness.count_points", exhausted)
    rc = run_cli("--no-cache", "count-fibre", s1_file,
                 "--s", 1, "--t", -3, "--height", 3)
    assert rc == 2
    assert capsys.readouterr().err == "error[MemoryError]: Unable to allocate 9.74 GiB\n"


def test_cli_arithmetic_error_exits_2(s1_file, capsys, monkeypatch):
    def explosion(*args, **kwargs):
        raise ArithmeticError("solution class explosion: 1048584 CRT combinations")

    monkeypatch.setattr("conicbundle.harness.count_points", explosion)
    rc = run_cli("--no-cache", "count-fibre", s1_file,
                 "--s", 1, "--t", -3, "--height", 3)
    assert rc == 2
    assert capsys.readouterr().err == (
        "error[ArithmeticError]: solution class explosion: 1048584 CRT combinations\n"
    )


def test_cli_sum_constants(s1_file, capsys):
    rc = run_cli("--no-cache", "sum-constants", s1_file, "--x", 2, "--tol", "0.05")
    out = capsys.readouterr().out
    assert rc == 0
    assert "fibres: 8" in out


def test_cli_growth(s1_file, tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    rc = run_cli("--no-cache", "growth", s1_file,
                 "--heights", "10,40", "--out", out_csv)
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 3


def test_cli_growth_bad_heights(s1_file, tmp_path):
    rc = run_cli("--no-cache", "growth", s1_file,
                 "--heights", "40,10", "--out", tmp_path / "x.csv")
    assert rc == 2


def test_cli_growth_refuses_height_1(s1_file, tmp_path, capsys):
    # log 1 = 0 leaves no normalized value: refused before any row is counted
    out_csv = tmp_path / "rows.csv"
    rc = run_cli("--no-cache", "growth", s1_file, "--heights", "1,10", "--out", out_csv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[ValueError]: --heights must all be >= 2, got 1\n"
    assert not out_csv.exists()


def test_cli_wirsing_builtin(capsys):
    rc = run_cli("--no-cache", "wirsing-check", "--function",
                 "squarefree-harmonic", "--x", 20000)
    out = capsys.readouterr().out
    assert rc == 0
    assert "k_hat:" in out


def test_cli_wirsing_rho_delta_needs_surface(capsys):
    rc = run_cli("--no-cache", "wirsing-check", "--function", "rho-delta",
                 "--x", 1000)
    assert rc == 2


def test_cli_wirsing_rho_delta(s1_file, capsys):
    rc = run_cli("--no-cache", "wirsing-check", "--function", "rho-delta",
                 "--surface", s1_file, "--x", 5000)
    out = capsys.readouterr().out
    assert rc == 0
    assert "k_hat:" in out


def test_cli_wirsing_rejects_fractional_x(s1_file, capsys):
    rc = run_cli("--no-cache", "wirsing-check", "--function", "rho-delta",
                 "--surface", s1_file, "--x", "2.5")
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error[ValueError]: --x must be an integer, got 2.5\n"
    # integral spellings still run
    rc = run_cli("--no-cache", "wirsing-check", "--function",
                 "squarefree-harmonic", "--x", "1e4")
    assert rc == 0
    assert "x: 10000\n" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["300.00000000000001", "1e-3", "abc", "1/0"])
def test_cli_wirsing_x_is_parsed_exactly(text, capsys):
    # a float would round 300.00000000000001 to 300 and run it; the text is
    # quoted as given
    rc = run_cli("--no-cache", "wirsing-check", "--function",
                 "squarefree-harmonic", "--x", text)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error[ValueError]: --x must be an integer, got {text}\n"


def test_harness_import_leaves_out_the_process_pool():
    # only --workers > 1 starts a pool; importing multiprocessing costs ~25 ms
    src = os.path.dirname(os.path.dirname(conicbundle.__file__))
    code = ("import sys, conicbundle.harness; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_counting_leaves_numpy_ma_unimported(s1_file, tmp_path):
    # np.unique without return_inverse and np.isin import numpy.ma, ~1.7 MiB
    # of peak RSS on the first call; no counting path may reach them
    src = os.path.dirname(os.path.dirname(conicbundle.__file__))
    code = ("import sys; from conicbundle.harness import main; "
            "assert main(sys.argv[1:8]) == 0 and main(sys.argv[8:]) == 0; "
            "print('numpy.ma' in sys.modules)")
    argv = ["--no-cache", "count-surface", s1_file, "--height", "100", "--cutoff", "10",
            "--no-cache", "growth", s1_file, "--heights", "10000", "--out", tmp_path / "g.csv"]
    out = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "False"


def test_per_fibre_counts_do_not_depend_on_workers_or_task_size(split_surface, monkeypatch):
    import conicbundle.harness as harness

    fibres = list(domain_B(split_surface, 8))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    count_task = harness._count_task
    # at B = 10^4 every fibre has long rows, clipped a piece of fibres at a
    # time, and most are counted by congruences: the task boundaries cut
    # the fibres into other pieces.  One worker runs the same tasks as two,
    # in this process: one per _TASK_FIBRES fibres, of their keys and
    # indices and no conics
    for B in (100, 10**4):
        one = harness._fibre_counts(split_surface, fibres, B, None, 1)
        for size in (64, 7):
            monkeypatch.setattr(harness, "_TASK_FIBRES", size)
            tasks = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(harness, "_count_task", lambda task: tasks.append(task) or count_task(task))
                assert harness._fibre_counts(split_surface, fibres, B, None, 1) == one
            assert tasks == [(split_surface, [(f"{idx.s}:{idx.t}", idx) for idx in part], B)
                             for part in (fibres[i:i + size] for i in range(0, len(fibres), size))]
            assert harness._fibre_counts(split_surface, fibres, B, None, 2) == one


def test_a_fibre_past_the_row_budget_in_a_group_is_refused(s1, s1_file, monkeypatch, capsys):
    # one group of every fibre; the fibre with the most rows lies inside
    # it, and with the budget one row short of it, the group is refused
    # before any table of it is yielded, and the CLI exits 2 with one line
    conics = [fibre_conic(s1, idx) for idx in domain_B(s1, 5)]
    scan, rows = conicbundle.conic._scan, []

    def spy(fibres, bound, lats, piece, *args):
        rows.append(len(piece.lat))  # a fibre alone is one piece
        return scan(fibres, bound, lats, piece, *args)

    with monkeypatch.context() as mp:
        mp.setattr(conicbundle.conic, "_scan", spy)
        for C in conics:
            next(conicbundle.conic.fibre_tables([C], 100))
    i = rows.index(max(rows))
    assert 0 < i < len(conics) - 1
    monkeypatch.setattr(conicbundle.conic, "_BASES", 10**9)
    monkeypatch.setattr(conicbundle.conic, "_ROW_BUDGET", rows[i] - 1)
    message = (f"row budget exceeded: the fibre's lattices have {rows[i]} rows, more than "
               f"the {rows[i] - 1} one fibre may build")
    with pytest.raises(ArithmeticError) as err:
        next(conicbundle.conic.fibre_tables(conics, 100))
    assert str(err.value) == message
    argv = ["--no-cache", "count-surface", s1_file, "--height", 100, "--cutoff", 5]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[ArithmeticError]: {message}\n"


def test_count_surface_with_two_workers_matches_one(s1):
    one = count_surface(s1, 15, method="fibration", x_cutoff=6)
    two = count_surface(s1, 15, method="fibration", x_cutoff=6, workers=2)
    assert two.count == one.count


def test_workers_are_capped_at_the_cores_and_refused_below_one(
    s1, s1_file, tmp_path, monkeypatch, capsys
):
    # the pool forks all its processes at the first submit; a stand-in pool
    # records its size and maps in this process, so no process starts here
    import concurrent.futures

    sizes = []

    class SerialPool(_SerialPool):
        def __init__(self, max_workers):
            sizes.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    # tasks of 2 fibres: more tasks than cores up to fibre height 6
    monkeypatch.setattr(conicbundle.harness, "_TASK_FIBRES", 2)
    one = count_surface(s1, 15, method="fibration", x_cutoff=6)
    many = count_surface(s1, 15, method="fibration", x_cutoff=6, workers=10**6)
    assert many.count == one.count
    assert sizes == [3]
    # no more processes than tasks: S1 has 8 fibres up to fibre height 2,
    # 4 tasks of 2
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    few = count_surface(s1, 15, method="fibration", x_cutoff=2, workers=10**6)
    assert few.count == count_surface(s1, 15, method="fibration", x_cutoff=2).count
    assert sizes == [3, 4]
    # one task of all 8 fibres starts no pool
    monkeypatch.setattr(conicbundle.harness, "_TASK_FIBRES", 8)
    assert count_surface(s1, 15, method="fibration", x_cutoff=2, workers=10**6).count == few.count
    assert sizes == [3, 4]
    for argv in (["count-surface", s1_file, "--height", "15", "--cutoff", "6", "--workers", "0"],
                 ["growth", s1_file, "--heights", "15", "--out", tmp_path / "g.csv",
                  "--workers", "-3"]):
        assert run_cli("--no-cache", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[ValueError]: workers must be >= 1, got {argv[-1]}\n"
    assert sizes == [3, 4]
    assert not (tmp_path / "g.csv").exists()


# ---------------------------------------------------------------- hostile input


def _main_capped(argv: list[str]):
    """`main(["--no-cache", *argv])` in a child process whose address space
    alone is capped at 3 GiB."""
    src = os.path.dirname(os.path.dirname(conicbundle.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    code = "import sys; from conicbundle.harness import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, "--no-cache", *argv], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=60)


def _count_fibre_capped(surface: dict, s: int, t: int, height: int, tmp_path):
    """count-fibre --dump-points under the 3 GiB cap of `_main_capped`."""
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(surface))
    return _main_capped(["count-fibre", str(path), "--s", str(s), "--t", str(t),
                         "--height", str(height), "--dump-points"])


@pytest.mark.parametrize("p, q", [(100000007, 300000007), (10000000019, 30000000001)])
def test_cli_count_fibre_skewed_class_lattice(p, q, tmp_path):
    # S1 with f = [pq, -1]: its fibre (1 : 0) is x^2 + xy + pq z^2, whose
    # class lattice {pq | u} has a box row of ~2 sqrt(10 pq) cells
    surface = {"a": [1, 0], "d": [0, 1], "f": [p * q, -1], "b": [1, 0, 1], "e": [0, 1, 0]}
    run = _count_fibre_capped(surface, 1, 0, 10, tmp_path)
    assert run.returncode == 0, run.stderr
    assert "count: 2\n" in run.stdout
    assert run.stdout.count("point: ") == 2


def test_cli_count_fibre_huge_coefficient(tmp_path):
    surface = {"a": [123456789123456789123, 0], "d": [0, 1], "f": [1, -1],
               "b": [1, 0, 1], "e": [0, 1, 0]}
    run = _count_fibre_capped(surface, 1, -3, 3, tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.endswith("count: 1\npoint: (0 : 1 : 0)  height=3\n")


def test_cli_count_fibre_unfactorable_determinant(tmp_path):
    # the determinant of fibre (1 : 0) is p q with two 21-digit primes, past
    # the squarings rho may spend: refused with exit 2 instead of a hang
    p, q = 100000000000000000039, 300000000000000000053
    surface = {"a": [1, 0], "d": [0, 1], "f": [p * q, -1], "b": [1, 0, 1], "e": [0, 1, 0]}
    start = time.perf_counter()
    run = _count_fibre_capped(surface, 1, 0, 10, tmp_path)
    assert time.perf_counter() - start < 30
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error[ArithmeticError]: ")
    assert str(p * q) in run.stderr
    assert run.stderr.count("\n") == 1


def test_cli_wirsing_refuses_x_past_the_sieve_limit():
    # 5e8 is past the sieve limit: refused before any allocation
    start = time.perf_counter()
    run = _main_capped(["wirsing-check", "--function", "squarefree-harmonic", "--x", "5e8"])
    assert time.perf_counter() - start < 1.0
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error[ValueError]: ")
    assert str(MAX_WIRSING_X) in run.stderr
    assert run.stdout == ""


def test_cli_count_fibre_refuses_past_the_row_budget(s1_file):
    # at height 10^12 the lattices of fibre (1 : 2) have 2,253,149 rows:
    # refused before any is built, where it used to run without end
    start = time.perf_counter()
    run = _main_capped(["count-fibre", s1_file, "--s", "1", "--t", "2", "--height", "1e12"])
    assert time.perf_counter() - start < 5
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error[ArithmeticError]: row budget exceeded: ")
    assert "2253149 rows" in run.stderr and run.stderr.count("\n") == 1
    assert run.stdout == ""


def test_cli_count_fibre_points_scan_every_row_within_the_cell_budget(s1_file, capsys,
                                                                     monkeypatch):
    # at height 10^5 fibre (1 : 2) leaves 1,715 cells to scan beside the rows
    # counted by congruences, and 99,071 when its points are listed
    monkeypatch.setattr(conicbundle.conic, "_CELL_BUDGET", 10_000)
    argv = ["--no-cache", "count-fibre", s1_file, "--s", 1, "--t", 2, "--height", 10**5]
    assert run_cli(*argv) == 0
    assert "count: 58235\n" in capsys.readouterr().out
    assert run_cli(*argv, "--dump-points") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error[ArithmeticError]: cell budget exceeded: the fibre has 99071 "
                            "cells to scan, more than the 10000 one fibre may scan\n")


@pytest.mark.parametrize("int64", [True, False])
def test_a_fibre_past_the_cell_budget_inside_a_piece_is_refused(s1_file, capsys, monkeypatch,
                                                                int64):
    # count-surface at height 100, cutoff 5: its 40 fibres, on int64 or all
    # on object arrays, are one piece, and the fibre with the most cells to
    # scan is not its first.  With the budget one cell short of it, it is
    # refused with its own count before any cell of the piece is scanned
    if not int64:
        monkeypatch.setattr(conicbundle.conic, "_int64_ok", lambda *args: False)
    scan, lattice_points, pieces, scans = (conicbundle.conic._scan,
                                           conicbundle.conic.iter_lattice_points, [], [])

    def spy(conics, bound, lats, rows, owner, want_points):
        cells = [0] * len(conics)
        for f, n in zip(owner[rows.lat].tolist(), (rows.hi - rows.lo + 1).tolist()):
            cells[f] += max(n, 0)
        pieces.append(cells)
        return scan(conics, bound, lats, rows, owner, want_points)

    monkeypatch.setattr(conicbundle.conic, "_scan", spy)
    monkeypatch.setattr(conicbundle.conic, "iter_lattice_points",
                        lambda *args: scans.append(args) or lattice_points(*args))
    argv = ["--no-cache", "count-surface", s1_file, "--height", 100, "--cutoff", 5]
    assert run_cli(*argv) == 0
    capsys.readouterr()
    (cells,) = pieces
    top = max(cells)
    assert len(cells) == 40 and cells.count(top) == 1 and cells.index(top) > 0
    pieces.clear()
    scans.clear()
    monkeypatch.setattr(conicbundle.conic, "_CELL_BUDGET", top - 1)
    assert run_cli(*argv) == 2
    assert pieces == [cells] and scans == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error[ArithmeticError]: cell budget exceeded: the fibre has {top} "
                            f"cells to scan, more than the {top - 1} one fibre may scan\n")


@pytest.mark.parametrize("argv", [
    ["count-surface", "{surface}", "--height", "10", "--cutoff", "1e30"],
    ["count-surface", "{surface}", "--height", "10", "--cutoff", "1e5"],
    ["count-surface", "{surface}", "--height", "10", "--cutoff", "nan"],
    ["count-surface", "{surface}", "--height", "10", "--cutoff", "inf"],
    ["growth", "{surface}", "--heights", "10,2000", "--delta", "1", "--out", "{csv}"],
])
def test_cli_refuses_a_fibre_cutoff_past_the_limit(s1_file, tmp_path, argv):
    # refused before any fibre is counted, with the limit in the message
    csv_path = tmp_path / "growth.csv"
    start = time.perf_counter()
    run = _main_capped([a.format(surface=s1_file, csv=csv_path) for a in argv])
    assert time.perf_counter() - start < 1.0
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error[ValueError]: ")
    assert str(MAX_FIBRE_HEIGHT) in run.stderr
    assert run.stdout == ""
    assert not csv_path.exists()


def test_growth_refuses_before_its_first_row(s1, monkeypatch):
    import conicbundle.harness as harness

    calls = []
    monkeypatch.setattr(harness, "count_surface", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=str(MAX_FIBRE_HEIGHT)):
        growth_table(s1, [10, 2000], delta=1)
    assert calls == []
    # the direct method only filters by its cutoff: no limit there
    monkeypatch.undo()
    assert count_surface(s1, 4, "direct", 1e30).count == count_surface(s1, 4, "direct").count


@pytest.mark.parametrize("x", ["1e30", "nan", "inf"])
def test_cli_sum_constants_refuses_x_past_the_limit(s1_file, x):
    # refused before any fibre is built, with the limit in the message
    start = time.perf_counter()
    run = _main_capped(["sum-constants", s1_file, "--x", x])
    assert time.perf_counter() - start < 1.0
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error[ValueError]: ")
    assert str(MAX_FIBRE_HEIGHT) in run.stderr
    assert run.stdout == ""


def test_sum_constants_takes_x_up_to_the_limit(s1, monkeypatch):
    import conicbundle.harness as harness

    firsts = []

    def first_fibre_only(fibres, tol, strict):
        firsts.append(next(iter(fibres)))
        return 0, 0, 0, []

    monkeypatch.setattr(harness, "constant_sum", first_fibre_only)
    assert sum_constants(s1, MAX_FIBRE_HEIGHT).x == MAX_FIBRE_HEIGHT
    with pytest.raises(ValueError, match=str(MAX_FIBRE_HEIGHT)):
        sum_constants(s1, MAX_FIBRE_HEIGHT + 0.5)
    assert len(firsts) == 1
