import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import conicbundle
from conicbundle.analytic import final_lemma_sum
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

    with pytest.raises(ToleranceNotMet):
        sum_constants(s1, 2, tol=1e-13, max_depth=10, strict=True)
    r = sum_constants(s1, 2, tol=1e-13, max_depth=10, strict=False)
    # every fibre fails quadrature, so none contributes to the sum
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


# ---------------------------------------------------------------- hostile input


def _count_fibre_capped(surface: dict, s: int, t: int, height: int, tmp_path):
    """count-fibre --dump-points in a child process whose address space alone
    is capped at 3 GiB."""
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(surface))
    src = os.path.dirname(os.path.dirname(conicbundle.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    code = "import sys; from conicbundle.harness import main; sys.exit(main(sys.argv[1:]))"
    argv = ["--no-cache", "count-fibre", str(path), "--s", str(s), "--t", str(t),
            "--height", str(height), "--dump-points"]
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, preexec_fn=cap,
                          capture_output=True, text=True, timeout=60)


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
