import subprocess
import sys
from pathlib import Path

from conicbundle.surface import domain_B, section_base_directions

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_current_modules():
    # the benchmark's tracer wraps named attributes of conicbundle modules;
    # a rename or deletion in src makes install() fail here first
    paths = [str(ROOT / "perfbench"), str(ROOT / "src")]
    code = f"import sys; sys.path[:0] = {paths!r}; from tracer import Tracer, install; install(Tracer())"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def _traced_run(names, *argvs):
    """Run main(argv) for each argv in turn under the benchmark's tracer in
    one fresh interpreter and return its stdout lines and the named
    counters."""
    paths = [str(ROOT / "perfbench"), str(ROOT / "src")]
    code = "\n".join([
        f"import sys; sys.path[:0] = {paths!r}",
        "from tracer import Tracer, install",
        "from conicbundle.harness import main",
        "tracer = Tracer(); install(tracer)",
        f"for argv in {list(argvs)!r}: assert main(argv) == 0",
        f"print(*(tracer.counters[n] for n in {names!r}))",
    ])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    *out, counters = run.stdout.splitlines()
    return out, list(map(int, counters.split()))


def _traced_counters(argv, names):
    return _traced_run(names, argv)[1]


def test_tracer_spans_cover_the_wirsing_path(s1_file):
    # the benchmark's prime-sums layers read these spans: the moved calls
    # must still go through the wrapped names
    argv = ["--no-cache", "wirsing-check", "--function", "rho-delta",
            "--surface", s1_file, "--x", "5000"]
    wirsing_calls, rho_calls = _traced_counters(
        argv, ["analytic.wirsing_sum.calls", "analytic.rho_star_prime_vector.calls"]
    )
    assert wirsing_calls == 1
    assert rho_calls >= 1


def test_tracer_counts_the_class_solving(split_file):
    # the benchmark's modsolve.classes layers read the wrapped
    # divisor_solutions generator that conic._layers calls by name
    argv = ["--no-cache", "count-surface", split_file, "--height", "40", "--cutoff", "4"]
    calls, classes = _traced_counters(
        argv, ["modsolve.divisor_solutions.calls", "modsolve.classes"]
    )
    assert calls >= 1
    assert classes > 0


def test_tracer_counts_every_sigma_inf_of_sum_constants(s1_file):
    # the benchmark's densities.sigma_inf layers read the wrapped sigma_inf
    # that constant_sum calls by name, once per fibre
    argv = ["--no-cache", "sum-constants", s1_file, "--x", "3"]
    out, (calls,) = _traced_run(["densities.sigma_inf.calls"], argv)
    assert f"fibres: {calls}" in out
    assert calls > 1


def test_tracer_counts_each_fibre_once_across_cutoffs(s1, s1_file, tmp_path):
    # the benchmark's count-wide expects its cutoff-30 command to count only
    # the fibres its cutoff-28 command left out: the same pair at small size
    argvs = [["--cache-dir", str(tmp_path), "count-surface", s1_file,
              "--height", "10", "--cutoff", str(cutoff)] for cutoff in (3, 5)]
    (calls,) = _traced_run(["conic.count_points.calls"], *argvs)[1]
    assert calls == len(list(domain_B(s1, 5)))


def test_tracer_points_equal_the_printed_count_of_a_growth_row(s1_file, tmp_path):
    # the benchmark's count-deep checks conic.points against its printed
    # count: rows counted by congruences never reach iter_lattice_points,
    # but every fibre's count still goes through the wrapped count_points
    argv = ["--no-cache", "growth", s1_file, "--heights", "10000", "--out", str(tmp_path / "g.csv")]
    out, (points,) = _traced_run(["conic.points"], argv)
    (row,) = [line for line in out if line.startswith("B=10000 ")]
    count = int(row.split("count=")[1].split()[0])
    assert points == count > 0


def test_tracer_counts_each_fibre_of_a_count_surface_run_once(split_surface, split_file):
    # the benchmark's count-wide checks conic.points against the printed
    # counts (its EXPECTED_POINTS): the fibre sum is the count plus each
    # shared point of the section line once per fibre, and the tables built
    # for many fibres at once still leave one count_points call per fibre,
    # but one scan (iter_lattice_points call) per piece of fibres
    argv = ["--no-cache", "count-surface", split_file, "--height", "40", "--cutoff", "4"]
    out, (calls, points, scans) = _traced_run(
        ["conic.count_points.calls", "conic.points", "modsolve.iter_lattice_points.calls"], argv)
    (count,) = [int(line.split(": ")[1]) for line in out if line.startswith("count: ")]
    fibres = len(list(domain_B(split_surface, 4)))
    shared = sum(1 for d in section_base_directions(split_surface) if max(map(abs, d)) <= 40)
    assert calls == fibres
    assert scans < fibres
    assert points == count + shared * fibres
    assert shared == 1 and count > 0
