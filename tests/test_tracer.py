import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_current_modules():
    # the benchmark's tracer wraps named attributes of conicbundle modules;
    # a rename or deletion in src makes install() fail here first
    paths = [str(ROOT / "perfbench"), str(ROOT / "src")]
    code = f"import sys; sys.path[:0] = {paths!r}; from tracer import Tracer, install; install(Tracer())"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_tracer_spans_cover_the_wirsing_path(s1_file):
    # the benchmark's prime-sums layers read these spans: the moved calls
    # must still go through the wrapped names
    paths = [str(ROOT / "perfbench"), str(ROOT / "src")]
    argv = ["--no-cache", "wirsing-check", "--function", "rho-delta",
            "--surface", s1_file, "--x", "5000"]
    code = "\n".join([
        f"import sys; sys.path[:0] = {paths!r}",
        "from tracer import Tracer, install",
        "from conicbundle.harness import main",
        "tracer = Tracer(); install(tracer)",
        f"assert main({argv!r}) == 0",
        "c = tracer.counters",
        "print(c['analytic.wirsing_sum.calls'], c['analytic.rho_star_prime_vector.calls'])",
    ])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    wirsing_calls, rho_calls = map(int, run.stdout.splitlines()[-1].split())
    assert wirsing_calls == 1
    assert rho_calls >= 1
