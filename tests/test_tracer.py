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
