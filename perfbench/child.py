"""Run one conicbundle CLI command in this fresh interpreter and report on it.

    python3 perfbench/child.py SPEC.json RESULT.json

SPEC is a JSON object:
  src    directory that conicbundle is imported from (the checkout's src/)
  argv   the CLI arguments, as for ``conicbundle.harness.main``
  probe  when true, stop as soon as the surface file is loaded and validated
         (a set-up probe: the command's own start-up path, no computation)
  trace  when true, record spans and counters (see tracer.py)

RESULT receives ``time.monotonic`` stamps (a system-wide clock on Linux, so
the parent can subtract its own stamp taken before the spawn), the exit code,
the captured stdout, the peak RSS of this process and its children and, when
traced, the spans and counters.  A failure is reported in ``error``; the
result file is written whenever the interpreter gets that far.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


class _ProbeDone(Exception):
    """Raised by the load hook to end a set-up probe; no CLI handler catches it."""


def run(spec: dict) -> dict:
    out = {"rc": None, "error": None, "stdout": "", "t_loaded": None}
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    t0 = time.monotonic()
    import conicbundle.harness as harness

    out["import_s"] = time.monotonic() - t0
    if not os.path.realpath(harness.__file__).startswith(src + os.sep):
        raise RuntimeError(f"conicbundle imported from {harness.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    load = harness.load_surface

    def load_and_stamp(*args, **kwargs):
        surface = load(*args, **kwargs)
        if out["t_loaded"] is None:
            out["t_loaded"] = time.monotonic()
        if spec["probe"]:
            raise _ProbeDone
        return surface

    harness.load_surface = load_and_stamp
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            out["rc"] = harness.main(spec["argv"])
    except _ProbeDone:
        out["rc"] = 0
    except SystemExit as exc:  # argparse rejects the arguments
        out["rc"] = exc.code if isinstance(exc.code, int) else 2
        out["error"] = f"SystemExit({exc.code!r})"
    except Exception:
        out["error"] = traceback.format_exc()
    out["t_end"] = time.monotonic()
    out["stdout"] = buf.getvalue()
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counters"] = dict(tracer.counters)
    return out


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        out = run(spec)
    except Exception:
        out = {"rc": None, "error": traceback.format_exc()}
    out["maxrss_kib"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
