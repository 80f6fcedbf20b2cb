"""Benchmark of the conicbundle command-line workloads.

    python3 perfbench/run.py --workload count-deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout; conicbundle is imported from ./src, so
nothing needs installing.  Every CLI command runs in a fresh interpreter
(perfbench/child.py) with ``workers=1`` and an empty result cache of its own,
and every answer is checked against the values the seed commit printed.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics: set-up time, wall time, peak RSS.
--trace 1 runs the workload once untraced and once traced and reports the
per-layer split instead (see README.md in this directory).  Spans of the
traced round are written to .perfbench/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"

# Every run must end well inside the 180 s a run is allowed.
DEADLINE_S = 170.0
# Fresh-interpreter set-up probes per command, besides the command's own start.
SETUP_PROBES = 5

# The fixtures of tests/conftest.py.
SURFACES = {
    "s1": {"a": [1, 0], "d": [0, 1], "f": [1, -1], "b": [1, 0, 1], "e": [0, 1, 0]},
    "split": {"a": [0, 1], "d": [2, 1], "f": [2, 0], "b": [0, 0, 1], "e": [1, 0, 0]},
}


# --------------------------------------------------------------------------
# output checks: each returns a list of mismatches (empty when correct)


def _fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _mismatches(fields: dict, want: dict) -> list[str]:
    return [
        f"{key}: got {fields.get(key)!r}, want {value!r}"
        for key, value in want.items()
        if fields.get(key) != value
    ]


def expect_count(count: int, excluded: int):
    def check(stdout, round_dir):
        want = {"count": str(count), "excluded_singular_fibres": str(excluded)}
        return _mismatches(_fields(stdout), want)

    return check


def expect_growth(height: int, count: int, excluded: int):
    def check(stdout, round_dir):
        try:
            with open(round_dir / "growth.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            return [f"growth.csv unreadable: {exc}"]
        got = [(r.get("height_bound"), r.get("count"), r.get("excluded_singular_fibres"))
               for r in rows]
        want = [(str(height), str(count), str(excluded))]
        errors = [] if got == want else [f"growth.csv rows {got}, want {want}"]
        if f"B={height} " not in stdout or f"count={count} " not in stdout:
            errors.append(f"stdout lacks B={height} count={count}")
        return errors

    return check


def expect_bracket(fibres: int, lower: float, upper: float, tol: float):
    """The bracket's contract, not its bytes: it must overlap the seed bracket
    and be no wider than tol times its lower end, so a tighter bracket passes."""

    def check(stdout, round_dir):
        fields = _fields(stdout)
        errors = _mismatches(fields, {"fibres": str(fibres), "failed_fibres": "none"})
        try:
            lo, hi = float(fields["sum_lower"]), float(fields["sum_upper"])
        except (KeyError, ValueError):
            return errors + ["no sum_lower/sum_upper printed"]
        if not lo <= hi:
            errors.append(f"empty bracket [{lo}, {hi}]")
        if hi < lower or lo > upper:
            errors.append(f"bracket [{lo}, {hi}] misses the seed's [{lower}, {upper}]")
        if hi - lo > tol * lo:
            errors.append(f"bracket width {hi - lo} exceeds tol * lower = {tol * lo}")
        return errors

    return check


def expect_wirsing(k_hat: str, c_hat: str):
    def check(stdout, round_dir):
        return _mismatches(_fields(stdout), {"k_hat": k_hat, "c_hat": c_hat})

    return check


# --------------------------------------------------------------------------
# workloads: (surface, argv, check) per command; "{surface}" and "{round}"
# are filled in per round


def _cmd(surface, argv, check):
    return {"surface": surface, "argv": argv, "check": check}


WORKLOADS = {
    # One deep growth row: enumeration of large base boxes dominates.
    "count-deep": [
        _cmd("s1", ["growth", "{surface}", "--heights", "100000", "--delta", "0.25",
                    "--out", "{round}/growth.csv"],
             expect_growth(100000, 2288864, 0)),
    ],
    # Many cheap fibres: per-fibre costs (floor, class solving, lattice
    # layers) and a third command that reads most fibres back from the cache.
    "count-wide": [
        _cmd("s1", ["count-surface", "{surface}", "--height", "100", "--cutoff", "28"],
             expect_count(3168, 0)),
        _cmd("split", ["count-surface", "{surface}", "--height", "100", "--cutoff", "20"],
             expect_count(11977, 5)),
        _cmd("s1", ["count-surface", "{surface}", "--height", "100", "--cutoff", "30"],
             expect_count(3344, 0)),
    ],
    # The only workload reaching the archimedean density code.
    "constants": [
        _cmd("s1", ["sum-constants", "{surface}", "--x", "30", "--tol", "0.01"],
             expect_bracket(1112, 28.797899651, 28.997260161, 0.01)),
    ],
    # Prime sums: per-prime Frobenius root counts (S1) and the partial-sum
    # sieve over closed-form root counts (split).
    "prime-sums": [
        _cmd("s1", ["wirsing-check", "--function", "rho-delta", "--surface", "{surface}",
                    "--x", "300000"],
             expect_wirsing("0.9329", "0.196910")),
        _cmd("split", ["wirsing-check", "--function", "rho-delta", "--surface",
                       "{surface}", "--x", "10000000"],
             expect_wirsing("4.8501", "0.000151")),
    ],
}

# Fibre-level points counted by count_points on each workload, from the checked
# counts: a fibration count is the fibre sum minus one point per fibre for each
# base direction of the section line (none on S1, one on the split surface,
# whose cutoff-20 domain has 507 fibres); the cutoff-30 command recounts only
# the fibres not already cached by the cutoff-28 one.
EXPECTED_POINTS = {
    "count-deep": 2288864,
    "count-wide": 3168 + (11977 + 507) + (3344 - 3168),
}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB")]

# (name, unit, how it is obtained); self times come from the spans of tracer.py
PER_LAYER = [
    ("surface.import_s", "s", "measured"),
    ("surface.validate_s", "s", "measured"),
    ("conic.enum_s", "s", "measured"),
    ("conic.floor_s", "s", "measured"),
    ("conic.fibres", "count", "counted"),
    ("conic.points", "count", "counted"),
    ("conic.box_cells", "count", "computed"),
    ("conic.points_per_cell", "ratio", "computed"),
    ("conic.uncertified", "count", "counted"),
    ("conic.fibre_p50_ms", "ms", "measured"),
    ("conic.fibre_tail_ms", "ms", "measured"),
    ("conic.fibre_tail_pct", "%", "computed"),
    ("modsolve.classes_s", "s", "measured"),
    ("modsolve.prime_power_s", "s", "measured"),
    ("modsolve.prime_power_calls", "count", "counted"),
    ("modsolve.lattice_s", "s", "measured"),
    ("modsolve.lattice_calls", "count", "counted"),
    ("modsolve.classes", "count", "counted"),
    ("densities.sigma_inf_s", "s", "measured"),
    ("densities.sigma_p_s", "s", "measured"),
    ("densities.tol_failures", "count", "counted"),
    ("densities.bracket_rel_width", "ratio", "computed"),
    ("analytic.root_counts_s", "s", "measured"),
    ("analytic.partial_sum_s", "s", "measured"),
    ("analytic.sieve_s", "s", "measured"),
    ("analytic.primes", "count", "counted"),
    ("harness.cache_get_s", "s", "measured"),
    ("harness.cache_put_s", "s", "measured"),
    ("harness.cache_hits", "count", "counted"),
    ("harness.cache_misses", "count", "counted"),
    ("trace.overhead_s", "s", "measured"),
]

# per-layer time -> span whose self time it is
SELF_TIMES = {
    "surface.validate_s": "surface.load_surface",
    "conic.enum_s": "conic.count_points",
    "conic.floor_s": "conic.certified_min_m",
    "modsolve.classes_s": "modsolve.divisor_solutions",
    "modsolve.prime_power_s": "modsolve.solutions_mod_prime_power",
    "modsolve.lattice_s": "modsolve.iter_lattice_points",
    "densities.sigma_inf_s": "densities.sigma_inf",
    "densities.sigma_p_s": "densities.bad_prime_product",
    "analytic.root_counts_s": "analytic.rho_star_prime_vector",
    "analytic.partial_sum_s": "analytic.wirsing_sum",
    "analytic.sieve_s": "analytic.shared_primes",
    "harness.cache_get_s": "harness.cache_get",
    "harness.cache_put_s": "harness.cache_put",
}

# per-layer count -> tracer counter
COUNTERS = {
    "conic.fibres": "conic.count_points.calls",
    "conic.points": "conic.points",
    "conic.box_cells": "conic.box_cells",
    "conic.uncertified": "conic.uncertified",
    "modsolve.prime_power_calls": "modsolve.solutions_mod_prime_power.calls",
    "modsolve.lattice_calls": "modsolve.iter_lattice_points.calls",
    "modsolve.classes": "modsolve.classes",
    "analytic.primes": "analytic.primes",
    "harness.cache_hits": "harness.cache_hits",
    "harness.cache_misses": "harness.cache_misses",
}


# --------------------------------------------------------------------------
# running commands


class Runner:
    """Spawns the child interpreters of one workload run, within the deadline."""

    def __init__(self, run_dir: Path, surfaces: dict, deadline: float) -> None:
        self.run_dir = run_dir
        self.surfaces = surfaces
        self.deadline = deadline
        self.spawned = 0

    def spawn(self, cmd: dict, round_dir: Path, *, probe=False, trace=False) -> dict:
        """Run one command in a fresh interpreter; return the child's result."""
        self.spawned += 1
        tag = self.run_dir / f"child{self.spawned}"
        argv = [a.format(surface=self.surfaces[cmd["surface"]], round=round_dir)
                for a in cmd["argv"]]
        spec = {"src": str(SRC), "argv": argv, "probe": probe, "trace": trace}
        tag.with_suffix(".spec.json").write_text(json.dumps(spec))
        env = dict(os.environ, CONICBUNDLE_CACHE=str(round_dir / "cache"),
                   PYTHONHASHSEED="0")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return {"error": "benchmark deadline reached before the command started"}
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"),
                 str(tag.with_suffix(".spec.json")), str(tag.with_suffix(".out.json"))],
                env=env, cwd=round_dir, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            return {"error": "benchmark deadline reached; command killed"}
        try:
            res = json.loads(tag.with_suffix(".out.json").read_text())
        except (OSError, json.JSONDecodeError):
            res = {"error": f"no result (exit {proc.returncode})"}
        if proc.returncode != 0 and not res.get("error"):
            res["error"] = f"child exited {proc.returncode}"
        res["stderr"] = proc.stderr
        res["t_spawn"] = t_spawn
        if res.get("t_loaded") is not None:
            res["setup_s"] = res["t_loaded"] - t_spawn
            res["wall_s"] = res["t_end"] - res["t_loaded"]
        return res

    def run_round(self, commands: list, index: int, *, trace=False) -> list[dict]:
        """All commands of the workload, sharing one fresh cache directory."""
        round_dir = self.run_dir / f"round{index}"
        round_dir.mkdir()
        results = []
        for cmd in commands:
            res = self.spawn(cmd, round_dir, trace=trace)
            res["problems"] = problems(cmd, res, round_dir)
            results.append(res)
        return results


def problems(cmd: dict, res: dict, round_dir: Path) -> list[str]:
    if res.get("error"):
        return [res["error"].strip()]
    if res.get("rc") != 0:
        return [f"exit code {res.get('rc')}: {res.get('stderr', '').strip()}"]
    if res.get("t_loaded") is None:
        return ["the command never loaded its surface"]
    return cmd["check"](res["stdout"], round_dir)


def write_surfaces(run_dir: Path, seed: int) -> dict:
    """The fixture files, laid out from the seed (key order and indentation).

    The surfaces themselves are fixed: their symmetric forms give the same
    answers but different norm-floor costs, which would tie the timings to
    the seed.
    """
    rng = random.Random(seed)
    paths = {}
    for name, coeffs in SURFACES.items():
        keys = list(coeffs)
        rng.shuffle(keys)
        text = json.dumps({k: coeffs[k] for k in keys}, indent=rng.choice([None, 1, 2]))
        path = run_dir / f"{name}.json"
        path.write_text(text + "\n")
        paths[name] = str(path)
    return paths


# --------------------------------------------------------------------------
# metrics


def self_times(spans: list) -> dict:
    """Total self time per span name: duration minus that of direct children."""
    covered = [0.0] * len(spans)
    for _name, parent, start, end, _err in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(float)
    for i, (name, _parent, start, end, _err) in enumerate(spans):
        out[name] += end - start - covered[i]
    return out


def tail_percentile(samples: list) -> tuple[float, float]:
    """Highest of a few percentiles with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]
    return 0.0, 0.0


def end_to_end(commands, probes, rounds) -> dict:
    """Metrics over the commands that ran; a failed one is reported, not timed."""
    setup = 0.0
    for i in range(len(commands)):
        samples = [p["setup_s"] for p in probes[i] if "setup_s" in p]
        samples += [r[i]["setup_s"] for r in rounds if "setup_s" in r[i]]
        setup += statistics.median(samples) if samples else 0.0
    walls = [sum(res.get("wall_s", 0.0) for res in r) for r in rounds]
    everything = [res for r in rounds for res in r] + [p for ps in probes for p in ps]
    rss = max(res.get("maxrss_kib", 0) for res in everything) / 1024.0
    return {"setup_s": setup, "wall_s": statistics.median(walls), "peak_rss_mib": rss}


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    # parent links index into each command's own span list
    own = defaultdict(float)
    counters = defaultdict(int)
    for res in traced:
        for name, value in self_times(res.get("spans", [])).items():
            own[name] += value
        for key, value in res.get("counters", {}).items():
            counters[key] += value
    spans = [s for res in traced for s in res.get("spans", [])]
    m = {name: own.get(span, 0.0) for name, span in SELF_TIMES.items()}
    m.update({name: counters[key] for name, key in COUNTERS.items()})
    m["surface.import_s"] = sum(res.get("import_s", 0.0) for res in traced)
    m["conic.points_per_cell"] = (
        m["conic.points"] / m["conic.box_cells"] if m["conic.box_cells"] else 0.0
    )
    fibre_ms = [1000.0 * (e - s) for name, _p, s, e, _err in spans
                if name == "conic.count_points"]
    m["conic.fibre_p50_ms"] = statistics.median(fibre_ms) if fibre_ms else 0.0
    m["conic.fibre_tail_pct"], m["conic.fibre_tail_ms"] = tail_percentile(fibre_ms)
    m["densities.tol_failures"] = sum(
        1 for name, _p, _s, _e, err in spans
        if name == "densities.sigma_inf" and err == "ToleranceNotMet"
    )
    widths = []
    for res in traced:
        fields = _fields(res.get("stdout", ""))
        if "sum_lower" in fields and "sum_upper" in fields:
            lo, hi = float(fields["sum_lower"]), float(fields["sum_upper"])
            widths.append((hi - lo) / lo)
    m["densities.bracket_rel_width"] = sum(widths)
    m["trace.overhead_s"] = (sum(r.get("wall_s", 0.0) for r in traced)
                             - sum(r.get("wall_s", 0.0) for r in untraced))
    return m


def trace_consistency(workload: str, m: dict, spans_ok: bool) -> list[str]:
    errors = []
    want = EXPECTED_POINTS.get(workload, 0)
    if m["conic.points"] != want:
        errors.append(f"conic.points {m['conic.points']} != {want} from the checked counts")
    if not spans_ok:
        errors.append("a traced command returned no spans")
    return errors


# --------------------------------------------------------------------------
# one workload run


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    commands = WORKLOADS[workload]
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = OUT_DIR / f"run-{workload}-{seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir()
    try:
        runner = Runner(run_dir, write_surfaces(run_dir, seed), deadline)
        warm_dir = run_dir / "warmup"
        warm_dir.mkdir()
        # compiles the bytecode caches, which users pay once per install
        runner.spawn(commands[0], warm_dir, probe=True)
        if trace:
            untraced = runner.run_round(commands, 0)
            traced = runner.run_round(commands, 1, trace=True)
            rounds = [untraced, traced]
            metrics = per_layer(traced, untraced)
            extra = trace_consistency(workload, metrics,
                                      all("spans" in r for r in traced))
            units = {name: unit for name, unit, _kind in PER_LAYER}
            kinds = {name: kind for name, _unit, kind in PER_LAYER}
            with open(OUT_DIR / f"spans-{workload}.json", "w") as fh:
                json.dump({"columns": ["name", "parent", "start", "end", "error"],
                           "commands": [{"argv": cmd["argv"], "spans": r.get("spans", [])}
                                        for cmd, r in zip(commands, traced)]}, fh)
        else:
            probes = [[runner.spawn(cmd, warm_dir, probe=True)
                       for _ in range(SETUP_PROBES)] for cmd in commands]
            rounds = []
            start = time.monotonic()
            while True:
                r0 = time.monotonic()
                rounds.append(runner.run_round(commands, len(rounds)))
                took = time.monotonic() - r0
                if time.monotonic() - start + took > seconds:
                    break
                if time.monotonic() + 1.5 * took > deadline:
                    break
            metrics = end_to_end(commands, probes, rounds)
            extra = [f"set-up probe: {p}" for ps in probes for res in ps
                     for p in ([res["error"]] if res.get("error") else [])]
            units = dict(END_TO_END)
            kinds = {name: "measured" for name in units}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(len(r) for r in rounds)
    failed = sum(1 for r in rounds for res in r if res["problems"])
    for r in rounds:
        for cmd, res in zip(commands, r):
            for p in res["problems"]:
                print(f"FAILED {workload}: {' '.join(cmd['argv'])}: {p}", file=sys.stderr)
    for p in extra:
        print(f"FAILED {workload}: {p}", file=sys.stderr)
    return {
        "workload": workload,
        "correct": failed == 0 and not extra,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "kinds": kinds,
    }


def report(results: list[dict]) -> None:
    for res in results:
        ratio = res["failed"] / res["attempted"]
        print(f"{res['workload']:<11} {'fail_ratio':<28} {ratio:>16.6g} {'ratio':<6} "
              f"({res['failed']}/{res['attempted']} commands, {res['rounds']} rounds)")
        for name, m in res["metrics"].items():
            value = m["value"]
            shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
            print(f"{res['workload']:<11} {name:<28} {shown} "
                  f"{m['unit']:<6} [{res['kinds'][name]}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "conicbundle" / "harness.py").is_file():
        print(f"error: {SRC / 'conicbundle'} not found; run from the root of a "
              "conicbundle checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        results.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                    deadline))
    report(results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in results for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
