"""Experiment orchestration and command-line front end.

Whole-surface counting runs fibre by fibre: enumerate parameter pairs up to
a cutoff, count points on each fibre conic exactly, and merge.  Expensive
results are cached in a content-addressed directory of plain-text records:
each whole-surface count, and one record of per-fibre counts per surface and
height bound, which a run at a larger cutoff extends.  The CLI exposes the
analysis, counting, density, and prime-sum entry points; every command exits
0 on success, 2 on validation failure or an input too large to compute, and
3 on a tolerance failure in strict mode.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
import uuid
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from .analytic import (
    delta_factor_data,
    rho_delta_fn,
    squarefree_harmonic,
    wirsing_sum,
)
from .conic import count_points, fibre_tables, height_bound
from .densities import ToleranceNotMet, constant_sum, local_density_report
from .forms import BinaryForm
from .surface import (
    CubicSurfaceNF,
    FibreIndex,
    SurfaceValidationError,
    brute_force_surface_count,
    domain_B,
    fibre_conic,
    fibre_height_cap,
    load_surface,
    section_base_directions,
    singular_fibre_indices,
)

DIRECT_HEIGHT_GUARD = 200


# --------------------------------------------------------------------------
# result records


@dataclass
class CountRecord:
    """One whole-surface count.  Equality ignores the timing field."""

    surface_id: str
    height_bound: int
    method: str  # "fibration" | "direct"
    x_cutoff: float | None
    count: int
    excluded_singular_fibres: int
    runtime_ms: int = field(compare=False)

    def to_payload(self) -> dict:
        return asdict(self)

    @classmethod
    def from_payload(cls, data: dict) -> "CountRecord":
        return cls(**data)

    def render(self) -> str:
        cutoff = "" if self.x_cutoff is None else f"{self.x_cutoff:g}"
        return "\n".join(
            [
                f"surface: {self.surface_id}",
                f"height_bound: {self.height_bound}",
                f"method: {self.method}",
                f"x_cutoff: {cutoff}",
                f"count: {self.count}",
                f"excluded_singular_fibres: {self.excluded_singular_fibres}",
                f"runtime_ms: {self.runtime_ms}",
            ]
        )


@dataclass(frozen=True)
class GrowthRow:
    height_bound: int
    count: int
    rho: int
    x_cutoff: float
    excluded_singular_fibres: int

    @property
    def normalized(self) -> float:
        # count / (B (log B)^(rho-1)); positive and finite once B >= 2
        b = self.height_bound
        return self.count / (b * math.log(b) ** (self.rho - 1))


# --------------------------------------------------------------------------
# cache

_CACHE_ENV = "CONICBUNDLE_CACHE"
# part of every cache key: bump it whenever a cached result would change
_ALGORITHM_VERSION = 1


def default_cache_dir() -> Path:
    return Path(os.environ.get(_CACHE_ENV) or Path.home() / ".cache" / "conicbundle")


class ResultCache:
    """Content-addressed store of computation records.

    A record is keyed by (surface hash, operation name, parameters,
    algorithm version); the key is hashed to a filename and the value kept
    as one JSON text file, so the store is inspectable and safe to delete at
    any time.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _key(surface_id: str, op: str, params: dict) -> str:
        blob = json.dumps(
            {"surface": surface_id, "op": op, "params": params,
             "version": _ALGORITHM_VERSION},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, surface_id: str, op: str, params: dict) -> Path:
        return self.root / (self._key(surface_id, op, params) + ".txt")

    def get(self, surface_id: str, op: str, params: dict) -> dict | None:
        path = self._path(surface_id, op, params)
        # ValueError covers bytes that are not UTF-8 as well as bad JSON,
        # and RecursionError a record nested past the decoder's depth
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError, RecursionError):
            return None
        # a cache file is outside input: a stale, colliding or malformed
        # record is a miss, and callers check the result dict's own fields
        key = {"surface": surface_id, "op": op, "params": params}
        if not isinstance(record, dict) or any(record.get(k) != v for k, v in key.items()):
            return None
        result = record.get("result")
        return result if isinstance(result, dict) else None

    def put(self, surface_id: str, op: str, params: dict, result: dict) -> None:
        path = self._path(surface_id, op, params)
        record = {"surface": surface_id, "op": op, "params": params, "result": result}
        # a temp name of its own per writer, so runs sharing the directory
        # never replace or truncate each other's half-written file
        tmp = path.with_name(f"{path.stem}.{uuid.uuid4().hex}.tmp")
        try:
            tmp.write_text(json.dumps(record, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


# --------------------------------------------------------------------------
# surface analysis


@dataclass(frozen=True)
class AnalysisReport:
    surface_id: str
    coefficients: dict
    disc_coeffs: tuple
    disc_content: int
    disc_factors: tuple  # ((coeffs, multiplicity), ...)
    distinct_factor_count: int
    picard_rank: int
    w0: int
    w_f: int
    singular_fibres: tuple

    def render(self) -> str:
        lines = [f"surface: {self.surface_id}"]
        for key in ("a", "d", "f", "b", "e"):
            lines.append(f"coefficient {key}: {list(self.coefficients[key])}")
        lines.append(f"discriminant: {BinaryForm(self.disc_coeffs)}")
        lines.append(f"discriminant content: {self.disc_content}")
        for coeffs, mult in self.disc_factors:
            tag = f"  factor: {BinaryForm(coeffs)}"
            lines.append(tag if mult == 1 else f"{tag}  (multiplicity {mult})")
        lines.append(f"distinct irreducible factors r: {self.distinct_factor_count}")
        lines.append(f"picard_rank: {self.picard_rank}")
        lines.append(f"w0: {self.w0}")
        lines.append(f"w_f: {self.w_f}")
        if self.singular_fibres:
            shown = ", ".join(map(str, self.singular_fibres))
        else:
            shown = "none"
        lines.append(f"singular_fibres: {shown}")
        return "\n".join(lines)


def analyze(X: CubicSurfaceNF) -> AnalysisReport:
    data = delta_factor_data(X)
    fac = X.factorization
    return AnalysisReport(
        surface_id=X.surface_hash,
        coefficients=X.to_dict(),
        disc_coeffs=X.disc.coeffs,
        disc_content=fac.content,
        disc_factors=tuple((f.coeffs, m) for f, m in fac.factors),
        distinct_factor_count=fac.distinct_count,
        picard_rank=X.rho,
        w0=X.w0,
        w_f=data.w_f,
        singular_fibres=singular_fibre_indices(X),
    )


# --------------------------------------------------------------------------
# whole-surface counting


_COUNT_FIELDS = frozenset(f.name for f in fields(CountRecord))
# The fibres of one worker task.  With 2 workers on count-surface at B =
# 100 (S1 cutoff 30, split cutoff 20; 2 cores) 16 took 0.23 + 0.30 s, 64
# took 0.16-0.24 + 0.22-0.28 s, and 256, too few tasks to balance,
# 0.19-0.25 + 0.27-0.35 s.
_TASK_FIBRES = 64


def _count_task(args):
    """(key, count) per fibre of a task (X, [(key, FibreIndex), ...],
    bound): its conics, zipped with the tables fibre_tables builds for them
    a group at a time, each counted by count_points."""
    X, fibres, bound = args
    conics = [fibre_conic(X, idx) for _, idx in fibres]
    return [(key, count_points(conic, bound, table=table).count)
            for (key, _), conic, table in zip(fibres, conics, fibre_tables(conics, bound))]


def _fibre_counts(X: CubicSurfaceNF, fibres: list[FibreIndex], bound: int,
                  cache: ResultCache | None, workers: int) -> list[int]:
    """Point count per fibre at height bound, cache-aware, order-preserving.

    One "fibre-counts" record per (surface, bound) holds the count of every
    fibre counted so far at that bound, keyed "s:t".  It is read once, only
    the fibres it lacks are counted, and if any were, it is written back
    once, extended.  A record that is not a dict of counts is a miss, and so
    is an entry that is not an int >= 0, for its fibre alone.  The missing
    fibres are cut into tasks of _TASK_FIBRES, each of which builds and
    counts its own conics, in this process or in a pool of workers.
    """
    params = {"B": bound}
    hit = None if cache is None else cache.get(X.surface_hash, "fibre-counts", params)
    stored = hit.get("counts") if hit else None
    known = ({k: n for k, n in stored.items() if type(n) is int and n >= 0}
             if isinstance(stored, dict) else {})
    keys = [f"{idx.s}:{idx.t}" for idx in fibres]
    missing = [(key, idx) for key, idx in zip(keys, fibres) if key not in known]
    tasks = [(X, missing[i:i + _TASK_FIBRES], bound)
             for i in range(0, len(missing), _TASK_FIBRES)]
    # the pool forks all its processes at the first submit, so no more
    # than there are tasks or cores; a single task runs in this process
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: multiprocessing costs ~25 ms that one worker never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for counted in pool.map(_count_task, tasks):
                known.update(counted)
    else:
        for counted in map(_count_task, tasks):
            known.update(counted)
    # the last writer wins: runs sharing the directory can drop each other's
    # entries, never corrupt them, as each put is atomic
    if missing and cache is not None:
        cache.put(X.surface_hash, "fibre-counts", params, {"counts": known})
    return [known[key] for key in keys]


def count_surface(
    X: CubicSurfaceNF,
    B,
    method: str = "fibration",
    x_cutoff=None,
    *,
    cache: ResultCache | None = None,
    workers: int = 1,
    allow_large_direct: bool = False,
) -> CountRecord:
    """Count rational points of height <= B on the nonsingular fibres.

    fibration: sum of exact conic counts over all fibres of index height up
    to x_cutoff (required).  direct: exhaustive search in the ambient space,
    restricted to the same fibre range when x_cutoff is given (inf keeps
    every fibre); guarded above height 200 because the search is quartic in
    B.  x_cutoff must be >= 1 (for the fibration, <= MAX_FIBRE_HEIGHT).
    workers >= 1 processes count the fibres, at most one per core and per
    task of _TASK_FIBRES fibres to count.
    """
    bound = height_bound(B)
    if method not in ("fibration", "direct"):
        raise ValueError(f"unknown method {method!r}")
    # NaN passes "< 1": the direct method refuses it here, the fibration
    # with its fibre height limit, as it does inf
    if (x_cutoff is None and method == "fibration") or (x_cutoff is not None and (
            x_cutoff < 1 or method == "direct" and math.isnan(x_cutoff))):
        raise ValueError(f"{method} method needs x_cutoff >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    params = {
        "B": bound,
        "method": method,
        "x_cutoff": None if x_cutoff is None else float(x_cutoff),
    }
    if cache is not None:
        hit = cache.get(X.surface_hash, "count-surface", params)
        # a miss unless it holds a record's fields, no others, and counts
        # that are ints >= 0
        if hit is not None and hit.keys() == _COUNT_FIELDS and all(
            type(hit[k]) is int and hit[k] >= 0
            for k in ("count", "excluded_singular_fibres", "runtime_ms")
        ):
            return CountRecord.from_payload(hit)

    start = time.monotonic()
    excluded = sum(
        1 for idx in singular_fibre_indices(X)
        if x_cutoff is None or idx.height <= x_cutoff
    )
    if method == "fibration":
        fibres = list(domain_B(X, x_cutoff))
        counts = _fibre_counts(X, fibres, bound, cache, workers)
        total = sum(counts)
        # points where the fibration itself is undefined sit on every fibre
        # conic, so the sum saw each of them once per fibre; they belong to
        # no nonsingular fibre and the direct method drops them entirely
        shared = sum(
            1 for x2, x3 in section_base_directions(X)
            if max(abs(x2), abs(x3)) <= bound
        )
        total -= shared * len(fibres)
    else:
        if bound > DIRECT_HEIGHT_GUARD and not allow_large_direct:
            raise ValueError(
                f"direct method above height {DIRECT_HEIGHT_GUARD} is a "
                "quartic-cost search; pass allow_large_direct to override"
            )
        res = brute_force_surface_count(X, bound, fibre_height_cap=x_cutoff)
        total = res.count
    record = CountRecord(
        surface_id=X.surface_hash,
        height_bound=bound,
        method=method,
        x_cutoff=params["x_cutoff"],
        count=total,
        excluded_singular_fibres=excluded,
        runtime_ms=int((time.monotonic() - start) * 1000),
    )
    if cache is not None:
        cache.put(X.surface_hash, "count-surface", params, record.to_payload())
    return record


# --------------------------------------------------------------------------
# constant sums


@dataclass
class ConstantSumResult:
    """Sum of leading-constant brackets over the fibres of height <= x."""

    x: float
    lower: Fraction
    upper: Fraction
    fibre_count: int
    failed_fibres: tuple  # sigma_inf brackets wider than tol: skipped, never hidden

    @property
    def midpoint(self) -> float:
        return float(self.lower + self.upper) / 2

    @property
    def width(self) -> float:
        return float(self.upper - self.lower)


def sum_constants(
    X: CubicSurfaceNF,
    x,
    *,
    tol: float = 1e-3,
    strict: bool = False,
) -> ConstantSumResult:
    fibres = ((idx, fibre_conic(X, idx)) for idx in domain_B(X, x))
    lower, upper, n, failed = constant_sum(fibres, tol=tol, strict=strict)
    return ConstantSumResult(x=float(x), lower=lower, upper=upper, fibre_count=n,
                             failed_fibres=tuple(failed))


# --------------------------------------------------------------------------
# growth tables


def growth_table(
    X: CubicSurfaceNF,
    heights,
    *,
    delta: float = 0.25,
    cache: ResultCache | None = None,
    workers: int = 1,
) -> list[GrowthRow]:
    """Fibration counts at each height with the normalization of the
    expected lower-bound order: count / (B (log B)^(rho-1)).

    The fibre cutoff is B**delta, so the table probes the order of growth
    from below; it does not estimate the full point count.
    """
    hs = [int(b) for b in heights]
    if not hs:
        raise ValueError("no heights given")
    if any(b2 <= b1 for b1, b2 in zip(hs, hs[1:])):
        raise ValueError("heights must be strictly increasing")
    if hs[0] < 2:  # log B = 0 at B = 1: no normalized value
        raise ValueError(f"--heights must all be >= 2, got {hs[0]}")
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    cutoffs = [max(1.0, float(b) ** delta) for b in hs]
    fibre_height_cap(cutoffs[-1])  # the largest: refused before any row is counted
    rows = []
    for b, cutoff in zip(hs, cutoffs):
        rec = count_surface(
            X, b, "fibration", cutoff, cache=cache, workers=workers
        )
        rows.append(
            GrowthRow(
                height_bound=b,
                count=rec.count,
                rho=X.rho,
                x_cutoff=cutoff,
                excluded_singular_fibres=rec.excluded_singular_fibres,
            )
        )
    return rows


def write_growth_csv(rows: list[GrowthRow], out_path) -> None:
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["height_bound", "x_cutoff", "count", "excluded_singular_fibres",
             "rho", "normalized"]
        )
        for r in rows:
            w.writerow(
                [r.height_bound, f"{r.x_cutoff:g}", r.count,
                 r.excluded_singular_fibres, r.rho, f"{r.normalized:.6f}"]
            )


# --------------------------------------------------------------------------
# CLI


def _add_surface_arg(sub):
    sub.add_argument("surface", help="path to a surface coefficient JSON file")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="conicbundle",
        description="point counts, local densities and prime sums for "
        "conic-bundle cubic surfaces",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help=f"cache directory (default ${_CACHE_ENV} or ~/.cache/conicbundle)",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="validate a surface and report its invariants")
    _add_surface_arg(sp)

    sp = sub.add_parser("count-fibre", help="exact point count on one fibre conic")
    _add_surface_arg(sp)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--height", type=float, required=True)
    sp.add_argument("--dump-points", action="store_true")

    sp = sub.add_parser("densities", help="local density report for one fibre")
    _add_surface_arg(sp)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-4)

    sp = sub.add_parser("count-surface", help="count points over all fibres")
    _add_surface_arg(sp)
    sp.add_argument("--height", type=float, required=True)
    sp.add_argument("--method", choices=("fibration", "direct"), default="fibration")
    sp.add_argument("--cutoff", type=float, default=None, help="fibre height cutoff")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument(
        "--force-direct",
        action="store_true",
        help=f"allow the direct method above height {DIRECT_HEIGHT_GUARD}",
    )

    sp = sub.add_parser("sum-constants", help="sum leading constants over fibres")
    _add_surface_arg(sp)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--strict", action="store_true",
                    help="abort on the first fibre whose sigma_inf bracket misses --tol")

    sp = sub.add_parser("growth", help="growth table across several heights")
    _add_surface_arg(sp)
    sp.add_argument("--heights", required=True, help="comma-separated, increasing")
    sp.add_argument("--delta", type=float, default=0.25,
                    help="fibre cutoff exponent (cutoff = B**delta)")
    sp.add_argument("--out", required=True, help="CSV output path")
    sp.add_argument("--workers", type=int, default=1)

    sp = sub.add_parser("wirsing-check", help="multiplicative-sum diagnostics")
    sp.add_argument(
        "--function",
        required=True,
        choices=("squarefree-harmonic", "rho-delta"),
    )
    sp.add_argument("--surface", default=None,
                    help="surface file (required for rho-delta)")
    sp.add_argument("--x", required=True, help="an integer, e.g. 300000 or 1e6")
    sp.add_argument("--checkpoints", default=None, help="comma-separated")
    return p


def _cache_from_args(args) -> ResultCache | None:
    if args.no_cache:
        return None
    root = args.cache_dir if args.cache_dir else default_cache_dir()
    return ResultCache(root)


def _cmd_analyze(args) -> int:
    X = load_surface(args.surface)
    print(analyze(X).render())
    return 0


def _cmd_count_fibre(args) -> int:
    X = load_surface(args.surface)
    idx = FibreIndex.from_raw(args.s, args.t)
    conic = fibre_conic(X, idx)
    res = count_points(conic, args.height, want_points=args.dump_points)
    print(f"fibre: {idx}")
    print(f"determinant: {conic.pi_det}")
    print(f"count: {res.count}")
    if args.dump_points:
        for pt in sorted(res.points, key=lambda q: (q.height, q.triple)):
            x, y, z = pt.triple
            print(f"point: ({x} : {y} : {z})  height={pt.height}")
    return 0


def _cmd_densities(args) -> int:
    X = load_surface(args.surface)
    idx = FibreIndex.from_raw(args.s, args.t)
    conic = fibre_conic(X, idx)
    rep = local_density_report(conic, tol=args.tol)
    print(f"fibre: {idx}")
    print(f"determinant: {rep.determinant}")
    if not rep.bad_primes:
        print("bad_primes: none")
    for row in rep.bad_primes:
        rhos = ", ".join(f"rho*({row.p}^{d})={r}" for d, r in enumerate(row.rho_values, 1))
        print(
            f"prime {row.p} (valuation {row.valuation}): "
            f"sigma_p = {row.sigma} = {float(row.sigma):.9f}  [{rhos}]"
        )
    print(f"sigma_inf: [{float(rep.sigma_inf_lower):.9f}, {float(rep.sigma_inf_upper):.9f}]")
    print(f"zeta2: [{float(rep.zeta2_lower):.12f}, {float(rep.zeta2_upper):.12f}]")
    print(f"constant: [{float(rep.constant_lower):.9f}, {float(rep.constant_upper):.9f}]")
    return 0


def _cmd_count_surface(args) -> int:
    X = load_surface(args.surface)
    record = count_surface(
        X,
        args.height,
        args.method,
        args.cutoff,
        cache=_cache_from_args(args),
        workers=args.workers,
        allow_large_direct=args.force_direct,
    )
    print(record.render())
    return 0


def _cmd_sum_constants(args) -> int:
    X = load_surface(args.surface)
    res = sum_constants(X, args.x, tol=args.tol, strict=args.strict)
    print(f"x: {res.x:g}")
    print(f"fibres: {res.fibre_count}")
    print(f"sum_lower: {float(res.lower):.9f}")
    print(f"sum_upper: {float(res.upper):.9f}")
    print(f"width: {res.width:.3e}")
    if res.failed_fibres:
        shown = ", ".join(map(str, res.failed_fibres))
        print(f"failed_fibres: {shown}")
    else:
        print("failed_fibres: none")
    return 0


def _cmd_growth(args) -> int:
    X = load_surface(args.surface)
    heights = [int(v) for v in args.heights.split(",") if v.strip()]
    rows = growth_table(
        X,
        heights,
        delta=args.delta,
        cache=_cache_from_args(args),
        workers=args.workers,
    )
    write_growth_csv(rows, args.out)
    for r in rows:
        print(
            f"B={r.height_bound}  cutoff={r.x_cutoff:g}  count={r.count}  "
            f"normalized={r.normalized:.6f}"
        )
    print(f"wrote: {args.out}")
    return 0


def _cmd_wirsing_check(args) -> int:
    try:  # exactly: as a float, 300.00000000000001 would read as 300
        x = Fraction(args.x)
    except (ValueError, ZeroDivisionError):
        x = None
    if x is None or x.denominator != 1:
        raise ValueError(f"--x must be an integer, got {args.x}")
    if args.function == "squarefree-harmonic":
        g = squarefree_harmonic()
    else:
        if not args.surface:
            raise ValueError("rho-delta needs --surface")
        g = rho_delta_fn(load_surface(args.surface))
    cps = None
    if args.checkpoints:
        cps = [int(v) for v in args.checkpoints.split(",") if v.strip()]
    rep = wirsing_sum(g, int(x), checkpoints=cps)
    print(f"function: {rep.function}")
    print(f"x: {rep.x:g}")
    print(f"k_hat: {rep.k_hat:.4f}")
    print(f"c_hat: {rep.c_hat:.6f}")
    slope, resid = rep.hypothesis_a15
    print(f"prime_logsum_fit: slope={slope:.4f} max_residual={resid:.4f}")
    print(f"ratio_bound: {rep.hypothesis_a16:.4f}")
    print(f"square_weight: {rep.hypothesis_a17:.4f}")
    for cp, s in rep.sums_at:
        print(f"sum_at {cp}: {float(s):.9f}")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "count-fibre": _cmd_count_fibre,
    "densities": _cmd_densities,
    "count-surface": _cmd_count_surface,
    "sum-constants": _cmd_sum_constants,
    "growth": _cmd_growth,
    "wirsing-check": _cmd_wirsing_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ToleranceNotMet as exc:
        print(f"error[ToleranceNotMet]: {exc}", file=sys.stderr)
        return 3
    except SurfaceValidationError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        # ArithmeticError: coefficients too large for the int64 kernels
        # (OverflowError), a determinant rho cannot factor or a class count
        # past the CRT cap; MemoryError: search arrays that do not fit
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
