"""Golden default stdout of the CLI on the S1 and split fixture surfaces.

Each case runs one subcommand through `main` and compares its full stdout,
without the `runtime_ms` line, with `tests/golden/<surface>-<case>.txt`
(`tests/golden/<case>.txt` for the cases that read no surface).  `growth`
also compares the CSV it writes.  The files pin the printed bytes: counts,
point lists, form printing and number formats.
"""

from pathlib import Path

import pytest

from conicbundle.harness import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "analyze": ["analyze", "{surface}"],
    "count-fibre": ["count-fibre", "{surface}", "--s", "2", "--t", "3",
                    "--height", "300", "--dump-points"],
    "count-surface": ["count-surface", "{surface}", "--height", "40",
                      "--cutoff", "6"],
    "count-surface-direct": ["count-surface", "{surface}", "--height", "8",
                             "--method", "direct", "--cutoff", "3"],
    "densities": ["densities", "{surface}", "--s", "{s}", "--t", "{t}"],
    "growth": ["growth", "{surface}", "--heights", "10,40,160", "--out", "{csv}"],
    "sum-constants": ["sum-constants", "{surface}", "--x", "6"],
    "wirsing-check": ["wirsing-check", "--function", "rho-delta",
                      "--surface", "{surface}", "--x", "5000"],
}

# the fibre of the densities case: det = -7^3 * 11 on S1 and
# 2^3 * 3^2 * 7 * 17 on the split surface, so several primes and powers
DENSITIES_FIBRE = {"s1": (2, 5), "split": (1, -8)}

# cases that read no surface file: one golden file each
PLAIN_CASES = {
    # x = 10^6: the float recursion, on prime sums carried across five prime blocks
    "wirsing-check-harmonic": ["wirsing-check", "--function", "squarefree-harmonic",
                               "--x", "1000000"],
}


def golden_stdout(argv, capsys) -> str:
    assert main(["--no-cache", *argv]) == 0
    out = capsys.readouterr().out
    return "".join(
        line for line in out.splitlines(keepends=True)
        if not line.startswith("runtime_ms:")
    )


@pytest.mark.parametrize("surface", ["s1", "split"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden_stdout(case, surface, s1_file, split_file, tmp_path, capsys):
    path = s1_file if surface == "s1" else split_file
    csv_path = tmp_path / "rows.csv"
    s, t = DENSITIES_FIBRE[surface]
    argv = [a.format(surface=path, csv=csv_path, s=s, t=t) for a in CASES[case]]
    out = golden_stdout(argv, capsys).replace(str(csv_path), "<csv>")
    assert out == (GOLDEN / f"{surface}-{case}.txt").read_text()
    if case == "growth":
        assert csv_path.read_text() == (GOLDEN / f"{surface}-growth.csv").read_text()


@pytest.mark.parametrize("case", sorted(PLAIN_CASES))
def test_cli_golden_stdout_without_surface(case, capsys):
    out = golden_stdout(PLAIN_CASES[case], capsys)
    assert out == (GOLDEN / f"{case}.txt").read_text()


# the sigma_inf, constant and sum brackets these goldens printed when they
# came from the dyadic cell walk (densities at tol 1e-4, sum-constants at
# 1e-3); the closed form's brackets must lie inside them
WALK_BRACKETS = {
    ("s1", "densities"): {"sigma_inf": (0.158499669, 0.158511024),
                          "constant": (0.287061312, 0.287081878)},
    ("split", "densities"): {"sigma_inf": (0.100906525, 0.100913658),
                             "constant": (0.405550752, 0.405579422)},
    ("s1", "sum-constants"): {"sum": (13.072183497, 13.081306750)},
    ("split", "sum-constants"): {"sum": (26.658746439, 26.677969701)},
}


@pytest.mark.parametrize("surface, case", sorted(WALK_BRACKETS))
def test_printed_brackets_lie_inside_the_walk_brackets(surface, case, s1_file, split_file,
                                                       capsys):
    s, t = DENSITIES_FIBRE[surface]
    path = s1_file if surface == "s1" else split_file
    argv = [a.format(surface=path, s=s, t=t) for a in CASES[case]]
    printed = {}
    for line in golden_stdout(argv, capsys).splitlines():
        key, _, value = line.partition(": ")
        if value.startswith("["):
            printed[key] = tuple(map(float, value.strip("[]").split(", ")))
        elif key in ("sum_lower", "sum_upper"):
            printed.setdefault("sum", ())
            printed["sum"] += (float(value),)
    for key, (old_lo, old_hi) in WALK_BRACKETS[surface, case].items():
        lo, hi = printed[key]
        assert old_lo <= lo <= hi <= old_hi, key
