"""The benchmark's workloads and the output checks behind its failed-call count.

Each workload is a fixed list of CLI calls, one per line of `WORKLOADS`:
a label (unique within the benchmark, used in metric names) and the
subcommand's argv.  The workload seed is passed to every call as
`--seed`; only the Monte Carlo calls read it.  NOTES.md records why each
workload exists and which layers it is meant to move.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

DEFAULT_SEED = 20260817

WORKLOADS = {
    # the (S, W) table DP and the Fourier quadrature; no RNG, no graphs
    "exact": [
        ("bound-scan", ["bound-scan"]),
        ("collision-exact", ["collision-exact", "--k-list", "64,128,256,512"]),
        ("conditional-exact", ["conditional-exact"]),
        ("collision-contrast", ["collision-contrast"]),
        ("zd-collision", ["zd-collision"]),
        ("dyadic", ["dyadic"]),
        ("fourier", ["fourier"]),
    ],
    # Philox-streamed Monte Carlo chunks on a thread pool; no tables
    "sampled": [
        ("eit-tail", ["eit-tail", "--samples", "32768", "--threads", "2"]),
        ("zd-eit", ["zd-eit", "--samples", "32768", "--threads", "2"]),
        ("theta-d", ["theta-d", "--samples", "16384", "--threads", "2"]),
    ],
    # SRW convolution, Python BFS, sparse CG and many tiny RNG streams
    "growth": [
        ("srw-return", ["srw-return", "--t-max", "64", "--n-max", "32"]),
        ("ball-growth", ["ball-growth"]),
        ("srw-intersections", ["srw-intersections"]),
        ("resistance-profile", ["resistance-profile", "--p", "0.95"]),
        ("resistance-profile-z2", ["resistance-profile", "--family", "z2", "--radii", "4,8,16"]),
        ("flow-energy", ["flow-energy"]),
    ],
}

CALL_LABELS = [label for calls in WORKLOADS.values() for label, _argv in calls]


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _check_collision_exact(rows, argv):
    for row in rows:
        k = int(row["k"])
        exact = float(Fraction(math.comb(2 * k, k), 4**k))
        got = float(row["p_count_match"])
        if abs(got - exact) > 1e-12 * exact:
            return f"p_count_match at k={k} is {got!r}, C(2k,k)/4^k is {exact!r}"
    return None


def _check_ball_growth(rows, argv):
    sizes = [int(row["ball_size"]) for row in rows[:3]]
    if sizes != [1, 5, 17]:
        return f"ball sizes start {sizes}, expected [1, 5, 17]"
    return None


def _check_survivors(columns):
    def check(rows, argv):
        samples = int(_option(argv, "--samples"))
        rows = sorted(rows, key=lambda row: int(row["n"]))
        if not rows or int(rows[0]["n"]) != 0:
            return "survivor table has no n=0 row"
        for col in columns:
            values = [int(row[col]) for row in rows]
            if values[0] != samples:
                return f"{col}[0] = {values[0]}, expected the sample count {samples}"
            if any(b > a for a, b in zip(values, values[1:])):
                return f"{col} is not non-increasing in n"
        return None

    return check


def _check_resistance_nesting(rows, argv):
    by_seed: dict[str, list[tuple[int, float]]] = {}
    for row in rows:
        if row["seed"] != "mean":
            by_seed.setdefault(row["seed"], []).append((int(row["radius"]), float(row["resistance"])))
    if not by_seed:
        return "no per-seed rows"
    for seed, entries in by_seed.items():
        res = [r for _radius, r in sorted(entries)]
        if any(b < a for a, b in zip(res, res[1:])):
            return f"seed {seed}: resistance decreases with radius {res}"
    return None


_CHECKS = {
    "collision-exact": _check_collision_exact,
    "ball-growth": _check_ball_growth,
    "eit-tail": _check_survivors(["survivors"]),
    "zd-eit": _check_survivors(["shared_survivors", "vertex_survivors", "excursion_survivors"]),
    "resistance-profile": _check_resistance_nesting,
    "resistance-profile-z2": _check_resistance_nesting,
}


def check_output(label: str, argv: list[str], csv_path: str) -> str | None:
    """Why the call's CSV is wrong, or None when it passes (or has no check)."""
    try:
        rows = _read_rows(csv_path)
    except OSError as exc:
        return f"cannot read output: {exc}"
    if not rows:
        return "output has no rows"
    check = _CHECKS.get(label)
    if check is None:
        return None
    try:
        return check(rows, argv)
    except (KeyError, ValueError) as exc:
        return f"malformed output: {exc!r}"
