"""Experiment harness: run, fit, and report against the claims manifest.

Each experiment is registered once, beside its runner, in one table
that holds its options and the total work checked before it runs.  A
subcommand runs one experiment, writes its rows to one CSV file, prints
a JSON summary that counts them to stdout, and records its claim
verdicts, with the version and a hash of the resolved config, in a
status file, replaced atomically under a lock on a sidecar `.lock` file,
so runs sharing it lose no claims.  The Monte Carlo engine only counts:
the runners here compute every rate and censoring figure (_censoring),
the means, standard errors and growth z-score of the per-pair
intersection counts, and take each survivor tail's ratio as its pooled
continuation ratio (paths._fit_tail); a log-linear fit
(fitting.fit_exponential) serves only the R^2 of `eit-tail-linearity`.
Each verdict is the plain JSON record that the summary prints, built
from the statistic a runner checked, the points it rests on and the
manifest, parsed once a process.  Runners judge nothing about how much
evidence they have: a claim whose range holds fewer than its manifest
`min_points`, or whose statistic is not finite, is inconclusive, neither
pass nor FAIL, and its run still writes its rows.  `heiswalk claims`
prints each verdict with its version and config hash.  A corrupt status
file is a configuration error on both paths and is never overwritten.

Exit codes: 0 success, 2 configuration error or an inconclusive claim,
3 resource cap exceeded, 4 solver or quadrature failure, 5 at least one
claim failed.

Determinism: CSV bytes depend only on the resolved configuration (the
seed partitions Monte Carlo work into fixed-size chunks, so thread
count changes wall time only).  Timestamps appear solely in the JSON
summary.
"""

from __future__ import annotations

import argparse
import configparser
import fcntl
import functools
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, fourier, heisenberg, paths, percolation, reference, tables
from .errors import (
    CapExceededError,
    ConfigError,
    QuadratureError,
    SolverConvergenceError,
)
from .fitting import _fit_line, fit_exponential, fit_loglog

try:  # built in, as `random` takes its sha512: hashlib loads OpenSSL, 3.6 MiB of RSS
    from _sha256 import sha256
except ImportError:  # Python 3.12 renamed it _sha2
    from hashlib import sha256

__all__ = ["main"]

DEFAULT_SEED = 20260817
STATUS_FILE = "heiswalk-claims-status.json"
VERSION = f"heiswalk-{__version__}"
BOUND_SLACK = 1e-12  # what point-mass-bound forgives each 1/k bound for rounding


# ---------------------------------------------------------------- manifest

_MANIFEST = resources.files("heiswalk").joinpath("claims.ini")


@functools.cache
def load_claims() -> MappingProxyType:
    """The shipped manifest, parsed once a process: claim id -> record, both
    read-only; a claim naming no registered experiment is a ConfigError."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(_MANIFEST.read_text())
    except FileNotFoundError as exc:
        raise ConfigError("claims manifest is missing from the package") from exc
    claims = {}
    for cid in cp.sections():
        if (experiment := cp.get(cid, "experiment")) not in _EXPERIMENTS:
            raise ConfigError(f"claim {cid} names unknown experiment {experiment!r}")
        claims[cid] = MappingProxyType({
            "kind": cp.get(cid, "kind"),
            "target": cp.getfloat(cid, "target"),
            "tolerance": cp.getfloat(cid, "tolerance"),
            "min_points": cp.getint(cid, "min_points"),
            "experiment": experiment,
            "statement": cp.get(cid, "statement"),
        })
    return MappingProxyType(claims)


def _verdicts(checks: dict, claims: dict) -> list[dict]:
    """The JSON record of each checked claim, in the runner's order.

    "slope" is the checked statistic (a log-log slope for power laws, a
    scalar otherwise), and "pass" is |slope - target| <= tolerance, or None
    (inconclusive) when the range holds fewer than the claim's min_points
    or the statistic is not finite; "intercept" and "r_squared" come from
    the claim's line fit, and are 0 without one.
    """
    fits = []
    for cid, (value, range_, fit) in checks.items():
        c, value = claims[cid], float(value)
        judged = len(range_) >= c["min_points"] and math.isfinite(value)
        fits.append({
            "claim_id": cid,
            "slope": value,
            "intercept": fit.intercept if fit else 0.0,
            "r_squared": fit.r_squared if fit else 0.0,
            "range": list(range_),
            "target": c["target"],
            "tolerance": c["tolerance"],
            "pass": abs(value - c["target"]) <= c["tolerance"] if judged else None,
        })
    return fits


# ---------------------------------------------------------------- options

# Each option's spec states its type and any lower bound: "int>=1" is an
# integer of at least 1, "intlist>=1" a nonempty comma-separated list of them;
# a trailing " increasing" asks it to increase strictly, " sorted" sorts it and drops repeats.
_GLOBAL_OPTIONS = {
    "seed": ("int", str(DEFAULT_SEED), "base RNG seed"),
    "out_path": ("str", "", "output CSV path (default <experiment>.csv)"),
    "status_file": ("str", STATUS_FILE, "claim status file updated after each run"),
}


class _Experiment(NamedTuple):
    options: dict
    # cfg -> (header, rows, {claim id: (statistic, range, LineFit or None)}, extras)
    runner: Callable
    work: tuple  # (unit, cap, figure of the resolved config) entries, checked before the run


_EXPERIMENTS: dict[str, _Experiment] = {}


def _experiment(options: dict, *work: tuple):
    """Register the decorated `_run_<name>` as experiment <name>, with its
    options and its (unit, cap, figure) work entries."""
    def register(runner):
        _EXPERIMENTS[runner.__name__.removeprefix("_run_").replace("_", "-")] = _Experiment(
            options, runner, work)
        return runner
    return register


# The total work of each run that a sized option or list sets, checked
# before the run starts (exit 3).  The defaults sit 35 to 10,000 times below
# their caps; the library's per-call caps still bound each k.  bound-scan,
# srw-return and ball-growth are bounded by one size each, and their
# library caps alone.
PAIR_STEPS_CAP = 2**36  # about 3 minutes of Monte Carlo on 2 threads
INTERSECTION_WORK_CAP = 2**28  # about 40 s; at most 16 MiB of counts
FLOW_PATH_STEPS_CAP = 2**24  # about 1 s; at most 80 MiB for one box's words
RESISTANCE_SOLVES_CAP = 2**10  # the ball and lattice caps bound each solve's box
DYADIC_CELLS_CAP = 2**23  # 8 laws of 2^20 cells, about 0.3 s
ZD_COLLISION_CELLS_CAP = 2**22  # twice the per-k cap, at most about 0.8 s
FOURIER_K_SQUARED_CAP = 2**26  # 16 times k = 2048, about 5 s
TABLE_K_CUBED_CAP = 2**33  # 8 times k = 1024, about 5 s
_PAIR_STEPS = ("pair-steps", PAIR_STEPS_CAP, lambda c: c["samples"] * c["horizon"])
_THREADS = {"threads": ("int>=1", "1", "worker threads for Monte Carlo chunks")}
_TRANSIENT_D = {"d": ("int>=4", "4", "lattice dimension of the transient regime, "
                      f"at most {reference.ZD_MAX_D}")}


def _zd_cells(k_list: str, d: int | None = None) -> tuple:
    """d * (k + 1)^2 summed over the distinct k of the Z^d list, d the --d option
    unless given: the bound on its terms that each zd_collision_probability call checks."""
    return ("lattice cells", ZD_COLLISION_CELLS_CAP,
            lambda c: (d or c["d"]) * sum((k + 1) ** 2 for k in c[k_list]))


def _table_k_cubed(k_list: str) -> tuple:
    """k^3 summed over the distinct k of the Heisenberg list, as each
    _row_square_sums call in tables.scan_statistics costs about k^3."""
    return ("k^3 units", TABLE_K_CUBED_CAP, lambda c: sum(k**3 for k in c[k_list]))


def _check_work(cfg: dict) -> None:
    for unit, cap, figure in _EXPERIMENTS[cfg["experiment"]].work:
        if (amount := figure(cfg)) > cap:
            raise CapExceededError(
                f"{cfg['experiment']} asks for {amount} {unit}, above the cap {cap}")


def _flag(name: str) -> str:
    return f"--{name.replace('_', '-')}"


def _parse_value(spec: str, flag: str, raw: str):
    if spec == "str":
        return raw
    if spec.startswith("choice:"):
        choices = spec.split(":", 1)[1].split(",")
        if raw not in choices:
            raise ConfigError(f"{flag} must be one of {choices}, got {raw!r}")
        return raw
    if spec == "prob":
        try:
            v = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{flag} must be a number, got {raw!r}") from exc
        if not 0.0 < v <= 1.0:
            raise ConfigError(f"{flag} must be in (0, 1], got {v}")
        return v
    kind, low, rule = _split_spec(spec)
    try:
        values = [int(s) for s in raw.split(",") if s.strip()] if kind == "intlist" else [int(raw)]
    except ValueError as exc:
        raise ConfigError(f"{flag} takes integers, got {raw!r}") from exc
    if not values:
        raise ConfigError(f"{flag} must be a nonempty comma-separated integer list")
    if low is not None and min(values) < low:
        raise ConfigError(f"{flag} must be >= {low}, got {min(values)}")
    if rule == "increasing" and values != sorted(set(values)):
        raise ConfigError(f"{flag} must be strictly increasing, got {raw}")
    return values[0] if kind == "int" else sorted(set(values)) if rule == "sorted" else values


def _split_spec(spec: str) -> tuple[str, int | None, str]:
    """(kind, lower bound or None, rule) of a spec."""
    kind, _, rule = spec.partition(" ")
    kind, _, low = kind.partition(">=")
    return kind, int(low) if low else None, rule


def _spec_help(spec: str) -> str:
    """The bounds that spec sets, as help text."""
    if spec == "prob":
        return "; in (0, 1]"
    _kind, low, rule = _split_spec(spec)
    rules = {"increasing": "; strictly increasing", "sorted": "; sorted, each value once"}
    return (f"; >= {low}" if low is not None else "") + rules.get(rule, "")


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for ln, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve_config(experiment: str, args: argparse.Namespace) -> dict:
    options = {**_GLOBAL_OPTIONS, **_EXPERIMENTS[experiment].options}
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(options)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = {"experiment": experiment}
    for name, (spec, default, _help) in options.items():
        raw = getattr(args, name)
        if raw is None:
            raw = file_values.get(name, default)
        cfg[name] = _parse_value(spec, _flag(name), raw)
    return cfg


# ---------------------------------------------------------------- runners


_GH_K_LIST = {"k_list": ("intlist>=1 sorted", "32,64,128,256", "comma-separated k values")}


@_experiment(_GH_K_LIST, _table_k_cubed("k_list"))
def _run_collision_exact(cfg):
    ks = cfg["k_list"]
    stats = tables.scan_statistics(ks)
    rows = [
        (k, stats[k].collision, stats[k].count_match, stats[k].weighted_match,
         stats[k].max_point_mass)
        for k in ks
    ]
    fit = fit_loglog(ks, [stats[k].collision for k in ks])
    k_top = ks[-1]
    checks = {"gh-collision-exponent": (fit.slope, ks, fit),
              "count-match-scaled": (math.sqrt(k_top) * stats[k_top].count_match, [k_top], None)}
    header = ["k", "p_collision", "p_count_match", "p_weighted_match", "max_point_mass"]
    return header, rows, checks, {}


@_experiment(_GH_K_LIST, _table_k_cubed("k_list"))
def _run_conditional_exact(cfg):
    ks = cfg["k_list"]
    stats = tables.scan_statistics(ks)
    rows = [(k, stats[k].conditional_match) for k in ks]
    fit = fit_loglog(ks, [stats[k].conditional_match for k in ks])
    return ["k", "p_conditional_match"], rows, {"conditional-exponent": (fit.slope, ks, fit)}, {}


@_experiment({
    "k_min": ("int>=2", "2", "first k of the scan"),
    "k_max": ("int>=1", "256", "last k of the scan"),
})
def _run_bound_scan(cfg):
    k_min, k_max = cfg["k_min"], cfg["k_max"]
    if k_max < k_min:
        raise ConfigError("need --k-min <= --k-max")
    rows, holds = [], True
    for k, (point_mass, match) in tables.weight_statistics(range(k_min, k_max + 1)).items():
        bound = 1.0 / k
        holds &= point_mass <= bound + BOUND_SLACK and match <= bound + BOUND_SLACK
        rows.append((k, point_mass, tables.cell_error(k, point_mass), match, bound))
    checks = {"point-mass-bound": (holds, [k_min, k_max], None)}
    header = ["k", "max_point_mass", "point_mass_error", "p_weighted_match", "bound"]
    return header, rows, checks, {}


# each distinct k builds a law of 2^floor(log2 k) cells
@_experiment({"k_list": ("intlist>=2 sorted", "4,8,16,31,256,1000", "comma-separated k values")},
             ("law cells", DYADIC_CELLS_CAP,
              lambda c: sum(1 << (k.bit_length() - 1) for k in c["k_list"])))
def _run_dyadic(cfg):
    ks = cfg["k_list"]
    rows, holds = [], True
    for k in ks:
        support, uniform = tables.dyadic_uniformity(k)
        holds &= uniform and support >= k / 2 - 1
        rows.append((k, support, int(uniform)))
    return ["k", "support_size", "uniform"], rows, {"dyadic-uniformity": (holds, ks, None)}, {}


@_experiment({
    "d": ("int>=1", "4", "lattice dimension"),
    "k_list": ("intlist>=0 sorted", "16,32,64,128", "comma-separated k values"),
}, _zd_cells("k_list"))
def _run_zd_collision(cfg):
    d, ks = cfg["d"], cfg["k_list"]
    if d == 4 and ks[0] < 1:
        raise ConfigError("--k-list values must be >= 1 at d=4: the exponent fit takes log k")
    probs = [reference.zd_collision_probability(d, k) for k in ks]
    checks = {}
    if d == 4:
        fit = fit_loglog(ks, probs)
        checks["zd4-collision-exponent"] = (fit.slope, ks, fit)
    return ["k", "p_collision"], list(zip(ks, probs)), checks, {}


@_experiment({
    "gh_k_list": ("intlist>=1 sorted", "32,64,128,256", "Heisenberg k values"),
    "zd_k_list": ("intlist>=1 sorted", "16,32,64,128", "Z^4 k values"),
}, _table_k_cubed("gh_k_list"), _zd_cells("zd_k_list", d=4))
def _run_collision_contrast(cfg):
    gh_ks, zd_ks = cfg["gh_k_list"], cfg["zd_k_list"]
    stats = tables.scan_statistics(gh_ks)
    gh_fit = fit_loglog(gh_ks, [stats[k].collision for k in gh_ks])
    zd_probs = [reference.zd_collision_probability(4, k) for k in zd_ks]
    zd_fit = fit_loglog(zd_ks, zd_probs)
    rows = [("heisenberg", k, stats[k].collision) for k in gh_ks]
    rows += [("z4", k, p) for k, p in zip(zd_ks, zd_probs)]
    checks = {"collision-exponent-gap": (zd_fit.slope - gh_fit.slope, gh_ks + zd_ks, None)}
    extras = {"gh_slope": gh_fit.slope, "zd_slope": zd_fit.slope}
    return ["family", "k", "p_collision"], rows, checks, extras


# the quadrature of each distinct k costs about k^2 factor evaluations
@_experiment({"k_list": ("intlist>=1 sorted", "16,64,256,1024", "comma-separated k values")},
             ("k^2 units", FOURIER_K_SQUARED_CAP, lambda c: sum(k * k for k in c["k_list"])))
def _run_fourier(cfg):
    ks = cfg["k_list"]
    quads = {k: fourier.cos_product_integral(k) for k in ks}
    rows = [(k, q.value, q.head, q.tail, k**1.5 * q.value) for k, q in quads.items()]
    fit = fit_loglog(ks, [q.value for q in quads.values()])
    tails = {k: quads[k].tail if k in quads else fourier.tail_integral_decay(k).value
             for k in (32, 64)}
    checks = {"fourier-threehalves": (fit.slope, ks, fit),
              "fourier-tail-collapse": (math.log(tails[64] / tails[32]), [32, 64], None),
              "cos-gaussian-half": (fourier.verify_cos_gaussian_bound(0.5), [], None)}
    extras = {"error_estimate": {k: q.error_estimate for k, q in quads.items()}}
    return ["k", "integral", "head", "tail", "k32_scaled"], rows, checks, extras


def _censoring(horizon: int, beta: float) -> float:
    """h^(1-beta)/(beta-1), the integral of t^-beta beyond the horizon h, for beta > 1.

    It concerns the meetings a pair would make after h, and bounds their
    expected number only if the meeting probability u_t is at most t^-beta
    with constant 1, which nothing checks.  On G_H (beta = 2) t^2 u_t rises
    to 2 sqrt(3)/pi = 1.10, so at h = 4096 the figure is about 9% below the
    expected vertex meetings beyond h; shared edges, u_t/2 a step, stay
    below it.  On Z^d (beta = (d-1)/2) the constant passes 1 from d = 10,
    and at d = 16, h = 2048 the vertex meetings in (h, 2h] alone are 24
    times the figure.
    """
    return horizon ** (1.0 - beta) / (beta - 1.0)


@_experiment({
    "horizon": ("int>=1", "4096", "steps per walk pair"),
    "samples": ("int>=1", "100000", "number of walk pairs"),
    "min_count": ("int>=1", "50", "smallest survivor count of a level the tail ratio pools"),
    **_THREADS,
}, _PAIR_STEPS)
def _run_eit_tail(cfg):
    shared = paths.tail_estimate(cfg["horizon"], cfg["samples"], cfg["seed"],
                                 threads=cfg["threads"])[0].tolist()
    theta, theta_se, levels = paths._fit_tail(shared, cfg["min_count"])
    ratios = paths.continuation_ratios(shared, cfg["min_count"])
    ratio_at = {n: (r, se) for n, r, se in ratios}
    rows = [(n, count, *ratio_at.get(n, (math.nan, math.nan)))
            for n, count in enumerate(shared) if count]
    fit_ns = [n for n, *_ in rows[1:11]]
    fit = fit_exponential(fit_ns, [shared[n] for n in fit_ns],
                          weights=[shared[n] for n in fit_ns])
    # continuation_ratios floors each variance, so every ratio has a spread
    spreads = [abs(r - theta) / se for _n, r, se in ratios]
    checks = {
        "eit-tail-linearity": (fit.r_squared, fit_ns, fit),
        "eit-memorylessness": (max(spreads, default=math.nan), levels, None),
    }
    extras = {"theta_hat": theta, "theta_se": theta_se,
              "censoring_estimate": _censoring(cfg["horizon"], 2.0)}
    return ["n", "survivors", "continuation_ratio", "ratio_se"], rows, checks, extras


@_experiment({
    **_TRANSIENT_D,
    "horizon": ("int>=1", "10000", "steps per difference walk"),
    "samples": ("int>=1", "100000", "number of walks"),
    **_THREADS,
}, _PAIR_STEPS)
def _run_theta_d(cfg):
    returned, late = reference.theta_d_estimate(
        cfg["d"], cfg["horizon"], cfg["samples"], cfg["seed"], threads=cfg["threads"]
    )
    theta = returned / cfg["samples"]
    se = math.sqrt(theta * (1.0 - theta) / cfg["samples"])
    # the first returns after the horizon, extrapolated from those in
    # (horizon/2, horizon] as if the first-return tail were exactly
    # c t^-beta there, beta = (d-1)/2: an estimate, not a bound
    beta = (cfg["d"] - 1) / 2.0
    censoring = (late / cfg["samples"]) / (2.0 ** (beta - 1.0) - 1.0)
    rows = [(cfg["d"], cfg["horizon"], cfg["samples"], theta, se,
             theta - 1.96 * se, theta + 1.96 * se, censoring)]
    header = ["d", "horizon", "samples", "theta_hat", "theta_se", "ci_low", "ci_high",
              "censoring_estimate"]
    return header, rows, {}, {}


@_experiment({
    **_TRANSIENT_D,
    "horizon": ("int>=1", "2048", "steps per walk pair"),
    "samples": ("int>=1", "100000", "number of walk pairs"),
    "min_count": ("int>=1", "50", "smallest survivor count of a level the tail ratio pools"),
    **_THREADS,
}, _PAIR_STEPS)
def _run_zd_eit(cfg):
    theta = reference.theta_d_exact(cfg["d"], cfg["horizon"])
    tails = reference.zd_eit_tail(cfg["d"], cfg["horizon"], cfg["samples"], cfg["seed"],
                                  threads=cfg["threads"])
    shared, _vertices, remeets = tails.tolist()
    exc_theta, exc_se, exc_range = paths._fit_tail(remeets, cfg["min_count"])
    edge_theta, edge_se, _edge_range = paths._fit_tail(shared, cfg["min_count"])
    # the rows end at the last shared-edge level; the other rows may run longer
    rows = [(n, *column) for n, column in enumerate(tails.T.tolist()) if column[0]]
    checks = {"zd-eit-consistency": (abs(exc_theta - theta), exc_range, None)}
    extras = {
        "shared_edge_rate": edge_theta,
        "shared_edge_se": edge_se,
        "excursion_rate": exc_theta,
        "excursion_se": exc_se,
        "theta_exact": theta,
        "excursion_z": (exc_theta - theta) / exc_se if exc_se else None,
        "predicted_edge_rate": reference.edge_collision_rate(cfg["d"], theta),
        "lazy_return_bound": reference.lazy_return_probability(cfg["d"], theta),
        "tail_censoring_estimate": _censoring(cfg["horizon"], (cfg["d"] - 1) / 2.0),
    }
    header = ["n", "shared_survivors", "vertex_survivors", "excursion_survivors"]
    return header, rows, checks, extras


@_experiment({
    "t_max": ("int>=1", "96", "last time of the exact profile"),
    "n_min": ("int>=1", "8", "first n of the log P(2n) fit"),
    "n_max": ("int>=1", "48", "last n of the log P(2n) fit"),
})
def _run_srw_return(cfg):
    t_max, n_min, n_max = cfg["t_max"], cfg["n_min"], cfg["n_max"]
    if not n_min < n_max or 2 * n_max > t_max:
        raise ConfigError("need --n-min < --n-max and 2 * --n-max <= --t-max")
    prof = reference.srw_return_profile(t_max)
    rows = [(t, float(p)) for t, p in enumerate(prof.probabilities)]
    ns = list(range(n_min, n_max + 1))
    fit = fit_loglog(ns, [prof.probabilities[2 * n] for n in ns])
    checks = {"srw-return-exponent": (fit.slope, ns, fit)}
    return ["t", "p_return"], rows, checks, {"dropped_mass": prof.dropped_mass}


# a pair walks 2 * n_base * 2^doublings steps, and its count row and its share of a
# batch's sort and stream cost about 256 more; doublings past 63 fail the time cap
# anyway.  A standard error needs two pairs.
@_experiment({
    "n_base": ("int>=1", "256", "first checkpoint time"),
    "samples": ("int>=2", "1000", "walk pairs"),
    "doublings": ("int>=1", "2", "number of checkpoint doublings after n_base"),
}, ("walk-steps", INTERSECTION_WORK_CAP, lambda c: c["samples"] * (
    2 * (c["n_base"] << min(c["doublings"], 63)) + 256)))
def _run_srw_intersections(cfg):
    times, values = reference.srw_mutual_intersections(
        cfg["n_base"], cfg["samples"], cfg["seed"], cfg["doublings"]
    )
    ses = values.std(axis=0, ddof=1) / math.sqrt(cfg["samples"])
    rows = [(t, float(m), float(se)) for t, m, se in zip(times, values.mean(axis=0), ses)]
    # paired z of the last minus the first positive-time count; NaN with no spread
    diff = values[:, -1].astype(float) - values[:, 1].astype(float)
    diff_se = diff.std(ddof=1) / math.sqrt(diff.size)
    z = float(diff.mean() / diff_se) if diff_se > 0 else math.nan
    grows = z > 3.0 if math.isfinite(z) else math.nan
    checks = {"intersection-growth": (grows, list(times), None)}
    return ["time", "mean_common_vertices", "se"], rows, checks, {"growth_z": z}


@_experiment({
    "r_min": ("int>=1", "8", "first radius of the fit"),
    "r_max": ("int>=1", "32", "last radius of the fit"),
})
def _run_ball_growth(cfg):
    r_min, r_max = cfg["r_min"], cfg["r_max"]
    if not r_min < r_max:
        raise ConfigError("need --r-min < --r-max")
    sizes = heisenberg.ball_sizes(r_max)
    rows = list(enumerate(sizes))
    radii = list(range(r_min, r_max + 1))
    fit = fit_loglog(radii, [sizes[r] for r in radii])
    return ["radius", "ball_size"], rows, {"ball-growth-exponent": (fit.slope, radii, fit)}, {}


def _tapers(means: list[float]) -> bool | float:
    """Whether the increments of means strictly decrease, or NaN if a mean is not finite."""
    inc = [b - a for a, b in zip(means, means[1:])]
    return all(a > b for a, b in zip(inc, inc[1:])) if np.isfinite(means).all() else math.nan


# one resistance solve and one cluster search per seed and radius
@_experiment({
    "family": ("choice:heisenberg,z2", "heisenberg", "graph family"),
    "p": ("prob", "1.0", "edge retention probability"),
    "radii": ("intlist>=1 increasing", "4,8,12,16", "sphere radii"),
    "seeds": ("intlist sorted", "1,2,3,4,5", "percolation seeds"),
}, ("solves", RESISTANCE_SOLVES_CAP, lambda c: len(c["seeds"]) * len(c["radii"])))
def _run_resistance_profile(cfg):
    radii, seeds = cfg["radii"], cfg["seeds"]
    z2 = cfg["family"] == "z2"
    graph = percolation.lattice_box(2, radii[-1]) if z2 else percolation.heisenberg_box(radii[-1])
    # a seed with no open path to a radius has an infinite resistance there,
    # which leaves its mean, and so the claim's statistic, not finite
    resistance, cluster_size = percolation.resistance_profile(graph, cfg["p"], radii, seeds)
    rows = [(str(seed), r, res, int(cs))
            for seed, res_row, cs_row in zip(seeds, resistance, cluster_size)
            for r, res, cs in zip(radii, res_row, cs_row)]
    # np.mean of each radius's column: mean(axis=0) sums in another order
    means = [float(np.mean(resistance[:, j])) for j in range(len(radii))]
    rows += [("mean", r, res, float(np.mean(cluster_size[:, j])))
             for j, (r, res) in enumerate(zip(radii, means))]
    if z2:
        fit = _fit_line(np.log(radii), means)
        checks = {"z2-recurrence-slope": (fit.slope, radii, fit)}
    else:
        checks = {"gh-transience-increments": (_tapers(means), radii, None)}
    return ["seed", "radius", "resistance", "oriented_cluster_size"], rows, checks, {}


# num_paths words through every radius, per seed and once more for Thomson
@_experiment({
    "p": ("prob", "0.95", "edge retention probability"),
    "num_paths": ("int>=1", "2000", "oriented words sampled per mask"),
    "radii": ("intlist>=1 increasing", "4,8,12,16", "box radii"),
    "seeds": ("intlist sorted", "1,2,3,4,5", "percolation seeds"),
}, ("path-steps", FLOW_PATH_STEPS_CAP,
    lambda c: c["num_paths"] * sum(c["radii"]) * (len(c["seeds"]) + 1)))
def _run_flow_energy(cfg):
    radii, seeds, p = cfg["radii"], cfg["seeds"], cfg["p"]
    rows, means, thomson_ok = [], [], True
    box = percolation.heisenberg_box(radii[-1])
    for radius in radii:
        graph = box.sub_box(radius)
        energies = []
        for seed in seeds:
            energy, surviving = percolation.path_flow_energy(graph, p, cfg["num_paths"], seed)
            energies.append(energy)
            rows.append((p, radius, str(seed), energy, surviving, float("nan")))
        means.append(float(np.mean(energies)))
        # Thomson check rides along at p=1 on the same box
        mask = percolation.percolate(graph, 1.0, seeds[0])
        assignment = percolation.path_flow_assignment(mask, cfg["num_paths"], seeds[0])
        reff = percolation.effective_resistance(mask)
        thomson_ok &= assignment.energy() >= reff - 1e-9  # at p = 1 every word survives
        rows.append((1.0, radius, "thomson", assignment.energy(), assignment.surviving, reff))
    checks = {"flow-energy-taper": (_tapers(means), radii, None),
              "thomson-bound": (thomson_ok, radii, None)}
    header = ["p", "radius", "seed", "energy", "surviving", "resistance"]
    return header, rows, checks, {"mean_energies": means}


# ---------------------------------------------------------------- emission


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _config_hash(cfg: dict) -> str:
    """Short sha256 of the resolved config, less the output-path, status-file
    and thread options, which never change a CSV byte.  It keeps --seed, which
    eleven subcommands never read, so one of their CSVs can show under two
    hashes (ROADMAP.md, "A config hash that names the bytes", moves --seed
    to the runners that read it)."""
    kept = {k: v for k, v in cfg.items()
            if k not in ("out_path", "status_file", "threads")}
    return sha256(json.dumps(_jsonable(kept), sort_keys=True).encode()).hexdigest()[:12]


def _out_path(cfg: dict) -> str:
    return cfg["out_path"] or f"{cfg['experiment']}.csv"


def _check_writable(path: str, failure: str) -> None:
    """A ConfigError, "<failure> <path>: <why>", unless a file can be written at path."""
    target = Path(path)
    if target.is_dir():
        why = "it is a directory"
    elif not target.parent.is_dir():
        why = f"directory {target.parent} does not exist"
    elif not os.access(target.parent, os.W_OK | os.X_OK):
        why = f"directory {target.parent} is not writable"
    else:
        return
    raise ConfigError(f"{failure} {path}: {why}")


def _write_outputs(cfg: dict, header, rows, fits, extras, runtime: float) -> dict:
    """Write the rows to the CSV and return the run's summary, which counts them."""
    out_path = _out_path(cfg)
    lines = [",".join(header)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    try:
        Path(out_path).write_text("\n".join(lines) + "\n", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write --out-path {out_path}: {exc}") from exc
    return {
        "config": _jsonable(cfg),
        "rows": len(rows),
        "fits": _jsonable(fits),
        "runtime_seconds": round(runtime, 3),
        "version": VERSION,
        "config_hash": _config_hash(cfg),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **{key: _jsonable(value) for key, value in extras.items()},
        "out_path": out_path,
    }


def _load_status(path: Path, claims: dict) -> dict:
    """The status file's entries ({} when absent); a corrupt file or entry is a ConfigError."""
    if not path.exists():
        return {}
    try:
        status = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unreadable status file {path}: {exc}") from exc
    if not isinstance(status, dict):
        raise ConfigError(f"status file {path} does not hold a JSON object")
    for cid, entry in status.items():
        if cid not in claims:
            raise ConfigError(f"status file references unknown claim id {cid!r}")
        if not (isinstance(entry, dict) and "pass" in entry
                and (entry["pass"] is None or isinstance(entry["pass"], bool))):
            raise ConfigError(f"status file {path} holds a malformed entry for {cid!r}")
    return status


def _record_status(cfg: dict, fits, claims: dict) -> None:
    if not fits:
        return
    path = Path(cfg["status_file"])
    config = _config_hash(cfg)
    when = datetime.now(timezone.utc).isoformat(timespec="seconds")
    # one run at a time reads, merges and replaces the file
    try:
        with open(path.with_name(f"{path.name}.lock"), "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            status = _load_status(path, claims)
            for f in fits:
                status[f["claim_id"]] = {
                    "pass": f["pass"],
                    "value": _jsonable(f["slope"]),
                    "experiment": cfg["experiment"],
                    "when": when,
                    "version": VERSION,
                    "config": config,
                }
            # write a sibling temp file, then rename it over: no reader sees half a file
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            try:
                tmp.write_text(json.dumps(status, indent=2, sort_keys=True) + "\n")
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot update status file {path}: {exc}") from exc


def _print_claims_table(status_file: str) -> None:
    claims = load_claims()
    status = _load_status(Path(status_file), claims)
    widths = (max(len(c) for c in claims) + 2, 10, 12, 12, 22, 16, 14, 12)
    print("".join(h.ljust(w) for h, w in zip(
        ("claim", "kind", "target", "tolerance", "experiment", "version", "config", "status"),
        widths)))
    for cid, c in claims.items():
        entry = status.get(cid, {})
        state = ({True: "pass", False: "FAIL", None: "inconclusive"}[entry["pass"]]
                 if entry else "not run")
        # entries written before provenance was recorded show "-"
        cells = (cid, c["kind"], f"{c['target']:g}", f"{c['tolerance']:g}", c["experiment"],
                 entry.get("version", "-"), entry.get("config", "-"), state)
        print("".join(str(v).ljust(w) for v, w in zip(cells, widths)))


# ---------------------------------------------------------------- driver


def _build_parser(chosen: str | None) -> argparse.ArgumentParser:
    """The parser of experiment `chosen` alone, or of every subcommand when it is None."""
    parser = argparse.ArgumentParser(
        prog="heiswalk",
        description="Experiments on oriented walks over the discrete Heisenberg group.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, experiment in _EXPERIMENTS.items():
        if chosen not in (None, name):
            continue
        # flags match in full: a prefix such as --out must not pass as --out-path
        sp = sub.add_parser(name, help=f"run the {name} experiment", allow_abbrev=False)
        for opt, (spec, default, help_text) in {**_GLOBAL_OPTIONS, **experiment.options}.items():
            sp.add_argument(
                _flag(opt), dest=opt, default=None,
                help=f"{help_text}{_spec_help(spec)} (default {default})",
            )
        sp.add_argument("--config", default=None, help="key=value config file; flags win")
    if chosen is None:
        sp = sub.add_parser("claims", help="print claim status table", allow_abbrev=False)
        sp.add_argument("--status-file", dest="status_file", default=STATUS_FILE)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # claims, --help or a typo get the full parser, which lists every subcommand
    chosen = argv[0] if argv and argv[0] in _EXPERIMENTS else None
    args = _build_parser(chosen).parse_args(argv)
    code = 0  # what a run returns, also when the reader of its stdout has left
    try:
        if args.experiment == "claims":
            _print_claims_table(args.status_file)
            sys.stdout.flush()
            return code
        cfg = _resolve_config(args.experiment, args)
        _check_work(cfg)
        claims = load_claims()
        # a corrupt status file or an unwritable path fails before the run
        _load_status(Path(cfg["status_file"]), claims)
        _check_writable(cfg["status_file"], "cannot update status file")
        _check_writable(_out_path(cfg), "cannot write --out-path")
        start = time.perf_counter()
        header, rows, checks, extras = _EXPERIMENTS[args.experiment].runner(cfg)
        runtime = time.perf_counter() - start
        fits = _verdicts(checks, claims)
        summary = _write_outputs(cfg, header, rows, fits, extras, runtime)
        _record_status(cfg, fits, claims)
        unsettled = [f for f in fits if f["pass"] is None]
        code = 5 if any(f["pass"] is False for f in fits) else 2 if unsettled else 0
        for f in unsettled if code == 2 else ():
            cid, got, need = f["claim_id"], len(f["range"]), claims[f["claim_id"]]["min_points"]
            print(f"inconclusive: {cid} has {got} of the {need} points it needs" if got < need
                  else f"inconclusive: no finite statistic for {cid}", file=sys.stderr)
        print(json.dumps(summary, indent=2), flush=True)
        return code
    except BrokenPipeError:  # stdout's reader left; the CSV and status file are written
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for exit's flush
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (SolverConvergenceError, QuadratureError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
