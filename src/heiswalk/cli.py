"""Experiment harness: run, fit, and report against the claims manifest.

Each subcommand runs one experiment, writes its rows to a CSV or JSON
file, prints a JSON summary to stdout, and records the pass/fail state
of any claims it checked in a status file, replaced atomically.
`heiswalk claims` prints the accumulated status table.  A corrupt status
file is a configuration error on both paths and is never overwritten.

Exit codes: 0 success, 2 configuration error, 3 resource cap exceeded,
4 solver or quadrature failure, 5 at least one claim failed.

Determinism: CSV bytes depend only on the resolved configuration (the
seed partitions Monte Carlo work into fixed-size chunks, so thread
count changes wall time only).  Timestamps appear solely in the JSON
summary.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import subprocess
import sys
import time
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, fourier, heisenberg, paths, percolation, reference, tables
from .errors import (
    CapExceededError,
    ConfigError,
    QuadratureError,
    SolverConvergenceError,
)
from .fitting import FitReport, _fit_line, fit_exponential, fit_loglog

__all__ = ["main"]

DEFAULT_SEED = 20260817
STATUS_FILE = "heiswalk-claims-status.json"


# ---------------------------------------------------------------- manifest


def load_claims() -> dict:
    """Parse the shipped claims manifest."""
    cp = configparser.ConfigParser()
    try:
        text = resources.files("heiswalk").joinpath("claims.ini").read_text()
    except FileNotFoundError as exc:
        raise ConfigError("claims manifest is missing from the package") from exc
    cp.read_string(text)
    claims = {}
    for cid in cp.sections():
        claims[cid] = {
            "kind": cp.get(cid, "kind"),
            "target": cp.getfloat(cid, "target"),
            "tolerance": cp.getfloat(cid, "tolerance"),
            "experiment": cp.get(cid, "experiment"),
            "statement": cp.get(cid, "statement"),
        }
    return claims


def _report(claims: dict, cid: str, value: float, range_=None, r_squared: float = 0.0,
            intercept: float = 0.0) -> FitReport:
    c = claims[cid]
    return FitReport.from_statistic(
        cid, value, c["target"], c["tolerance"], range_, intercept, r_squared
    )


def _property_report(claims: dict, cid: str, holds: bool, range_=None) -> FitReport:
    return _report(claims, cid, 1.0 if holds else 0.0, range_)


# ---------------------------------------------------------------- options

_GLOBAL_OPTIONS = {
    "seed": ("int", str(DEFAULT_SEED), "base RNG seed"),
    "threads": ("posint", "1", "worker threads for Monte Carlo chunks"),
    "out": ("choice:csv,json", "csv", "output format for the emitted file"),
    "out_path": ("str", "", "output file path (default <experiment>.<format>)"),
    "status_file": ("str", STATUS_FILE, "claim status file updated after each run"),
}

_EXPERIMENT_OPTIONS = {
    "collision-exact": {"k_list": ("intlist", "32,64,128,256", "comma-separated k values")},
    "conditional-exact": {"k_list": ("intlist", "32,64,128,256", "comma-separated k values")},
    "bound-scan": {
        "k_min": ("posint", "2", "first k of the scan"),
        "k_max": ("posint", "256", "last k of the scan"),
    },
    "dyadic": {"k_list": ("intlist", "4,8,16,31,256,1000", "comma-separated k values")},
    "zd-collision": {
        "d": ("posint", "4", "lattice dimension"),
        "k_list": ("intlist", "16,32,64,128", "comma-separated k values"),
    },
    "collision-contrast": {
        "d": ("posint", "4", "lattice dimension for the reference slope"),
        "gh_k_list": ("intlist", "32,64,128,256", "Heisenberg k values"),
        "zd_k_list": ("intlist", "16,32,64,128", "lattice k values"),
    },
    "fourier": {"k_list": ("intlist", "16,64,256,1024", "comma-separated k values")},
    "eit-tail": {
        "horizon": ("posint", "4096", "steps per walk pair"),
        "samples": ("posint", "100000", "number of walk pairs"),
        "min_count": ("posint", "50", "smallest survivor count used in fits"),
    },
    "theta-d": {
        "d": ("posint", "4", "lattice dimension (transient regime needs d >= 4)"),
        "horizon": ("posint", "10000", "steps per difference walk"),
        "samples": ("posint", "100000", "number of walks"),
    },
    "zd-eit": {
        "d": ("posint", "4", "lattice dimension (transient regime needs d >= 4)"),
        "horizon": ("posint", "2048", "steps per walk pair"),
        "samples": ("posint", "100000", "number of walk pairs"),
        "min_count": ("posint", "50", "smallest survivor count used in fits"),
    },
    "srw-return": {
        "t_max": ("posint", "96", "last time of the exact profile"),
        "n_min": ("posint", "8", "first n of the log P(2n) fit"),
        "n_max": ("posint", "48", "last n of the log P(2n) fit"),
    },
    "srw-intersections": {
        "n_base": ("posint", "256", "first checkpoint time"),
        "samples": ("posint", "1000", "walk pairs"),
        "doublings": ("posint", "2", "number of checkpoint doublings after n_base"),
    },
    "ball-growth": {
        "r_min": ("posint", "8", "first radius of the fit"),
        "r_max": ("posint", "32", "last radius of the fit"),
    },
    "resistance-profile": {
        "family": ("choice:heisenberg,z2", "heisenberg", "graph family"),
        "p": ("prob", "1.0", "edge retention probability"),
        "radii": ("intlist", "4,8,12,16", "strictly increasing radii"),
        "seeds": ("intlist", "1,2,3,4,5", "percolation seeds"),
    },
    "flow-energy": {
        "p": ("prob", "0.95", "edge retention probability"),
        "num_paths": ("posint", "2000", "oriented words sampled per mask"),
        "radii": ("intlist", "4,8,12,16", "strictly increasing radii"),
        "seeds": ("intlist", "1,2,3,4,5", "percolation seeds"),
    },
}


def _parse_value(spec: str, name: str, raw: str):
    if spec == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{name} must be an integer, got {raw!r}") from exc
    if spec == "posint":
        v = _parse_value("int", name, raw)
        if v < 1:
            raise ConfigError(f"{name} must be positive, got {v}")
        return v
    if spec == "prob":
        try:
            v = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{name} must be a number, got {raw!r}") from exc
        if not 0.0 < v <= 1.0:
            raise ConfigError(f"{name} must be in (0, 1], got {v}")
        return v
    if spec == "intlist":
        items = [s for s in raw.split(",") if s.strip()]
        if not items:
            raise ConfigError(f"{name} must be a nonempty comma-separated integer list")
        return [_parse_value("int", name, s.strip()) for s in items]
    if spec.startswith("choice:"):
        choices = spec.split(":", 1)[1].split(",")
        if raw not in choices:
            raise ConfigError(f"{name} must be one of {choices}, got {raw!r}")
        return raw
    if spec == "str":
        return raw
    raise AssertionError(spec)


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
    options = {**_GLOBAL_OPTIONS, **_EXPERIMENT_OPTIONS[experiment]}
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(options)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = {"experiment": experiment}
    for name, (spec, default, _help) in options.items():
        raw = getattr(args, name)
        if raw is None:
            raw = file_values.get(name, default)
        cfg[name] = _parse_value(spec, name, raw) if isinstance(raw, str) else raw
    return cfg


# ---------------------------------------------------------------- runners


def _run_collision_exact(cfg, claims):
    ks = sorted(set(cfg["k_list"]))
    if any(k < 1 for k in ks):
        raise ConfigError("k values must be >= 1")
    stats = tables.scan_statistics(ks)
    rows = [
        (k, stats[k].collision, stats[k].count_match, stats[k].weighted_match,
         stats[k].max_point_mass)
        for k in ks
    ]
    fits = []
    if len(ks) >= 2:
        fit = fit_loglog(ks, [stats[k].collision for k in ks])
        fits.append(_report(claims, "gh-collision-exponent", fit.slope, ks, fit.r_squared,
                            fit.intercept))
    k_top = ks[-1]
    fits.append(_report(claims, "count-match-scaled",
                        math.sqrt(k_top) * stats[k_top].count_match, [k_top]))
    header = ["k", "p_collision", "p_count_match", "p_weighted_match", "max_point_mass"]
    return header, rows, fits, {}


def _run_conditional_exact(cfg, claims):
    ks = sorted(set(cfg["k_list"]))
    if any(k < 1 for k in ks):
        raise ConfigError("k values must be >= 1")
    stats = tables.scan_statistics(ks)
    rows = [(k, stats[k].conditional_match) for k in ks]
    fits = []
    if len(ks) >= 2:
        fit = fit_loglog(ks, [stats[k].conditional_match for k in ks])
        fits.append(_report(claims, "conditional-exponent", fit.slope, ks, fit.r_squared,
                            fit.intercept))
    return ["k", "p_conditional_match"], rows, fits, {}


def _run_bound_scan(cfg, claims):
    k_min, k_max = cfg["k_min"], cfg["k_max"]
    if k_min < 2 or k_max < k_min:
        raise ConfigError("need 2 <= k_min <= k_max")
    ks = list(range(k_min, k_max + 1))
    stats = tables.scan_statistics(ks)
    slack = 1e-12
    rows, holds = [], True
    for k in ks:
        bound = 1.0 / k
        ok = stats[k].max_point_mass <= bound + slack and stats[k].weighted_match <= bound + slack
        holds &= ok
        rows.append((k, stats[k].max_point_mass, stats[k].weighted_match, bound))
    fits = [_property_report(claims, "point-mass-bound", holds, [k_min, k_max])]
    return ["k", "max_point_mass", "p_weighted_match", "bound"], rows, fits, {}


def _run_dyadic(cfg, claims):
    ks = cfg["k_list"]
    if any(k < 2 for k in ks):
        raise ConfigError("dyadic check needs k >= 2")
    rows, holds = [], True
    for k in ks:
        support, uniform = tables.dyadic_uniformity(k)
        holds &= uniform and support >= k / 2 - 1
        rows.append((k, support, int(uniform)))
    fits = [_property_report(claims, "dyadic-uniformity", holds, ks)]
    return ["k", "support_size", "uniform"], rows, fits, {}


def _run_zd_collision(cfg, claims):
    d, ks = cfg["d"], sorted(set(cfg["k_list"]))
    if d < 1:
        raise ConfigError("d must be >= 1")
    if any(k < 0 for k in ks):
        raise ConfigError("k values must be >= 0")
    probs = [reference.zd_collision_probability(d, k) for k in ks]
    rows = list(zip(ks, probs))
    fits = []
    if d == 4 and len(ks) >= 2:
        fit = fit_loglog(ks, probs)
        fits.append(_report(claims, "zd4-collision-exponent", fit.slope, ks, fit.r_squared,
                            fit.intercept))
    return ["k", "p_collision"], rows, fits, {}


def _run_collision_contrast(cfg, claims):
    d = cfg["d"]
    gh_ks = sorted(set(cfg["gh_k_list"]))
    zd_ks = sorted(set(cfg["zd_k_list"]))
    if len(gh_ks) < 2 or len(zd_ks) < 2:
        raise ConfigError("both k lists need at least two values")
    if any(k < 1 for k in gh_ks) or any(k < 1 for k in zd_ks):
        raise ConfigError("k values must be >= 1")
    stats = tables.scan_statistics(gh_ks)
    gh_fit = fit_loglog(gh_ks, [stats[k].collision for k in gh_ks])
    zd_probs = [reference.zd_collision_probability(d, k) for k in zd_ks]
    zd_fit = fit_loglog(zd_ks, zd_probs)
    rows = [("heisenberg", k, stats[k].collision) for k in gh_ks]
    rows += [(f"z{d}", k, p) for k, p in zip(zd_ks, zd_probs)]
    gap = zd_fit.slope - gh_fit.slope
    fits = [_report(claims, "collision-exponent-gap", gap, gh_ks + zd_ks)]
    extras = {"gh_slope": gh_fit.slope, "zd_slope": zd_fit.slope}
    return ["family", "k", "p_collision"], rows, fits, extras


def _run_fourier(cfg, claims):
    ks = sorted(set(cfg["k_list"]))
    if any(k < 2 for k in ks):
        raise ConfigError("--k-list values must be >= 2: the tail [1/k, pi/2] is empty at k=1")
    tails = {k: fourier.tail_integral_decay(k) for k in sorted(set(ks) | {32, 64})}
    rows = []
    integrals = []
    for k in ks:
        quad = fourier.cos_product_integral(k)
        head = fourier.head_integral(k)
        integrals.append(quad.value)
        rows.append((k, quad.value, head, tails[k], k**1.5 * quad.value))
    fits = []
    if len(ks) >= 2:
        fit = fit_loglog(ks, integrals)
        fits.append(_report(claims, "fourier-threehalves", fit.slope, ks, fit.r_squared,
                            fit.intercept))
    fits.append(_report(claims, "fourier-tail-collapse", math.log(tails[64] / tails[32]), [32, 64]))
    fits.append(_property_report(claims, "cos-gaussian-half",
                                 fourier.verify_cos_gaussian_bound(0.5), []))
    return ["k", "integral", "head", "tail", "k32_scaled"], rows, fits, {}


def _tail_rows(est, min_count):
    ratios, pooled = paths.continuation_ratios(est.counts, min_count)
    ratio_at = {n: (r, se) for n, r, se in ratios}
    rows = []
    for n in sorted(est.counts):
        r, se = ratio_at.get(n, (float("nan"), float("nan")))
        rows.append((n, est.counts[n], r, se))
    return rows, ratios, pooled


def _run_eit_tail(cfg, claims):
    est = paths.tail_estimate(
        cfg["horizon"], cfg["samples"], cfg["seed"],
        min_count=cfg["min_count"], threads=cfg["threads"],
    )
    rows, ratios, pooled = _tail_rows(est, cfg["min_count"])
    fit_ns = [n for n in range(1, 11) if est.counts.get(n, 0) > 0]
    if len(fit_ns) < 3:
        raise ConfigError("samples too small to populate the n in [1,10] tail")
    fit = fit_exponential(fit_ns, [est.counts[n] for n in fit_ns],
                          weights=[est.counts[n] for n in fit_ns])
    fits = [_report(claims, "eit-tail-linearity", fit.r_squared, fit_ns, fit.r_squared,
                    fit.intercept)]
    spreads = [abs(r - pooled) / se for _n, r, se in ratios if se > 0]
    if len(spreads) < 2:
        raise ConfigError(
            f"samples too small: {len(spreads)} continuation ratio(s) with a standard error, "
            "memorylessness needs at least 2"
        )
    worst = max(spreads)
    fits.append(_report(claims, "eit-memorylessness", worst, [n for n, _r, _se in ratios]))
    extras = {
        "theta_hat": est.theta_hat,
        "theta_se": est.theta_se,
        "r_squared_full": est.r_squared,
        "fit_range": est.fit_range,
        "censoring_bound": est.censoring_bound,
        "pooled_ratio": pooled,
    }
    return ["n", "survivors", "continuation_ratio", "ratio_se"], rows, fits, extras


def _run_theta_d(cfg, claims):
    if cfg["d"] < 4:
        raise ConfigError("theta-d targets the transient regime: d must be >= 4")
    theta, censoring = reference.theta_d_estimate(
        cfg["d"], cfg["horizon"], cfg["samples"], cfg["seed"], threads=cfg["threads"]
    )
    se = math.sqrt(theta * (1.0 - theta) / cfg["samples"])
    rows = [(cfg["d"], cfg["horizon"], cfg["samples"], theta, se,
             theta - 1.96 * se, theta + 1.96 * se, censoring)]
    header = ["d", "horizon", "samples", "theta_hat", "theta_se", "ci_low", "ci_high",
              "censoring_bound"]
    return header, rows, [], {}


def _run_zd_eit(cfg, claims):
    if cfg["d"] < 4:
        raise ConfigError("zd-eit targets the transient regime: d must be >= 4")
    from .rng import split_seed

    est = reference.zd_eit_tail(
        cfg["d"], cfg["horizon"], cfg["samples"], cfg["seed"],
        min_count=cfg["min_count"], threads=cfg["threads"],
    )
    exc_theta, exc_se, _exc_r2, exc_range = est.excursion_fit(cfg["min_count"])
    if exc_theta is None:
        raise ConfigError("samples too small: fewer than 3 re-meet levels reach min_count")
    theta, censoring = reference.theta_d_estimate(
        cfg["d"], cfg["horizon"], cfg["samples"], split_seed(cfg["seed"], 1),
        threads=cfg["threads"],
    )
    rows = []
    for n in sorted(est.counts):
        rows.append((n, est.counts[n], est.vertex_counts.get(n, 0),
                     est.excursion_counts.get(n, 0)))
    gap = abs(exc_theta - theta)
    fits = [_report(claims, "zd-eit-consistency", gap, exc_range)]
    extras = {
        "shared_edge_rate": est.theta_hat,
        "shared_edge_se": est.theta_se,
        "excursion_rate": exc_theta,
        "excursion_se": exc_se,
        "theta_hat_returns": theta,
        "return_censoring_bound": censoring,
        "predicted_edge_rate": reference.edge_collision_rate(cfg["d"], theta),
        "lazy_return_bound": reference.lazy_return_probability(cfg["d"], theta),
        "tail_censoring_bound": est.censoring_bound,
    }
    header = ["n", "shared_survivors", "vertex_survivors", "excursion_survivors"]
    return header, rows, fits, extras


def _run_srw_return(cfg, claims):
    t_max, n_min, n_max = cfg["t_max"], cfg["n_min"], cfg["n_max"]
    if not n_min < n_max or 2 * n_max > t_max:
        raise ConfigError("need n_min < n_max and 2*n_max <= t_max")
    prof = reference.srw_return_profile(t_max)
    rows = [(t, float(p)) for t, p in enumerate(prof.probabilities)]
    ns = list(range(n_min, n_max + 1))
    fit = fit_loglog(ns, [prof.probabilities[2 * n] for n in ns])
    fits = [_report(claims, "srw-return-exponent", fit.slope, ns, fit.r_squared,
                    fit.intercept)]
    return ["t", "p_return"], rows, fits, {"dropped_mass": prof.dropped_mass}


def _run_srw_intersections(cfg, claims):
    growth = reference.srw_mutual_intersections(
        cfg["n_base"], cfg["samples"], cfg["seed"], cfg["doublings"]
    )
    rows = [(t, float(m), float(se))
            for t, m, se in zip(growth.times, growth.means, growth.std_errors)]
    z = growth.growth_z()
    fits = [_property_report(claims, "intersection-growth", z > 3.0, list(growth.times))]
    return ["time", "mean_common_vertices", "se"], rows, fits, {"growth_z": z}


def _run_ball_growth(cfg, claims):
    r_min, r_max = cfg["r_min"], cfg["r_max"]
    if not 1 <= r_min < r_max:
        raise ConfigError("need 1 <= r_min < r_max")
    sizes = heisenberg.ball_sizes(r_max)
    rows = list(enumerate(sizes))
    radii = list(range(r_min, r_max + 1))
    fit = fit_loglog(radii, [sizes[r] for r in radii])
    fits = [_report(claims, "ball-growth-exponent", fit.slope, radii, fit.r_squared,
                    fit.intercept)]
    return ["radius", "ball_size"], rows, fits, {}


def _check_radii(radii):
    if radii != sorted(set(radii)):
        raise ConfigError("--radii must be strictly increasing")
    if radii[0] < 1:
        raise ConfigError(f"--radii must be >= 1, got {radii[0]}")


def _run_resistance_profile(cfg, claims):
    radii, seeds = cfg["radii"], cfg["seeds"]
    _check_radii(radii)
    if cfg["family"] == "heisenberg":
        graph = percolation.heisenberg_box(radii[-1])
    else:
        graph = percolation.lattice_box(2, radii[-1])
    prof = percolation.resistance_profile(graph, cfg["p"], radii, seeds)
    for seed, sp in zip(seeds, prof.per_seed):
        for r, res, _cs in sp.entries:
            if math.isinf(res):
                raise ConfigError(f"seed {seed} has no open path from the origin to radius {r} "
                                  f"at p={cfg['p']}: an infinite resistance gives no fit")
    rows = []
    for seed, sp in zip(seeds, prof.per_seed):
        rows += [(str(seed), r, res, int(cs)) for r, res, cs in sp.entries]
    rows += [("mean", r, res, cs) for r, res, cs in prof.entries]
    fits = []
    if cfg["family"] == "z2":
        fit = _fit_line(np.log(radii), prof.resistances())
        fits.append(_report(claims, "z2-recurrence-slope", fit.slope, radii, fit.r_squared,
                            fit.intercept))
    else:
        inc = prof.increments()
        holds = len(inc) >= 2 and all(a > b for a, b in zip(inc, inc[1:]))
        fits.append(_property_report(claims, "gh-transience-increments", holds, radii))
    return ["seed", "radius", "resistance", "oriented_cluster_size"], rows, fits, {}


def _run_flow_energy(cfg, claims):
    radii, seeds, p = cfg["radii"], cfg["seeds"], cfg["p"]
    _check_radii(radii)
    rows = []
    thomson_ok = True
    means = []
    for radius in radii:
        graph = percolation.heisenberg_box(radius)
        energies = []
        for seed in seeds:
            energy, surviving = percolation.path_flow_energy(
                p, cfg["num_paths"], radius, seed, graph
            )
            energies.append(energy)
            rows.append((p, radius, str(seed), energy, surviving, float("nan")))
        means.append(float(np.mean(energies)))
        # Thomson check rides along at p=1 on the same box
        mask = percolation.percolate(graph, 1.0, seeds[0])
        assignment = percolation.path_flow_assignment(graph, mask, cfg["num_paths"], seeds[0])
        reff = percolation.effective_resistance(mask, None, radius)
        thomson_ok &= assignment is not None and assignment.energy() >= reff - 1e-9
        rows.append((1.0, radius, "thomson", assignment.energy(), assignment.surviving, reff))
    inc = [b - a for a, b in zip(means, means[1:])]
    taper = len(inc) >= 2 and all(a > b for a, b in zip(inc, inc[1:]))
    fits = [
        _property_report(claims, "flow-energy-taper", taper, radii),
        _property_report(claims, "thomson-bound", thomson_ok, radii),
    ]
    header = ["p", "radius", "seed", "energy", "surviving", "resistance"]
    return header, rows, fits, {"mean_energies": means}


_RUNNERS = {
    "collision-exact": _run_collision_exact,
    "conditional-exact": _run_conditional_exact,
    "bound-scan": _run_bound_scan,
    "dyadic": _run_dyadic,
    "zd-collision": _run_zd_collision,
    "collision-contrast": _run_collision_contrast,
    "fourier": _run_fourier,
    "eit-tail": _run_eit_tail,
    "theta-d": _run_theta_d,
    "zd-eit": _run_zd_eit,
    "srw-return": _run_srw_return,
    "srw-intersections": _run_srw_intersections,
    "ball-growth": _run_ball_growth,
    "resistance-profile": _run_resistance_profile,
    "flow-energy": _run_flow_energy,
}


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


def _version() -> str:
    root = Path(__file__).resolve().parents[2]
    try:
        out = subprocess.run(
            ["git", "describe", "--tags", "--always", "--dirty"],
            cwd=root, capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return f"heiswalk-{__version__}"


def _write_outputs(cfg: dict, header, rows, fits, extras, runtime: float) -> dict:
    summary = {
        "config": _jsonable(cfg),
        "results": [dict(zip(header, map(_jsonable, row))) for row in rows],
        "fits": [_jsonable(f.to_json()) for f in fits],
        "runtime_seconds": round(runtime, 3),
        "version": _version(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    for key, value in extras.items():
        summary[key] = _jsonable(value)
    out_path = cfg["out_path"] or f"{cfg['experiment']}.{cfg['out']}"
    if cfg["out"] == "csv":
        lines = [",".join(header)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        Path(out_path).write_text("\n".join(lines) + "\n", newline="\n")
    else:
        Path(out_path).write_text(json.dumps(summary, indent=2) + "\n", newline="\n")
    summary["out_path"] = out_path
    return summary


def _load_status(path: Path, claims: dict) -> dict:
    """The status file's entries ({} when absent); a corrupt file is a ConfigError."""
    if not path.exists():
        return {}
    try:
        status = json.loads(path.read_text())
    except ValueError as exc:
        raise ConfigError(f"unreadable status file {path}: {exc}") from exc
    if not isinstance(status, dict):
        raise ConfigError(f"status file {path} does not hold a JSON object")
    for cid in status:
        if cid not in claims:
            raise ConfigError(f"status file references unknown claim id {cid!r}")
    return status


def _record_status(cfg: dict, fits, claims: dict) -> None:
    if not fits:
        return
    path = Path(cfg["status_file"])
    status = _load_status(path, claims)
    when = datetime.now(timezone.utc).isoformat(timespec="seconds")
    for f in fits:
        status[f.claim_id] = {
            "pass": f.passed,
            "value": _jsonable(f.slope),
            "experiment": cfg["experiment"],
            "when": when,
        }
    # write a sibling temp file, then rename it over: no reader sees half a file
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(status, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _print_claims_table(status_file: str) -> None:
    claims = load_claims()
    for cid, c in claims.items():
        if c["experiment"] not in _RUNNERS:
            raise ConfigError(f"claim {cid} names unknown experiment {c['experiment']!r}")
    status = _load_status(Path(status_file), claims)
    widths = (max(len(c) for c in claims) + 2, 10, 12, 12, 22, 10)
    print("".join(h.ljust(w) for h, w in zip(
        ("claim", "kind", "target", "tolerance", "experiment", "status"), widths)))
    for cid, c in claims.items():
        entry = status.get(cid)
        if entry is None:
            state = "not run"
        else:
            state = "pass" if entry["pass"] else "FAIL"
        cells = (cid, c["kind"], f"{c['target']:g}", f"{c['tolerance']:g}",
                 c["experiment"], state)
        print("".join(str(v).ljust(w) for v, w in zip(cells, widths)))


# ---------------------------------------------------------------- driver


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heiswalk",
        description="Experiments on oriented walks over the discrete Heisenberg group.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, options in _EXPERIMENT_OPTIONS.items():
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        for opt, (_spec, default, help_text) in {**_GLOBAL_OPTIONS, **options}.items():
            sp.add_argument(
                f"--{opt.replace('_', '-')}", dest=opt, default=None,
                help=f"{help_text} (default {default})",
            )
        sp.add_argument("--config", default=None, help="key=value config file; flags win")
    sp = sub.add_parser("claims", help="print claim status table")
    sp.add_argument("--status-file", dest="status_file", default=STATUS_FILE)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.experiment == "claims":
            _print_claims_table(args.status_file)
            return 0
        cfg = _resolve_config(args.experiment, args)
        claims = load_claims()
        _load_status(Path(cfg["status_file"]), claims)  # a corrupt file fails before the run
        start = time.perf_counter()
        header, rows, fits, extras = _RUNNERS[args.experiment](cfg, claims)
        runtime = time.perf_counter() - start
        summary = _write_outputs(cfg, header, rows, fits, extras, runtime)
        _record_status(cfg, fits, claims)
        print(json.dumps(summary, indent=2))
        return 5 if any(not f.passed for f in fits) else 0
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
