"""Command-line harness: exit codes, determinism, config handling."""

import argparse
import configparser
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import srw_intersection_values

import heiswalk
from heiswalk import cli, fourier, paths, percolation, reference, tables
from heiswalk.cli import STATUS_FILE, load_claims, main


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def fresh_claims():
    """load_claims with its cache emptied before and after the test, so the
    test sees its own parse and leaves no patched manifest behind."""
    cli.load_claims.cache_clear()
    yield
    cli.load_claims.cache_clear()


def test_claims_manifest_well_formed():
    claims = load_claims()
    assert len(claims) >= 15
    for cid, c in claims.items():
        assert c["kind"] in ("slope", "value", "property")
        assert c["tolerance"] >= 0
        assert c["experiment"]
        assert c["statement"]


def test_claims_manifest_is_parsed_once(workdir, capsys, monkeypatch, fresh_claims):
    parsed = []
    read_string = configparser.ConfigParser.read_string
    monkeypatch.setattr(configparser.ConfigParser, "read_string",
                        lambda self, text: parsed.append(len(text)) or read_string(self, text))
    for argv in (["dyadic", "--k-list", "4,8"], ["bound-scan", "--k-max", "8"], ["claims"],
                 ["zd-collision", "--k-list", "4,8"]):
        assert run(*argv) == 0
    assert load_claims() is load_claims()
    assert len(parsed) == 1


def test_claims_manifest_is_read_only():
    claims = load_claims()
    with pytest.raises(TypeError):
        claims["new-claim"] = {}
    with pytest.raises(TypeError):
        claims["dyadic-uniformity"]["target"] = 0.0
    with pytest.raises(TypeError):
        del claims["dyadic-uniformity"]
    assert claims["dyadic-uniformity"]["target"] == 1.0


def test_manifest_naming_an_unknown_experiment_is_config_error(workdir, capsys, monkeypatch,
                                                               fresh_claims):
    manifest = workdir / "claims.ini"
    manifest.write_text(cli._MANIFEST.read_text().replace("experiment = dyadic\n",
                                                          "experiment = dyadics\n"))
    monkeypatch.setattr(cli, "_MANIFEST", manifest)
    for argv in (["dyadic", "--k-list", "4,8"], ["claims"]):
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            "config error: claim dyadic-uniformity names unknown experiment 'dyadics'\n")
    assert not Path("dyadic.csv").exists() and not Path(STATUS_FILE).exists()


def test_fresh_checkout_all_not_run(workdir, capsys):
    assert run("claims") == 0
    out = capsys.readouterr().out
    assert "not run" in out
    assert "pass" not in out.replace("pass/fail", "")


def test_collision_exact_writes_pinned_header(workdir, capsys):
    code = run("collision-exact", "--k-list", "32,64", "--out-path", "run.csv")
    assert code == 0
    lines = Path("run.csv").read_text().splitlines()
    assert lines[0] == "k,p_collision,p_count_match,p_weighted_match,max_point_mass"
    assert lines[1].startswith("32,")
    # exact spot value rides along: k=4 collision is 9/128
    run("collision-exact", "--k-list", "4,8,16,32", "--out-path", "spot.csv")
    row4 = Path("spot.csv").read_text().splitlines()[1].split(",")
    assert float(row4[1]) == 9 / 128


def test_csv_byte_determinism(workdir):
    run("collision-exact", "--k-list", "8,16,32", "--out-path", "a.csv")
    run("collision-exact", "--k-list", "8,16,32", "--out-path", "b.csv")
    assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["srw-return", "--t-max", "64", "--n-max", "32"],
    # radius 16 gives CG systems of more than 10,000 unknowns, long enough
    # for OpenBLAS to split a dot product or norm between threads
    ["resistance-profile", "--p", "0.95"],
], ids=lambda argv: argv[0])
def test_csv_independent_of_blas_threads(argv, tmp_path):
    # a BLAS reduction sums in an order that depends on its thread count
    src = str(Path(heiswalk.__file__).parents[1])
    for threads in ("1", "2"):
        subprocess.run(
            [sys.executable, "-m", "heiswalk.cli", *argv, "--out-path", f"{threads}.csv",
             "--status-file", "status.json"],
            cwd=tmp_path, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src),
            capture_output=True, timeout=120, check=True,
        )
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


def test_json_summary_structure(workdir, capsys):
    code = run("dyadic", "--k-list", "4,8,16", "--out-path", "d.csv")
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    for key in ("config", "rows", "fits", "runtime_seconds", "version", "timestamp"):
        assert key in summary
    assert summary["rows"] == 3 and summary["out_path"] == "d.csv"
    assert summary["config"]["k_list"] == [4, 8, 16]
    assert summary["fits"] and summary["fits"][0]["claim_id"] == "dyadic-uniformity"
    assert summary["fits"][0]["pass"] is True


@pytest.mark.parametrize("argv", [["dyadic", "--out-path", "d.csv"], ["claims"]],
                         ids=lambda argv: argv[0])
def test_closed_stdout_keeps_the_exit_code(tmp_path, argv):
    # a reader that left before the output, as in `heiswalk dyadic | head -c 0`
    src = str(Path(heiswalk.__file__).parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "heiswalk.cli", *argv, "--status-file", "status.json"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
    if argv[0] == "dyadic":
        assert (tmp_path / "d.csv").read_text().startswith("k,")


def test_empty_k_list_is_config_error(workdir, capsys):
    code = run("collision-exact", "--k-list", "", "--out-path", "x.csv")
    assert code == 2
    assert not Path("x.csv").exists()
    assert "config error" in capsys.readouterr().err


def test_bad_value_is_config_error(workdir, capsys, monkeypatch):
    assert run("eit-tail", "--samples", "-5") == 2
    assert run("resistance-profile", "--p", "1.7") == 2
    assert run("theta-d", "--d", "2") == 2
    for experiment in ("theta-d", "zd-eit"):
        assert run(experiment, "--d", "17") == 2
        assert "2..16" in capsys.readouterr().err
    # collision-contrast judges G_H against Z^4 alone, so it takes no --d
    with pytest.raises(SystemExit) as exc:
        run("collision-contrast", "--d", "3")
    assert exc.value.code == 2
    assert "unrecognized arguments: --d 3" in capsys.readouterr().err
    # one pair has no standard error, so no growth z-score can certify a claim
    assert run("srw-intersections", "--samples", "1", "--n-base", "8") == 2
    assert "--samples" in capsys.readouterr().err
    # one continuation ratio cannot show memorylessness, which is no verdict
    assert run("eit-tail", "--samples", "60", "--horizon", "256") == 2
    assert ("inconclusive: eit-memorylessness has 1 of the 2 points it needs"
            in capsys.readouterr().err)
    for experiment in ("resistance-profile", "flow-energy"):
        for radii in ("0,4", "2,4,4"):
            assert run(experiment, "--radii", radii) == 2
            assert "--radii" in capsys.readouterr().err
    # the cos product needs k >= 1, so k=0 is refused before any quadrature
    with monkeypatch.context() as patch:
        patch.setattr(fourier, "_adaptive_simpson", None)
        assert run("fourier", "--k-list", "64,0") == 2
    assert "--k-list" in capsys.readouterr().err
    # the d=4 exponent fit takes log k, so k=0 is refused before the fit
    assert run("zd-collision", "--k-list", "0,1") == 2
    assert "--k-list" in capsys.readouterr().err


def test_cap_exceeded_exit_code(workdir, capsys, monkeypatch):
    code = run("collision-exact", "--k-list", "4,1025")
    assert code == 3
    assert "cap" in capsys.readouterr().err
    assert run("fourier", "--k-list", "100000") == 3
    # 1024 pairs x 2^21 steps of int64 keys would be 16 GiB in one chunk
    start = time.perf_counter()
    assert run("eit-tail", "--horizon", str(2**21), "--samples", "1024") == 3
    assert time.perf_counter() - start < 5.0
    assert "cells, above the cap" in capsys.readouterr().err
    # the last intersection checkpoint and the dyadic law are capped before any work
    start = time.perf_counter()
    assert run("srw-intersections", "--doublings", "60", "--samples", "2") == 3
    assert run("dyadic", "--k-list", "2147483648") == 3
    assert time.perf_counter() - start < 5.0
    capsys.readouterr()
    # zd-eit's exact renewal pass is capped before any letter pair is drawn
    with monkeypatch.context() as patch:
        patch.setattr(paths, "draw_pairs", None)
        horizon = reference.RENEWAL_HORIZON_CAP + 1
        assert run("zd-eit", "--horizon", str(horizon), "--samples", "1") == 3
    assert "exact renewal cap" in capsys.readouterr().err
    # theta-d takes the pair tails' cells cap: 1024 walks x 2^25 steps is
    # 2^35 walk-steps in one chunk, refused before any letter pair is drawn;
    # 10^5 walks x 10^8 steps are refused by the run's work cap first
    with monkeypatch.context() as patch:
        patch.setattr(paths, "draw_pairs", None)
        assert run("theta-d", "--horizon", str(2**25), "--samples", "1024") == 3
        assert "cells, above the cap" in capsys.readouterr().err
        assert run("theta-d", "--horizon", str(10**8)) == 3
        assert "pair-steps, above the cap" in capsys.readouterr().err
    # one thread over the cap exits 3 before any pool exists, so no thread starts
    with monkeypatch.context() as patch:
        patch.setattr(paths, "ThreadPoolExecutor", None)
        assert run("eit-tail", "--samples", "4096", "--threads", str(paths.THREADS_CAP + 1)) == 3
    assert "threads exceed the cap" in capsys.readouterr().err
    # zd-collision's work d * (k + 1)^2 is capped before its first big-integer pass
    start = time.perf_counter()
    assert run("zd-collision", "--d", str(10**12), "--k-list", "4,8") == 3
    assert run("zd-collision", "--k-list", "724") == 3
    assert run("collision-contrast", "--gh-k-list", "4,8", "--zd-k-list", "724") == 3
    assert time.perf_counter() - start < 5.0
    assert "exceeds the cap" in capsys.readouterr().err


def test_fourier_reports_its_error_estimates(workdir, capsys):
    assert run("fourier", "--k-list", "16,64") == 0
    summary = json.loads(capsys.readouterr().out)
    with open("fourier.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["k"]) for row in rows] == [16, 64]
    for k, row in zip((16, 64), rows):
        estimate = summary["error_estimate"][str(k)]
        assert estimate == fourier.cos_product_integral(k).error_estimate
        assert 0 < estimate <= fourier._TOL_REL * float(row["integral"])


def test_fourier_integrates_each_region_once(workdir, monkeypatch):
    # head and tail per listed k, plus the tail at 32 that fourier-tail-collapse needs
    regions = []
    simpson = fourier._adaptive_simpson

    def counted(f, edges, *args):
        regions.append((float(edges[0]), float(edges[-1])))
        return simpson(f, edges, *args)

    monkeypatch.setattr(fourier, "_adaptive_simpson", counted)
    assert run("fourier", "--k-list", "16,64") == 0
    half_pi = 0.5 * math.pi
    assert sorted(regions) == sorted([(0.0, 1 / 16), (1 / 16, half_pi), (0.0, 1 / 64),
                                      (1 / 64, half_pi), (1 / 32, half_pi)])


def test_dyadic_takes_each_distinct_k_once(workdir, capsys, monkeypatch):
    # like every list experiment: sorted, repeats dropped, one law per k
    laws = []
    uniformity = tables.dyadic_uniformity
    monkeypatch.setattr(tables, "dyadic_uniformity", lambda k: laws.append(k) or uniformity(k))
    assert run("dyadic", "--k-list", "16,4,16,4", "--out-path", "d.csv") == 0
    assert laws == [4, 16]
    assert [line.split(",")[0] for line in Path("d.csv").read_text().splitlines()] == [
        "k", "4", "16"]
    # a repeated k or seed runs once: the CSV, the echoed config and so its
    # hash are those of the resolved list (a repeated seed would otherwise
    # be solved twice and weigh twice in every mean)
    capsys.readouterr()
    for repeated, resolved in (
            (["dyadic", "--k-list", "16,4,16,4"], ["dyadic", "--k-list", "4,16"]),
            (["collision-contrast", "--gh-k-list", "8,4,8", "--zd-k-list", "8,4"],
             ["collision-contrast", "--gh-k-list", "4,8", "--zd-k-list", "4,8"]),
            (["resistance-profile", "--radii", "2,4,6", "--seeds", "2,1,1"],
             ["resistance-profile", "--radii", "2,4,6", "--seeds", "1,2"]),
            (["flow-energy", "--radii", "2,3,4", "--num-paths", "200", "--seeds", "1,1"],
             ["flow-energy", "--radii", "2,3,4", "--num-paths", "200", "--seeds", "1"])):
        configs = []
        for argv in (repeated, resolved):
            assert run(*argv, "--out-path", f"{len(configs)}.csv") == 0
            summary = json.loads(capsys.readouterr().out)
            configs.append((summary["config"] | {"out_path": ""}, summary["config_hash"]))
        assert configs[0] == configs[1]
        assert Path("0.csv").read_bytes() == Path("1.csv").read_bytes()


def test_eit_tail_horizon_limit_is_the_chunk_cells_cap(workdir, capsys):
    # 70000 steps tripped a stale 32-bit guard; one pair's chunk holds 2^24 steps
    assert run("eit-tail", "--horizon", "70000", "--samples", "128") == 0
    assert run("eit-tail", "--horizon", str(2**24 + 1), "--samples", "1") == 3
    assert "cells, above the cap" in capsys.readouterr().err


def test_zd_eit_compares_with_exact_theta(workdir, capsys, monkeypatch):
    # the excursion rate is judged against the exact renewal theta_d(h), with
    # no second Monte Carlo run
    def no_estimate(*args, **kwargs):
        raise AssertionError("zd-eit must not sample theta_d")

    monkeypatch.setattr(reference, "theta_d_estimate", no_estimate)
    assert run("zd-eit", "--horizon", "256", "--samples", "8192") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["theta_exact"] == reference.theta_d_exact(4, 256)
    assert "theta_hat_returns" not in summary
    assert summary["excursion_z"] == pytest.approx(
        (summary["excursion_rate"] - summary["theta_exact"]) / summary["excursion_se"])
    assert summary["predicted_edge_rate"] == reference.edge_collision_rate(
        4, summary["theta_exact"])


def test_zd_eit_rows_end_at_the_last_shared_edge_level(workdir):
    # here the vertex row runs two levels past the last shared-edge level:
    # the CSV stops at that level, and row n reads column n of the three tails
    assert run("zd-eit", "--horizon", "64", "--samples", "256", "--min-count", "2") == 0
    tails = reference.zd_eit_tail(4, 64, 256, cli.DEFAULT_SEED)
    last = int(np.flatnonzero(tails[0])[-1])
    assert tails[1, last + 1:].all() and last + 1 < tails.shape[1]
    with open("zd-eit.csv", newline="") as fh:
        rows = [[int(x) for x in row] for row in list(csv.reader(fh))[1:]]
    assert rows == [[n, *tails[:, n].tolist()] for n in range(last + 1)]


def test_zd_eit_thin_tail_is_inconclusive(workdir, capsys):
    # at d=6 the re-meet tail has two continuation levels (0 and 1) with
    # min_count pairs, one short of the claim's min_points, so the claim is
    # inconclusive; the rows are still written
    code = run("zd-eit", "--d", "6", "--horizon", "300", "--samples", "4000")
    assert code == 2
    assert ("inconclusive: zd-eit-consistency has 2 of the 3 points it needs"
            in capsys.readouterr().err)
    assert Path("zd-eit.csv").exists()
    assert json.loads(Path(STATUS_FILE).read_text())["zd-eit-consistency"]["pass"] is None


# at p=0.3 the named seed has no open path to radius 2, so its resistance is
# infinite; the row shows it, and the infinite mean leaves no finite statistic
@pytest.mark.parametrize("family, seed", [("z2", 2), ("heisenberg", 1)])
def test_infinite_resistance_is_config_error(workdir, capsys, family, seed):
    radii = "2,4" if family == "z2" else "2,4,6"  # as few as the family's claim takes
    code = run("resistance-profile", "--family", family, "--p", "0.3", "--radii", radii)
    assert code == 2
    claim = "z2-recurrence-slope" if family == "z2" else "gh-transience-increments"
    assert f"inconclusive: no finite statistic for {claim}" in capsys.readouterr().err
    with open("resistance-profile.csv") as fh:
        rows = {(row["seed"], row["radius"]): row["resistance"] for row in csv.DictReader(fh)}
    assert rows[str(seed), "2"] == rows["mean", "2"] == "inf"
    assert json.loads(Path(STATUS_FILE).read_text())[claim]["pass"] is None


def test_solver_failure_exit_code(workdir, capsys, monkeypatch):
    # with no per-root allowance CG stops after 20 steps; the radius-12 box needs more
    monkeypatch.setattr(percolation, "CG_ITERATIONS_PER_ROOT", 0)
    assert run("resistance-profile", "--radii", "2,4,12") == 4
    assert "solver failure" in capsys.readouterr().err


def test_resistance_mean_rows_are_np_mean_of_the_seed_rows(workdir):
    # 12 seeds: from 8 on, a mean over a 2-d array's axis sums in another
    # order than np.mean of one column, and the last bits can differ
    seeds = ",".join(str(s) for s in range(1, 13))
    assert run("resistance-profile", "--p", "0.95", "--radii", "2,4,6", "--seeds", seeds,
               "--out-path", "run.csv") == 0
    with open("run.csv") as fh:
        rows = list(csv.DictReader(fh))
    means = [row for row in rows if row["seed"] == "mean"]
    assert [int(row["radius"]) for row in means] == [2, 4, 6]
    for row in means:
        per_seed = [r for r in rows if r["seed"] != "mean" and r["radius"] == row["radius"]]
        assert len(per_seed) == 12
        for column, kind in (("resistance", float), ("oriented_cluster_size", int)):
            want = float(np.mean([kind(r[column]) for r in per_seed]))
            assert float(row[column]) == want


def test_intersection_estimates_are_numpy_over_the_step_loop(workdir, capsys):
    # the library returns each pair's counts; the CLI's means, standard errors
    # and paired growth z are numpy's over the step-by-step oracle's counts
    assert run("srw-intersections", "--n-base", "8", "--samples", "40", "--doublings", "2",
               "--seed", "5", "--out-path", "run.csv") == 0
    z = json.loads(capsys.readouterr().out)["growth_z"]
    with open("run.csv") as fh:
        rows = list(csv.DictReader(fh))
    values = srw_intersection_values(8, 40, 5, 2)
    assert [int(row["time"]) for row in rows] == [0, 8, 16, 32]
    assert [float(row["mean_common_vertices"]) for row in rows] == values.mean(axis=0).tolist()
    ses = (values.std(axis=0, ddof=1) / math.sqrt(40)).tolist()
    assert [float(row["se"]) for row in rows] == ses and all(ses[1:])
    diff = (values[:, -1] - values[:, 1]).astype(float)
    assert z == diff.mean() / (diff.std(ddof=1) / math.sqrt(40))
    assert round(z, 4) == 3.0635


# a slope needs two radii and a trend in the increments three, so fewer
# leave every claim of the run inconclusive, neither a traceback nor a
# failed claim; the rows are still written
@pytest.mark.parametrize("argv", [
    ["resistance-profile", "--family", "z2", "--radii", "4"],
    ["resistance-profile", "--radii", "4"],
    ["resistance-profile", "--radii", "4,8"],
    ["flow-energy", "--radii", "4,8"],
])
def test_too_few_radii_is_config_error(workdir, capsys, argv):
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    radii = len(argv[-1].split(","))
    status = json.loads(Path(STATUS_FILE).read_text())
    for fit in json.loads(out)["fits"]:
        cid = fit["claim_id"]
        need = load_claims()[cid]["min_points"]
        assert radii < need
        assert f"inconclusive: {cid} has {radii} of the {need} points it needs" in err
        assert fit["pass"] is None and status[cid]["pass"] is None
    assert Path(f"{argv[0]}.csv").exists()


_SMALL_CALLS = [
    ["collision-exact", "--k-list", "4,8"],
    ["conditional-exact", "--k-list", "4,8"],
    ["bound-scan", "--k-min", "2", "--k-max", "8"],
    ["dyadic", "--k-list", "4,8"],
    ["zd-collision", "--k-list", "4,8"],
    ["collision-contrast", "--gh-k-list", "4,8", "--zd-k-list", "4,8"],
    ["fourier", "--k-list", "16,32"],
    ["eit-tail", "--horizon", "64", "--samples", "256"],
    ["theta-d", "--horizon", "64", "--samples", "256"],
    ["zd-eit", "--horizon", "64", "--samples", "256", "--min-count", "2"],
    ["srw-return", "--t-max", "16", "--n-min", "2", "--n-max", "8"],
    ["srw-intersections", "--n-base", "8", "--samples", "20"],
    ["ball-growth", "--r-min", "2", "--r-max", "6"],
    ["resistance-profile", "--radii", "2,4,6"],
    ["flow-energy", "--radii", "2,3,4", "--num-paths", "200", "--seeds", "1"],
]

_IMPORT_GUARD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import heiswalk.cli as cli
codes = {}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[2]):
        codes[argv[0]] = cli.main(argv)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_no_subcommand_imports_scipy(workdir):
    # a fresh interpreter: the test process itself has imported scipy
    assert {argv[0] for argv in _SMALL_CALLS} == set(cli._EXPERIMENTS)
    src = str(Path(heiswalk.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, src, json.dumps(_SMALL_CALLS)],
                          capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert all(code in (0, 5) for code in report["codes"].values()), report["codes"]
    assert report["loaded"] == []


@pytest.mark.parametrize("argv", _SMALL_CALLS, ids=lambda argv: argv[0])
def test_summary_counts_the_csv_rows(workdir, capsys, argv):
    # the CSV is the one copy of the rows; stdout carries their count
    run(*argv, "--out-path", "run.csv")
    summary = json.loads(capsys.readouterr().out)
    assert "results" not in summary
    assert summary["rows"] == len(Path("run.csv").read_text().splitlines()) - 1


def test_out_option_is_refused(workdir, capsys):
    # one output format: --out is unknown, and no prefix of --out-path is taken for it
    with pytest.raises(SystemExit) as exc:
        run("dyadic", "--k-list", "4,8", "--out", "json")
    assert exc.value.code == 2
    assert "unrecognized arguments: --out json" in capsys.readouterr().err
    Path("run.cfg").write_text("out = json\n")
    assert run("dyadic", "--k-list", "4,8", "--config", "run.cfg") == 2
    assert "unknown config keys: ['out']" in capsys.readouterr().err
    assert sorted(p.name for p in workdir.iterdir()) == ["run.cfg"]
    assert all("out" not in {**cli._GLOBAL_OPTIONS, **e.options} for e in cli._EXPERIMENTS.values())


_GOLDEN = Path(__file__).with_name("golden_digests.json")
_WORKLOADS = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"


def _benchmark_calls():
    """The argv of every call in the benchmark's WORKLOADS, in order."""
    spec = importlib.util.spec_from_file_location("heiswalk_bench_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [argv for calls in workloads.WORKLOADS.values() for _label, argv in calls]


def _golden_calls():
    """The small calls, four more, and each benchmark call not among them but
    fourier's (see _golden_digests); min-count 5 pools the small eit-tail
    call's ratio over six levels, where the default takes three.  The two
    low-p resistance profiles pin the order in which the Schur diagonal
    sums its losses: at p <= 0.8 a change of that order moves the last
    bits of their resistances, which no other call shows."""
    calls = _SMALL_CALLS + [["resistance-profile", "--family", "z2", "--radii", "4,8,16"],
                            ["resistance-profile", "--p", "0.7"],
                            ["resistance-profile", "--family", "z2", "--p", "0.6",
                             "--radii", "4,8,16"],
                            ["eit-tail", "--horizon", "64", "--samples", "256",
                             "--min-count", "5"]]
    return calls + [argv for argv in _benchmark_calls()
                    if argv[0] != "fourier" and argv not in calls]
# the summary keys every run prints; the rest are its runner's extras
_SUMMARY_KEYS = {"config", "rows", "fits", "runtime_seconds", "version", "config_hash",
                 "timestamp", "out_path"}


def _digest(argv):
    """The call's exit code and CSV md5, and the `fits` block and runner
    extras of its JSON summary, at the default seed."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run(*argv, "--out-path", "golden.csv")
    summary = json.loads(stdout.getvalue())
    md5 = hashlib.md5(Path("golden.csv").read_bytes()).hexdigest()
    extras = {k: v for k, v in summary.items() if k not in _SUMMARY_KEYS}
    return {"argv": argv, "exit": code, "csv_md5": md5, "fits": summary["fits"],
            "extras": extras}


def _golden_digests(calls):
    """The _digest of each call but fourier, whose bits depend on numpy's SIMD
    dispatch; also checks that each claim is reported only by the experiment
    the manifest names."""
    claims = load_claims()
    digests, reported = [], set()
    for argv in calls:
        digest = _digest(argv)
        for fit in digest["fits"]:
            assert claims[fit["claim_id"]]["experiment"] == argv[0], (argv, fit["claim_id"])
            reported.add(fit["claim_id"])
        if argv[0] != "fourier":
            digests.append(digest)
    assert reported == set(claims)
    return digests


def test_csvs_and_verdicts_match_the_golden_digests(workdir):
    golden = json.loads(_GOLDEN.read_text())
    digests = _golden_digests(_golden_calls())
    assert digests == golden["calls"], (
        f"taken with numpy {golden['numpy']}, running numpy {np.__version__}")


def test_golden_rewrite_names_each_changed_entry():
    def entry(argv, md5, slope, extra):
        return {"argv": argv, "exit": 0, "csv_md5": md5,
                "fits": [{"claim_id": "c", "slope": slope, "pass": True}], "extras": {"e": extra}}

    old = [entry(["a", "--x", "1"], "m0", 1.0, 1), entry(["b"], "m1", 1.0, 1)]
    new = [entry(["a", "--x", "1"], "m2", 2.0, 2), entry(["b"], "m1", 1.0, 1)]
    assert _changed_entries(old, new) == ["a --x 1", "  csv m0 -> m2", "  fits c: slope",
                                          "  extras: e"]
    assert _changed_entries(old, old) == []


_FOURIER_CALL = ["fourier", "--k-list", "16,32"]


def _complex_multiply_probe():
    """md5 prefix of a complex product, which tells numpy's FMA loop from its
    baseline loop; the cos_product rotation `z *= step` runs on that loop."""
    z = np.exp(1j * np.arange(1.0, 65.0))
    z *= np.exp(0.1j)
    return hashlib.md5(z.tobytes()).hexdigest()[:8]


def test_fourier_digest_matches_the_entry_for_the_dispatched_loop(workdir):
    entries = json.loads(_GOLDEN.read_text())["fourier"]
    probe = _complex_multiply_probe()
    if probe not in entries:
        pytest.skip(f"no fourier digest for complex-multiply probe {probe}")
    assert _digest(_FOURIER_CALL) == entries[probe]


_HUGE = str(10**12)  # --seeds takes no huge length here


_MANY_SEEDS = ",".join(map(str, range(10**5)))


def _edge_calls():
    """(call, exit codes it may end in) for each small call with one option set
    to 0, -1, a huge value or a bad list; 10^5 seeds must meet a work cap."""
    for argv in _SMALL_CALLS:
        options = {**cli._GLOBAL_OPTIONS, **cli._EXPERIMENTS[argv[0]].options}
        for name, (spec, _default, _help) in options.items():
            if spec == "str" or spec.startswith("choice:"):
                continue
            flag = cli._flag(name)
            values = ["0", "-1"]
            if spec != "prob":
                values.append(_HUGE)
            if spec.startswith("intlist"):
                values += ["", "4,,8", "8,4"]
            if name == "seeds":
                values.append(_MANY_SEEDS)
            for value in values:
                call = list(argv)
                if flag in call:
                    call[call.index(flag) + 1] = value
                else:
                    call += [flag, value]
                yield call, (3,) if value is _MANY_SEEDS else (0, 2, 3, 5)


def test_edge_values_end_in_documented_exit_codes(workdir, capsys, monkeypatch):
    # a pool starts OS threads: the default single thread may run, and the
    # thread cap must refuse a huge count before any pool exists
    pool = paths.ThreadPoolExecutor

    def one_thread_pool(max_workers):
        assert max_workers == 1, f"a pool of {max_workers} threads was started"
        return pool(max_workers=max_workers)

    monkeypatch.setattr(paths, "ThreadPoolExecutor", one_thread_pool)
    start = time.perf_counter()
    bad = []
    many_seeds = set()
    for call, codes in _edge_calls():
        try:
            code = run(*call)
        except Exception as exc:  # a traceback at the command line
            code = repr(exc)
        if code not in codes or "Traceback" in capsys.readouterr().err:
            bad.append(([v if v is not _MANY_SEEDS else "0,...,99999" for v in call], code))
        if _MANY_SEEDS in call:
            many_seeds.add(call[0])
    assert bad == []
    assert many_seeds == {"resistance-profile", "flow-energy"}
    assert time.perf_counter() - start < 10.0


def _resolved(argv):
    return cli._resolve_config(argv[0], cli._build_parser(argv[0]).parse_args(argv))


def test_work_caps_sit_far_above_default_and_benchmark_calls():
    capped = {name for name, experiment in cli._EXPERIMENTS.items() if experiment.work}
    calls = [[name] for name in capped]
    calls += [argv for argv in _benchmark_calls() if argv[0] in capped]
    assert len(calls) == 25
    for argv in calls:
        for unit, cap, figure in cli._EXPERIMENTS[argv[0]].work:
            assert 30 * figure(_resolved(argv)) < cap, (argv, unit)


@pytest.mark.parametrize("experiment, option", [
    ("eit-tail", "samples"), ("zd-eit", "samples"), ("theta-d", "samples"),
    ("srw-intersections", "samples"), ("flow-energy", "num_paths"),
    ("resistance-profile", "seeds"),
])
def test_work_cap_refuses_before_the_run(workdir, capsys, monkeypatch, experiment, option):
    # the most work the cap allows reaches the runner, one unit more does not;
    # a list option grows by one more element
    registered = cli._EXPERIMENTS[experiment]
    listed = registered.options[option][0].startswith("intlist")

    def sized(n):
        return ",".join(map(str, range(1, n + 1))) if listed else str(n)

    ran = []
    monkeypatch.setitem(cli._EXPERIMENTS, experiment, registered._replace(
        runner=lambda cfg: ran.append(cfg[option]) or (["x"], [], {}, {})))
    (_unit, cap, figure), = registered.work
    # each figure is linear in the option: size one unit from its least accepted value
    least = cli._split_spec(registered.options[option][0])[1] or 1
    most = cap * least // figure(_resolved([experiment, cli._flag(option), sized(least)]))
    assert run(experiment, cli._flag(option), sized(most)) == 0
    assert ran == [list(range(1, most + 1)) if listed else most]
    assert run(experiment, cli._flag(option), sized(most + 1)) == 3
    assert len(ran) == 1
    assert "resource cap exceeded" in capsys.readouterr().err


# each capped list's work unit and library function, a call at exactly its
# work cap, and calls over it: by its least step (one unit unless noted),
# then far over, where each k meets its per-call cap
_CAPPED_LISTS = {
    # every dyadic k adds an even number of cells, so 2 is its least step
    "dyadic": ("law cells", (tables, "dyadic_uniformity"),
               ["dyadic", "--k-list", ",".join(map(str, range(2**20, 2**20 + 8)))], [
        ["dyadic", "--k-list", ",".join(map(str, [*range(2**20, 2**20 + 8), 2]))]]),
    "zd-collision": ("lattice cells", (reference, "zd_collision_probability"),
                     ["zd-collision", "--d", "1", "--k-list", "2047"], [
        ["zd-collision", "--d", "1", "--k-list", "0,2047"],
        ["zd-collision", "--k-list", ",".join(map(str, [*range(1, 501), 724]))]]),
    # d = 4: 4 * (2^2 + 14^2 + 54^2 + 722^2 + 724^2) is 2^22, each k under
    # the per-call cap 2^21 (no four distinct k reach 2^22 exactly), and
    # every k adds a multiple of 4 cells, so 4 is its least step
    "collision-contrast": ("lattice cells", (reference, "zd_collision_probability"),
                           ["collision-contrast", "--zd-k-list", "1,13,53,721,723"], [
        ["collision-contrast", "--zd-k-list", "3,5,17,35,722,723"]]),
    "fourier": ("k^2 units", (fourier, "cos_product_integral"), ["fourier", "--k-list", "8192"], [
        ["fourier", "--k-list", "1,8192"],
        ["fourier", "--k-list", ",".join(map(str, [*range(1, 701), 2049]))]]),
    "collision-exact": ("k^3 units", (tables, "scan_statistics"),
                        ["collision-exact", "--k-list", "2048"], [
        ["collision-exact", "--k-list", "1,2048"],
        ["collision-exact", "--k-list", ",".join(map(str, range(1, 1025)))]]),
    "conditional-exact": ("k^3 units", (tables, "scan_statistics"),
                          ["conditional-exact", "--k-list", "2048"], [
        ["conditional-exact", "--k-list", "1,2048"],
        ["conditional-exact", "--k-list", ",".join(map(str, range(1009, 1025)))]]),
    "collision-contrast-gh": ("k^3 units", (tables, "scan_statistics"),
                              ["collision-contrast", "--gh-k-list", "2048"], [
        ["collision-contrast", "--gh-k-list", "1,2048"]]),
}


@pytest.mark.parametrize("case", _CAPPED_LISTS)
def test_list_work_cap_refuses_before_the_library_runs(workdir, capsys, monkeypatch, case):
    unit, (module, function), at_cap, over = _CAPPED_LISTS[case]
    experiment = at_cap[0]
    registered = cli._EXPERIMENTS[experiment]
    cap, figure = next((cap, figure) for u, cap, figure in registered.work if u == unit)
    assert figure(_resolved(at_cap)) == cap
    assert figure(_resolved(over[0])) == cap + {"dyadic": 2, "collision-contrast": 4}.get(case, 1)
    with monkeypatch.context() as patch:
        ran = []
        patch.setitem(cli._EXPERIMENTS, experiment, registered._replace(
            runner=lambda cfg: ran.append(cfg) or (["x"], [], {}, {})))
        assert run(*at_cap) == 0
        assert len(ran) == 1

    def refused(*args):
        raise AssertionError(f"{function} ran on a list over the work cap")

    monkeypatch.setattr(module, function, refused)
    monkeypatch.setattr(tables, "scan_statistics", refused)
    for argv in over:
        assert run(*argv) == 3
        assert f"{unit}, above the cap" in capsys.readouterr().err


def test_bound_scan_prints_its_certificate(workdir, capsys):
    # cells are exact through k = 56, within gamma_{k-1} beyond
    assert run("bound-scan", "--k-min", "55", "--k-max", "58", "--out-path", "scan.csv") == 0
    lines = Path("scan.csv").read_text().splitlines()
    assert lines[0] == "k,max_point_mass,point_mass_error,p_weighted_match,bound"
    errors = {int(k): float(e) for k, _m, e, _w, _b in (line.split(",") for line in lines[1:])}
    assert errors[55] == errors[56] == 0.0
    assert 0.0 < errors[57] < 1e-16 and 0.0 < errors[58] < 1e-16


def test_failed_claim_exit_code(workdir, capsys):
    # sqrt(k) * count-match at k=4 sits far from the asymptote
    code = run("collision-exact", "--k-list", "2,4", "--out-path", "tiny.csv")
    assert code == 5
    assert Path("tiny.csv").exists()
    status = json.loads(Path(STATUS_FILE).read_text())
    assert status["count-match-scaled"]["pass"] is False


# no evidence is neither pass nor FAIL: at seed 3 every pair's common range
# grows alike, so the paired differences do not spread and there is no
# z-score; at p=0.3 no path survives, so every mean energy is infinite
@pytest.mark.parametrize("argv, claim", [
    (["srw-intersections", "--n-base", "1", "--doublings", "1", "--samples", "2",
      "--seed", "3"], "intersection-growth"),
    (["flow-energy", "--p", "0.3", "--radii", "4,8,12", "--num-paths", "200", "--seeds", "1,2"],
     "flow-energy-taper"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_degenerate_run_is_inconclusive(workdir, capsys, argv, claim):
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert f"inconclusive: no finite statistic for {claim}" in err
    fit = next(f for f in json.loads(out)["fits"] if f["claim_id"] == claim)
    assert fit["pass"] is None and fit["slope"] == "nan"
    assert json.loads(Path(STATUS_FILE).read_text())[claim]["pass"] is None
    assert run("claims") == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith(claim))
    assert line.rstrip().endswith("inconclusive")


# for each claim a config can leave short of its manifest min_points: a call
# one point short, and the same call with min_points points
_SHORT_AND_ENOUGH = {
    "gh-collision-exponent": (["collision-exact", "--k-list", "8"],
                              ["collision-exact", "--k-list", "4,8"]),
    "conditional-exponent": (["conditional-exact", "--k-list", "8"],
                             ["conditional-exact", "--k-list", "4,8"]),
    "zd4-collision-exponent": (["zd-collision", "--k-list", "8"],
                               ["zd-collision", "--k-list", "4,8"]),
    "collision-exponent-gap": (["collision-contrast", "--gh-k-list", "4,8", "--zd-k-list", "8"],
                               ["collision-contrast", "--gh-k-list", "4,8", "--zd-k-list", "4,8"]),
    "fourier-threehalves": (["fourier", "--k-list", "16"], ["fourier", "--k-list", "16,32"]),
    "eit-tail-linearity": (["eit-tail", "--horizon", "2", "--samples", "256"],
                           ["eit-tail", "--horizon", "3", "--samples", "256"]),
    "eit-memorylessness": (
        ["eit-tail", "--horizon", "64", "--samples", "256", "--min-count", "200"],
        ["eit-tail", "--horizon", "64", "--samples", "256", "--min-count", "100"]),
    # the re-meet tail's levels 0 and 1 hold 50 pairs, and level 2 holds 17
    "zd-eit-consistency": (["zd-eit", "--horizon", "64", "--samples", "256"],
                           ["zd-eit", "--horizon", "64", "--samples", "256", "--min-count", "2"]),
    "z2-recurrence-slope": (["resistance-profile", "--family", "z2", "--radii", "4"],
                            ["resistance-profile", "--family", "z2", "--radii", "2,4"]),
    "gh-transience-increments": (["resistance-profile", "--radii", "2,4"],
                                 ["resistance-profile", "--radii", "2,4,6"]),
    "flow-energy-taper": (["flow-energy", "--radii", "2,3", "--num-paths", "200", "--seeds", "1"],
                          ["flow-energy", "--radii", "2,3,4", "--num-paths", "200",
                           "--seeds", "1"]),
    "thomson-bound": (["flow-energy", "--radii", "2,3", "--num-paths", "200", "--seeds", "1"],
                      ["flow-energy", "--radii", "2,3,4", "--num-paths", "200", "--seeds", "1"]),
}
# the claims no config can leave short, each with its smallest call and why
_ALWAYS_ENOUGH = {
    "count-match-scaled": (["collision-exact", "--k-list", "8"],
                           "its range is the largest k alone"),
    "point-mass-bound": (["bound-scan", "--k-min", "2", "--k-max", "2"],
                         "its range is [--k-min, --k-max]"),
    "dyadic-uniformity": (["dyadic", "--k-list", "4"], "a k list is never empty"),
    "fourier-tail-collapse": (["fourier", "--k-list", "16"], "its range is always [32, 64]"),
    "cos-gaussian-half": (["fourier", "--k-list", "16"], "a grid check needs no points"),
    "srw-return-exponent": (["srw-return", "--t-max", "4", "--n-min", "1", "--n-max", "2"],
                            "--n-min < --n-max gives two n"),
    "ball-growth-exponent": (["ball-growth", "--r-min", "1", "--r-max", "2"],
                             "--r-min < --r-max gives two radii"),
    "intersection-growth": (["srw-intersections", "--n-base", "8", "--samples", "20",
                             "--doublings", "1"],
                            "time 0, n_base and one doubling at least"),
}


def _fit_of(claim, argv, capsys):
    """The exit code, stderr and the claim's fit of one call."""
    code = run(*argv, "--out-path", "run.csv")
    out, err = capsys.readouterr()
    return code, err, next(f for f in json.loads(out)["fits"] if f["claim_id"] == claim)


@pytest.mark.parametrize("claim", load_claims())
def test_too_few_points_are_inconclusive(workdir, capsys, claim):
    need = load_claims()[claim]["min_points"]
    if claim in _ALWAYS_ENOUGH:
        smallest, _why = _ALWAYS_ENOUGH[claim]
        _code, _err, fit = _fit_of(claim, smallest, capsys)
        assert len(fit["range"]) >= need and fit["pass"] is not None
        return
    short, enough = _SHORT_AND_ENOUGH[claim]
    code, err, fit = _fit_of(claim, short, capsys)
    got = len(fit["range"])
    assert code == 2 and got == need - 1
    assert f"inconclusive: {claim} has {got} of the {need} points it needs" in err
    assert fit["pass"] is None
    assert json.loads(Path(STATUS_FILE).read_text())[claim]["pass"] is None
    assert Path("run.csv").read_text().count("\n") > 1
    Path("run.csv").unlink()
    _code, _err, fit = _fit_of(claim, enough, capsys)
    assert len(fit["range"]) == need and fit["pass"] in (True, False)
    assert Path("run.csv").exists()


def test_a_failed_claim_outranks_an_inconclusive_one(workdir, capsys, monkeypatch):
    checks = {"dyadic-uniformity": (math.nan, [4], None),
              "point-mass-bound": (False, [2, 8], None)}
    monkeypatch.setitem(cli._EXPERIMENTS, "dyadic", cli._EXPERIMENTS["dyadic"]._replace(
        runner=lambda cfg: (["x"], [], checks, {})))
    assert run("dyadic") == 5


def test_status_entries_carry_provenance(workdir, capsys):
    assert run("dyadic", "--k-list", "8,16") == 0
    summary = json.loads(capsys.readouterr().out)
    entry = json.loads(Path(STATUS_FILE).read_text())["dyadic-uniformity"]
    assert entry["version"] == summary["version"] == f"heiswalk-{heiswalk.__version__}"
    assert entry["config"] == summary["config_hash"]
    assert len(entry["config"]) == 12
    # output, status and thread options never change a CSV byte, so not the hash
    capsys.readouterr()
    assert run("dyadic", "--k-list", "8,16", "--out-path", "other.csv",
               "--status-file", "other.json") == 0
    assert json.loads(capsys.readouterr().out)["config_hash"] == entry["config"]
    hashes = set()
    for threads in ([], ["--threads", "2"]):
        assert run("eit-tail", "--horizon", "64", "--samples", "2048", "--min-count", "2",
                   *threads) == 0
        hashes.add(json.loads(capsys.readouterr().out)["config_hash"])
    assert len(hashes) == 1
    assert run("dyadic", "--k-list", "8,32") == 0
    assert json.loads(capsys.readouterr().out)["config_hash"] != entry["config"]
    # an entry written before provenance was recorded prints "-" for both
    Path(STATUS_FILE).write_text(json.dumps({
        "dyadic-uniformity": entry,
        "point-mass-bound": {"pass": True, "value": 1.0, "experiment": "bound-scan"}}))
    assert run("claims") == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].split()[-3:] == ["version", "config", "status"]
    assert next(l for l in table if l.startswith("dyadic-uniformity")).split()[-3:] == [
        entry["version"], entry["config"], "pass"]
    assert next(l for l in table if l.startswith("point-mass-bound")).split()[-3:] == [
        "-", "-", "pass"]


def test_status_recorded_and_reported(workdir, capsys):
    assert run("dyadic", "--k-list", "8,16") == 0
    status = json.loads(Path(STATUS_FILE).read_text())
    assert status["dyadic-uniformity"]["pass"] is True
    assert status["dyadic-uniformity"]["experiment"] == "dyadic"
    # the file is replaced through a sibling temp file, which must not linger;
    # the sidecar lock file stays
    assert sorted(p.name for p in workdir.iterdir()) == ["dyadic.csv", STATUS_FILE,
                                                         f"{STATUS_FILE}.lock"]
    capsys.readouterr()
    assert run("claims") == 0
    table = capsys.readouterr().out
    line = next(l for l in table.splitlines() if l.startswith("dyadic-uniformity"))
    assert line.rstrip().endswith("pass")


def test_concurrent_status_updates_keep_every_claim(workdir, monkeypatch):
    # run A pauses between reading the status file and replacing it, and run
    # B starts inside that pause; without the lock B's claim is lost when A
    # writes back what it read
    claims = load_claims()
    load = cli._load_status
    a_has_read = threading.Event()

    def slow_load(path, claims):
        status = load(path, claims)
        if threading.current_thread().name == "A":
            a_has_read.set()
            time.sleep(0.5)
        return status

    monkeypatch.setattr(cli, "_load_status", slow_load)

    def record(experiment, cid):
        cfg = {"status_file": STATUS_FILE, "experiment": experiment}
        cli._record_status(cfg, cli._verdicts({cid: (True, [], None)}, claims), claims)

    a = threading.Thread(target=record, args=("dyadic", "dyadic-uniformity"), name="A")
    b = threading.Thread(target=record, args=("bound-scan", "point-mass-bound"), name="B")
    a.start()
    assert a_has_read.wait(10)
    b.start()
    a.join()
    b.join()
    status = json.loads(Path(STATUS_FILE).read_text())
    assert sorted(status) == ["dyadic-uniformity", "point-mass-bound"]


def test_config_file_with_flag_override(workdir):
    Path("run.cfg").write_text("k-list = 8,16\nout-path = file.csv\n")
    assert run("collision-exact", "--config", "run.cfg") == 0
    assert Path("file.csv").read_text().splitlines()[1].startswith("8,")
    # the flag beats the file
    assert run("collision-exact", "--config", "run.cfg", "--out-path", "flag.csv") == 0
    assert Path("flag.csv").exists()


def test_unknown_config_key_rejected(workdir, capsys):
    Path("bad.cfg").write_text("k-list = 8\nwibble = 3\n")
    assert run("collision-exact", "--config", "bad.cfg") == 2
    assert "wibble" in capsys.readouterr().err


def test_threads_is_an_option_only_where_chunks_run(workdir, capsys):
    for argv in (["dyadic", "--k-list", "8,16"], ["resistance-profile", "--radii", "2,4,6"]):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--threads", "2")
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert [name for name, e in cli._EXPERIMENTS.items() if "threads" in e.options] == [
        "eit-tail", "theta-d", "zd-eit"]


def test_unknown_experiment_rejected(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in [*cli._EXPERIMENTS, "claims"]:
        assert f"    {name} " in out


def test_help_prints_the_bounds_of_each_spec(capsys):
    with pytest.raises(SystemExit):
        run("resistance-profile", "--help")
    out = " ".join(capsys.readouterr().out.split())
    assert "sphere radii; >= 1; strictly increasing (default 4,8,12,16)" in out
    assert "percolation seeds; sorted, each value once (default 1,2,3,4,5)" in out
    assert "edge retention probability; in (0, 1] (default 1.0)" in out
    with pytest.raises(SystemExit):
        run("dyadic", "--help")
    out = " ".join(capsys.readouterr().out.split())
    assert "k values; >= 2; sorted, each value once (default 4,8,16,31,256,1000)" in out


def test_one_experiment_builds_only_its_options(workdir, capsys, monkeypatch):
    # the options of the other 14 experiments and of claims are not built
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *names, **kwargs):
        added.extend(n for n in names if n not in ("-h", "--help"))
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    assert run("dyadic", "--k-list", "8,16") == 0
    options = [*cli._GLOBAL_OPTIONS, *cli._EXPERIMENTS["dyadic"].options, "config"]
    assert sorted(added) == sorted(f"--{o.replace('_', '-')}" for o in options)


def test_claims_rejects_corrupt_status(workdir, capsys):
    for corrupt in ('{"no-such-claim": {"pass": true}}', '{"dyadic-uniformity": {}}',
                    '{"dyadic-uniformity": 5}', '{"dyadic-uniformity": {"pass": 1}}'):
        Path(STATUS_FILE).write_text(corrupt)
        assert run("claims") == 2
        assert "status file" in capsys.readouterr().err
        assert Path(STATUS_FILE).read_text() == corrupt


def test_ball_growth_smoke(workdir, capsys):
    code = run("ball-growth", "--r-min", "4", "--r-max", "12")
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    fit = summary["fits"][0]
    assert fit["claim_id"] == "ball-growth-exponent"
    assert 3.7 <= fit["slope"] <= 4.3
    with open("ball-growth.csv") as fh:
        sizes = {int(r["radius"]): int(r["ball_size"]) for r in csv.DictReader(fh)}
    assert sizes[1] == 5 and sizes[2] == 17


# a directory where a file belongs, or a file in a missing directory, fails
# before the run: the status file is read, and both paths are checked
@pytest.mark.parametrize("option, value, message", [
    ("--status-file", ".", "unreadable status file"),
    ("--status-file", "", "unreadable status file"),
    ("--status-file", "missing/status.json", "cannot update status file"),
    ("--out-path", "missing/dyadic.csv", "cannot write --out-path"),
    ("--out-path", ".", "cannot write --out-path"),
])
def test_unusable_status_or_output_path_is_config_error(workdir, capsys, monkeypatch, option,
                                                        value, message):
    def runner(cfg):
        raise AssertionError("the run started before the path check")

    monkeypatch.setitem(cli._EXPERIMENTS, "dyadic", cli._EXPERIMENTS["dyadic"]._replace(
        runner=runner))
    assert run("dyadic", "--k-list", "8", option, value) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


@pytest.mark.parametrize("corrupt", ['{"dyadic-uniformity": ', "[1, 2]",
                                     '{"no-such-claim": {"pass": true}}',
                                     '{"dyadic-uniformity": 5}', '{"dyadic-uniformity": {}}',
                                     '{"dyadic-uniformity": {"pass": "yes"}}'])
def test_record_status_rejects_corrupt_file(workdir, capsys, corrupt):
    Path(STATUS_FILE).write_text(corrupt)
    assert run("dyadic", "--k-list", "8,16") == 2
    assert "status file" in capsys.readouterr().err
    assert Path(STATUS_FILE).read_text() == corrupt


def _changed_entries(old, new):
    """Lines naming each call whose golden entry differs between the two
    lists of digests: its argv, the old -> new CSV md5 (and exit code),
    and the fits and extras keys whose values differ."""
    before = {tuple(entry["argv"]): entry for entry in old}
    lines = []
    for entry in new:
        was = before.pop(tuple(entry["argv"]), None)
        if was == entry:
            continue
        lines.append(" ".join(entry["argv"]))
        if was is None:
            lines.append(f"  new call: csv {entry['csv_md5']}, exit {entry['exit']}")
            continue
        if was["csv_md5"] != entry["csv_md5"]:
            lines.append(f"  csv {was['csv_md5']} -> {entry['csv_md5']}")
        if was["exit"] != entry["exit"]:
            lines.append(f"  exit {was['exit']} -> {entry['exit']}")
        fits_was = {fit["claim_id"]: fit for fit in was["fits"]}
        for fit in entry["fits"]:
            prior = fits_was.pop(fit["claim_id"], {})
            keys = sorted(k for k in fit.keys() | prior.keys() if fit.get(k) != prior.get(k))
            if keys:
                lines.append(f"  fits {fit['claim_id']}: {', '.join(keys)}")
        lines.extend(f"  fits {claim}: dropped" for claim in fits_was)
        keys = sorted(k for k in entry["extras"].keys() | was["extras"].keys()
                      if entry["extras"].get(k) != was["extras"].get(k))
        if keys:
            lines.append(f"  extras: {', '.join(keys)}")
    lines.extend(f"{' '.join(argv)}\n  dropped call" for argv in before)
    return lines


if __name__ == "__main__":
    # after a deliberate CSV or verdict change: PYTHONPATH=src python tests/test_cli.py;
    # it writes the fourier entry for this host's dispatch probe, keeps the others,
    # and prints each call whose entry changed
    import tempfile

    old = json.loads(_GOLDEN.read_text()) if _GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        probe = _complex_multiply_probe()
        golden = {"numpy": np.__version__, "calls": _golden_digests(_golden_calls()),
                  "fourier": {**old.get("fourier", {}), probe: _digest(_FOURIER_CALL)}}
    old_fourier = old.get("fourier", {}).get(probe)
    changes = _changed_entries(old.get("calls", []) + ([old_fourier] if old_fourier else []),
                               golden["calls"] + [golden["fourier"][probe]])
    _GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print("\n".join(changes) if changes else "no golden entry changed")
