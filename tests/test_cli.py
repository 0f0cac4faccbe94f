"""Command-line harness: exit codes, determinism, config handling."""

import json
import time
from pathlib import Path

import pytest

from heiswalk import fourier
from heiswalk.cli import STATUS_FILE, load_claims, main


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


def test_claims_manifest_well_formed():
    claims = load_claims()
    assert len(claims) >= 15
    for cid, c in claims.items():
        assert c["kind"] in ("slope", "value", "property")
        assert c["tolerance"] >= 0
        assert c["experiment"]
        assert c["statement"]


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


def test_json_summary_structure(workdir, capsys):
    code = run("dyadic", "--k-list", "4,8,16", "--out", "json", "--out-path", "d.json")
    assert code == 0
    summary = json.loads(Path("d.json").read_text())
    for key in ("config", "results", "fits", "runtime_seconds", "version", "timestamp"):
        assert key in summary
    assert summary["config"]["k_list"] == [4, 8, 16]
    assert summary["fits"] and summary["fits"][0]["claim_id"] == "dyadic-uniformity"
    assert summary["fits"][0]["pass"] is True


def test_empty_k_list_is_config_error(workdir, capsys):
    code = run("collision-exact", "--k-list", "", "--out-path", "x.csv")
    assert code == 2
    assert not Path("x.csv").exists()
    assert "config error" in capsys.readouterr().err


def test_bad_value_is_config_error(workdir, capsys, monkeypatch):
    assert run("eit-tail", "--samples", "-5") == 2
    assert run("resistance-profile", "--p", "1.7") == 2
    assert run("theta-d", "--d", "2") == 2
    # letters are drawn as uint8, so d is capped at 256
    assert run("theta-d", "--d", "300") == 2
    assert run("zd-eit", "--d", "300") == 2
    # one pair has no standard error, so no growth z-score can certify a claim
    assert run("srw-intersections", "--samples", "1", "--n-base", "8") == 2
    # one continuation ratio cannot show memorylessness
    assert run("eit-tail", "--samples", "60", "--horizon", "256") == 2
    assert "continuation ratio" in capsys.readouterr().err
    for experiment in ("resistance-profile", "flow-energy"):
        assert run(experiment, "--radii", "0,4") == 2
        assert "--radii" in capsys.readouterr().err
    # the tail [1/k, pi/2] is empty at k=1; refused before any quadrature
    with monkeypatch.context() as patch:
        patch.setattr(fourier, "_adaptive_simpson", None)
        assert run("fourier", "--k-list", "64,1") == 2
    assert "--k-list" in capsys.readouterr().err
    # a malformed table cap is a config error, not a traceback
    for cap in ("banana", "0"):
        monkeypatch.setenv("HEISWALK_TABLE_CAP", cap)
        assert run("collision-exact", "--k-list", "4,8") == 2
        assert "HEISWALK_TABLE_CAP" in capsys.readouterr().err


def test_cap_exceeded_exit_code(workdir, capsys):
    code = run("collision-exact", "--k-list", "4,600")
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


def test_eit_tail_horizon_limit_is_the_packed_key_bound(workdir, capsys):
    # 70000 steps tripped a stale 32-bit guard; the int64 key holds 2^21
    assert run("eit-tail", "--horizon", "70000", "--samples", "128") == 0
    assert run("eit-tail", "--horizon", str(2**21 + 1), "--samples", "1") == 3
    assert "exact int64 position key" in capsys.readouterr().err


def test_zd_eit_thin_tail_is_config_error(workdir, capsys):
    # at d=6 too few re-meet levels reach min_count for the excursion fit
    code = run("zd-eit", "--d", "6", "--horizon", "300", "--samples", "4000")
    assert code == 2
    assert "samples too small" in capsys.readouterr().err


# at p=0.3 the named seed has no open path to radius 2, so its resistance is
# infinite; the run stops before any fit or increment and records no verdict
@pytest.mark.parametrize("family, seed", [("z2", 2), ("heisenberg", 1)])
def test_infinite_resistance_is_config_error(workdir, capsys, family, seed):
    code = run("resistance-profile", "--family", family, "--p", "0.3", "--radii", "2,4")
    assert code == 2
    assert f"seed {seed} has no open path from the origin to radius 2" in capsys.readouterr().err
    assert not Path(STATUS_FILE).exists()


def test_failed_claim_exit_code(workdir, capsys):
    # sqrt(k) * count-match at k=4 sits far from the asymptote
    code = run("collision-exact", "--k-list", "2,4", "--out-path", "tiny.csv")
    assert code == 5
    assert Path("tiny.csv").exists()
    status = json.loads(Path(STATUS_FILE).read_text())
    assert status["count-match-scaled"]["pass"] is False


def test_status_recorded_and_reported(workdir, capsys):
    assert run("dyadic", "--k-list", "8,16") == 0
    status = json.loads(Path(STATUS_FILE).read_text())
    assert status["dyadic-uniformity"]["pass"] is True
    assert status["dyadic-uniformity"]["experiment"] == "dyadic"
    # the file is replaced through a sibling temp file, which must not linger
    assert sorted(p.name for p in workdir.iterdir()) == ["dyadic.csv", STATUS_FILE]
    capsys.readouterr()
    assert run("claims") == 0
    table = capsys.readouterr().out
    line = next(l for l in table.splitlines() if l.startswith("dyadic-uniformity"))
    assert line.rstrip().endswith("pass")


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


def test_unknown_experiment_rejected(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


def test_claims_rejects_corrupt_status(workdir, capsys):
    Path(STATUS_FILE).write_text('{"no-such-claim": {"pass": true}}')
    assert run("claims") == 2


def test_ball_growth_smoke(workdir, capsys):
    code = run("ball-growth", "--r-min", "4", "--r-max", "12", "--out", "json")
    assert code == 0
    summary = json.loads(Path("ball-growth.json").read_text())
    fit = summary["fits"][0]
    assert fit["claim_id"] == "ball-growth-exponent"
    assert 3.7 <= fit["slope"] <= 4.3
    sizes = {r["radius"]: r["ball_size"] for r in summary["results"]}
    assert sizes[1] == 5 and sizes[2] == 17


@pytest.mark.parametrize("corrupt", ['{"dyadic-uniformity": ', "[1, 2]",
                                     '{"no-such-claim": {"pass": true}}'])
def test_record_status_rejects_corrupt_file(workdir, capsys, corrupt):
    Path(STATUS_FILE).write_text(corrupt)
    assert run("dyadic", "--k-list", "8,16") == 2
    assert "status file" in capsys.readouterr().err
    assert Path(STATUS_FILE).read_text() == corrupt
