import json
import os

import pytest

from collapsemc.cli import main
from collapsemc.relativity import C

V99 = 0.99 * C


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_frames_values(capsys):
    code, out, _ = run_cli(capsys, "frames", "--d", "1000", "--v", str(V99))
    assert code == 0
    data = json.loads(out)
    assert data["frames"]["A"]["t1_s"] == pytest.approx(2.3646e-7, rel=5e-5)
    assert data["frames"]["B"]["t1_s"] == pytest.approx(4.7055e-5, rel=5e-5)
    assert data["frames"]["frame0"]["t1_s"] == data["frames"]["frame0"]["t2_s"]
    assert data["delta_t_s"] == pytest.approx(4.6819e-5, rel=5e-5)


def test_frames_rest_frame_simultaneous(capsys):
    code, out, _ = run_cli(capsys, "frames", "--v", "1e-3")
    data = json.loads(out)
    assert code == 0
    assert data["frames"]["A"]["t1_s"] == pytest.approx(3.33564e-6, rel=1e-5)


def test_frames_invalid_geometry(capsys):
    code, _, err = run_cli(capsys, "frames", "--d", "-1")
    assert code == 2
    assert "error" in err


def test_frames_superluminal(capsys):
    code, _, _ = run_cli(capsys, "frames", "--v", str(1.5 * C))
    assert code == 2


def test_transform(capsys):
    code, out, _ = run_cli(capsys, "transform", "--t", "0", "--x", "0", "--v", str(V99))
    data = json.loads(out)
    assert code == 0
    assert data["t_prime_s"] == 0.0 and data["x_prime_m"] == 0.0
    code, out, _ = run_cli(capsys, "transform")
    data = json.loads(out)
    assert data["t_prime_s"] == pytest.approx(2.3646e-7, rel=5e-5)


def test_min_distance(capsys):
    code, out, _ = run_cli(capsys, "min-distance", "--tau", "1e-4", "--v", str(V99))
    data = json.loads(out)
    assert code == 0
    assert data["d_m"] == pytest.approx(2135.9056, rel=1e-5)
    code, out, _ = run_cli(capsys, "min-distance", "--tau", "1e-6", "--v", str(V99))
    data = json.loads(out)
    assert data["d_m"] == pytest.approx(21.359056, rel=1e-5)
    code, _, _ = run_cli(capsys, "min-distance", "--v", str(C))
    assert code == 2


def test_born_trivial(capsys, tmp_path):
    out_dir = str(tmp_path / "born")
    code, out, _ = run_cli(capsys, "born", "--q0", "1", "--runs", "50",
                           "--seed", "7", "--out-dir", out_dir)
    assert code == 0
    data = json.loads(out)
    assert data["winner1_freq"] == 1.0
    assert os.path.exists(data["records_path"])
    assert os.path.exists(data["manifest_path"])


def test_born_validation(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "born", "--runs", "0",
                         "--out-dir", str(tmp_path / "x"))
    assert code == 2


def test_born_statistics_small(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "born", "--q0", "0.5", "--runs", "300",
                           "--seed", "3", "--out-dir", str(tmp_path / "b"),
                           "--workers", "1")
    assert code == 0
    data = json.loads(out)
    assert 0.3 < data["winner1_freq"] < 0.7
    lo, hi = data["wilson_winner1"]
    assert lo <= data["winner1_freq"] <= hi


def test_disagree_summary(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "disagree", "--q0", "0.3", "--runs", "100",
                           "--seed", "5", "--out-dir", str(tmp_path / "d"),
                           "--workers", "1")
    assert code == 0
    data = json.loads(out)
    # 2p(1 - p) with p = (q0 - eps) / (1 - 2 eps) at the default eps = 1e-6
    assert data["analytic"] == pytest.approx(0.41999967999904, rel=1e-12)
    assert 0.0 <= data["disagreement_rate"] <= 1.0
    assert 0.0 <= data["budget_violation_fraction"] <= 1.0

    cfg_path = tmp_path / "eps.json"
    cfg_path.write_text(json.dumps({"overrides": {"epsilon": 0.01}}))
    code, out, _ = run_cli(capsys, "disagree", "--q0", "0.8", "--runs", "20",
                           "--seed", "5", "--out-dir", str(tmp_path / "e"),
                           "--workers", "1", "--config", str(cfg_path))
    assert code == 0
    data = json.loads(out)
    assert data["analytic"] == pytest.approx(0.3125780924614744, rel=1e-12)
    with open(data["manifest_path"], encoding="utf-8") as fh:
        assert json.load(fh)["derived"]["analytic_disagreement"] == data["analytic"]


def test_disagree_trivial_q0_zero(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "disagree", "--q0", "0", "--runs", "40",
                           "--seed", "1", "--out-dir", str(tmp_path / "d0"))
    data = json.loads(out)
    assert code == 0
    assert data["disagreement_rate"] == 0.0
    assert data["analytic"] == 0.0


def test_frame0_no_contradictions(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "frame0", "--q0", "0.3", "--runs", "120",
                           "--seed", "2", "--out-dir", str(tmp_path / "f0"),
                           "--workers", "1")
    assert code == 0
    data = json.loads(out)
    assert data["contradictory_readings"] == 0


def test_collapse_time_summary(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "collapse-time", "--runs", "150", "--seed", "4",
                           "--out-dir", str(tmp_path / "ct"), "--workers", "1")
    assert code == 0
    data = json.loads(out)
    assert data["collapse_rate_per_s"] == pytest.approx(2e4, rel=1e-12)
    assert 0 < data["duration_p10_s"] <= data["duration_p50_s"] <= data["duration_p90_s"]


def test_cli_stdout_deterministic(capsys, tmp_path):
    args = ("disagree", "--q0", "0.3", "--runs", "60", "--seed", "11",
            "--out-dir", str(tmp_path / "rep"), "--workers", "1")
    _, out_a, _ = run_cli(capsys, *args)
    _, out_b, _ = run_cli(capsys, *args)
    assert out_a == out_b


def test_config_file_used_and_overridden(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "kind": "born_rule", "runs": 30, "q0": 1.0, "master_seed": 9,
        "out_dir": str(tmp_path / "from_file"),
    }))
    code, out, _ = run_cli(capsys, "born", "--config", str(cfg_path))
    assert code == 0
    data = json.loads(out)
    assert data["runs"] == 30 and data["q0"] == 1.0

    code, out, _ = run_cli(capsys, "born", "--config", str(cfg_path), "--runs", "12")
    data = json.loads(out)
    assert data["runs"] == 12  # flag beats file


def test_config_file_unknown_field(capsys, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"kind": "born_rule", "runz": 10}))
    code, _, err = run_cli(capsys, "born", "--config", str(cfg_path))
    assert code == 2
    assert "runz" in err
    cfg_path.write_text(json.dumps(["runs"]))
    code, _, err = run_cli(capsys, "born", "--config", str(cfg_path))
    assert code == 2
    assert "JSON object" in err
    # alpha is not a parameter of the engine
    cfg_path.write_text(json.dumps({"overrides": {"alpha": 1e-7}}))
    code, _, err = run_cli(capsys, "born", "--config", str(cfg_path))
    assert code == 2
    assert "unknown override keys: ['alpha']" in err


@pytest.mark.parametrize("bad", [
    {"overrides": {"epsilon": "0.01"}}, {"overrides": {"max_steps": 64.5}},
    {"overrides": {"eta": "1e10"}}, {"overrides": {"amplitudes": 3}},
    {"overrides": ["epsilon"]}, {"runs": 10.5},
])
def test_config_file_bad_value_type(capsys, tmp_path, bad):
    # a wrongly typed config value is a usage error, caught before any run
    cfg_path = tmp_path / "typed.json"
    out_dir = tmp_path / "typed"
    cfg_path.write_text(json.dumps({"runs": 10, "out_dir": str(out_dir), **bad}))
    code, out, err = run_cli(capsys, "born", "--config", str(cfg_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {next(iter(bad))}")
    assert not out_dir.exists()


def test_config_file_kind_mismatch(capsys, tmp_path):
    cfg_path = tmp_path / "kind.json"
    cfg_path.write_text(json.dumps({"kind": "cross_frame", "runs": 10}))
    code, _, _ = run_cli(capsys, "born", "--config", str(cfg_path))
    assert code == 2


def test_verbose_table_on_stderr(capsys, tmp_path):
    code, out, err = run_cli(capsys, "born", "--q0", "1", "--runs", "20",
                             "--out-dir", str(tmp_path / "v"), "--verbose")
    assert code == 0
    json.loads(out)  # stdout remains pure JSON
    assert "winner1" in err


def test_runtime_failure_exit_code(capsys, tmp_path):
    cfg_path = tmp_path / "hard.json"
    cfg_path.write_text(json.dumps({
        "kind": "born_rule", "runs": 30,
        "overrides": {"max_steps": 64},
        "out_dir": str(tmp_path / "hard"),
    }))
    code, _, err = run_cli(capsys, "born", "--config", str(cfg_path))
    assert code == 1
    assert "failed to converge" in err
