import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import asdict

import pytest

import collapsemc
import record_digests
from test_ensemble import pool_spy, set_floor
from collapsemc import cli, ensemble
from collapsemc.cli import _ensemble_config, _json_out, build_parser, main
from collapsemc.ensemble import CHUNK_RUNS
from collapsemc.experiment import frame_pair
from collapsemc.relativity import C, Frame

V99 = 0.99 * C


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_refused(code, out, err, names):
    """A usage error: exit 2, nothing on stdout, and one error line that
    holds names."""
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and names in err, err


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


def test_frames_verbose_table(capsys):
    # the table lists frame0, A and B, each row the JSON's two times as
    # %.6e, and stdout is that of the run without --verbose
    args = ("frames", "--d", "1000", "--v", str(V99))
    code, plain, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, *args, "--verbose")
    assert code == 0 and out == plain
    header, *rows = err.splitlines()
    assert header.split() == ["frame", "t(event", "1)", "s", "t(event", "2)", "s"]
    frames = json.loads(out)["frames"]
    assert [row.split() for row in rows] == [
        [label, f"{frames[label]['t1_s']:.6e}", f"{frames[label]['t2_s']:.6e}"]
        for label in ("frame0", "A", "B")]


def test_frame_labels_agree_across_layers(capsys, tmp_path):
    # frames' stdout, the manifest's rates and the records name the same
    # frames, whose labels follow from their velocities
    labels = sorted(frame.label for frame in (Frame(0.0), *frame_pair(V99)))
    assert labels == ["A", "B", "frame0"]
    code, out, _ = run_cli(capsys, "frames", "--v", str(V99))
    assert code == 0 and sorted(json.loads(out)["frames"]) == labels
    for command, frames in (("born", ["frame0"]), ("collapse-time", ["A"]),
                            ("disagree", ["A", "B"])):
        out_dir = tmp_path / command
        code, out, _ = run_cli(capsys, command, "--runs", "20", "--v", str(V99),
                               "--workers", "1", "--out-dir", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert sorted(manifest["derived"]["collapse_rate_per_s"]) == labels
        lines = (out_dir / "records.csv").read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == frames * 20, command


def test_frames_invalid_geometry(capsys):
    code, _, err = run_cli(capsys, "frames", "--d", "-1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("args, names", [
    (("frames", "--d", "inf"), "d must be finite"),
    (("min-distance", "--tau", "inf"), "tau must be finite"),
    (("min-distance", "--tau", "1e300", "--v", "1"), "tau 1e+300 at v 1.0"),
])
def test_non_finite_geometry_is_a_usage_error(capsys, args, names):
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and names in err


@pytest.mark.parametrize("runs", [str(2**63), str(2**64)])
def test_runs_past_the_run_index_limit_are_a_usage_error(capsys, tmp_path, runs):
    out_dir = tmp_path / "big"
    code, out, err = run_cli(capsys, "born", "--runs", runs, "--out-dir", str(out_dir))
    assert code == 2 and out == ""
    assert "runs must be in" in err
    assert not out_dir.exists()


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
    # v t and v x overflow
    assert_refused(*run_cli(capsys, "transform", "--t", "1.2e300", "--x", "1.7e308",
                            "--v", "1.49896229e8"),
                   "event components must be finite, got (-inf, -inf)")


def test_cli_import_leaves_the_process_pool_out():
    # the pool is imported only by a run that starts one, so the CLI's
    # start-up does not pay for multiprocessing
    src = os.path.dirname(os.path.dirname(collapsemc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = ("import sys, collapsemc.cli; "
             "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
             "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_main_calls_share_one_parser(capsys, tmp_path):
    # the parser is built on the first main call, not at import, and every
    # later call reuses it; a flag given in one call does not reach the next
    src = os.path.dirname(os.path.dirname(collapsemc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = "import collapsemc.cli as cli; print(cli.build_parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "0"
    build_parser.cache_clear()
    first, second = tmp_path / "first", tmp_path / "second"
    code, _, err = run_cli(capsys, "born", "--runs", "7", "--seed", "9", "--q0", "0.3",
                           "--format", "jsonl", "--verbose", "--out-dir", str(first))
    assert code == 0 and "winner1" in err
    code, out, err = run_cli(capsys, "born", "--runs", "5", "--out-dir", str(second))
    assert code == 0 and err == ""
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    summary = json.loads(out)
    assert (summary["runs"], summary["master_seed"], summary["q0"]) == (5, 1, 0.5)
    assert summary["records_path"].endswith("records.csv")


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


def test_disagree_nearly_simultaneous_frames(capsys, tmp_path):
    # at d = 1 m and v = 1 mm/s the activation gap is 2.2e-20 s, yet each
    # frame is still driven by one detector: the records name it, and no
    # collapse beats the gap
    code, out, _ = run_cli(capsys, "disagree", "--d", "1", "--v", "1e-3", "--runs", "30",
                           "--seed", "4", "--out-dir", str(tmp_path / "n"),
                           "--workers", "1", "--format", "jsonl")
    assert code == 0
    data = json.loads(out)
    assert data["budget_violation_fraction"] == 1.0
    with open(data["records_path"], encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == 60
    for row in rows:
        assert row["first_detector"] == {"A": "D1", "B": "D2"}[row["frame"]]
        assert row["within_budget"] is False


def test_disagree_trivial_q0_zero(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "disagree", "--q0", "0", "--runs", "40",
                           "--seed", "1", "--out-dir", str(tmp_path / "d0"))
    data = json.loads(out)
    assert code == 0
    assert data["disagreement_rate"] == 0.0
    assert data["analytic"] == 0.0


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


# each ensemble flag, the config field it sets, a value for the field in a
# config file, and a different one for the flag
FLAG_FIELDS = [("--q0", "q0", 0.25, "0.75"), ("--runs", "runs", 30, "12"),
               ("--seed", "master_seed", 9, "4"), ("--d", "d", 500.0, "2000"),
               ("--v", "v", 0.5 * C, repr(V99)), ("--out-dir", "out_dir", "from-file", "from-flag"),
               ("--workers", "workers", 2, "3"), ("--format", "record_format", "jsonl", "csv")]


@pytest.mark.parametrize("flag, field, in_file, given", FLAG_FIELDS,
                         ids=[flag for flag, *_ in FLAG_FIELDS])
def test_each_flag_overrides_its_config_field(tmp_path, flag, field, in_file, given):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({field: in_file}))
    args = ["disagree", "--config", str(cfg_path)]
    from_file = _ensemble_config(build_parser().parse_args(args), "cross_frame")
    assert getattr(from_file, field) == in_file
    flagged = _ensemble_config(build_parser().parse_args([*args, flag, given]), "cross_frame")
    assert asdict(flagged) == {**asdict(from_file), field: type(in_file)(given)}


def test_unusable_out_dir_fails_before_any_run(capsys, tmp_path, monkeypatch):
    # an out-dir that names a file is a runtime failure, found before the
    # runs rather than after them
    monkeypatch.setattr(cli, "run_ensemble", _no_run)
    out_dir = tmp_path / "taken"
    out_dir.write_text("")
    code, out, err = run_cli(capsys, "born", "--runs", "20", "--out-dir", str(out_dir))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


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
    {"overrides": {"eta": "1e10"}},
    {"overrides": ["epsilon"]}, {"runs": 10.5}, {"runs": True}, {"master_seed": False},
    {"workers": True}, {"q0": True}, {"q0": "0.5"}, {"d": "1000"}, {"v": None},
    {"overrides": {"eta": True}}, {"overrides": {"lam": True}},
    {"overrides": {"max_steps": True}}, {"overrides": {"dt": True}},
    # overrides is a JSON object or absent, though dict() reads a list of
    # pairs and an empty list as falsy
    {"overrides": [["epsilon", 0.01]]}, {"overrides": []},
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


@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_out_dir_is_a_usage_error(capsys, tmp_path, monkeypatch, source):
    # an empty out-dir, from the flag or the config file, is refused before
    # any run starts, and nothing is written
    monkeypatch.chdir(tmp_path)
    started = []
    monkeypatch.setattr(cli, "run_ensemble", lambda *a, **kw: started.append(a))
    args = ["born", "--runs", "20", "--q0", "1"]
    if source == "flag":
        args += ["--out-dir", ""]
    else:
        (tmp_path / "empty.json").write_text(json.dumps({"out_dir": ""}))
        args += ["--config", "empty.json"]
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: out_dir must name a directory")
    assert started == []
    assert sorted(os.listdir(tmp_path)) == ([] if source == "flag" else ["empty.json"])


def test_amplitudes_override_is_unknown(capsys, tmp_path):
    # q0 is set by --q0 or the config's q0 alone; an amplitudes pair is an
    # unknown override, refused before any run
    cfg_path = tmp_path / "amplitudes.json"
    out_dir = tmp_path / "amplitudes"
    cfg_path.write_text(json.dumps({"overrides": {"amplitudes": [1, 3]}}))
    code, out, err = run_cli(capsys, "disagree", "--runs", "2000", "--config", str(cfg_path),
                             "--out-dir", str(out_dir))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "unknown override keys: ['amplitudes']" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("max_steps", [2**64, 10**31])
def test_step_cap_past_int64_is_a_usage_error(capsys, tmp_path, max_steps):
    # step counts are int64: a larger cap is refused with exit 2 before any
    # run, not raised as an OverflowError from the engine
    cfg_path = tmp_path / "cap.json"
    out_dir = tmp_path / "cap"
    cfg_path.write_text(json.dumps({"runs": 10, "out_dir": str(out_dir),
                                    "overrides": {"max_steps": max_steps}}))
    code, out, err = run_cli(capsys, "born", "--config", str(cfg_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: overrides") and "max_steps must be in [1, 2**63 - 1]" in err
    assert not out_dir.exists()


def test_epsilon_below_the_float32_floor_is_a_usage_error(capsys, tmp_path):
    # the engine's float32 state cannot carry the barrier of an epsilon
    # below dynamics.EPSILON_MIN; it is refused with exit 2 before any run,
    # and nothing is written
    cfg_path = tmp_path / "eps.json"
    out_dir = tmp_path / "eps"
    cfg_path.write_text(json.dumps({"overrides": {"epsilon": 1e-300}}))
    code, out, err = run_cli(capsys, "born", "--runs", "10", "--config", str(cfg_path),
                             "--out-dir", str(out_dir))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "float32" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("override", [{"dt": 1e-3}, {"epsilon": 0.45}])
def test_unrunnable_step_is_a_usage_error_before_any_pool(capsys, tmp_path, monkeypatch,
                                                          override):
    # a step the engine refuses in frame 0 (Gamma * dt 40, or a barrier
    # shifted below 0) is exit 2 before any run: with the floor at
    # CHUNK_RUNS runs a worker, no pool is built at two workers, where the
    # same command without the override builds one, and nothing is written
    pools = pool_spy(monkeypatch, cpus=2)
    set_floor(monkeypatch, CHUNK_RUNS)
    cfg_path = tmp_path / "step.json"
    out_dir = tmp_path / "step"
    cfg_path.write_text(json.dumps({"overrides": override}))
    code, out, err = run_cli(capsys, "born", "--runs", str(2 * CHUNK_RUNS), "--workers", "2",
                             "--config", str(cfg_path), "--out-dir", str(out_dir))
    assert code == 2
    assert out == ""
    assert err.startswith("error: overrides") and "reduce dt" in err
    assert pools == []
    assert sorted(os.listdir(tmp_path)) == ["step.json"]
    code, _, _ = run_cli(capsys, "born", "--runs", str(2 * CHUNK_RUNS), "--workers", "2",
                         "--out-dir", str(out_dir))
    assert code == 0 and pools == [1]


def test_help_lists_exit_codes(capsys, monkeypatch):
    # argparse wraps the epilog to the terminal width
    monkeypatch.setenv("COLUMNS", "120")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes: 0 success, 2 usage or validation error, 1 runtime failure" in out


# the usage lines of the ensemble subcommands at 80 columns, which both
# their help and their usage errors print, and the options block of their
# help, which they share
ENSEMBLE_USAGE = {
    "born": (
        'usage: collapsemc born [-h] [--q0 Q0] [--runs RUNS] [--seed SEED] [--d D]\n'
        '                       [--v V] [--config CONFIG] [--out-dir OUT_DIR]\n'
        '                       [--workers WORKERS] [--format {csv,jsonl}] [--verbose]\n'),
    "collapse-time": (
        'usage: collapsemc collapse-time [-h] [--q0 Q0] [--runs RUNS] [--seed SEED]\n'
        '                                [--d D] [--v V] [--config CONFIG]\n'
        '                                [--out-dir OUT_DIR] [--workers WORKERS]\n'
        '                                [--format {csv,jsonl}] [--verbose]\n'),
    "disagree": (
        'usage: collapsemc disagree [-h] [--q0 Q0] [--runs RUNS] [--seed SEED] [--d D]\n'
        '                           [--v V] [--config CONFIG] [--out-dir OUT_DIR]\n'
        '                           [--workers WORKERS] [--format {csv,jsonl}]\n'
        '                           [--verbose]\n'),
}
ENSEMBLE_OPTIONS = (
    '\n'
    'options:\n'
    '  -h, --help            show this help message and exit\n'
    '  --q0 Q0               initial branch-1 weight (default 0.5)\n'
    '  --runs RUNS           number of trials (default 10000)\n'
    '  --seed SEED           master seed (default 1)\n'
    '  --d D                 detector distance, m (default 1000)\n'
    '  --v V                 frame speed, m/s (default 0.99c)\n'
    '  --config CONFIG       JSON config file; flags override it\n'
    '  --out-dir OUT_DIR     output directory for records and manifest\n'
    '  --workers WORKERS     max parallel workers, this process counted as one; a\n'
    '                        second starts only from 8192 runs a worker (default:\n'
    '                        the CPUs this process may run on; results identical)\n'
    '  --format {csv,jsonl}  records file format (default csv)\n'
    '  --verbose             print a table to stderr\n')


@pytest.mark.parametrize("command", ENSEMBLE_USAGE)
def test_ensemble_help_and_usage_errors(capsys, monkeypatch, command):
    # each flag is stored under its config field, and --seed still shows
    # as SEED, not MASTER_SEED
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == ENSEMBLE_USAGE[command] + ENSEMBLE_OPTIONS
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1.5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (ENSEMBLE_USAGE[command] + f"collapsemc {command}: "
                                       "error: argument --seed: invalid int value: '1.5'\n")


@pytest.mark.parametrize("eta", [1e-5, 1e-10])
def test_unrunnable_derived_dt(capsys, tmp_path, eta):
    # lam 1e-300 derives dt 1.25e308 at eta 1e-5, whose step cap overflows
    # to an infinite duration, and dt inf at eta 1e-10: both are usage
    # errors that name the overrides dt came from, before any run
    cfg_path = tmp_path / "tiny.json"
    out_dir = tmp_path / "tiny"
    cfg_path.write_text(json.dumps({"runs": 20, "out_dir": str(out_dir),
                                    "overrides": {"lam": 1e-300, "eta": eta}}))
    code, out, err = run_cli(capsys, "born", "--config", str(cfg_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "lam = 1e-300" in err and f"eta = {eta!r}" in err
    assert "Gamma*dt" not in err
    assert not out_dir.exists()


def test_overflowing_rate_is_refused_before_any_run(capsys, tmp_path):
    # eta ** 2 overflows; with dt set, no derived dt is there to catch it
    cfg_path = tmp_path / "huge.json"
    out_dir = tmp_path / "huge"
    cfg_path.write_text(json.dumps({"runs": 20, "out_dir": str(out_dir),
                                    "overrides": {"eta": 1e160, "dt": 1e-9}}))
    code, out, err = run_cli(capsys, "born", "--config", str(cfg_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "lam = 1e-16" in err and "eta = 1e+160" in err
    assert not out_dir.exists()


def test_non_finite_output_is_an_error(capsys):
    # stdout is strict JSON: a non-finite value raises ValueError, which
    # main reports as exit 2, rather than printing NaN
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError):
            _json_out({"x": value})
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args", [("collapse-time", "--d", "inf"),
                                  ("disagree", "--d", "inf")])
def test_overflowing_activation_gap_is_refused_before_any_run(capsys, tmp_path, args):
    # an infinite d gives an infinite gap, which no manifest can hold
    out_dir = tmp_path / "gap"
    code, out, err = run_cli(capsys, *args, "--runs", "5", "--out-dir", str(out_dir))
    assert code == 2
    assert out == "" and "activation gap" in err
    assert not out_dir.exists()


def test_default_workers_count_usable_cpus(monkeypatch):
    # the default is the affinity set, not every CPU of the machine, and
    # every CPU only where the platform has no affinity call
    args = build_parser().parse_args(["born"])
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert _ensemble_config(args, "born_rule").workers == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _ensemble_config(args, "born_rule").workers == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _ensemble_config(args, "born_rule").workers == 1
    args = build_parser().parse_args(["born", "--workers", "3"])
    assert _ensemble_config(args, "born_rule").workers == 3


@pytest.mark.parametrize("d", ["1e300", "1e308"])
def test_gap_past_the_direct_products_range_is_refused(capsys, tmp_path, d):
    # 2 gamma v d overflows at these d, so the gap is refused before any run
    out_dir = tmp_path / "far"
    assert_refused(*run_cli(capsys, "disagree", "--d", d, "--runs", "5",
                            "--out-dir", str(out_dir)),
                   f"d {float(d)} and v {V99} give an activation gap that overflows a float")
    assert not out_dir.exists()


def test_frames_gap_past_the_direct_products_range(capsys, tmp_path, monkeypatch):
    # the boosts are finite at this d, and the gap is not
    monkeypatch.chdir(tmp_path)
    assert_refused(*run_cli(capsys, "frames", "--d", "5e298"),
                   f"d 5e+298 and v {V99} give an activation gap that overflows a float")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [("frames", "--d", "1e300"), ("transform", "--x", "1e300")])
def test_boost_past_the_direct_products_range(capsys, tmp_path, monkeypatch, args):
    # v x overflows in the time lag of the event at x 1e300 m
    monkeypatch.chdir(tmp_path)
    assert_refused(*run_cli(capsys, *args), "event components must be finite, got (-inf, ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("command", ["born", "collapse-time", "disagree"])
def test_records_bytes_do_not_depend_on_workers(capsys, tmp_path, monkeypatch, command, fmt):
    # with the floor at CHUNK_RUNS runs a worker, two workers run two
    # chunks, one in a real pool of one process and one in this process
    pools = pool_spy(monkeypatch, cpus=2)
    set_floor(monkeypatch, CHUNK_RUNS)
    runs = 2 * CHUNK_RUNS
    digests = set()
    for workers in ("1", "2"):
        out_dir = tmp_path / workers
        code, out, _ = run_cli(capsys, command, "--runs", str(runs), "--seed", "17",
                               "--format", fmt, "--workers", workers,
                               "--out-dir", str(out_dir))
        assert code == 0
        digests.add(hashlib.sha256((out_dir / f"records.{fmt}").read_bytes()).hexdigest())
    assert pools == [1]
    assert len(digests) == 1


def test_a_crashed_worker_fails_the_run(capsys, tmp_path, monkeypatch):
    # a pool worker that dies mid-chunk breaks the pool: exit 1 with the
    # broken pool named on stderr, no records file, and no child left
    pools = pool_spy(monkeypatch, cpus=2)
    set_floor(monkeypatch, CHUNK_RUNS)
    caller, frame_batch = os.getpid(), ensemble.run_frame_batch

    def die_in_worker(*args, **kwargs):
        if os.getpid() != caller:
            os._exit(1)
        return frame_batch(*args, **kwargs)

    monkeypatch.setattr(ensemble, "run_frame_batch", die_in_worker)
    code, out, err = run_cli(capsys, "born", "--runs", str(2 * CHUNK_RUNS), "--workers", "2",
                             "--out-dir", str(tmp_path / "crash"))
    assert pools == [1]
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "process pool" in err and "terminated abruptly" in err
    assert list(tmp_path.rglob("records.*")) == []
    assert multiprocessing.active_children() == []


def test_config_file_null_out_dir_takes_the_default(capsys, tmp_path, monkeypatch):
    # a null out_dir is no out_dir: the files go to the default directory
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out_dir": None, "runs": 20, "q0": 1.0}))
    code, out, _ = run_cli(capsys, "born", "--config", str(cfg_path))
    assert code == 0
    manifest = json.loads(out)["manifest_path"]
    assert manifest == os.path.join("collapsemc-out", "born_rule", "manifest.json")
    assert (tmp_path / manifest).exists()


def _no_run(config):
    raise AssertionError("a run started")


def test_config_file_out_dir_must_be_a_string(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_ensemble", _no_run)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out_dir": 5, "runs": 20}))
    code, out, err = run_cli(capsys, "born", "--config", str(cfg_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: out_dir must be a string or null")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_missing_config_file_is_a_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_ensemble", _no_run)
    for path in (tmp_path / "absent.json", tmp_path):
        code, out, err = run_cli(capsys, "born", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read config file")


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


# the --verbose tables of 3000 runs at seed 41, on the platform whose
# record digests are committed
VERBOSE_TABLES = {
    "born": "class           count       freq               wilson 95%\n"
            "winner1          1545   0.515000 [0.497108, 0.532854]\n"
            "winner2          1455   0.485000 [0.467146, 0.502892]\n"
            "failed              0\n"
            "duration_s   p10=1.012500e-04 p50=1.625000e-04 p90=2.588750e-04\n",
    "collapse-time": "class           count       freq               wilson 95%\n"
                     "winner1          1521   0.507000 [0.489112, 0.524870]\n"
                     "winner2          1479   0.493000 [0.475130, 0.510888]\n"
                     "failed              0\n"
                     "duration_s   p10=2.000000e-04 p50=3.218750e-04 p90=5.213750e-04\n",
    "disagree": "class           count       freq               wilson 95%\n"
                "agree            1501   0.500333 [0.482452, 0.518214]\n"
                "disagree         1499   0.499667 [0.481786, 0.517548]\n"
                "failed              0\n"
                "duration_s   p10=2.025000e-04 p50=3.237500e-04 p90=5.237500e-04\n",
}


@pytest.mark.parametrize("command", sorted(VERBOSE_TABLES))
def test_verbose_table_is_the_manifest_stats(capsys, tmp_path, command):
    code, _, err = run_cli(capsys, command, "--runs", "3000", "--seed", "41", "--workers", "1",
                           "--out-dir", str(tmp_path), "--verbose")
    assert code == 0
    # on any platform, the table spells the manifest's stats block
    stats = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["stats"]
    rows = [line.split() for line in err.splitlines()[1:-1]]
    assert {cls: int(count) for cls, count, *_ in rows} == stats["counts"]
    for cls, _, freq, lo, hi in (row for row in rows if len(row) > 2):
        assert float(freq) == pytest.approx(stats["freq"][cls], abs=5e-7)
        assert [float(lo.strip("[,")), float(hi.strip("]"))] == pytest.approx(
            stats["wilson"][cls], abs=5e-7)
    quantiles = [float(field.split("=")[1]) for field in err.splitlines()[-1].split()[1:]]
    assert quantiles == pytest.approx(stats["duration_quantiles_s"], rel=1e-6)
    if record_digests.platform_key() in record_digests.load():
        assert err == VERBOSE_TABLES[command]


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
