"""Tests of the benchmark's own logic.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def span(name, start, end, parent, info=None):
    return (name, start, end, parent, info)


# A traced repetition: cli.main -> run_ensemble -> run_frame_batch ->
# (two key derivations, collapse_batch -> two noise windows), then the
# reduction under run_ensemble and the export under cli.main.
TREE = [
    span(spans.MAIN, 0.0, 10.0, -1),
    span(spans.RUN_ENSEMBLE, 1.0, 8.0, 0, (2,)),
    span(spans.FRAME_BATCH, 1.5, 7.0, 1, (2,)),
    span(spans.KEYS, 1.5, 1.75, 2),
    span(spans.KEYS, 1.75, 2.0, 2),
    span(spans.BATCH, 3.0, 6.0, 2, (1500, 2, 2)),
    span(spans.NORMALS, 3.5, 4.5, 5, (1024, 2048)),
    span(spans.NORMALS, 5.0, 5.5, 5, (1024, 2048)),
    span(spans.REDUCE, 7.25, 7.75, 1, (2,)),
    span(spans.EXPORT_ENSEMBLE, 8.5, 9.5, 0, (2,)),
    span(spans.EXPORT, 8.5, 9.0, 9, (2,)),
]


def test_self_times_on_synthetic_tree():
    got = spans.self_times(TREE)
    want = [10 - 7 - 1, 7 - 5.5 - 0.5, 5.5 - 0.5 - 3, 0.25, 0.25, 3 - 1.5, 1, 0.5, 0.5, 0.5, 0.5]
    assert got == pytest.approx(want)
    assert sum(got) == pytest.approx(10.0)


def test_self_time_clips_and_merges_overlapping_children():
    tree = [span("a.x", 0.0, 4.0, -1), span("b.y", -1.0, 1.0, 0),
            span("b.y", 0.5, 2.0, 0), span("b.y", 3.5, 9.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(4.0 - 2.0 - 0.5)


def test_layer_metrics_on_synthetic_tree():
    m = spans.layer_metrics(TREE, [10.5], runs_per_rep=2)
    assert m["noise.keys_per_s"] == pytest.approx(2 / 0.5)
    assert m["noise.normals_per_s"] == pytest.approx(4096 / 1.5)
    assert m["noise.normals_per_run"] == pytest.approx(4096 / 2)
    assert m["dynamics.run_steps_per_s"] == pytest.approx(1500 / 1.5)
    assert m["dynamics.steps_per_run"] == pytest.approx(750)
    assert m["experiment.records_per_s"] == pytest.approx(2 / 2.0)
    assert m["ensemble.reduce_records_per_s"] == pytest.approx(2 / 0.5)
    assert m["ensemble.export_records_per_s"] == pytest.approx(2 / 0.5)
    assert m["ensemble.self_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(2.0)
    shares = [m[f"{layer}.self_share"] for layer in spans.LAYERS]
    assert shares == pytest.approx([2.0 / 10.5, 1.5 / 10.5, 2.0 / 10.5, 2.5 / 10.5, 2.0 / 10.5])
    assert sum(shares) + m["trace.remainder_share"] == pytest.approx(1.0)
    assert m["trace.remainder_share"] == pytest.approx(0.5 / 10.5)


def test_rows_used_ratio_from_call_log():
    # Two frame-0 runs absorb after 700 and 800 steps.  Each has two
    # detector streams, and each stream draws one whole 1024-row window.
    log = [span(spans.BATCH, 0, 1, -1, (700 + 800, 2, 2))]
    log += [span(spans.NORMALS, 0, 1, 0, (1024, 2048)) for _ in range(4)]
    assert spans.rows_used_ratio(log) == pytest.approx(3000 / 4096)
    # A run needing 1100 steps on one stream draws two whole windows.
    log = [span(spans.BATCH, 0, 1, -1, (1100, 1, 1)),
           span(spans.NORMALS, 0, 1, 0, (1024, 1024)),
           span(spans.NORMALS, 0, 1, 0, (1024, 1024))]
    assert spans.rows_used_ratio(log) == pytest.approx(1100 / 2048)


def test_oracle_formulas_against_roadmap_values():
    assert oracle.p_winner1(0.5, 1e-6) == 0.5
    p = oracle.p_winner1(0.8, 0.01)
    assert p == pytest.approx(0.79 / 0.98)
    # cross-short: 2p(1-p) is 0.3126, while 2 q0 (1 - q0) = 0.32 ignores eps
    # and sits about 0.0073 above it
    assert oracle.disagreement(p) == pytest.approx(0.31258, abs=1e-5)
    assert 2 * 0.8 * 0.2 - oracle.disagreement(p) == pytest.approx(0.0073, abs=2e-4)
    # E[T] in steps at the default frame-0 Gamma*dt = 0.005 is ~1382, and
    # frame A runs at half the rate (ROADMAP: simulated/analytic ~1.008)
    gamma0, dt = 1.0, 0.005
    assert oracle.mean_time(0.5, 1e-6, gamma0) / dt == pytest.approx(1381.6, abs=0.1)
    assert oracle.mean_time(0.5, 1e-6, gamma0 / 2) / dt == pytest.approx(2763.1, abs=0.1)
    # cross-short: eps = 0.01, q0 = 0.8, frames A/B at Gamma*dt = 0.0025
    assert oracle.mean_time(0.8, 0.01, gamma0 / 2) / dt == pytest.approx(734.3, abs=0.1)
    assert oracle.mean_time(0.3, 0.01, 2.0) == pytest.approx(oracle.mean_time(0.7, 0.01, 2.0))
    assert oracle.mean_time(1 - 0.01, 0.01, 1.0) == pytest.approx(0.0, abs=1e-12)


def _records(winners_a, winners_b=None):
    out = []
    for k, wa in enumerate(winners_a):
        frames = [("A", wa)] + ([("B", winners_b[k])] if winners_b else [])
        for f, w in frames:
            out.append({"run_index": k, "frame": f, "winner": w, "duration_s": 1.0,
                        "reading_D1": {1: "yes", 2: "no", 0: ""}[w],
                        "reading_D2": {1: "no", 2: "yes", 0: ""}[w]})
    return out


def _manifest(counts, eps=0.01):
    return {"derived": {"epsilon": eps, "collapse_rate_per_s": {"A": 1.0, "B": 1.0}},
            "stats": {"counts": counts}}


def test_oracle_gates_pass_and_fail():
    n = 1000
    wa = [1] * 806 + [2] * 194
    wb = [2] * 194 + [1] * 806
    gates, stats = oracle.check(_records(wa, wb), _manifest(
        {"agree": 612, "disagree": 388, "failed": 0}), "cross_frame", n, 0.8)
    assert gates["born.A"][0] and gates["born.B"][0] and gates["manifest.counts"][0]
    # 388 of 1000 disagree against 2p(1-p) = 0.3126: z = +5.2
    assert not gates["disagreement"][0]
    assert stats["mean_time_ratio"] == pytest.approx(1.0 / oracle.mean_time(0.8, 0.01, 1.0))

    gates, stats = oracle.check(_records([1] * 900 + [2] * 99 + [0]), _manifest(
        {"winner1": 900, "winner2": 99, "failed": 1}), "collapse_time", n, 0.8)
    assert not gates["born.A"][0]  # 900/999 against p = 0.806
    assert gates["manifest.counts"][0] and stats["failed_runs"] == [999]

    recs = _records([1, 2])
    recs[1]["reading_D1"] = "yes"
    gates, _ = oracle.check(recs, _manifest(
        {"winner1": 1, "winner2": 1, "failed": 0}), "collapse_time", 3, 0.5)
    assert not gates["records.readings"][0] and not gates["records.complete"][0]


def test_digest_gate():
    rep = {"rc": 0, "workers": 1, "digest": "aa"}
    assert run.digest_gate([rep, dict(rep, workers=2)])[0]
    assert not run.digest_gate([rep, dict(rep, digest="bb")])[0]
    assert not run.digest_gate([rep, dict(rep, rc=1, digest=None)])[0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_each_workload_reports_every_metric(name, trace, tmp_path, monkeypatch):
    if name == "time-pool":
        # small chunks, so that a small ensemble still fans out to the pool
        ensemble = run.load_package(run.ROOT)["ensemble"]
        monkeypatch.setattr(ensemble, "CHUNK_RUNS", 64)
    result = run.run_workload(name, seed=5, seconds=0.0, trace=bool(trace), runs=256,
                              setup_repeats=1, out_root=tmp_path)
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(math.isfinite(v["value"]) and v["value"] > 0
               for k, v in result["metrics"].items() if k != "trace.remainder_share")
    assert result["correct"], result["gates"]
    assert result["attempted"] == 256 * len(result["reps"]) and result["failed"] == 0
    assert set(result["provenance"]) >= {"git_sha", "git_dirty", "python", "numpy",
                                         "nproc", "cpu_model", "seed"}
    if trace:
        assert (tmp_path / f"{name}-seed5-trace1" / "spans.csv").is_file()
        workers = {r["workers"] for r in result["reps"]}
        assert workers == ({1, run.nproc()} if name == "time-pool" else {1})


def test_gate_failure_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "born-long", replace(run.WORKLOADS["born-long"], runs=512))
    monkeypatch.setattr(oracle, "p_winner1", lambda q0, eps: 0.9)
    assert run.main(["--workload", "born-long", "--seed", "2", "--seconds", "0",
                     "--trace", "1"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False


def test_without_package_source_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "born-long",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_declares_what_run_reports():
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
