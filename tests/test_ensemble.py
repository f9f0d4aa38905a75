import json
import math

import numpy as np
import pytest
from test_experiment import assert_tables_equal

from collapsemc.ensemble import (CHUNK_RUNS, ConfigError, EnsembleAbortError,
                                 EnsembleConfig, build_manifest, compute_stats,
                                 export_ensemble, export_records, run_ensemble,
                                 wilson_interval)
from collapsemc.experiment import record_dtype
from collapsemc.noise import derive_stream_key
from collapsemc.relativity import C, activation_gap


def test_wilson_reference_values():
    lo, hi = wilson_interval(50, 100, 1.96)
    assert lo == pytest.approx(0.4038, abs=5e-5)
    assert hi == pytest.approx(0.5962, abs=5e-5)


def test_wilson_boundaries():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and hi < 0.35
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and lo > 0.65
    lo, hi = wilson_interval(1, 1)
    assert 0.0 <= lo <= 1.0 <= hi + 1e-12


def test_wilson_contains_point_estimate():
    for s, n in ((3, 7), (0, 4), (9, 9), (250, 1000)):
        lo, hi = wilson_interval(s, n)
        assert lo <= s / n <= hi


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    with pytest.raises(ValueError):
        wilson_interval(1, 2, z=0.0)


def test_wilson_width_scaling():
    # width shrinks like 1/sqrt(n): quadrupling n halves the width
    w1 = (lambda t: t[1] - t[0])(wilson_interval(3000, 10_000))
    w2 = (lambda t: t[1] - t[0])(wilson_interval(12_000, 40_000))
    assert w2 / w1 == pytest.approx(0.5, rel=0.05)


def test_stream_key_reexport():
    from collapsemc import ensemble
    assert ensemble.derive_stream_key is derive_stream_key


def test_config_validation():
    with pytest.raises(ConfigError):
        EnsembleConfig(kind="nope")
    with pytest.raises(ConfigError):
        EnsembleConfig(kind="born_rule", runs=0)
    with pytest.raises(ConfigError):
        EnsembleConfig(kind="born_rule", q0=2.0)
    with pytest.raises(ConfigError):
        EnsembleConfig(kind="cross_frame", v=C)
    with pytest.raises(ConfigError):
        EnsembleConfig(kind="born_rule", workers=0)
    with pytest.raises(ConfigError):
        EnsembleConfig(kind="born_rule", record_format="xml")
    with pytest.raises(ConfigError):
        EnsembleConfig.from_dict({"kind": "born_rule", "bogus": 1})
    cfg = EnsembleConfig.from_dict({"kind": "born_rule", "runs": 5})
    assert cfg.runs == 5 and cfg.master_seed == 1


def _records(kind, runs, seed=3, q0=0.5, **kw):
    cfg = EnsembleConfig(kind=kind, runs=runs, master_seed=seed, q0=q0, **kw)
    stats, records = run_ensemble(cfg)
    return cfg, stats, records


def test_born_rule_ensemble_shape():
    cfg, stats, records = _records("born_rule", 400)
    assert stats.n == 400
    assert sum(stats.counts.values()) == 400
    assert stats.counts["failed"] == 0
    assert len(records) == 400
    assert records["run_index"].tolist() == list(range(400))
    lo, hi = stats.wilson["winner1"]
    assert lo <= stats.freq["winner1"] <= hi
    p10, p50, p90 = stats.duration_quantiles
    assert p10 <= p50 <= p90


def test_single_run_ensemble_degenerate():
    _, stats, records = _records("born_rule", 1)
    assert stats.n == 1
    assert sum(stats.counts.values()) == 1
    lo, hi = stats.wilson["winner1"]
    assert 0.0 <= lo <= hi <= 1.0


def test_cross_frame_ensemble_shape():
    cfg, stats, records = _records("cross_frame", 300, q0=0.3, d=2500.0)
    assert sum(stats.counts.values()) == 300
    assert len(records) == 600
    assert records["run_index"].tolist() == [k for k in range(300) for _ in "AB"]
    assert records["frame"].tolist() == ["A", "B"] * 300
    assert 0.0 <= stats.budget_violation_fraction <= 1.0


def test_frame0_consistency_ensemble():
    cfg, stats, records = _records("frame0_consistency", 300, q0=0.3)
    assert np.all(records["frame"] == "frame0")
    assert np.all(np.isin(records["winner"], (1, 2)))
    assert stats.counts["winner1"] + stats.counts["winner2"] == 300


def test_collapse_time_ensemble():
    cfg, stats, records = _records("collapse_time", 300)
    assert np.all(records["frame"] == "A")
    p10, p50, p90 = stats.duration_quantiles
    assert 0 < p10 <= p50 <= p90


def test_ensemble_deterministic():
    _, stats_a, rec_a = _records("born_rule", 250, seed=9)
    _, stats_b, rec_b = _records("born_rule", 250, seed=9)
    assert_tables_equal(rec_a, rec_b)
    assert stats_a == stats_b
    _, stats_c, _ = _records("born_rule", 250, seed=10)
    assert stats_c != stats_a


def test_workers_do_not_change_records():
    runs = CHUNK_RUNS + 300  # force two chunks
    cfg1 = EnsembleConfig(kind="born_rule", runs=runs, master_seed=4, workers=1)
    cfg2 = EnsembleConfig(kind="born_rule", runs=runs, master_seed=4, workers=3)
    _, rec1 = run_ensemble(cfg1)
    _, rec2 = run_ensemble(cfg2)
    assert_tables_equal(rec1, rec2)


def test_abort_on_failures():
    cfg = EnsembleConfig(kind="born_rule", runs=50, master_seed=1,
                         overrides={"max_steps": 64})
    with pytest.raises(EnsembleAbortError):
        run_ensemble(cfg)


def test_cross_frame_ensemble_trivial_agreement():
    _, stats, records = _records("cross_frame", 20, q0=1.0)
    assert stats.counts == {"agree": 20, "disagree": 0, "failed": 0}
    assert records["winner"].tolist() == [1] * 40


def _table(*rows):
    """A hand-built record table; rows are (run_index, frame,
    first_detector, winner, duration, budget)."""
    return np.array(list(rows), dtype=record_dtype("frame0"))


def test_compute_stats_failed_class():
    records = _table((0, "A", "D1", 1, 1e-4, 2e-4), (1, "A", "D1", 0, 0.5, 2e-4))
    stats = compute_stats("collapse_time", 2, records)
    assert stats.counts == {"winner1": 1, "winner2": 0, "failed": 1}
    assert stats.freq["winner1"] == 1.0
    assert stats.duration_quantiles == (1e-4, 1e-4, 1e-4)
    assert stats.budget_violation_fraction == 0.0


def test_compute_stats_cross_frame_counts():
    # run 0 disagrees, run 1 failed in B, run 2 agrees, run 3 failed in A;
    # rows out of order
    records = _table((2, "B", "D2", 1, 3e-4, 2e-4), (0, "A", "D1", 1, 1e-4, 2e-4),
                     (1, "B", "D2", 0, 0.5, 2e-4), (0, "B", "D2", 2, 1e-4, 2e-4),
                     (3, "A", "D1", 0, 0.5, 2e-4), (3, "B", "D2", 1, 1e-4, 2e-4),
                     (1, "A", "D1", 2, 1e-4, 2e-4), (2, "A", "D1", 1, 1e-4, 2e-4))
    stats = compute_stats("cross_frame", 4, records)
    assert stats.counts == {"agree": 1, "disagree": 1, "failed": 2}
    assert stats.freq == {"agree": 0.5, "disagree": 0.5}
    assert stats.budget_violation_fraction == 1 / 6


# An absorbed frame-B row, a run that hit the step cap, and a frame-0 row,
# which has no activation gap to beat.
EXPORT_ROWS = ((7, "B", "D2", 2, 3.75e-4, 2.5e-4), (8, "B", "D2", 0, 0.125, 2.5e-4),
               (9, "frame0", "simultaneous", 1, 1.25e-4, math.nan))


def test_export_csv_layout(tmp_path):
    records = _table((0, "A", "D1", 1, 2.5e-4, 2e-4), (1, "A", "D1", 2, 1.25e-4, 2e-4),
                     (2, "A", "D1", 0, 0.125, 2e-4), (3, "frame0", "simultaneous", 2, 5e-5, math.nan))
    path = tmp_path / "records.csv"
    export_records(records, str(path), "csv")
    assert path.read_text(encoding="utf-8").splitlines() == [
        "run_index,frame,first_detector,winner,reading_D1,reading_D2,duration_s,within_budget",
        "0,A,D1,1,yes,no,0.00025,false",
        "1,A,D1,2,no,yes,0.000125,true",
        "2,A,,0,,,,",
        "3,frame0,simultaneous,2,no,yes,5e-05,",
    ]


def test_export_jsonl_round_trip(tmp_path):
    path = tmp_path / "records.jsonl"
    export_records(_table(*EXPORT_ROWS), str(path), "jsonl")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [
        '{"duration_s": 0.000375, "first_detector": "D2", "frame": "B", "reading_D1": "no", '
        '"reading_D2": "yes", "run_index": 7, "winner": 2, "within_budget": false}',
        '{"duration_s": null, "first_detector": "", "frame": "B", "reading_D1": "", '
        '"reading_D2": "", "run_index": 8, "winner": 0, "within_budget": null}',
        '{"duration_s": 0.000125, "first_detector": "simultaneous", "frame": "frame0", '
        '"reading_D1": "yes", "reading_D2": "no", "run_index": 9, "winner": 1, '
        '"within_budget": null}',
    ]
    assert json.loads(lines[0])["duration_s"] == 3.75e-4  # exact float round trip


def test_export_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export_records([], str(tmp_path / "x"), "xml")


def test_manifest_contents():
    cfg = EnsembleConfig(kind="cross_frame", runs=10, master_seed=5,
                         d=1000.0, v=0.99 * C)
    manifest = build_manifest(cfg)
    derived = manifest["derived"]
    assert derived["delta_t_s"] == pytest.approx(4.6819e-5, rel=5e-5)
    assert derived["delta_t_s"] == activation_gap(1000.0, 0.99 * C)
    assert derived["collapse_rate_per_s"] == {
        "frame0": pytest.approx(4e4, rel=1e-12),
        "A": pytest.approx(2e4, rel=1e-12),
        "B": pytest.approx(2e4, rel=1e-12),
    }
    assert derived["lorentz_gamma"] == pytest.approx(7.08881, rel=1e-6)
    assert manifest["artifact_version"]
    assert manifest["config"]["master_seed"] == 5


def test_export_ensemble_bytes_stable(tmp_path):
    cfg = EnsembleConfig(kind="born_rule", runs=40, master_seed=2,
                         out_dir=str(tmp_path / "a"))
    stats, records = run_ensemble(cfg)
    paths_a, manifest = export_ensemble(cfg, stats, records, str(tmp_path / "a"))
    paths_b, _ = export_ensemble(cfg, stats, records, str(tmp_path / "b"))
    with open(paths_a["manifest"], encoding="utf-8") as fh:
        assert json.load(fh) == manifest
    for name in ("records", "manifest"):
        a = open(paths_a[name], "rb").read()
        b = open(paths_b[name], "rb").read()
        assert a == b
