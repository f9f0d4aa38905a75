import concurrent.futures
import inspect
import json
import math
import os
import pickle
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_experiment import assert_tables_equal

from collapsemc import ensemble, experiment
from collapsemc.ensemble import (_LINE_FORMATS, CHUNK_RUNS, CSV_COLUMNS, FIRST_DETECTORS,
                                 KIND_FRAMES, READINGS, ConfigError, EnsembleAbortError,
                                 EnsembleConfig, build_manifest, compute_stats, export_ensemble,
                                 export_records, run_ensemble, wilson_interval)
from collapsemc.experiment import RECORD_DTYPE, build_scenario
from collapsemc.noise import RUN_INDEX_LIMIT, PhiloxNoiseSource
from collapsemc.relativity import C, Frame, activation_gap, first_detector


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


@pytest.mark.parametrize("kind, override", [("born_rule", {"dt": 1e-3}),
                                            ("born_rule", {"epsilon": 0.45}),
                                            ("collapse_time", {"dt": 1e-3}),
                                            ("cross_frame", {"dt": 1e-3})])
def test_unrunnable_step_is_a_config_error(kind, override):
    # Gamma * dt past dynamics.MAX_GAMMA_DT, or a frame-0 barrier shifted
    # below 0 at epsilon 0.45, is refused by the engine's own checks of
    # each frame the kind runs, before any run starts
    with pytest.raises(ConfigError, match="overrides"):
        EnsembleConfig(kind=kind, overrides=override)


def test_wide_epsilon_runs_where_its_frames_allow_it():
    # frames A and B run at half the frame-0 rate, so their barriers stay
    # above 0 at epsilon 0.45 where frame 0's does not
    cfg = EnsembleConfig(kind="cross_frame", runs=50, overrides={"epsilon": 0.45})
    stats, _ = run_ensemble(cfg)
    assert stats["counts"]["failed"] == 0


def _records(kind, runs, seed=3, q0=0.5, **kw):
    cfg = EnsembleConfig(kind=kind, runs=runs, master_seed=seed, q0=q0, **kw)
    stats, records = run_ensemble(cfg)
    return cfg, stats, records


def test_runs_past_the_run_index_limit_are_refused():
    # run indices 0 .. runs - 1 each address a noise stream; only configs
    # are built here, never an ensemble of this size
    assert EnsembleConfig(kind="born_rule", runs=RUN_INDEX_LIMIT).runs == RUN_INDEX_LIMIT
    for runs in (RUN_INDEX_LIMIT + 1, 2**64):
        with pytest.raises(ConfigError, match=f"runs must be in \\[1, {RUN_INDEX_LIMIT}\\]"):
            EnsembleConfig(kind="cross_frame", runs=runs)


def test_born_rule_ensemble_shape():
    cfg, stats, records = _records("born_rule", 400)
    assert stats["n"] == 400
    assert sum(stats["counts"].values()) == 400
    assert stats["counts"]["failed"] == 0
    assert len(records) == 400
    assert records["run_index"].tolist() == list(range(400))
    lo, hi = stats["wilson"]["winner1"]
    assert lo <= stats["freq"]["winner1"] <= hi
    p10, p50, p90 = stats["duration_quantiles_s"]
    assert p10 <= p50 <= p90


def test_single_run_ensemble_degenerate():
    _, stats, records = _records("born_rule", 1)
    assert stats["n"] == 1
    assert sum(stats["counts"].values()) == 1
    lo, hi = stats["wilson"]["winner1"]
    assert 0.0 <= lo <= hi <= 1.0


def test_cross_frame_ensemble_shape():
    cfg, stats, records = _records("cross_frame", 300, q0=0.3, d=2500.0)
    assert sum(stats["counts"].values()) == 300
    assert len(records) == 600
    assert records["run_index"].tolist() == [k for k in range(300) for _ in "AB"]
    assert records["frame"].tolist() == ["A", "B"] * 300
    assert 0.0 <= stats["budget_violation_fraction"] <= 1.0


def test_collapse_time_ensemble():
    cfg, stats, records = _records("collapse_time", 300)
    assert np.all(records["frame"] == "A")
    p10, p50, p90 = stats["duration_quantiles_s"]
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
    stats1, rec1 = run_ensemble(cfg1)
    stats2, rec2 = run_ensemble(cfg2)
    assert_tables_equal(rec1, rec2)
    assert stats1 == stats2


def serial_pool(monkeypatch, cpus=64):
    """Stand a serial executor in for the process pool, which run_ensemble
    imports from concurrent.futures when it starts one, and give the
    process cpus usable CPUs.  It maps in this process, and the lists it
    returns record the sizes and the chunk starts it is given."""
    sizes, starts = [], []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            starts.append(list(iterables[-1]))
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return sizes, starts


def test_pool_is_capped_at_chunk_count(monkeypatch):
    sizes, starts = serial_pool(monkeypatch)
    cfg = EnsembleConfig(kind="born_rule", runs=2 * CHUNK_RUNS + 1, q0=1.0, workers=64)
    stats, _ = run_ensemble(cfg)
    assert sizes == [3]
    assert starts == [[0, CHUNK_RUNS, 2 * CHUNK_RUNS]]
    assert stats["counts"]["winner1"] == cfg.runs


@pytest.mark.parametrize("cpus, sizes", [(2, [2]), (1, [])])
def test_pool_is_capped_at_usable_cpus(monkeypatch, cpus, sizes):
    # 64 workers on 3 chunks fork no more workers than there are CPUs to
    # run them, and one CPU runs the chunks in this process; the records
    # and the config's workers do not change
    got, _ = serial_pool(monkeypatch, cpus)
    cfg = EnsembleConfig(kind="born_rule", runs=2 * CHUNK_RUNS + 1, master_seed=3, workers=64)
    stats, records = run_ensemble(cfg)
    assert got == sizes
    assert cfg.workers == 64 and build_manifest(cfg)["config"]["workers"] == 64
    serial = run_ensemble(replace(cfg, workers=1))
    assert stats == serial[0]
    assert_tables_equal(records, serial[1])


# a capped disagree: 14 of 4096 runs hit the step cap, under the 1 % abort,
# with failed rows in both frames of both chunks
CAPPED = EnsembleConfig(kind="cross_frame", runs=4096, master_seed=5, q0=0.8, workers=2,
                        overrides={"epsilon": 1e-6, "max_steps": 720})


@pytest.mark.parametrize("cfg", [
    *(EnsembleConfig(kind=kind, runs=2 * CHUNK_RUNS + 300, master_seed=7, workers=2)
      for kind in KIND_FRAMES),
    CAPPED,
], ids=[*KIND_FRAMES, "capped"])
def test_chunks_are_slices_of_the_table_in_chunk_order(monkeypatch, cfg):
    # each chunk comes back sorted by (run_index, frame), and the pool's
    # tables joined in chunk order are the ensemble's table
    _, starts = serial_pool(monkeypatch)
    _, records = run_ensemble(cfg)
    labels = sorted(frame.label for frame in KIND_FRAMES[cfg.kind](cfg.v))
    chunks = [ensemble._run_chunk(cfg, lo) for lo in starts[0]]
    for lo, chunk in zip(starts[0], chunks):
        runs = range(lo, min(lo + CHUNK_RUNS, cfg.runs))
        assert chunk["run_index"].tolist() == [k for k in runs for _ in labels]
        assert chunk["frame"].tolist() == [label for _ in runs for label in labels]
        if cfg is CAPPED:
            assert set(chunk["frame"][chunk["winner"] == 0].tolist()) == {"A", "B"}
    assert_tables_equal(records, np.concatenate(chunks))


def test_first_chunk_starts_at_the_run_index_limit(monkeypatch):
    # 2**49 chunks: the first starts without a list of them all being made,
    # and the stub stops the ensemble there
    starts = []

    class FirstChunk(Exception):
        pass

    def first_chunk(config, lo):
        starts.append(lo)
        raise FirstChunk

    monkeypatch.setattr(ensemble, "_run_chunk", first_chunk)
    with pytest.raises(FirstChunk):
        run_ensemble(EnsembleConfig(kind="born_rule", runs=RUN_INDEX_LIMIT, workers=1))
    assert starts == [0]


def test_scenario_is_built_once_per_ensemble(monkeypatch):
    calls = []
    build = ensemble.build_scenario
    monkeypatch.setattr(ensemble, "build_scenario", lambda **kw: calls.append(kw) or build(**kw))
    cfg = EnsembleConfig(kind="cross_frame", runs=2 * CHUNK_RUNS + 1, q0=1.0, workers=1)
    run_ensemble(cfg)
    build_manifest(cfg)
    # a pool worker gets the scenario inside the pickled config
    assert pickle.loads(pickle.dumps(cfg)).scenario == cfg.scenario
    assert len(calls) == 1


def test_born_batch_draws_spans_not_segments(monkeypatch):
    # the live runs of the early windows fill most of their index span,
    # so their sub-blocks take one Philox call per stream and window;
    # drawn one segment of consecutive runs at a time, this ensemble took
    # 1210 calls
    calls = []
    draw = PhiloxNoiseSource._draw

    def counted(self, first_run, n_runs):
        calls.append(n_runs)
        return draw(self, first_run, n_runs)

    monkeypatch.setattr(PhiloxNoiseSource, "_draw", counted)
    run_ensemble(EnsembleConfig(kind="born_rule", runs=2048, master_seed=13, q0=0.5,
                                workers=1))
    assert 0 < len(calls) <= 200


@pytest.mark.parametrize("kind, streams", [("born_rule", 2), ("collapse_time", 1),
                                           ("cross_frame", 1)])
def test_engine_calls_read_one_key_per_stream(monkeypatch, kind, streams):
    # what a tracer of the package reads: collapse_batch's parameter 5 is
    # stream_keys, whose first row holds one word per stream (2 in frame
    # 0, 1 in A and B), a batch's result holds one step count per run,
    # and run_frame_batch's two tables hold one row per run.  A cap of 100
    # steps at epsilon 0.01 leaves rows in both tables of every batch, and
    # the ensemble aborts once its chunks are done
    engine = experiment.collapse_batch
    signature = inspect.signature(engine)
    assert list(signature.parameters)[5] == "stream_keys"
    calls, batches = [], []

    def spy_engine(*args, **kwargs):
        res = engine(*args, **kwargs)
        calls.append((signature.bind(*args, **kwargs).arguments, res))
        return res

    frame_batch = ensemble.run_frame_batch

    def spy_frame_batch(scenario, frame, master_seed, run_indices, **kwargs):
        tables = frame_batch(scenario, frame, master_seed, run_indices, **kwargs)
        batches.append((list(run_indices), tables))
        return tables

    monkeypatch.setattr(experiment, "collapse_batch", spy_engine)
    monkeypatch.setattr(ensemble, "run_frame_batch", spy_frame_batch)
    cfg = EnsembleConfig(kind=kind, runs=CHUNK_RUNS + 300, q0=0.5, workers=1,
                         overrides={"epsilon": 0.01, "max_steps": 100})
    with pytest.raises(EnsembleAbortError):
        run_ensemble(cfg)
    assert len(calls) == len(batches) == 2 * len(KIND_FRAMES[kind](cfg.v))
    for (args, res), (runs, (absorbed, failed)) in zip(calls, batches):
        assert len(args["stream_keys"][0]) == len(args["rates"]) == streams
        assert len(res.steps) == len(args["runs"]) == len(runs)
        assert len(absorbed) + len(failed) == len(runs)
        assert len(absorbed) and len(failed)
        assert sorted(np.concatenate([absorbed, failed])["run_index"].tolist()) == runs


def test_abort_on_failures():
    cfg = EnsembleConfig(kind="born_rule", runs=50, master_seed=1,
                         overrides={"epsilon": 0.01, "max_steps": 100})
    with pytest.raises(EnsembleAbortError):
        run_ensemble(cfg)


def test_cross_frame_ensemble_trivial_agreement():
    _, stats, records = _records("cross_frame", 20, q0=1.0)
    assert stats["counts"] == {"agree": 20, "disagree": 0, "failed": 0}
    assert records["winner"].tolist() == [1] * 40


def _table(*rows):
    """A hand-built record table; rows are (run_index, frame, winner,
    duration, within_budget)."""
    return np.array(list(rows), dtype=RECORD_DTYPE)


def _verdict(winner, duration, gap):
    """The within_budget code of a row: 0 where there is no verdict (a
    capped run, or no gap), 1 where the collapse beat the gap, 2 where it
    did not."""
    if winner == 0 or math.isnan(gap):
        return 0
    return 1 if duration < gap else 2


def test_compute_stats_failed_class():
    records = _table((0, "A", 1, 1e-4, 1), (1, "A", 0, 0.5, 0))
    stats = compute_stats("collapse_time", 2, records)
    assert stats["counts"] == {"winner1": 1, "winner2": 0, "failed": 1}
    assert stats["freq"]["winner1"] == 1.0
    assert stats["duration_quantiles_s"] == [1e-4, 1e-4, 1e-4]
    assert stats["budget_violation_fraction"] == 0.0


def test_compute_stats_cross_frame_counts():
    # run 0 disagrees, run 1 failed in B, run 2 agrees, run 3 failed in A;
    # rows out of order, and only run 2's B row missed its budget
    records = _table((2, "B", 1, 3e-4, 2), (0, "A", 1, 1e-4, 1),
                     (1, "B", 0, 0.5, 0), (0, "B", 2, 1e-4, 1),
                     (3, "A", 0, 0.5, 0), (3, "B", 1, 1e-4, 1),
                     (1, "A", 2, 1e-4, 1), (2, "A", 1, 1e-4, 1))
    stats = compute_stats("cross_frame", 4, records)
    assert stats["counts"] == {"agree": 1, "disagree": 1, "failed": 2}
    assert stats["freq"] == {"agree": 0.5, "disagree": 0.5}
    assert stats["budget_violation_fraction"] == 1 / 6


def test_compute_stats_counts_each_failed_run_once():
    # run 1 hit the step cap in both frames and run 2 in one: two failed
    # runs, the count run_ensemble aborts on
    records = _table((0, "A", 1, 1e-4, 1), (0, "B", 1, 1e-4, 1),
                     (1, "A", 0, 0.5, 0), (1, "B", 0, 0.5, 0),
                     (2, "A", 2, 1e-4, 1), (2, "B", 0, 0.5, 0))
    assert compute_stats("cross_frame", 3, records)["counts"]["failed"] == 2


@pytest.mark.parametrize("kind, max_steps", [("born_rule", 350), ("collapse_time", 700),
                                              ("cross_frame", 700)])
def test_failed_count_is_the_count_of_capped_runs(kind, max_steps):
    # these caps fail a few of 1000 runs, under the 1 % abort
    stats, records = run_ensemble(EnsembleConfig(kind=kind, runs=1000, master_seed=3,
                                                 overrides={"max_steps": max_steps},
                                                 workers=1))
    failed_runs = np.unique(records["run_index"][records["winner"] == 0])
    assert stats["counts"]["failed"] == failed_runs.size > 0


# An absorbed frame-B row that missed its budget, a run that hit the step
# cap, and a frame-0 row, which has no activation gap to beat.
EXPORT_ROWS = ((7, "B", 2, 3.75e-4, 2), (8, "B", 0, 0.125, 0), (9, "frame0", 1, 1.25e-4, 0))


def test_export_csv_layout(tmp_path):
    records = _table((0, "A", 1, 2.5e-4, 2), (1, "A", 2, 1.25e-4, 1),
                     (2, "A", 0, 0.125, 0), (3, "frame0", 2, 5e-5, 0))
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


# the first detector of each frame, spelled out: the oracle below does not
# read the package's table
REFERENCE_FIRST = {"A": "D1", "B": "D2", "frame0": "simultaneous"}


def test_first_detector_spelling_follows_the_frames():
    assert FIRST_DETECTORS == REFERENCE_FIRST
    for frame in (Frame(0.0), Frame(C / 2), Frame(-C / 2)):
        assert FIRST_DETECTORS[frame.label] == first_detector(frame)


def reference_export(records, path, fmt):
    """The record writer as one str.format per row: the oracle that
    export_records must match byte for byte."""
    line, literal = _LINE_FORMATS[fmt]
    columns = (records[c].tolist() for c in
               ("run_index", "frame", "winner", "duration", "within_budget"))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for k, frame, winner, duration, within in zip(*columns):
            if winner == 0:
                fh.write(line.format(k, frame, "", 0, "", "", literal[None], literal[None]))
            else:
                fh.write(line.format(k, frame, REFERENCE_FIRST[frame], winner,
                                     *READINGS[winner], repr(duration),
                                     literal[(None, True, False)[within]]))


def assert_export_matches_reference(records, tmp_path):
    for fmt in ("csv", "jsonl"):
        export_records(records, str(tmp_path / f"new.{fmt}"), fmt)
        reference_export(records, str(tmp_path / f"ref.{fmt}"), fmt)
        assert (tmp_path / f"new.{fmt}").read_bytes() == (tmp_path / f"ref.{fmt}").read_bytes()


def test_export_matches_reference_on_every_line_class(tmp_path):
    # each (frame, winner, within_budget) class a run can leave
    rows = []
    for frame, gap in (("frame0", math.nan), ("A", 2.5e-4), ("B", 2.5e-4)):
        for winner in (0, 1, 2):
            for duration in (1.25e-4, 2.5e-4, 3.75e-4):
                rows.append((len(rows), frame, winner, duration,
                             _verdict(winner, duration, gap)))
    records = _table(*rows)
    assert_export_matches_reference(records, tmp_path)
    # within_budget is false at duration == gap
    assert b"\r\n13,A,D1,1,yes,no,0.00025,false\r\n" in (tmp_path / "new.csv").read_bytes()


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)
                       | st.sampled_from([1e-05, 1e+16, 5e-324, 2.5e-4]),
                       min_size=1, max_size=8),
       picks=st.lists(st.integers(0, 7), min_size=40, max_size=40),
       runs=st.lists(st.integers(0, RUN_INDEX_LIMIT - 1), min_size=40, max_size=40))
@example(values=[1e-05, 1e+16, 5e-324], picks=list(range(8)) * 5,
         runs=[RUN_INDEX_LIMIT - 1] * 40)
def test_export_matches_reference_on_drawn_durations(tmp_path_factory, values, picks, runs):
    # 40 rows over at most 8 values: repeats exercise the once-per-value spelling
    frames = (("A", 1e-4), ("B", 1e-4), ("frame0", math.nan))
    rows = []
    for i, (k, p) in enumerate(zip(runs, picks)):
        (frame, gap), winner = frames[i % 3], (1, 2, 0, 2, 1)[i % 5]
        duration = values[p % len(values)]
        rows.append((k, frame, winner, duration, _verdict(winner, duration, gap)))
    assert_export_matches_reference(_table(*rows), tmp_path_factory.mktemp("drawn"))


def test_export_matches_reference_past_one_slice(tmp_path):
    rng = np.random.default_rng(7)
    n = 2 * CHUNK_RUNS + 5
    rows = []
    for k in range(n):
        winner, duration = int(rng.integers(0, 3)), int(rng.integers(1, 400)) * 2.5e-6
        rows.append((k, "AB"[k % 2], winner, duration, _verdict(winner, duration, 4.7e-4)))
    rows[-1] = (RUN_INDEX_LIMIT - 1, "B", 1, 5e-324, 1)
    assert_export_matches_reference(_table(*rows), tmp_path)


def test_export_empty_table(tmp_path):
    records = _table()
    assert_export_matches_reference(records, tmp_path)
    assert (tmp_path / "new.csv").read_bytes() == (",".join(CSV_COLUMNS) + "\r\n").encode()
    assert (tmp_path / "new.jsonl").read_bytes() == b""


def test_manifest_contents():
    cfg = EnsembleConfig(kind="cross_frame", runs=10, master_seed=5,
                         d=1000.0, v=0.99 * C)
    manifest = build_manifest(cfg)
    derived = manifest["derived"]
    assert derived["delta_t_s"] == pytest.approx(4.6819e-5, rel=5e-5)
    assert derived["delta_t_s"] == activation_gap(1000.0, 0.99 * C)
    assert derived["collapse_rate_per_s"] == {"frame0": 4e4, "A": 2e4, "B": 2e4}
    assert derived["lorentz_gamma"] == pytest.approx(7.08881, rel=1e-6)
    assert manifest["artifact_version"]
    build = manifest["build"]
    assert (build["numpy"], build["python"]) == (np.__version__, platform.python_version())
    # the CPU features numpy dispatches its math loops on, which fix the
    # last bits of the noise transform
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    assert build["cpu_features"] == sorted(f for f, on in __cpu_features__.items() if on)
    assert set(build) == {"numpy", "python", "cpu_features"}
    assert manifest["config"]["master_seed"] == 5


def test_manifest_rates_are_the_engines():
    # at this eta, eta ** 2 and eta * eta differ in the last bit; the
    # manifest reports the rates the engine integrates at, not a sum
    # worked out another way
    overrides = {"eta": 5.34e10, "dt": 1e-9}
    cfg = EnsembleConfig(kind="cross_frame", runs=10, overrides=overrides)
    derived = build_manifest(cfg)["derived"]
    rate_d1, rate_d2 = build_scenario(overrides=overrides).rates
    rates = derived["collapse_rate_per_s"]
    assert (rates["A"], rates["B"]) == (rate_d1, rate_d2) == (570312.0, 570312.0)
    assert rates["frame0"] == rate_d1 + rate_d2
    assert derived["gamma_dt"] == {label: rate * 1e-9 for label, rate in rates.items()}


def test_export_ensemble_bytes_stable(tmp_path):
    cfg = EnsembleConfig(kind="born_rule", runs=40, master_seed=2,
                         out_dir=str(tmp_path / "a"))
    stats, records = run_ensemble(cfg)
    paths_a, manifest = export_ensemble(cfg, stats, records, str(tmp_path / "a"))
    paths_b, _ = export_ensemble(cfg, stats, records, str(tmp_path / "b"))
    assert manifest["stats"] == stats
    assert set(manifest["config"]) == set(EnsembleConfig.__dataclass_fields__)
    with open(paths_a["manifest"], encoding="utf-8") as fh:
        assert json.load(fh) == manifest
    for name in ("records", "manifest"):
        assert Path(paths_a[name]).read_bytes() == Path(paths_b[name]).read_bytes()


def test_failed_export_keeps_the_previous_files(tmp_path, monkeypatch):
    # a second export into the same out_dir that fails on its second
    # records slice leaves the first export's records and manifest byte
    # for byte, and no temporary file
    out = tmp_path / "out"
    first = EnsembleConfig(kind="born_rule", runs=CHUNK_RUNS + 5, master_seed=1)
    export_ensemble(first, *run_ensemble(first), str(out))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    second = replace(first, master_seed=2)
    stats, records = run_ensemble(second)
    slices = []
    format_lines = ensemble._format_lines

    def fail_second(*args):
        slices.append(len(slices))
        if len(slices) == 2:
            raise OSError("disk full")
        return format_lines(*args)

    monkeypatch.setattr(ensemble, "_format_lines", fail_second)
    with pytest.raises(OSError, match="disk full"):
        export_ensemble(second, stats, records, str(out))
    assert slices == [0, 1]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_manifest_refuses_non_finite_values(tmp_path):
    # manifest.json is strict JSON: a NaN statistic is an error, not "NaN"
    cfg = EnsembleConfig(kind="born_rule", runs=4, master_seed=2)
    stats, records = run_ensemble(cfg)
    bad = {**stats, "duration_quantiles_s": [math.nan] * 3}
    with pytest.raises(ValueError):
        export_ensemble(cfg, bad, records, str(tmp_path / "nan"))
    # it is refused before any file is opened, so no partial manifest.json
    assert not (tmp_path / "nan").exists()
