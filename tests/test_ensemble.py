import concurrent.futures
import inspect
import json
import math
import multiprocessing
import os
import pickle
import platform
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_experiment import assert_tables_equal

from collapsemc import ensemble, experiment
from collapsemc.ensemble import (_LINE_FORMATS, CHUNK_RUNS, CSV_COLUMNS, MAX_CHUNK_RUNS,
                                 KIND_FRAMES, READINGS, ConfigError, EnsembleAbortError,
                                 EnsembleConfig, build_manifest, compute_stats, export_ensemble,
                                 export_records, run_ensemble, wilson_interval)
from collapsemc.experiment import RECORD_DTYPE, build_scenario, run_frame_batch
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


def frame_rows(cfg, frame, runs):
    """The rows that frame's own run_frame_batch gives for runs, in run
    order: what the table holds at that frame's places."""
    return run_frame_batch(cfg.scenario, (frame,), cfg.master_seed, runs)[0]


def assert_rows_by_place(cfg, table, runs):
    """Row F i + f of table is run runs[i] in frame f of the kind's frames."""
    frames = KIND_FRAMES[cfg.kind](cfg.v)
    assert len(table) == len(frames) * len(runs)
    for f, frame in enumerate(frames):
        assert_tables_equal(table[f::len(frames)], frame_rows(cfg, frame, runs))


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
    assert [frame.label for frame in KIND_FRAMES[cfg.kind](cfg.v)] == ["A", "B"]
    assert_rows_by_place(cfg, records, range(300))
    assert 0.0 <= stats["budget_violation_fraction"] <= 1.0


def test_collapse_time_ensemble():
    cfg, stats, records = _records("collapse_time", 300)
    assert [frame.label for frame in KIND_FRAMES[cfg.kind](cfg.v)] == ["A"]
    assert_rows_by_place(cfg, records, range(300))
    p10, p50, p90 = stats["duration_quantiles_s"]
    assert 0 < p10 <= p50 <= p90


def test_ensemble_deterministic():
    _, stats_a, rec_a = _records("born_rule", 250, seed=9)
    _, stats_b, rec_b = _records("born_rule", 250, seed=9)
    assert_tables_equal(rec_a, rec_b)
    assert stats_a == stats_b
    _, stats_c, _ = _records("born_rule", 250, seed=10)
    assert stats_c != stats_a


def pool_spy(monkeypatch, cpus):
    """Give the process cpus usable CPUs, and record the size of each
    process pool run_ensemble starts; the pools are real."""
    sizes = []
    real = concurrent.futures.ProcessPoolExecutor

    def spy(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return sizes


def test_workers_do_not_change_records(monkeypatch):
    # with the floor at 700 runs a worker, 2348 runs make 4 chunks, and 3
    # workers run them in this process and a real pool of 2
    set_floor(monkeypatch, 700)
    sizes = pool_spy(monkeypatch, cpus=3)
    runs = CHUNK_RUNS + 300
    cfg1 = EnsembleConfig(kind="born_rule", runs=runs, master_seed=4, workers=1)
    cfg2 = EnsembleConfig(kind="born_rule", runs=runs, master_seed=4, workers=3)
    stats1, rec1 = run_ensemble(cfg1)
    assert sizes == []
    stats2, rec2 = run_ensemble(cfg2)
    assert sizes == [2]
    assert_tables_equal(rec1, rec2)
    assert stats1 == stats2


def serial_pool(monkeypatch, cpus=64, run=True):
    """Stand a serial executor in for the process pool, which run_ensemble
    imports from concurrent.futures when it starts one, and give the
    process cpus usable CPUs.  Its submit runs the chunk (a range of run
    indices) in this process at once, or with run=False leaves its future
    pending, and refuses to make more than 1000 futures; its map submits
    every chunk before the first result is taken, as the real one does.
    The namespace it returns records the pool sizes, the chunks submitted,
    their futures, and the most futures held at once: a future is held
    from its submit until its result is taken."""
    pool = SimpleNamespace(sizes=[], chunks=[], futures=[], most_held=0)

    class Held(concurrent.futures.Future):
        taken = False

        def result(self, timeout=None):
            assert self.done(), "the result of a chunk that never runs"
            self.taken = True
            return super().result(timeout)

    class SerialPool:
        def __init__(self, max_workers):
            pool.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, config, chunk):
            assert len(pool.futures) < 1000, "more than 1000 chunks submitted"
            future = Held()
            pool.chunks.append(chunk)
            pool.futures.append(future)
            pool.most_held = max(pool.most_held, sum(not f.taken for f in pool.futures))
            if run:
                try:
                    future.set_result(fn(config, chunk))
                except Exception as exc:
                    future.set_exception(exc)
            return future

        def map(self, fn, *iterables):
            futures = [self.submit(fn, *args) for args in zip(*iterables)]
            return (future.result() for future in futures)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return pool


def ran_chunks(monkeypatch):
    """The chunks _run_chunk is called on, in the pool or in this process,
    in the order they start."""
    ran = []
    run_chunk = ensemble._run_chunk

    def recorded(config, chunk):
        ran.append(chunk)
        return run_chunk(config, chunk)

    monkeypatch.setattr(ensemble, "_run_chunk", recorded)
    return ran


def set_floor(monkeypatch, runs):
    """Set the widest chunk, which is also the fewest runs a worker is
    started for, at runs."""
    monkeypatch.setattr(ensemble, "MAX_CHUNK_RUNS", runs)


def test_pool_is_capped_at_chunk_count(monkeypatch):
    # with the floor at 67 runs a worker, 201 runs on 64 CPUs make
    # ceil(201 / 67) = 3 chunks and 201 // 67 = 3 workers, not 64: this
    # process and a pool of 2, which takes the first two chunks before this
    # process runs the third
    set_floor(monkeypatch, 67)
    pool = serial_pool(monkeypatch)
    ran = ran_chunks(monkeypatch)
    cfg = EnsembleConfig(kind="born_rule", runs=201, q0=1.0, workers=64)
    stats, _ = run_ensemble(cfg)
    assert pool.sizes == [2]
    assert ran == [range(0, 67), range(67, 134), range(134, 201)]
    assert pool.chunks == ran[:2]
    assert stats["counts"]["winner1"] == cfg.runs


@pytest.mark.parametrize("cpus, sizes", [(2, [1]), (1, [])])
def test_pool_is_capped_at_usable_cpus(monkeypatch, cpus, sizes):
    # 64 workers fork no more workers than there are CPUs to run them: with
    # the floor at 2048 runs a worker, two CPUs run 4097 runs as three
    # chunks in a pool of one process and this process, and one CPU runs
    # them all in this process; the records and the config's workers do
    # not change
    set_floor(monkeypatch, 2048)
    got = serial_pool(monkeypatch, cpus).sizes
    cfg = EnsembleConfig(kind="born_rule", runs=2 * CHUNK_RUNS + 1, master_seed=3, workers=64)
    stats, records = run_ensemble(cfg)
    assert got == sizes
    assert cfg.workers == 64 and build_manifest(cfg)["config"]["workers"] == 64
    serial = run_ensemble(replace(cfg, workers=1))
    assert stats == serial[0]
    assert_tables_equal(records, serial[1])


def test_a_second_worker_starts_at_the_floor(monkeypatch):
    # two usable CPUs and two workers: one run short of MAX_CHUNK_RUNS runs
    # a worker is this process's alone, with no pool, and MAX_CHUNK_RUNS
    # runs a worker start a pool of one beside it
    pool = serial_pool(monkeypatch, cpus=2)
    cfg = EnsembleConfig(kind="born_rule", runs=2 * MAX_CHUNK_RUNS - 1, q0=1.0, workers=2)
    run_ensemble(cfg)
    assert pool.sizes == []
    run_ensemble(replace(cfg, runs=2 * MAX_CHUNK_RUNS))
    assert pool.sizes == [1]


# a capped disagree: 14 of 4096 runs hit the step cap, under the 1 % abort,
# with failed rows in both frames
CAPPED = EnsembleConfig(kind="cross_frame", runs=4096, master_seed=5, q0=0.8, workers=2,
                        overrides={"epsilon": 1e-6, "max_steps": 720})


@pytest.mark.parametrize("cfg", [
    *(EnsembleConfig(kind=kind, runs=1300, master_seed=7, workers=2) for kind in KIND_FRAMES),
    CAPPED,
], ids=[*KIND_FRAMES, "capped"])
def test_chunks_are_slices_of_the_table_in_chunk_order(monkeypatch, cfg):
    # each chunk comes back with row F i + f its i-th run in frame f of the
    # kind's frames, and the tables of the pool and this process joined in
    # chunk order are the ensemble's table.  With the floor at 500 runs a
    # worker, no chunk is wider than 500 // F runs, so 2 workers, a pool of
    # one and this process, get more chunks than themselves: 3 for 1300
    # runs of one frame, 6 for 1300 of two and 17 for CAPPED's 4096
    set_floor(monkeypatch, 500)
    width = 500 // len(KIND_FRAMES[cfg.kind](cfg.v))
    pool = serial_pool(monkeypatch)
    run_chunk = ensemble._run_chunk
    ran = ran_chunks(monkeypatch)
    _, records = run_ensemble(cfg)
    chunks = sorted(ran, key=lambda chunk: chunk.start)
    assert pool.sizes == [1] and len(chunks) == -(-cfg.runs // width)
    assert 0 < len(pool.chunks) < len(chunks)
    tables = [run_chunk(cfg, chunk) for chunk in chunks]
    for chunk, table in zip(chunks, tables):
        assert_rows_by_place(cfg, table, chunk)
    if cfg is CAPPED:
        # failed rows in both frames, and in more than one chunk
        assert (records["winner"][0::2] == 0).any() and (records["winner"][1::2] == 0).any()
        assert sum((table["winner"] == 0).any() for table in tables) > 1
    assert_tables_equal(records, np.concatenate(tables))


@pytest.mark.parametrize("cfg", [
    *(EnsembleConfig(kind=kind, runs=1300, master_seed=7) for kind in KIND_FRAMES),
    CAPPED,
], ids=[*KIND_FRAMES, "capped"])
def test_a_chunk_is_its_batch_table(monkeypatch, cfg):
    # run_frame_batch returns the batch's whole table and an empty one of
    # RECORD_DTYPE, and the chunk is that table itself, not a copy; with
    # failed rows in both of CAPPED's frames, each sits in its place
    frames = KIND_FRAMES[cfg.kind](cfg.v)
    runs = range(100, 100 + min(cfg.runs, MAX_CHUNK_RUNS // len(frames)))
    pairs = []

    def spy_frame_batch(*args, **kwargs):
        pairs.append(run_frame_batch(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(ensemble, "run_frame_batch", spy_frame_batch)
    chunk = ensemble._run_chunk(cfg, runs)
    [(table, empty)] = pairs
    assert chunk is table
    assert len(empty) == 0 and empty.dtype == table.dtype == RECORD_DTYPE
    assert_rows_by_place(cfg, table, runs)
    if cfg is CAPPED:
        assert (table["winner"][0::2] == 0).any() and (table["winner"][1::2] == 0).any()
        assert (table["winner"] > 0).any()


def test_first_chunk_starts_at_the_run_index_limit(monkeypatch):
    # 2**50 chunks: the first starts without a list of them all being made,
    # and the stub stops the ensemble there
    starts = []

    class FirstChunk(Exception):
        pass

    def first_chunk(config, runs):
        starts.append(runs)
        raise FirstChunk

    monkeypatch.setattr(ensemble, "_run_chunk", first_chunk)
    with pytest.raises(FirstChunk):
        run_ensemble(EnsembleConfig(kind="born_rule", runs=RUN_INDEX_LIMIT, workers=1))
    assert starts == [range(0, MAX_CHUNK_RUNS)]


@pytest.mark.parametrize("runs, cpus, width", [
    (2 * CHUNK_RUNS, 2, CHUNK_RUNS),  # 2 chunks, a pool of 1
    (1000, 2, 200),  # 5 chunks, a pool of 1
    (201, 64, 67),  # 3 chunks, a pool of 2
    (900, 4, 100),  # 9 chunks, a pool of 3
], ids=["2-chunks", "5-chunks", "3-chunks-64-cpus", "9-chunks-4-cpus"])
def test_each_chunk_runs_once_in_the_pool_or_this_process(runs, cpus, width):
    # with the floor at width runs a worker, the pool has
    # min(cpus, runs // width) - 1 processes, each chunk runs once, and
    # this process runs at least one of them.  The id counts the chunks of
    # a one-frame kind; cross_frame's two frames halve the widest chunk, so
    # it makes about twice as many on the same workers
    for kind in ("born_rule", "cross_frame"):
        with pytest.MonkeyPatch.context() as mp:
            set_floor(mp, width)
            cfg = EnsembleConfig(kind=kind, runs=runs, master_seed=11, workers=cpus)
            count = -(-runs // (width // len(KIND_FRAMES[kind](cfg.v))))
            pool = serial_pool(mp, cpus)
            ran = ran_chunks(mp)
            stats, records = run_ensemble(cfg)
            assert pool.sizes == [min(cpus, runs // width) - 1]
            assert sorted(ran, key=lambda chunk: chunk.start) == ran
            assert len(ran) == count and ran[0].start == 0 and ran[-1].stop == runs
            assert all(a.stop == b.start for a, b in zip(ran, ran[1:]))
            own = [chunk for chunk in ran if chunk not in pool.chunks]
            assert len(pool.chunks) + len(own) == count and own
            serial = run_ensemble(replace(cfg, workers=1))
        assert stats == serial[0]
        assert_tables_equal(records, serial[1])


def test_pool_holds_no_more_than_two_futures_per_process(monkeypatch):
    # 200 one-run chunks on 4 workers, the floor at one run a worker: the
    # pool of 3 is kept full, and no more than 2 x 3 of its futures are
    # held at once
    set_floor(monkeypatch, 1)
    pool = serial_pool(monkeypatch, cpus=4)
    cfg = EnsembleConfig(kind="born_rule", runs=200, q0=1.0, workers=4)
    stats, _ = run_ensemble(cfg)
    assert pool.sizes == [3]
    assert pool.most_held == 6
    assert 6 < len(pool.chunks) < 200
    assert all(future.taken for future in pool.futures)
    assert stats["counts"]["winner1"] == 200


def test_first_chunk_starts_after_a_bounded_number_of_submits(monkeypatch):
    # 2**50 chunks on 4 workers: the pool is given 2 x 3 chunks before this
    # process takes the seventh, not every chunk up front as Executor.map
    # would give them, and the stub stops the ensemble there
    starts = []

    class FirstChunk(Exception):
        pass

    def first_chunk(config, runs):
        starts.append(runs)
        raise FirstChunk

    pool = serial_pool(monkeypatch, cpus=4)
    monkeypatch.setattr(ensemble, "_run_chunk", first_chunk)
    with pytest.raises(FirstChunk):
        run_ensemble(EnsembleConfig(kind="born_rule", runs=RUN_INDEX_LIMIT, workers=4))
    assert pool.sizes == [3] and len(pool.chunks) == 6
    assert starts == [range(i * MAX_CHUNK_RUNS, (i + 1) * MAX_CHUNK_RUNS) for i in range(7)]


class CallerChunkError(Exception):
    pass


def test_a_failing_chunk_cancels_the_queued_futures(monkeypatch):
    # the pool's chunks are still queued when the chunk this process runs
    # raises: the error reaches the caller, and every queued future is
    # cancelled.  With the floor at 2048 runs a worker, 8192 runs make 4
    # workers
    set_floor(monkeypatch, CHUNK_RUNS)
    pool = serial_pool(monkeypatch, cpus=4, run=False)

    def fail(config, runs):
        raise CallerChunkError(runs)

    monkeypatch.setattr(ensemble, "_run_chunk", fail)
    with pytest.raises(CallerChunkError):
        run_ensemble(EnsembleConfig(kind="born_rule", runs=4 * CHUNK_RUNS, workers=4))
    assert pool.sizes == [3] and len(pool.futures) == 3
    assert all(future.cancelled() for future in pool.futures)


def test_a_failing_chunk_leaves_no_worker_running(monkeypatch):
    # a real pool of one process, the floor at 2048 runs a worker: the
    # chunk this process runs raises, the pool's chunk runs as usual, and
    # the pool is joined before the error reaches the caller
    set_floor(monkeypatch, CHUNK_RUNS)
    sizes = pool_spy(monkeypatch, cpus=2)
    caller, frame_batch = os.getpid(), ensemble.run_frame_batch

    def fail_here(*args, **kwargs):
        if os.getpid() == caller:
            raise CallerChunkError("in the calling process")
        return frame_batch(*args, **kwargs)

    monkeypatch.setattr(ensemble, "run_frame_batch", fail_here)
    with pytest.raises(CallerChunkError):
        run_ensemble(EnsembleConfig(kind="born_rule", runs=2 * CHUNK_RUNS, workers=2))
    assert sizes == [1]
    assert multiprocessing.active_children() == []


@settings(max_examples=300, deadline=None)
@given(runs=st.one_of(st.integers(1, 100_000), st.integers(1, RUN_INDEX_LIMIT)),
       cpus=st.integers(1, 256), kind=st.sampled_from(["born_rule", "cross_frame"]))
@example(runs=RUN_INDEX_LIMIT, cpus=256, kind="born_rule")
@example(runs=RUN_INDEX_LIMIT, cpus=256, kind="cross_frame")
@example(runs=2049, cpus=2, kind="born_rule")
@example(runs=10240, cpus=3, kind="born_rule")
@example(runs=16384, cpus=2, kind="cross_frame")
def test_chunks_follow_the_rule(runs, cpus, kind):
    # chunks are contiguous from run 0 in order, equal to within one run,
    # none wider than MAX_CHUNK_RUNS // F runs of the kind's F frames, so
    # that no engine call steps more than MAX_CHUNK_RUNS (run, frame)
    # pairs, and as many as the rule says, on min(cpus, runs //
    # MAX_CHUNK_RUNS) workers but at least one, this process and a pool of
    # the others; no worker is started for fewer than MAX_CHUNK_RUNS runs,
    # and none is left without a chunk.  Only the first 40 are made, and
    # the next one stops the ensemble
    cfg = EnsembleConfig(kind=kind, runs=runs, workers=cpus)
    width = MAX_CHUNK_RUNS // len(KIND_FRAMES[kind](cfg.v))
    count = -(-runs // width)
    workers = min(cpus, max(1, runs // MAX_CHUNK_RUNS))
    assert workers <= count
    made = []

    class Stop(Exception):
        pass

    def record(config, chunk):
        if len(made) == 40:
            raise Stop
        made.append(chunk)
        return np.zeros(0, dtype=RECORD_DTYPE)

    with pytest.MonkeyPatch.context() as mp:
        sizes = serial_pool(mp, cpus).sizes
        mp.setattr(ensemble, "_run_chunk", record)
        mp.setattr(ensemble, "compute_stats", lambda *args: {"counts": {"failed": 0}})
        try:
            run_ensemble(cfg)
        except Stop:
            pass
    assert sizes == ([workers - 1] if workers > 1 else [])
    assert len(made) == min(count, 40)
    assert made[0].start == 0
    assert all(a.stop == b.start for a, b in zip(made, made[1:]))
    widths = {len(chunk) for chunk in made}
    # the first chunk is among the widest, ceil(runs / chunks) wide
    assert max(widths) == len(made[0]) == -(-runs // count) <= width
    assert max(widths) - min(widths) <= 1
    if count <= 40:
        assert made[-1].stop == runs


@pytest.mark.parametrize("cfg", [
    *(EnsembleConfig(kind=kind, runs=2 * CHUNK_RUNS + 5, master_seed=7) for kind in KIND_FRAMES),
    replace(CAPPED, runs=2 * CHUNK_RUNS + 5),
], ids=[*KIND_FRAMES, "capped"])
def test_chunk_width_does_not_change_records(monkeypatch, cfg):
    # 4101 runs in chunks of at most 1000, 2000 and 8192 (run, frame)
    # pairs, the floors: 5, 3 and 1 chunks of one frame, 9, 5 and 2 of two,
    # at one worker and at three, where a pool of two and a pool of one run
    # chunks beside this process at the first two floors
    pool = serial_pool(monkeypatch)
    results = []
    for width in (1000, 2000, 8192):
        set_floor(monkeypatch, width)
        for workers in (1, 3):
            results.append(run_ensemble(replace(cfg, workers=workers)))
    assert pool.sizes == [2, 1]
    stats, records = results[0]
    for other_stats, other_records in results[1:]:
        assert other_stats == stats
        assert other_records.tobytes() == records.tobytes()


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


@pytest.mark.parametrize("kind", ["born_rule", "collapse_time", "cross_frame"])
def test_ensemble_draws_live_runs_through_short_gaps(monkeypatch, kind):
    # the live runs of a sub-block are seldom more than MAX_GAP apart, so
    # a sub-block takes about one Philox call per stream and window: 48,
    # 49 and 95 calls here.  Drawn over their whole span only when a
    # quarter of its runs were live, and by segments of consecutive runs
    # otherwise, these ensembles took 170, 339 and 714 calls
    most_calls = {"born_rule": 80, "collapse_time": 80, "cross_frame": 160}[kind]
    calls = []
    draw = PhiloxNoiseSource._draw

    def counted(self, first_run, n_runs):
        calls.append(n_runs)
        return draw(self, first_run, n_runs)

    monkeypatch.setattr(PhiloxNoiseSource, "_draw", counted)
    run_ensemble(EnsembleConfig(kind=kind, runs=2048, master_seed=13, q0=0.5, workers=1))
    assert 0 < len(calls) <= most_calls


@pytest.mark.parametrize("kind, streams", [("born_rule", 2), ("collapse_time", 1),
                                           ("cross_frame", 1)])
def test_engine_calls_read_one_key_per_stream(monkeypatch, kind, streams):
    # what a tracer of the package reads: a chunk makes one run_frame_batch
    # call over the kind's F frames and one engine call; collapse_batch's
    # parameter 5 is stream_keys, one list of keys per frame, whose first
    # holds one key per stream (2 in frame 0, 1 in A and B), a batch's
    # result holds one step count per run of runs in each frame, and the
    # lengths of run_frame_batch's two tables sum to one row per (run,
    # frame) pair, failed rows included.  With the floor at 300 F runs a
    # worker, every kind runs in 3 chunks of no more than 300 runs; a cap
    # of 100 steps at epsilon 0.01 leaves failed rows in every batch, and
    # the ensemble aborts once its 3 chunks are done
    engine = experiment.collapse_batch
    signature = inspect.signature(engine)
    assert list(signature.parameters)[5] == "stream_keys"
    calls, batches = [], []

    def spy_engine(*args, **kwargs):
        res = engine(*args, **kwargs)
        calls.append((signature.bind(*args, **kwargs).arguments, res))
        return res

    frame_batch = ensemble.run_frame_batch

    def spy_frame_batch(scenario, frames, master_seed, run_indices, **kwargs):
        tables = frame_batch(scenario, frames, master_seed, run_indices, **kwargs)
        batches.append((list(run_indices) * len(frames), tables))
        return tables

    monkeypatch.setattr(experiment, "collapse_batch", spy_engine)
    monkeypatch.setattr(ensemble, "run_frame_batch", spy_frame_batch)
    cfg = EnsembleConfig(kind=kind, runs=700, q0=0.5, workers=1,
                         overrides={"epsilon": 0.01, "max_steps": 100})
    set_floor(monkeypatch, 300 * len(KIND_FRAMES[kind](cfg.v)))
    with pytest.raises(EnsembleAbortError):
        run_ensemble(cfg)
    assert len(calls) == len(batches) == 3
    for (args, res), (runs, (table, empty)) in zip(calls, batches):
        assert len(args["stream_keys"]) == len(KIND_FRAMES[kind](cfg.v))
        assert len(args["stream_keys"][0]) == len(args["rates"]) == streams
        assert len(res.steps) == len(args["stream_keys"]) * len(args["runs"]) == len(runs)
        assert len(table) + len(empty) == len(runs)
        assert (table["winner"] == 0).any() and (table["winner"] > 0).any()
        assert sorted(table["run_index"].tolist()) == sorted(runs)


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
    """A hand-built record table; rows are (run_index, winner, duration,
    within_budget), and a row's frame is its place."""
    return np.array(list(rows), dtype=RECORD_DTYPE)


def _verdict(winner, duration, gap):
    """The within_budget code of a row: 0 where there is no verdict (a
    capped run, or no gap), 1 where the collapse beat the gap, 2 where it
    did not."""
    if winner == 0 or math.isnan(gap):
        return 0
    return 1 if duration < gap else 2


def test_compute_stats_failed_class():
    records = _table((0, 1, 1e-4, 1), (1, 0, 0.5, 0))
    stats = compute_stats("collapse_time", 2, records)
    assert stats["counts"] == {"winner1": 1, "winner2": 0, "failed": 1}
    assert stats["freq"]["winner1"] == 1.0
    assert stats["duration_quantiles_s"] == [1e-4, 1e-4, 1e-4]
    assert stats["budget_violation_fraction"] == 0.0


# row 2 k + f is run k in frame f of (A, B): run 0 disagrees, run 1
# failed in B, run 2 agrees, run 3 failed in A; only run 2's B row missed
# its budget
CROSS_ROWS = ((0, 1, 1e-4, 1), (0, 2, 1e-4, 1),
              (1, 2, 1e-4, 1), (1, 0, 0.5, 0),
              (2, 1, 1e-4, 1), (2, 1, 3e-4, 2),
              (3, 0, 0.5, 0), (3, 1, 1e-4, 1))


def test_compute_stats_cross_frame_counts():
    # the rows in table order: a run's two frames are adjacent
    stats = compute_stats("cross_frame", 4, _table(*CROSS_ROWS))
    assert stats["counts"] == {"agree": 1, "disagree": 1, "failed": 2}
    assert stats["freq"] == {"agree": 0.5, "disagree": 0.5}
    assert stats["budget_violation_fraction"] == 1 / 6


def test_compute_stats_refuses_unpaired_rows():
    # the same rows out of order: adjacent rows of different runs would
    # pair frames of different trials
    rows = [CROSS_ROWS[i] for i in (5, 0, 3, 1, 6, 7, 2, 4)]
    with pytest.raises(ValueError, match="adjacent rows"):
        compute_stats("cross_frame", 4, _table(*rows))
    # single-frame counts do not depend on the row order
    single = _table(*((k, w, 1e-4, 1) for k, w in ((2, 1), (0, 2), (3, 0), (1, 1))))
    assert compute_stats("collapse_time", 4, single)["counts"] == \
        {"winner1": 2, "winner2": 1, "failed": 1}


def test_compute_stats_counts_each_failed_run_once():
    # run 1 hit the step cap in both frames and run 2 in one: two failed
    # runs, the count run_ensemble aborts on
    records = _table((0, 1, 1e-4, 1), (0, 1, 1e-4, 1),
                     (1, 0, 0.5, 0), (1, 0, 0.5, 0),
                     (2, 2, 1e-4, 1), (2, 0, 0.5, 0))
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


FRAME_0, FRAME_A, FRAME_B = Frame(0.0), Frame(C / 2), Frame(-C / 2)

# the frames of each kind, which the writer reads a table's rows by
KIND_TABLE_FRAMES = tuple(frames(C / 2) for frames in KIND_FRAMES.values())


def test_export_csv_layout(tmp_path):
    # row 2 k + f is run k in frame f of (A, frame0)
    records = _table((0, 1, 2.5e-4, 2), (0, 2, 5e-5, 0), (1, 2, 1.25e-4, 1), (1, 0, 0.125, 0))
    path = tmp_path / "records.csv"
    export_records(records, str(path), "csv", (FRAME_A, FRAME_0))
    assert path.read_text(encoding="utf-8").splitlines() == [
        "run_index,frame,first_detector,winner,reading_D1,reading_D2,duration_s,within_budget",
        "0,A,D1,1,yes,no,0.00025,false",
        "0,frame0,simultaneous,2,no,yes,5e-05,",
        "1,A,D1,2,no,yes,0.000125,true",
        "1,frame0,,0,,,,",
    ]


def test_export_jsonl_round_trip(tmp_path):
    # in frames (B, frame0): an absorbed frame-B row that missed its
    # budget, frame-0 rows, which have no activation gap to beat, and a
    # frame-B run that hit the step cap
    records = _table((7, 2, 3.75e-4, 2), (7, 1, 1.25e-4, 0), (8, 0, 0.125, 0), (8, 2, 5e-5, 0))
    path = tmp_path / "records.jsonl"
    export_records(records, str(path), "jsonl", (FRAME_B, FRAME_0))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [
        '{"duration_s": 0.000375, "first_detector": "D2", "frame": "B", "reading_D1": "no", '
        '"reading_D2": "yes", "run_index": 7, "winner": 2, "within_budget": false}',
        '{"duration_s": 0.000125, "first_detector": "simultaneous", "frame": "frame0", '
        '"reading_D1": "yes", "reading_D2": "no", "run_index": 7, "winner": 1, '
        '"within_budget": null}',
        '{"duration_s": null, "first_detector": "", "frame": "B", "reading_D1": "", '
        '"reading_D2": "", "run_index": 8, "winner": 0, "within_budget": null}',
        '{"duration_s": 5e-05, "first_detector": "simultaneous", "frame": "frame0", '
        '"reading_D1": "no", "reading_D2": "yes", "run_index": 8, "winner": 2, '
        '"within_budget": null}',
    ]
    assert json.loads(lines[0])["duration_s"] == 3.75e-4  # exact float round trip


def test_export_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export_records(_table(), str(tmp_path / "x"), "xml", (FRAME_A,))


def test_export_refuses_a_table_that_splits_a_run(tmp_path):
    # three rows cannot be runs of two frames each; no file is opened
    records = _table((0, 1, 1e-4, 1), (0, 2, 1e-4, 1), (1, 1, 1e-4, 1))
    with pytest.raises(ValueError, match="3 rows do not hold 2 frames per run"):
        export_records(records, str(tmp_path / "x"), "csv", (FRAME_A, FRAME_B))
    assert not (tmp_path / "x").exists()


# the first detector of each frame, spelled out: the oracle below does not
# read the package's spelling
REFERENCE_FIRST = {"A": "D1", "B": "D2", "frame0": "simultaneous"}


def test_first_detector_spelling_follows_the_frames(tmp_path):
    # a row is spelled with the label and the first detector of the frame
    # at its place
    for frame in (FRAME_0, FRAME_A, FRAME_B):
        assert REFERENCE_FIRST[frame.label] == first_detector(frame)
        export_records(_table((0, 1, 1e-4, 1)), str(tmp_path / "one.csv"), "csv", (frame,))
        assert (tmp_path / "one.csv").read_text(encoding="utf-8").splitlines()[1] == \
            f"0,{frame.label},{REFERENCE_FIRST[frame.label]},1,yes,no,0.0001,true"


@pytest.mark.parametrize("cfg", [
    *(EnsembleConfig(kind=kind, runs=2 * CHUNK_RUNS + 5, master_seed=7) for kind in KIND_FRAMES),
    replace(CAPPED, runs=2 * CHUNK_RUNS + 5, workers=1),
], ids=[*KIND_FRAMES, "capped"])
def test_exported_lines_are_spelled_from_their_frames(tmp_path, cfg):
    # over more than one export slice, each line's frame, first_detector,
    # winner and duration_s are those of its run in that frame's own batch
    stats, records = run_ensemble(cfg)
    paths, _ = export_ensemble(replace(cfg, record_format="jsonl"), stats, records,
                               str(tmp_path))
    with open(paths["records"], encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    frames = KIND_FRAMES[cfg.kind](cfg.v)
    by_label = {frame.label: frame_rows(cfg, frame, range(cfg.runs)) for frame in frames}
    assert sorted((line["frame"], line["run_index"]) for line in lines) == \
        sorted((label, k) for label in by_label for k in range(cfg.runs))
    for line in lines:
        row = by_label[line["frame"]][line["run_index"]]
        absorbed = row["winner"] > 0
        assert line["winner"] == row["winner"]
        assert line["first_detector"] == (REFERENCE_FIRST[line["frame"]] if absorbed else "")
        assert line["duration_s"] == (row["duration"] if absorbed else None)


def reference_export(records, path, fmt, frames):
    """The record writer as one str.format per row: the oracle that
    export_records must match byte for byte."""
    line, literal = _LINE_FORMATS[fmt]
    labels = [frames[row % len(frames)].label for row in range(len(records))]
    columns = (records[c].tolist() for c in ("run_index", "winner", "duration", "within_budget"))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for frame, (k, winner, duration, within) in zip(labels, zip(*columns)):
            if winner == 0:
                fh.write(line.format(k, frame, "", 0, "", "", literal[None], literal[None]))
            else:
                fh.write(line.format(k, frame, REFERENCE_FIRST[frame], winner,
                                     *READINGS[winner], repr(duration),
                                     literal[(None, True, False)[within]]))


def assert_export_matches_reference(records, tmp_path, frames):
    for fmt in ("csv", "jsonl"):
        export_records(records, str(tmp_path / f"new.{fmt}"), fmt, frames)
        reference_export(records, str(tmp_path / f"ref.{fmt}"), fmt, frames)
        assert (tmp_path / f"new.{fmt}").read_bytes() == (tmp_path / f"ref.{fmt}").read_bytes()


def test_export_matches_reference_on_every_line_class(tmp_path):
    # each (frame, winner, within_budget) class a run of each kind can leave
    for kind, frames in zip(KIND_FRAMES, KIND_TABLE_FRAMES):
        rows = []
        for winner in (0, 1, 2):
            for duration in (1.25e-4, 2.5e-4, 3.75e-4):
                for frame in frames:
                    gap = math.nan if frame.v == 0 else 2.5e-4
                    rows.append((len(rows) // len(frames), winner, duration,
                                 _verdict(winner, duration, gap)))
        (tmp_path / kind).mkdir()
        assert_export_matches_reference(_table(*rows), tmp_path / kind, frames)
    # within_budget is false at duration == gap
    assert b"\r\n4,A,D1,1,yes,no,0.00025,false\r\n" in \
        (tmp_path / "collapse_time" / "new.csv").read_bytes()


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)
                       | st.sampled_from([1e-05, 1e+16, 5e-324, 2.5e-4]),
                       min_size=1, max_size=8),
       picks=st.lists(st.integers(0, 7), min_size=40, max_size=40),
       runs=st.lists(st.integers(0, RUN_INDEX_LIMIT - 1), min_size=40, max_size=40))
@example(values=[1e-05, 1e+16, 5e-324], picks=list(range(8)) * 5,
         runs=[RUN_INDEX_LIMIT - 1] * 40)
def test_export_matches_reference_on_drawn_durations(tmp_path_factory, values, picks, runs):
    # 40 rows over at most 8 values: repeats exercise the once-per-value
    # spelling, in the frames of each kind
    for frames in KIND_TABLE_FRAMES:
        rows = []
        for i, (k, p) in enumerate(zip(runs, picks)):
            frame, winner = frames[i % len(frames)], (1, 2, 0, 2, 1)[i % 5]
            duration = values[p % len(values)]
            rows.append((k, winner, duration,
                         _verdict(winner, duration, math.nan if frame.v == 0 else 1e-4)))
        assert_export_matches_reference(_table(*rows), tmp_path_factory.mktemp("drawn"), frames)


def test_export_matches_reference_past_one_slice(tmp_path):
    # 2 CHUNK_RUNS + 3 runs of frames (A, B): the rows span three slices
    rng = np.random.default_rng(7)
    n = 2 * CHUNK_RUNS + 6
    rows = []
    for row in range(n):
        winner, duration = int(rng.integers(0, 3)), int(rng.integers(1, 400)) * 2.5e-6
        rows.append((row // 2, winner, duration, _verdict(winner, duration, 4.7e-4)))
    rows[-1] = (RUN_INDEX_LIMIT - 1, 1, 5e-324, 1)
    assert_export_matches_reference(_table(*rows), tmp_path, (FRAME_A, FRAME_B))


def test_export_spells_frames_by_table_row_at_an_odd_slice_width(tmp_path, monkeypatch):
    # slices of 3 rows of a 10-run table in frames (A, B) start at odd
    # rows as well as even ones, and every row is spelled in the frame of
    # its place in the whole table
    monkeypatch.setattr(ensemble, "CHUNK_RUNS", 3)
    rows = [(row // 2, 1 + row % 2, 1.25e-4, 1) for row in range(20)]
    assert_export_matches_reference(_table(*rows), tmp_path, (FRAME_A, FRAME_B))
    lines = (tmp_path / "new.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [line.split(",")[1] for line in lines] == ["A", "B"] * 10


EXPORT_ROWS = 5000


@pytest.mark.parametrize("width", [1, 3, 2048, EXPORT_ROWS + 1])
def test_export_matches_reference_at_any_slice_width(tmp_path, monkeypatch, width):
    # 5000 rows of frames (A, B): the first 3000 draw from 150 durations
    # and the rest from 300, so durations repeat across the slices of every
    # width and half of them first appear past row 3000, in a later slice;
    # every 601st row failed, in each slice of 2048 rows
    monkeypatch.setattr(ensemble, "CHUNK_RUNS", width)
    rng = np.random.default_rng(11)
    values = rng.integers(1, 4000, 300) * 2.5e-6
    rows = []
    for row in range(EXPORT_ROWS):
        winner = 0 if row % 601 == 5 else 1 + row % 2
        duration = values[rng.integers(0, 150 if row < 3000 else 300)]
        rows.append((row // 2, winner, duration, _verdict(winner, duration, 4.7e-3)))
    assert_export_matches_reference(_table(*rows), tmp_path, (FRAME_A, FRAME_B))


def test_export_empty_table(tmp_path):
    records = _table()
    assert_export_matches_reference(records, tmp_path, (FRAME_A, FRAME_B))
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
    rate = build_scenario(overrides=overrides).rate
    rates = derived["collapse_rate_per_s"]
    assert rates["A"] == rates["B"] == rate == 570312.0
    assert rates["frame0"] == rate + rate
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


def test_numpy_numbers_export_as_python_numbers(tmp_path):
    # numpy numbers pass the config's type checks; they are stored as the
    # Python numbers they equal, so the export serializes them, and the
    # files are those of the config written with Python numbers
    overrides = {"max_steps": 5000, "epsilon": 1e-6}
    plain = EnsembleConfig(kind="cross_frame", runs=300, master_seed=7, q0=0.75, d=1000,
                           v=0.9 * C, overrides=overrides, workers=1)
    scalars = EnsembleConfig(kind=np.str_("cross_frame"), runs=np.int64(300),
                            master_seed=np.uint64(7), q0=np.float32(0.75), d=np.int32(1000),
                            v=np.float64(0.9 * C), workers=np.int64(1),
                            overrides={"max_steps": np.int64(5000), "epsilon": np.float64(1e-6)})
    assert scalars == plain
    assert [type(getattr(scalars, name)) for name in ("kind", "runs", "master_seed", "q0", "d")] \
        == [str, int, int, float, int]
    assert {key: type(value) for key, value in scalars.overrides.items()} == \
        {"max_steps": int, "epsilon": float}
    files = {}
    for name, cfg in (("plain", plain), ("scalars", scalars)):
        paths, _ = export_ensemble(cfg, *run_ensemble(cfg), str(tmp_path / name))
        files[name] = [Path(paths[f]).read_bytes() for f in ("records", "manifest")]
    assert files["scalars"] == files["plain"]
    # a numpy bool is refused as a bool is
    with pytest.raises(ConfigError, match="runs must be an integer, got True"):
        EnsembleConfig(kind="born_rule", runs=np.bool_(True))


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
