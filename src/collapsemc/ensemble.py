"""Reproducible Monte Carlo harness.

Runs are addressed, not enumerated: trial k of an experiment reads each
detector's noise stream, keyed by (master_seed, detector), at stream
address (key, k), so the records of an ensemble are a pure function of
its configuration.  The run index sits in the noise counter and the
engine works elementwise per run, so no record or statistic depends on
how the runs are split.  Execution is cut into contiguous chunks of run
indices, as few as MAX_CHUNK_RUNS allows (see run_ensemble), and workers
pick up whole chunks; a chunk is one engine call, which steps each of its
runs in every frame of the kind.  A worker is started for no fewer than
MAX_CHUNK_RUNS runs, the measured floor below which one more worker
costs more than it saves.  The calling process is
one of the workers: it runs chunks itself between topping up a pool of
the others to two chunks a process, and with one worker it runs them all
and starts no pool.
The scenario is built once, with the configuration, and every chunk and
the manifest read it.

The records of an ensemble are one record table (see
``experiment.RECORD_DTYPE``) whose rows name no frame: with F the number
of frames the kind runs (``KIND_FRAMES``), row F k + f is run k in frame f
of that tuple.  A chunk is a contiguous range of run indices, so it comes
back as its slice of that table, ordered where it ran (sorted only when a
run of it hit the step cap), and the table is the slices in chunk order,
or the one slice as it is.  A run's frames are thus adjacent rows, which
is how the statistics pair them.  The statistics, with Wilson score
intervals for the binomial rates, are the dict that the manifest stores as
its ``stats`` block.  The exported fields that are not columns, the frame
label, first_detector and the readings, follow from a row's place and its
winner, and are spelled only while the records are written, each distinct
duration once a file; the bytes of a records file are part of the
reproducibility contract, which ``export_records`` states.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from collections import deque
from dataclasses import dataclass, asdict
from functools import cached_property
from itertools import islice

import numpy as np

from ._version import __version__
from .dynamics import _step
from .experiment import (Scenario, build_scenario, disagreement_rate_analytic, frame_pair,
                         run_frame_batch)
from .noise import RUN_INDEX_LIMIT
from .relativity import C, Frame, activation_gap, first_detector, gamma

# the frames each experiment kind runs, at the configured v
KIND_FRAMES = {
    "born_rule": lambda v: (Frame(0.0),),
    "collapse_time": lambda v: (Frame(v),),
    "cross_frame": frame_pair,
}

# No record depends on how the runs are cut into chunks: a run's noise is
# addressed by its index, and the engine steps each run alone.  CHUNK_RUNS
# is the number of rows export_records formats at a time; the chunks and
# the workers follow MAX_CHUNK_RUNS, the fewest runs a worker is started
# for (see run_ensemble).
CHUNK_RUNS = 2048

# The most (run, frame) pairs one engine call steps, so that a chunk of a
# kind of F frames holds MAX_CHUNK_RUNS // F runs, and the fewest runs that
# make one more worker worth starting, this process counted as one.  Every
# 32-row slab of a call steps until its slowest run leaves, so a wider
# call pays that tail once for more runs, while its float32 slab and its
# window index (128 bytes a run each) outgrow the CPU caches.  One-worker
# run_ensemble of 65,536 runs, median of 9 (2-CPU x86-64 VM, numpy 2.4.6),
# in chunks of 2048 / 4096 / 8192 / 16384 runs: born 155 / 123 / 114 / 136
# ms, collapse-time 227 / 187 / 163 / 202 ms.  A second worker costs about
# 7 ms to fork and join, and runs its chunks about 15 % slower than this
# process, so two workers pay from about 2 x 8192 runs.  One against two
# workers, end to end through the CLI, the range of the median speedups of
# 2 to 4 rounds of 9 to 21 alternating pairs (same VM), at 8192 / 12288 /
# 16384 / 24576 / 32768 / 65536 / 131072 runs: collapse-time 0.85-0.87 /
# 0.97-1.02 / 1.08-1.15 / 1.04-1.13 / 0.94-1.12 / 1.22 / 1.23, born
# 0.76-0.78 / 0.84-0.87 / 0.95-1.12 / 0.98-1.05 / 0.96-1.13 / 1.14-1.21 /
# 1.14-1.21.  Cross-frame, one-worker run_ensemble, medians of 10 to 16
# alternating pairs (same VM), one call per frame over chunks of 8192 runs
# against one call over both frames of chunks of 4096, at 8192 / 16384 /
# 65536 runs: 40.7 / 41.9 and 43.3 / 42.8 ms, 83.1 / 82.5 ms, 345 / 307 ms.
# One call over both frames of 8192 runs, 16384 pairs, read 0.98 / 1.00 /
# 1.08 of the 4096-run chunks' time (12 pairs each).
MAX_CHUNK_RUNS = 8192

CSV_COLUMNS = ("run_index", "frame", "first_detector", "winner",
               "reading_D1", "reading_D2", "duration_s", "within_budget")

# (reading_D1, reading_D2) by winner; a run that hit the step cap reads nothing
READINGS = (("", ""), ("yes", "no"), ("no", "yes"))

# Line layout of each record format and its spelling of None, True and
# False.  A layout is filled by str.format with the fields in CSV_COLUMNS
# order; the JSONL layout is that of json.dumps(..., sort_keys=True) and
# the CSV one that of csv.writer.  The string fields come from fixed ASCII
# vocabularies (frame labels, detector ids, readings), which need neither
# quoting nor escaping.
_LINE_FORMATS = {
    "csv": ("{0},{1},{2},{3},{4},{5},{6},{7}\r\n", {None: "", True: "true", False: "false"}),
    "jsonl": ('{{"duration_s": {6}, "first_detector": "{2}", "frame": "{1}", '
              '"reading_D1": "{4}", "reading_D2": "{5}", "run_index": {0}, "winner": {3}, '
              '"within_budget": {7}}}\n', {None: "null", True: "true", False: "false"}),
}

# stand-ins for the two fields that vary freely from row to row (run_index
# and duration_s) while export_records builds its line templates
_RUN, _DURATION = "\x00", "\x01"


class ConfigError(ValueError):
    """Bad ensemble or CLI configuration."""


class EnsembleAbortError(RuntimeError):
    """More than the tolerated fraction of runs failed to converge."""


def _python(value):
    """A numpy scalar as the Python value .item() gives, anything else as
    it is: a JSON 1000 stays the int 1000."""
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class EnsembleConfig:
    kind: str
    runs: int = 10_000
    master_seed: int = 1
    q0: float = 0.5
    d: float = 1000.0
    v: float = 0.99 * C
    overrides: dict | None = None
    out_dir: str | None = None
    record_format: str = "csv"
    workers: int = 1

    def __post_init__(self):
        # a numpy number passes the type checks below but not json.dumps,
        # so it is stored as the Python number it equals
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, _python(getattr(self, name)))
        if isinstance(self.overrides, dict):
            object.__setattr__(self, "overrides",
                               {k: _python(v) for k, v in self.overrides.items()})
        kinds = tuple(KIND_FRAMES)  # a tuple, so an unhashable kind is only unknown
        if self.kind not in kinds:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; expected one of {kinds}")
        for name, kind in (("runs", numbers.Integral), ("master_seed", numbers.Integral),
                           ("workers", numbers.Integral), ("q0", numbers.Real),
                           ("d", numbers.Real), ("v", numbers.Real)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                noun = "an integer" if kind is numbers.Integral else "a real number"
                raise ConfigError(f"{name} must be {noun}, got {value!r}")
        # run indices 0 .. runs - 1 must each address a noise stream
        if not 1 <= self.runs <= RUN_INDEX_LIMIT:
            raise ConfigError(f"runs must be in [1, {RUN_INDEX_LIMIT}], got {self.runs}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must fit in uint64, got {self.master_seed}")
        if not 0.0 <= self.q0 <= 1.0:
            raise ConfigError(f"q0 must be in [0, 1], got {self.q0}")
        # the geometry rules are the refusals of the gap the manifest records
        try:
            activation_gap(self.d, self.v)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.record_format not in ("csv", "jsonl"):
            raise ConfigError(f"record_format must be 'csv' or 'jsonl', got {self.record_format!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string or null, got {self.out_dir!r}")
        if self.out_dir == "":
            raise ConfigError("out_dir must name a directory, got ''")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.overrides is not None and not isinstance(self.overrides, dict):
            raise ConfigError(f"overrides must be a JSON object, got {self.overrides!r}")
        # building the scenario, and the step of each frame the kind runs by
        # the engine's own checks, makes a bad override a ConfigError before
        # any run starts
        try:
            params = self.scenario.params
            for frame in KIND_FRAMES[self.kind](self.v):
                _step(self.scenario.frame_rates(frame), params.dt, params.epsilon,
                      params.max_steps)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"overrides {self.overrides!r}: {exc}") from exc

    @classmethod
    def from_dict(cls, data: dict) -> "EnsembleConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @cached_property
    def scenario(self) -> Scenario:
        """The configured scenario, built once.  It is not a field, so
        asdict leaves it out of the manifest, and a pickled config carries
        it to pool workers."""
        return build_scenario(d=self.d, q0=self.q0, overrides=self.overrides)


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because it stays inside
    [0, 1] and behaves at zero or full counts.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= successes <= n:
        raise ValueError(f"successes must be in [0, n], got {successes} of {n}")
    if not z > 0:
        raise ValueError(f"z must be > 0, got {z}")
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    margin = (z / denom) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return (max(0.0, center - margin), min(1.0, center + margin))


# bench/probe_setup.py imports this by name
def scenario_from_config(config: EnsembleConfig) -> Scenario:
    return config.scenario


def _run_chunk(config: EnsembleConfig, runs: range) -> np.ndarray:
    """The chunk of runs with the indices in runs, as its slice of the
    ensemble's record table, put in table order in the process that ran
    them: one run_frame_batch call over the kind's frames.  When no run of
    the chunk hit the step cap, the batch's table is that slice as it is.
    Otherwise its two parts are merged: each holds whole runs in table
    order, so a stable sort by run_index leaves each run's rows in the
    kind's frame order."""
    frames = KIND_FRAMES[config.kind](config.v)
    absorbed, failed = run_frame_batch(config.scenario, frames, config.master_seed,
                                       np.arange(runs.start, runs.stop))
    if not len(failed):
        return absorbed
    table = np.concatenate((absorbed, failed))
    return table[np.argsort(table["run_index"], kind="stable")]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pooled_tables(pool, slots: int, config: EnsembleConfig, chunks) -> list[np.ndarray]:
    """The tables of chunks in chunk order, run by pool and by this process.

    Before this process takes its next chunk, it tops the pool up from
    chunks until slots of the pool's futures are not yet taken, but never
    with the last chunk left, which is this process's.  So chunks are made
    as they are handed out, the pool never holds more than slots
    unfinished futures, and this process runs a chunk whenever one is
    left.  Finished tables are taken off the front in chunk order.  A chunk
    that raises, here or in the pool, raises here, and the pool's futures
    not yet started are cancelled.
    """
    chunks = iter(chunks)
    # (future, None) for a chunk of the pool's, (None, table) for one of ours
    window, tables = deque(), []
    try:
        while True:
            while window and (window[0][0] is None or window[0][0].done()):
                future, table = window.popleft()
                tables.append(table if future is None else future.result())
            held = sum(future is not None for future, _ in window)
            # the pool's top-up and, last, this process's own chunk
            taken = list(islice(chunks, slots - held + 1))
            if not taken:
                break
            for chunk in taken[:-1]:
                window.append((pool.submit(_run_chunk, config, chunk), None))
            window.append((None, _run_chunk(config, taken[-1])))
        tables.extend(table if future is None else future.result() for future, table in window)
    except BaseException:
        for future, _ in window:
            if future is not None:
                future.cancel()
        raise
    return tables


def run_ensemble(config: EnsembleConfig) -> tuple[dict, np.ndarray]:
    """Execute the configured experiment and reduce its statistics.

    Returns (stats, records): stats is compute_stats's dict, the manifest's
    stats block, and records the record table, row F k + f for run k in
    frame f of the kind's frames: the chunks' slices joined in chunk
    order, or the one chunk's slice as it is.  Raises EnsembleAbortError
    if more than 1% of runs fail to converge.

    The runs are cut into chunks = ceil(runs / (MAX_CHUNK_RUNS // F))
    contiguous chunks in run order, with F the number of the kind's
    frames, so that no engine call steps more than MAX_CHUNK_RUNS (run,
    frame) pairs.  The first runs % chunks of them are one run wider than
    the rest, and they run on

        workers = min(config.workers, usable_cpus(), max(1, runs // MAX_CHUNK_RUNS))

    workers, so that no worker is started for fewer than MAX_CHUNK_RUNS
    runs and none is left without a chunk: this process and a pool of the
    others, which holds up to two unfinished chunks per pool process (see
    _pooled_tables), or this process alone, with no pool, when that is
    one.  The pool is joined before this returns or raises.
    """
    runs = config.runs
    count = -(-runs // max(1, MAX_CHUNK_RUNS // len(KIND_FRAMES[config.kind](config.v))))
    size, wide = divmod(runs, count)
    # made one at a time: an ensemble of RUN_INDEX_LIMIT runs has 2**50 chunks
    chunks = (range(i * size + min(i, wide), (i + 1) * size + min(i + 1, wide))
              for i in range(count))
    # under fork every worker starts at the first submit, so a worker past
    # the usable CPUs would only be forked to sit idle
    workers = min(config.workers, usable_cpus(), max(1, runs // MAX_CHUNK_RUNS))
    if workers > 1:
        # imported here so that one-worker runs do not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # a second chunk queued per pool process, so that a worker that
        # ends its chunk while this process runs one starts the next at once
        with ProcessPoolExecutor(max_workers=workers - 1) as pool:
            tables = _pooled_tables(pool, 2 * (workers - 1), config, chunks)
    else:
        tables = [_run_chunk(config, chunk) for chunk in chunks]
    # the chunk tables are dropped once joined, so that only one copy of
    # the rows outlives the join
    records = tables[0] if len(tables) == 1 else np.concatenate(tables)
    del tables

    stats = compute_stats(config.kind, config.runs, records)
    failed = stats["counts"]["failed"]
    if failed > 0.01 * config.runs:
        raise EnsembleAbortError(f"{failed} of {config.runs} runs failed to converge (> 1%)")
    # bench/spans.py counts the records made as the length of this table
    return stats, records


# bench/spans.py reads argument 2, records, by position or name
def compute_stats(kind: str, runs: int, records: np.ndarray) -> dict:
    """Reduce a record table, row F k + f for run k in frame f, into the
    manifest's stats block: n, counts, freq, wilson, duration_quantiles_s
    and budget_violation_fraction.  A run's frames are adjacent rows, and
    a cross-frame table where they are not is refused with ValueError."""
    winners = records["winner"]

    if kind == "cross_frame":
        by_run = records["run_index"].reshape(runs, -1)
        if (by_run != by_run[:, :1]).any():
            raise ValueError("a run's frames must be adjacent rows of the record table")
        # one row per run; it counts only when it absorbed in both frames
        pairs = winners.reshape(runs, -1)
        ok = (pairs > 0).all(axis=1)
        disagree = int(np.count_nonzero(ok & (pairs[:, 0] != pairs[:, 1])))
        agree = int(np.count_nonzero(ok)) - disagree
        counts = {"agree": agree, "disagree": disagree, "failed": runs - agree - disagree}
        rate_classes = ("agree", "disagree")
    else:
        w1 = int(np.count_nonzero(winners == 1))
        w2 = int(np.count_nonzero(winners == 2))
        counts = {"winner1": w1, "winner2": w2, "failed": runs - w1 - w2}
        rate_classes = ("winner1", "winner2")

    n_ok = sum(counts[c] for c in rate_classes)
    freq = {c: (counts[c] / n_ok if n_ok else math.nan) for c in rate_classes}
    wilson = {c: (list(wilson_interval(counts[c], n_ok)) if n_ok else [0.0, 1.0])
              for c in rate_classes}

    durations = records["duration"][winners > 0]
    quantiles = (np.quantile(durations, [0.1, 0.5, 0.9]).tolist()
                 if durations.size else [math.nan] * 3)

    _, beat, violations = np.bincount(records["within_budget"], minlength=3).tolist()
    budget_fraction = violations / (beat + violations) if beat + violations else 0.0

    return {"n": runs, "counts": counts, "freq": freq, "wilson": wilson,
            "duration_quantiles_s": quantiles, "budget_violation_fraction": budget_fraction}


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# bench/spans.py reads argument 0, records, by position or name
def export_records(records: np.ndarray, path: str, fmt: str, frames: tuple[Frame, ...]) -> None:
    """Write a record table as CSV or JSONL, one line per row, in table order.

    Row F k + f of the table is in frames[f], with F = len(frames); a table
    whose length is not a multiple of F is refused with ValueError.

    The bytes of a records file are part of the reproducibility contract:
    any change to this writer must keep them.

    - CSV has a header line of CSV_COLUMNS and lines ending in CRLF.  A JSONL
      line is one object ending in LF, with its keys in sorted order:
      duration_s, first_detector, frame, reading_D1, reading_D2, run_index,
      winner, within_budget.
    - frame is the row's frame label and first_detector the detector that
      activates first in it (relativity.first_detector); the readings
      follow from the winner (READINGS).
    - A run that hit the step cap writes its run_index, frame and winner 0;
      first_detector and both readings are empty strings, and duration_s
      and within_budget are None.
    - within_budget is the table's code 0, 1 or 2 spelled None, True or
      False; None is an empty cell in CSV and null in JSONL, and True and
      False are true and false in both.
    - duration_s is written as repr writes a float: the shortest decimal
      that reads back as the same float, such as 0.000125, 5e-05 or 1e+16.

    Only run_index and duration vary freely from row to row.  The rest of a
    line is one of a few classes (frame, winner and within_budget), so each
    class's line is formatted once a slice, with markers in the two free
    slots, and split at them.  Each distinct duration is spelled once a
    file: the spellings are kept, by bit pattern, across the slices, so the
    writer's memory grows with the distinct durations, not with the rows.
    """
    if fmt not in _LINE_FORMATS:
        raise ValueError(f"format must be 'csv' or 'jsonl', got {fmt!r}")
    if len(records) % len(frames):
        raise ValueError(f"{len(records)} rows do not hold {len(frames)} frames per run")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            fh.write(",".join(CSV_COLUMNS) + "\r\n")
        # slices bound the memory the writer adds to that of the table
        spelled = {}
        for lo in range(0, len(records), CHUNK_RUNS):
            fh.write(_format_lines(records[lo:lo + CHUNK_RUNS], fmt, frames, lo, spelled))


def _format_lines(records: np.ndarray, fmt: str, frames: tuple[Frame, ...], start: int,
                  spelled: dict[int, str]) -> str:
    """The lines of export_records for the rows of a record table that
    start at row start of the whole table, whose place there gives each
    row's frame.  spelled maps a duration's bit pattern to its repr; the
    slice's new durations are added to it."""
    line, literal = _LINE_FORMATS[fmt]
    winner, within = records["winner"], records["within_budget"]
    place = np.arange(start, start + len(records)) % len(frames)
    # class code (place, winner, within_budget), both last codes 0-2 already
    key = (place * 3 + winner) * 3 + within
    within_literals = (literal[None], literal[True], literal[False])
    templates = np.empty(9 * len(frames), dtype=object)
    for code in np.flatnonzero(np.bincount(key, minlength=len(templates))).tolist():
        frame, w = frames[code // 9], code // 3 % 3
        first = first_detector(frame) if w else ""
        text = line.format(_RUN, frame.label, first, w,
                           *READINGS[w], _DURATION, within_literals[code % 3])
        templates[code] = tuple(text.replace(_DURATION, _RUN).split(_RUN))
    # a bit pattern is one repr; failed rows point past the distinct values
    bits, spelling = np.unique(records["duration"].view(np.uint64), return_inverse=True)
    keys = bits.tolist()
    for b, x in zip(keys, bits.view(np.float64).tolist()):
        if b not in spelled:
            spelled[b] = repr(x)
    spellings = np.array([spelled[b] for b in keys] + [literal[None]], dtype=object)
    runs = records["run_index"].tolist()
    durations = spellings[np.where(winner == 0, len(bits), spelling)].tolist()
    # CSV writes run_index before duration_s, JSONL after it
    free = (runs, durations) if line.index("{0}") < line.index("{6}") else (durations, runs)
    return "".join([f"{pre}{x}{mid}{y}{post}" for (pre, mid, post), x, y in
                    zip(templates[key].tolist(), *free)])


def cpu_features() -> list[str]:
    """Sorted names of the CPU features numpy reports as enabled: the SIMD
    loops its math functions dispatch on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1
        from numpy.core._multiarray_umath import __cpu_features__
    return sorted(name for name, on in __cpu_features__.items() if on)


def build_manifest(config: EnsembleConfig) -> dict:
    """Full provenance for one ensemble: config, derived constants, and
    the numpy and Python builds with numpy's enabled CPU features, since
    the records are fixed only within one numpy build on one CPU feature
    set.  The noise's level indices are fixed by Philox and its table is
    worked out in float64, so the records depend on the build only through
    the last bits of the step kernel's float32 ``sinh`` and ``arcsinh``."""
    scenario = config.scenario
    # summed as the engine sums a frame's stream rates
    rates = {frame.label: sum(scenario.frame_rates(frame))
             for frame in (Frame(0.0), *frame_pair(config.v))}
    cfg = asdict(config)
    return {
        "artifact_version": __version__,
        "build": {"numpy": np.__version__, "python": sys.version.split()[0],
                  "cpu_features": cpu_features()},
        "master_seed": config.master_seed,
        "config": cfg,
        "derived": {
            "collapse_rate_per_s": rates,
            "gamma_dt": {label: rate * scenario.params.dt for label, rate in rates.items()},
            "delta_t_s": activation_gap(config.d, config.v),
            "lorentz_gamma": gamma(config.v),
            "dt_s": scenario.params.dt,
            "epsilon": scenario.params.epsilon,
            "analytic_disagreement": disagreement_rate_analytic(config.q0,
                                                                scenario.params.epsilon),
        },
    }


# bench/spans.py reads argument 2, records, by position or name
def export_ensemble(config: EnsembleConfig, stats: dict, records: np.ndarray,
                    out_dir: str) -> tuple[dict[str, str], dict]:
    """Write records and manifest into out_dir; returns (paths, manifest).
    The manifest's stats block is the stats dict as compute_stats made it.

    The manifest is serialized before any file is opened, so a manifest
    that is not strict JSON (a NaN or inf value) raises ValueError and
    leaves neither file behind.  Both files are written under temporary
    names and renamed into place, records first, so an export that fails
    leaves the files of an earlier export in out_dir as they were.
    """
    manifest = {**build_manifest(config), "stats": stats}
    manifest_text = json.dumps(manifest, sort_keys=True, indent=2, allow_nan=False) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    paths = {"records": os.path.join(out_dir, f"records.{config.record_format}"),
             "manifest": os.path.join(out_dir, "manifest.json")}
    temps = {name: f"{path}.tmp" for name, path in paths.items()}
    try:
        export_records(records, temps["records"], config.record_format,
                       KIND_FRAMES[config.kind](config.v))
        with open(temps["manifest"], "w", encoding="utf-8") as fh:
            fh.write(manifest_text)
        for name, path in paths.items():
            os.replace(temps[name], path)
    except BaseException:
        for temp in temps.values():
            if os.path.exists(temp):
                os.remove(temp)
        raise
    return paths, manifest
