"""Reproducible Monte Carlo harness.

Runs are addressed, not enumerated: trial k of an experiment reads each
detector's noise stream, keyed by (master_seed, detector), at stream
address (key, k), so the records of an ensemble are a pure function of
its configuration.  The run index sits in the noise counter and the
engine works elementwise per run, so no record or statistic depends on
how the runs are split.  Execution is chunked into fixed windows of run
indices, and workers pick up whole chunks; a chunk bounds the memory of
one engine call and of one pool task.  The scenario is built once, with
the configuration, and every chunk and the manifest read it.

The records of an ensemble are one record table (see
``experiment.RECORD_DTYPE``) sorted by (run_index, frame).  A chunk is a
contiguous range of run indices, so it comes back as its slice of that
table, sorted where it ran, and the table is the slices in chunk order.
Statistics are counted over its columns by an order-independent
reduction, with Wilson score intervals for the binomial rates, into the
dict that the manifest stores as its ``stats`` block.  The exported
fields that are not columns, first_detector and the readings, follow from
the frame and the winner, and are spelled only while the records are
written.

Record format contract.  A records file holds one line per row, in table
order: CSV with a header of CSV_COLUMNS and CRLF line ends, or JSONL with
one LF-ended object per line and its keys in sorted order.  A run that hit
the step cap writes run_index, frame and winner 0, empty strings for
first_detector and the readings, and None for duration_s and
within_budget.  None is an empty cell in CSV and null in JSONL; True and
False are true and false in both.  duration_s is the shortest decimal that
reads back as the same float (Python's repr).  These bytes are part of the
reproducibility contract: any change to the writer must keep them.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, asdict
from functools import cached_property
from itertools import repeat

import numpy as np

from ._version import __version__
from .dynamics import _step
from .experiment import (Scenario, build_scenario, disagreement_rate_analytic, frame_pair,
                         run_frame_batch)
from .noise import RUN_INDEX_LIMIT
from .relativity import C, FRAME_LABELS, Frame, InvalidGeometryError, activation_gap, gamma

# the frames each experiment kind runs, at the configured v
KIND_FRAMES = {
    "born_rule": lambda v: (Frame(0.0),),
    "collapse_time": lambda v: (Frame(v),),
    "cross_frame": frame_pair,
}

# Runs are processed in windows of this many indices.  No record depends
# on the window size (a run's noise is addressed by its index, and the
# engine steps each run alone); it bounds the engine's window buffer and
# live-set arrays per call, the work of one pool task, and the table that
# a pool worker pickles back.
CHUNK_RUNS = 2048

CSV_COLUMNS = ("run_index", "frame", "first_detector", "winner",
               "reading_D1", "reading_D2", "duration_s", "within_budget")

# (reading_D1, reading_D2) by winner; a run that hit the step cap reads nothing
READINGS = (("", ""), ("yes", "no"), ("no", "yes"))

# the first detector of each frame label, as a record spells it
FIRST_DETECTORS = {label: det for det, label in FRAME_LABELS.items()}

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
        if not self.d > 0:
            raise ConfigError(f"d must be > 0, got {self.d}")
        if not 0 < self.v < C:
            raise ConfigError(f"v must satisfy 0 < v < c, got {self.v}")
        # the manifest records the gap, which is refused past the float range
        try:
            activation_gap(self.d, self.v)
        except InvalidGeometryError as exc:
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


def _run_chunk(config: EnsembleConfig, lo: int) -> np.ndarray:
    """The chunk of runs that starts at lo, as its slice of the ensemble's
    record table: its rows in table order, sorted by (run_index, frame) in
    the process that ran them."""
    runs = range(lo, min(lo + CHUNK_RUNS, config.runs))
    table = np.concatenate([part for frame in KIND_FRAMES[config.kind](config.v)
                            for part in run_frame_batch(config.scenario, frame,
                                                        config.master_seed, runs)])
    return table[np.lexsort((table["frame"], table["run_index"]))]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_ensemble(config: EnsembleConfig) -> tuple[dict, np.ndarray]:
    """Execute the configured experiment and reduce its statistics.

    Returns (stats, records): stats is compute_stats's dict, the manifest's
    stats block, and records one table sorted by (run_index, frame), the
    chunks' slices joined in chunk order.  Raises EnsembleAbortError if
    more than 1% of runs fail to converge.
    """
    starts = range(0, config.runs, CHUNK_RUNS)
    # under fork every worker starts at the first submit, so a worker past
    # the chunks or the usable CPUs would only be forked to sit idle
    workers = min(config.workers, len(starts), usable_cpus())
    if workers > 1:
        # imported here so that one-worker runs do not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = np.concatenate(list(pool.map(_run_chunk, repeat(config), starts)))
    else:
        records = np.concatenate([_run_chunk(config, lo) for lo in starts])

    stats = compute_stats(config.kind, config.runs, records)
    failed = stats["counts"]["failed"]
    if failed > 0.01 * config.runs:
        raise EnsembleAbortError(f"{failed} of {config.runs} runs failed to converge (> 1%)")
    # bench/spans.py counts the records made as the length of this table
    return stats, records


# bench/spans.py reads argument 2, records, by position or name
def compute_stats(kind: str, runs: int, records: np.ndarray) -> dict:
    """Order-independent reduction of a record table into the manifest's
    stats block: n, counts, freq, wilson, duration_quantiles_s and
    budget_violation_fraction."""
    absorbed = records[records["winner"] > 0]

    if kind == "cross_frame":
        # a run counts only when it absorbed in both frames
        a = absorbed[absorbed["frame"] == "A"]
        b = absorbed[absorbed["frame"] == "B"]
        _, ia, ib = np.intersect1d(a["run_index"], b["run_index"], assume_unique=True,
                                   return_indices=True)
        disagree = int(np.count_nonzero(a["winner"][ia] != b["winner"][ib]))
        agree = ia.size - disagree
        counts = {"agree": agree, "disagree": disagree, "failed": runs - agree - disagree}
        rate_classes = ("agree", "disagree")
    else:
        w1 = int(np.count_nonzero(absorbed["winner"] == 1))
        w2 = int(np.count_nonzero(absorbed["winner"] == 2))
        counts = {"winner1": w1, "winner2": w2, "failed": runs - w1 - w2}
        rate_classes = ("winner1", "winner2")

    n_ok = sum(counts[c] for c in rate_classes)
    freq = {c: (counts[c] / n_ok if n_ok else math.nan) for c in rate_classes}
    wilson = {c: (list(wilson_interval(counts[c], n_ok)) if n_ok else [0.0, 1.0])
              for c in rate_classes}

    quantiles = (np.quantile(absorbed["duration"], [0.1, 0.5, 0.9]).tolist()
                 if absorbed.size else [math.nan] * 3)

    _, beat, violations = np.bincount(records["within_budget"], minlength=3).tolist()
    budget_fraction = violations / (beat + violations) if beat + violations else 0.0

    return {"n": runs, "counts": counts, "freq": freq, "wilson": wilson,
            "duration_quantiles_s": quantiles, "budget_violation_fraction": budget_fraction}


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# bench/spans.py reads argument 0, records, by position or name
def export_records(records: np.ndarray, path: str, fmt: str = "csv") -> None:
    """Write a record table as CSV or JSONL, one line per row, in table order.

    The bytes of a records file are part of the reproducibility contract:
    any change to this writer must keep them.

    - CSV has a header line of CSV_COLUMNS and lines ending in CRLF.  A JSONL
      line is one object ending in LF, with its keys in sorted order:
      duration_s, first_detector, frame, reading_D1, reading_D2, run_index,
      winner, within_budget.
    - first_detector is the one the frame label names (relativity's
      FRAME_LABELS), and the readings follow from the winner (READINGS).
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
    class's line is formatted once, with markers in the two free slots, and
    split at them.  Each distinct duration is spelled once.
    """
    if fmt not in _LINE_FORMATS:
        raise ValueError(f"format must be 'csv' or 'jsonl', got {fmt!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            fh.write(",".join(CSV_COLUMNS) + "\r\n")
        # slices bound the memory the writer adds to that of the table
        for lo in range(0, len(records), CHUNK_RUNS):
            fh.write(_format_lines(records[lo:lo + CHUNK_RUNS], fmt))


def _format_lines(records: np.ndarray, fmt: str) -> str:
    """The lines of export_records for the rows of a record table."""
    line, literal = _LINE_FORMATS[fmt]
    frame, winner, within = records["frame"], records["winner"], records["within_budget"]
    _, key = np.unique(frame, return_inverse=True)
    key = (key * 3 + winner) * 3 + within  # both are codes 0-2 already
    _, rows, line_class = np.unique(key, return_index=True, return_inverse=True)
    within_literals = (literal[None], literal[True], literal[False])
    templates = np.empty(len(rows), dtype=object)
    for i, row in enumerate(rows.tolist()):
        w = int(winner[row])
        first = FIRST_DETECTORS[frame[row]] if w else ""
        text = line.format(_RUN, frame[row], first, w,
                           *READINGS[w], _DURATION, within_literals[within[row]])
        templates[i] = tuple(text.replace(_DURATION, _RUN).split(_RUN))
    # a bit pattern is one repr; failed rows point past the distinct values
    bits, spelling = np.unique(records["duration"].view(np.uint64), return_inverse=True)
    spellings = np.array([repr(x) for x in bits.view(np.float64).tolist()] + [literal[None]],
                         dtype=object)
    runs = records["run_index"].tolist()
    durations = spellings[np.where(winner == 0, len(bits), spelling)].tolist()
    # CSV writes run_index before duration_s, JSONL after it
    free = (runs, durations) if line.index("{0}") < line.index("{6}") else (durations, runs)
    return "".join([f"{pre}{x}{mid}{y}{post}" for (pre, mid, post), x, y in
                    zip(templates[line_class].tolist(), *free)])


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
    set: the last bits of the noise's ``log``, ``sin`` and ``cos`` and of
    the step kernel's float32 ``sinh`` and ``arcsinh`` depend on both."""
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
        export_records(records, temps["records"], config.record_format)
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
