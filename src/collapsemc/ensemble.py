"""Reproducible Monte Carlo harness.

Runs are addressed, not enumerated: trial k of an experiment consumes
noise streams keyed by (master_seed, detector, k), so the records of an
ensemble are a pure function of its configuration.  Execution is chunked
into fixed windows of run indices; workers pick up whole chunks, which
makes the output byte-identical for any worker count or schedule.

The records of an ensemble are one record table (see
``experiment.record_dtype``) sorted by (run_index, frame).  Statistics are
counted over its columns by an order-independent reduction, with Wilson
score intervals for the binomial rates.  The exported fields that are not
columns (the readings, and whether a collapse beat the activation gap)
are worked out only while the records are written.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from ._version import __version__
from .dynamics import effective_rate
from .experiment import (Scenario, active_profiles, build_scenario,
                         disagreement_rate_analytic, frame_pair, run_frame_batch)
from .noise import derive_stream_key  # noqa: F401  (re-exported API)
from .relativity import C, Frame, activation_gap, gamma

KINDS = ("born_rule", "collapse_time", "cross_frame", "frame0_consistency")

# Runs are processed in fixed windows of this many indices regardless of
# worker count, so chunk contents (and therefore every floating-point
# result) do not depend on the execution schedule.
CHUNK_RUNS = 2048

CSV_COLUMNS = ("run_index", "frame", "first_detector", "winner",
               "reading_D1", "reading_D2", "duration_s", "within_budget")

# (reading_D1, reading_D2) by winner; a run that hit the step cap reads nothing
READINGS = (("", ""), ("yes", "no"), ("no", "yes"))


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
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        for name in ("runs", "master_seed", "workers"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must fit in uint64, got {self.master_seed}")
        if not 0.0 <= self.q0 <= 1.0:
            raise ConfigError(f"q0 must be in [0, 1], got {self.q0}")
        if not self.d > 0:
            raise ConfigError(f"d must be > 0, got {self.d}")
        if not 0 < self.v < C:
            raise ConfigError(f"v must satisfy 0 < v < c, got {self.v}")
        if self.record_format not in ("csv", "jsonl"):
            raise ConfigError(f"record_format must be 'csv' or 'jsonl', got {self.record_format!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        # the scenario is built again in every chunk; building it here makes
        # a bad override a ConfigError before any run starts
        try:
            scenario_from_config(self)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"overrides {self.overrides!r}: {exc}") from exc

    @classmethod
    def from_dict(cls, data: dict) -> "EnsembleConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class EnsembleStats:
    n: int
    counts: dict[str, int]
    freq: dict[str, float]
    wilson: dict[str, tuple[float, float]]
    duration_quantiles: tuple[float, float, float]
    budget_violation_fraction: float


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


def scenario_from_config(config: EnsembleConfig) -> Scenario:
    return build_scenario(d=config.d, q0=config.q0, overrides=config.overrides)


def _frames_for_kind(config: EnsembleConfig) -> tuple[Frame, ...]:
    if config.kind in ("born_rule", "frame0_consistency"):
        return (Frame(0.0, "frame0"),)
    if config.kind == "collapse_time":
        return (Frame(config.v, "A"),)
    return frame_pair(config.v)


def _run_chunk(config: EnsembleConfig, lo: int, hi: int) -> list:
    scenario = scenario_from_config(config)
    tables: list = []
    for frame in _frames_for_kind(config):
        tables.extend(run_frame_batch(scenario, frame, config.master_seed, range(lo, hi)))
    return tables


def run_ensemble(config: EnsembleConfig) -> tuple[EnsembleStats, np.ndarray]:
    """Execute the configured experiment and reduce its statistics.

    Returns (stats, records) with records one table sorted by
    (run_index, frame).  Raises EnsembleAbortError if more than 1% of runs
    fail to converge.
    """
    bounds = [(lo, min(lo + CHUNK_RUNS, config.runs))
              for lo in range(0, config.runs, CHUNK_RUNS)]
    if config.workers > 1 and len(bounds) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunk_lists = list(pool.map(_run_chunk, [config] * len(bounds),
                                        [b[0] for b in bounds], [b[1] for b in bounds]))
    else:
        chunk_lists = [_run_chunk(config, lo, hi) for lo, hi in bounds]
    records = np.concatenate([table for chunk in chunk_lists for table in chunk])
    records = records[np.lexsort((records["frame"], records["run_index"]))]

    failed_runs = np.unique(records["run_index"][records["winner"] == 0])
    if failed_runs.size > 0.01 * config.runs:
        raise EnsembleAbortError(
            f"{failed_runs.size} of {config.runs} runs failed to converge (> 1%)")
    return compute_stats(config.kind, config.runs, records), records


def compute_stats(kind: str, runs: int, records: np.ndarray) -> EnsembleStats:
    """Order-independent reduction of a record table."""
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
    wilson = {c: (wilson_interval(counts[c], n_ok) if n_ok else (0.0, 1.0))
              for c in rate_classes}

    if absorbed.size:
        p10, p50, p90 = np.quantile(absorbed["duration"], [0.1, 0.5, 0.9])
        quantiles = (float(p10), float(p50), float(p90))
    else:
        quantiles = (math.nan, math.nan, math.nan)

    budgeted = absorbed[~np.isnan(absorbed["budget"])]
    violations = int(np.count_nonzero(~(budgeted["duration"] < budgeted["budget"])))
    budget_fraction = violations / budgeted.size if budgeted.size else 0.0

    return EnsembleStats(n=runs, counts=counts, freq=freq, wilson=wilson,
                         duration_quantiles=quantiles,
                         budget_violation_fraction=budget_fraction)


def contradictory_readings(records: np.ndarray) -> int:
    """Absorbed records whose two readings, as written, agree."""
    winners = records["winner"][records["winner"] > 0]
    readings = np.array(READINGS)[winners]
    return int(np.count_nonzero(readings[:, 0] == readings[:, 1]))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _exported_rows(records: np.ndarray):
    """Field values of each record, in CSV_COLUMNS order."""
    columns = (records[c].tolist() for c in
               ("run_index", "frame", "first_detector", "winner", "duration", "budget"))
    for k, frame, first, winner, duration, budget in zip(*columns):
        if winner == 0:
            yield k, frame, "", 0, "", "", None, None
        else:
            within = None if math.isnan(budget) else duration < budget
            yield (k, frame, first, winner, *READINGS[winner], duration, within)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_records(records: np.ndarray, path: str, fmt: str = "csv") -> None:
    """Write a record table as CSV or JSONL, one line per row.

    Floats are serialized with shortest round-trip decimals, so a reload
    recovers every value exactly.
    """
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows([_csv_cell(v) for v in row] for row in _exported_rows(records))
    elif fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for row in _exported_rows(records):
                fh.write(json.dumps(dict(zip(CSV_COLUMNS, row)), sort_keys=True))
                fh.write("\n")
    else:
        raise ValueError(f"format must be 'csv' or 'jsonl', got {fmt!r}")


def build_manifest(config: EnsembleConfig) -> dict:
    """Full provenance for one ensemble: config plus derived constants."""
    scenario = scenario_from_config(config)
    lam = scenario.params.lam
    rates = {}
    for frame in (Frame(0.0, "frame0"), *frame_pair(config.v)):
        p1, p2, _ = active_profiles(scenario, frame)
        rates[frame.label] = effective_rate(p1, p2, lam)
    cfg = asdict(config)
    return {
        "artifact_version": __version__,
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


def export_ensemble(config: EnsembleConfig, stats: EnsembleStats, records: np.ndarray,
                    out_dir: str) -> tuple[dict[str, str], dict]:
    """Write records and manifest into out_dir; returns (paths, manifest)."""
    os.makedirs(out_dir, exist_ok=True)
    ext = "csv" if config.record_format == "csv" else "jsonl"
    records_path = os.path.join(out_dir, f"records.{ext}")
    manifest_path = os.path.join(out_dir, "manifest.json")
    export_records(records, records_path, config.record_format)
    manifest = build_manifest(config)
    manifest["stats"] = {
        "n": stats.n,
        "counts": stats.counts,
        "freq": stats.freq,
        "wilson": {k: list(v) for k, v in stats.wilson.items()},
        "duration_quantiles_s": list(stats.duration_quantiles),
        "budget_violation_fraction": stats.budget_violation_fraction,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return {"records": records_path, "manifest": manifest_path}, manifest
