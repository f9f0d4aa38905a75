"""Benchmark for collapsemc: end-to-end and per-layer metrics of three
ensemble workloads, run through ``collapsemc.cli.main`` in-process.

Usage, from the repository root:

    python3 bench/run.py --workload born-long --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one ensemble runs at a time and the next
repetition starts when the previous one returns.  After one warm-up
repetition the untraced repetitions run for ``--seconds``.  With
``--trace 1`` the time is split between untraced repetitions and traced
ones, whose spans give the per-layer metrics (see spans.py).

Every repetition's records file must hash to the same SHA-256, and the
warm-up's records must pass the closed-form gates of oracle.py.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with provenance, gates and
per-repetition walls, goes to ``bench/_out/<workload>-seed<n>-trace<t>/``.
Exit status: 0 when every gate passes, 1 when one fails or the first
repetition fails, 2 when the package source is missing or the arguments
are bad.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import machine
import oracle
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SETUP_REPEATS = 9
MIN_REPS = 3


@dataclass(frozen=True)
class Workload:
    command: str
    kind: str
    q0: float
    fmt: str
    workers: int | None  # None: one per available core
    runs: int
    config: str | None = None  # JSON config file in bench/, passed as --config


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "born-long": Workload("born", "born_rule", 0.5, "csv", 1, 2048),
    "cross-short": Workload("disagree", "cross_frame", 0.8, "jsonl", 1, 2048, "cross-short.json"),
    "time-pool": Workload("collapse-time", "collapse_time", 0.5, "csv", None, 8192),
}

END_TO_END = {"runs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "noise.keys_per_s": "1/s",
    "noise.normals_per_s": "1/s",
    "noise.normals_per_run": "count",
    "noise.rows_used_ratio": "ratio",
    "dynamics.run_steps_per_s": "1/s",
    "dynamics.steps_per_run": "count",
    "dynamics.mean_time_ratio": "ratio",
    "experiment.records_per_s": "1/s",
    "ensemble.reduce_records_per_s": "1/s",
    "ensemble.export_records_per_s": "1/s",
    "ensemble.self_s": "s",
    "ensemble.parallel_speedup": "ratio",
    "cli.self_s": "s",
    "noise.self_share": "ratio",
    "dynamics.self_share": "ratio",
    "experiment.self_share": "ratio",
    "ensemble.self_share": "ratio",
    "cli.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.remainder_share": "ratio",
}


class MissingPackageError(RuntimeError):
    """The collapsemc source tree is not where the benchmark expects it."""


class WarmUpError(RuntimeError):
    """The first repetition failed, so there are no outputs to check."""


def load_package(root: Path) -> dict:
    """Import collapsemc from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "collapsemc" / "__init__.py").is_file():
        raise MissingPackageError(f"no collapsemc package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import numpy
    from collapsemc import cli, ensemble, experiment, noise
    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        raise MissingPackageError(f"collapsemc imported from {cli.__file__}, not {src}")
    return {"cli": cli, "ensemble": ensemble, "experiment": experiment, "noise": noise,
            "numpy": numpy}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Session:
    """Repetitions of one workload at one seed, and their records digests."""

    def __init__(self, pkg: dict, workload: Workload, seed: int, runs: int, out_dir: Path):
        self.pkg = pkg
        self.workload = workload
        self.seed = seed
        self.runs = runs
        self.out_dir = out_dir
        self.records_path = out_dir / f"records.{workload.fmt}"
        self.reps: list[dict] = []
        self.reference = machine.Reference()

    def argv(self, workers: int) -> list[str]:
        w = self.workload
        argv = [w.command, "--q0", repr(w.q0), "--runs", str(self.runs),
                "--seed", str(self.seed), "--workers", str(workers),
                "--format", w.fmt, "--out-dir", str(self.out_dir)]
        if w.config:
            argv += ["--config", str(BENCH_DIR / w.config)]
        return argv

    def config_fields(self, workers: int) -> dict:
        w = self.workload
        fields = {"kind": w.kind, "q0": w.q0, "runs": self.runs, "master_seed": self.seed,
                  "workers": workers, "record_format": w.fmt, "out_dir": str(self.out_dir)}
        if w.config:
            fields["config_file"] = str(BENCH_DIR / w.config)
        return fields

    def rep(self, workers: int, phase: str) -> dict:
        """One ensemble through ``cli.main``, timed around the call and
        scaled by the references timed before and after it.

        The first repetition has no reference before it, so it is not
        scaled; nothing but the program has run when it ends, which makes
        its high-water RSS the program's own.
        """
        argv = self.argv(workers)
        self.records_path.unlink(missing_ok=True)
        gc.collect()
        cli = self.pkg["cli"]
        with redirect_stdout(io.StringIO()):
            start = perf_counter()
            rc = cli.main(argv)
            wall = perf_counter() - start
        digest = (hashlib.sha256(self.records_path.read_bytes()).hexdigest()
                  if rc == 0 and self.records_path.exists() else None)
        rep = {"phase": phase, "workers": workers, "wall_s": wall, "rc": rc, "digest": digest,
               "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        ref = self.reference
        before = ref.samples[-1] if ref.samples else None
        after = ref.measure()
        rep["scaled_wall_s"] = (None if before is None
                                else machine.scaled(wall, before, after, machine.NOMINAL_S))
        self.reps.append(rep)
        return rep

    def phase(self, name: str, workers: int, budget_s: float, min_reps: int) -> list[dict]:
        """Closed loop of repetitions until the next one would overrun the budget."""
        reps, start = [], perf_counter()
        while len(reps) < min_reps or perf_counter() - start + reps[-1]["wall_s"] <= budget_s:
            reps.append(self.rep(workers, name))
        return reps


def check_outputs(session: Session) -> tuple[dict, dict]:
    """Closed-form gates on the records the latest repetition wrote."""
    w = session.workload
    with open(session.out_dir / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    records = oracle.load_records(str(session.records_path), w.fmt)
    gates, stats = oracle.check(records, manifest, w.kind, session.runs, w.q0)
    return gates, stats


def digest_gate(reps: list[dict]) -> tuple[bool, str]:
    digests = {r["digest"] for r in reps}
    bad_rc = [r["rc"] for r in reps if r["rc"] != 0]
    ok = not bad_rc and len(digests) == 1 and None not in digests
    detail = (f"{len(reps)} repetitions, workers {sorted({r['workers'] for r in reps})}, "
              f"{len(digests)} distinct digest(s)"
              + (f", exit codes {bad_rc}" if bad_rc else ""))
    return ok, detail


def peak_rss_mb(warm_up: dict, last: dict, pool_workers: int) -> float:
    """High-water RSS of this process plus its pool workers.

    This process's own is read after the warm-up, before the reference
    kernel has run.  A worker's grows with the number of chunks it runs,
    which the schedule decides, so each of ``pool_workers`` is charged the
    largest of any worker reaped by the ``last`` repetition: an upper bound
    on the tree's peak that does not depend on the schedule.
    """
    return (warm_up["maxrss_kb"] + pool_workers * last["children_maxrss_kb"]) / 1024.0


def setup_seconds(session: Session, root: Path, workers: int, repeats: int) -> list[dict]:
    """Set-up time of ``repeats`` fresh interpreters, run one after another,
    each scaled by the numpy-import reference timed before and after it."""
    probe = [str(BENCH_DIR / "probe_setup.py"), str(root / "src"),
             json.dumps(session.config_fields(workers))]
    out, before = [], machine.import_seconds()
    for _ in range(repeats):
        wall = machine.child_seconds(probe)
        after = machine.import_seconds()
        out.append({"wall_s": wall, "numpy_import_s": (before + after) / 2.0,
                    "scaled_wall_s": machine.scaled(wall, before, after,
                                                    machine.IMPORT_NOMINAL_S)})
        before = after
    return out


def provenance(root: Path, seed: int, numpy) -> dict:
    sha = dirty = None
    if (root / ".git").exists():
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30)
        if head.returncode == 0 and status.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "git_dirty": dirty, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": nproc(), "cpu_model": cpu, "seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, runs: int | None = None,
                 setup_repeats: int = SETUP_REPEATS, root: Path = ROOT,
                 out_root: Path = BENCH_DIR / "_out") -> dict:
    """Measure one workload; returns the full result (see module docstring)."""
    pkg = load_package(root)
    workload = WORKLOADS[name]
    runs = runs or workload.runs
    workers = workload.workers or nproc()
    out_dir = out_root / f"{name}-seed{seed}-trace{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    session = Session(pkg, workload, seed, runs, out_dir)

    warm_up = session.rep(workers, "warm-up")
    if warm_up["rc"] != 0:
        raise WarmUpError(f"collapsemc {' '.join(session.argv(workers))} exited {warm_up['rc']}")
    gates, stats = check_outputs(session)
    metrics: dict[str, float] = {}
    if not trace:
        untraced = session.phase("untraced", workers, seconds, MIN_REPS)
        metrics["runs_per_s"] = statistics.median(runs / r["scaled_wall_s"] for r in untraced)
        metrics["peak_rss_mb"] = peak_rss_mb(warm_up, untraced[-1], workers if workers > 1 else 0)
        setup = setup_seconds(session, root, workers, setup_repeats)
        metrics["setup_s"] = statistics.median(r["scaled_wall_s"] for r in setup)
        unscaled = {"runs_per_s": statistics.median(runs / r["wall_s"] for r in untraced),
                    "setup_s": statistics.median(r["wall_s"] for r in setup)}
    else:
        # Wrappers in this process cannot see into pool workers, so the
        # traced repetitions run with one worker; a pooled workload also
        # gets untraced one-worker repetitions to compare them with.
        shares = (0.5, 0.5) if workers == 1 else (0.35, 0.3, 0.35)
        untraced = session.phase("untraced", workers, seconds * shares[0], 2)
        single = untraced if workers == 1 else session.phase(
            "untraced-1w", 1, seconds * shares[1], 2)
        tracer = spans.Tracer()
        with spans.traced_package(tracer, pkg):
            traced = session.phase("traced", 1, seconds * shares[-1], 1)
        traced_walls = [r["wall_s"] for r in traced]
        metrics.update(spans.layer_metrics(tracer.spans, traced_walls, runs))
        metrics["dynamics.mean_time_ratio"] = stats["mean_time_ratio"]
        median_single = statistics.median(r["scaled_wall_s"] for r in single)
        metrics["ensemble.parallel_speedup"] = (
            median_single / statistics.median(r["scaled_wall_s"] for r in untraced))
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["scaled_wall_s"] for r in traced) / median_single)
        tracer.write_csv(out_dir / "spans.csv")
    gates["records.digest"] = digest_gate(session.reps)

    failed = sum(runs if r["rc"] != 0 else len(stats["failed_runs"]) for r in session.reps)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "workload": name,
        "trace": int(trace),
        "runs_per_rep": runs,
        "workers": workers,
        "provenance": provenance(root, seed, pkg["numpy"]),
        "correct": all(ok for ok, _ in gates.values()),
        "attempted": runs * len(session.reps),
        "failed": failed,
        "gates": {k: {"passed": ok, "detail": d} for k, (ok, d) in gates.items()},
        "stats": stats,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
        "reps": session.reps,
    }
    if not trace:
        result["setup"] = setup
        result["unscaled"] = unscaled
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingPackageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WarmUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = result["reps"]
    print(f"{result['workload']} seed={args.seed} trace={result['trace']} "
          f"runs/rep={result['runs_per_rep']} workers={result['workers']} reps={len(reps)}")
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    for name, value in result.get("unscaled", {}).items():
        print(f"  {name + ' (unscaled)':<32} {value:.6g} {END_TO_END[name]}")
    print(f"  {'failed_fraction':<32} {result['failed'] / result['attempted']:.6g} ratio")
    for name, gate in result["gates"].items():
        print(f"  gate {name:<27} {'pass' if gate['passed'] else 'FAIL'}  {gate['detail']}")
    print(f"  provenance {json.dumps(result['provenance'], sort_keys=True)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
