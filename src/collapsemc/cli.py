"""Command-line front end.

Each experiment and kinematics utility is a subcommand.  Machine-readable
summaries go to stdout as a single JSON object; human-readable tables go
to stderr under --verbose, so pipelines can consume stdout unconditionally.
Exit codes: 0 success, 2 usage or validation error, 1 runtime failure.

The four ensemble subcommands share one handler: each runs its ensemble,
writes the records and manifest, and prints the summary fields that
ENSEMBLE_COMMANDS lists for it, read from the manifest just written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import reduce
from operator import getitem

from .ensemble import (ConfigError, EnsembleConfig, contradictory_readings, export_ensemble,
                       run_ensemble)
from .relativity import (C, Event, activation_gap, boost, detection_events, gamma,
                         min_separation)

_DEFAULT_V = 0.99 * C
_DEFAULT_D = 1000.0


def _json_out(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _add_ensemble_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q0", type=float, default=None, help="initial branch-1 weight (default 0.5)")
    p.add_argument("--runs", type=int, default=None, help="number of trials (default 10000)")
    p.add_argument("--seed", type=int, default=None, help="master seed (default 1)")
    p.add_argument("--d", type=float, default=None, help="detector distance, m (default 1000)")
    p.add_argument("--v", type=float, default=None, help="frame speed, m/s (default 0.99c)")
    p.add_argument("--config", default=None, help="JSON config file; flags override it")
    p.add_argument("--out-dir", default=None, help="output directory for records and manifest")
    p.add_argument("--workers", type=int, default=None,
                   help="max parallel workers (default: all cores; results identical)")
    p.add_argument("--format", choices=("csv", "jsonl"), default=None,
                   help="records file format (default csv)")
    p.add_argument("--verbose", action="store_true", help="print a table to stderr")


def _ensemble_config(args, kind: str) -> EnsembleConfig:
    file_cfg: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        if file_cfg.get("kind", kind) != kind:
            raise ConfigError(
                f"config file kind {file_cfg['kind']!r} does not match subcommand {kind!r}")
    merged = dict(file_cfg)
    merged["kind"] = kind
    for field_name, flag_name in (("runs", "runs"), ("master_seed", "seed"),
                                  ("q0", "q0"), ("d", "d"), ("v", "v"),
                                  ("out_dir", "out_dir"), ("workers", "workers"),
                                  ("record_format", "format")):
        value = getattr(args, flag_name)
        if value is not None:
            merged[field_name] = value
    merged.setdefault("workers", os.cpu_count() or 1)
    merged.setdefault("out_dir", os.path.join("collapsemc-out", kind))
    return EnsembleConfig.from_dict(merged)


def _stats_table(stats, out=None) -> None:
    out = out if out is not None else sys.stderr
    print(f"{'class':<12} {'count':>8} {'freq':>10} {'wilson 95%':>24}", file=out)
    for cls, count in stats.counts.items():
        if cls in stats.freq:
            lo, hi = stats.wilson[cls]
            print(f"{cls:<12} {count:>8} {stats.freq[cls]:>10.6f} "
                  f"[{lo:.6f}, {hi:.6f}]", file=out)
        else:
            print(f"{cls:<12} {count:>8}", file=out)
    p10, p50, p90 = stats.duration_quantiles
    print(f"duration_s   p10={p10:.6e} p50={p50:.6e} p90={p90:.6e}", file=out)


# Summary fields printed by every ensemble subcommand: a field is a key
# path into the manifest, or a function of the records.
_COMMON_FIELDS = {"kind": ("config", "kind"), "runs": ("config", "runs"),
                  "master_seed": ("config", "master_seed"), "q0": ("config", "q0")}

# subcommand -> (experiment kind, help, its own summary fields)
ENSEMBLE_COMMANDS = {
    "born": ("born_rule", "Born-rule statistics of the joint (mirror-frame) collapse", {
        "winner1_count": ("stats", "counts", "winner1"),
        "winner1_freq": ("stats", "freq", "winner1"),
        "wilson_winner1": ("stats", "wilson", "winner1"),
        "duration_p50_s": ("stats", "duration_quantiles_s", 1),
    }),
    "collapse-time": ("collapse_time", "collapse duration quantiles at one detector", {
        "collapse_rate_per_s": ("derived", "collapse_rate_per_s", "A"),
        "duration_p10_s": ("stats", "duration_quantiles_s", 0),
        "duration_p50_s": ("stats", "duration_quantiles_s", 1),
        "duration_p90_s": ("stats", "duration_quantiles_s", 2),
        "budget_violation_fraction": ("stats", "budget_violation_fraction"),
    }),
    "disagree": ("cross_frame", "cross-frame disagreement rate", {
        "v_mps": ("config", "v"),
        "d_m": ("config", "d"),
        "disagreement_rate": ("stats", "freq", "disagree"),
        "analytic": ("derived", "analytic_disagreement"),
        "wilson_disagree": ("stats", "wilson", "disagree"),
        "delta_t_s": ("derived", "delta_t_s"),
        "budget_violation_fraction": ("stats", "budget_violation_fraction"),
    }),
    "frame0": ("frame0_consistency", "mirror-frame consistency check", {
        "contradictory_readings": contradictory_readings,
        "winner1_freq": ("stats", "freq", "winner1"),
        "wilson_winner1": ("stats", "wilson", "winner1"),
    }),
}


def cmd_ensemble(args) -> int:
    kind, _help, fields = ENSEMBLE_COMMANDS[args.command]
    config = _ensemble_config(args, kind)
    stats, records = run_ensemble(config)
    paths, manifest = export_ensemble(config, stats, records, config.out_dir)
    summary = {"records_path": paths["records"], "manifest_path": paths["manifest"]}
    for name, spec in {**_COMMON_FIELDS, **fields}.items():
        summary[name] = spec(records) if callable(spec) else reduce(getitem, spec, manifest)
    _json_out(summary)
    if args.verbose:
        _stats_table(stats)
    return 0


def cmd_frames(args) -> int:
    d, v = args.d, args.v
    e1, e2 = detection_events(d)
    g = gamma(v)
    rows = {
        "frame0": (e1.t, e2.t),
        "A": (boost(e1, v).t, boost(e2, v).t),
        "B": (boost(e1, -v).t, boost(e2, -v).t),
    }
    _json_out({
        "d_m": d,
        "v_mps": v,
        "t0_s": e1.t,
        "lorentz_gamma": g,
        "delta_t_s": activation_gap(d, v),
        "frames": {label: {"t1_s": t1, "t2_s": t2} for label, (t1, t2) in rows.items()},
    })
    if args.verbose:
        print(f"{'frame':<8} {'t(event 1) s':>16} {'t(event 2) s':>16}", file=sys.stderr)
        for label, (t1, t2) in rows.items():
            print(f"{label:<8} {t1:>16.6e} {t2:>16.6e}", file=sys.stderr)
    return 0


def cmd_transform(args) -> int:
    out = boost(Event(args.t, args.x), args.v)
    _json_out({
        "t_s": args.t,
        "x_m": args.x,
        "v_mps": args.v,
        "t_prime_s": out.t,
        "x_prime_m": out.x,
        "lorentz_gamma": gamma(args.v),
    })
    return 0


def cmd_min_distance(args) -> int:
    d = min_separation(args.tau, args.v)
    _json_out({
        "tau_s": args.tau,
        "v_mps": args.v,
        "d_m": d,
        "lorentz_gamma": gamma(args.v),
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapsemc",
        description="Two-branch collapse Monte Carlo with per-detector noise "
                    "and relativistic frame ordering.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (_kind, help_text, _fields) in ENSEMBLE_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        _add_ensemble_flags(p)
        p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("frames", help="detection times in the three frames")
    p.add_argument("--d", type=float, default=_DEFAULT_D, help="detector distance, m")
    p.add_argument("--v", type=float, default=_DEFAULT_V, help="frame speed, m/s")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_frames)

    p = sub.add_parser("transform", help="boost one event")
    p.add_argument("--t", type=float, default=_DEFAULT_D / C, help="event time, s")
    p.add_argument("--x", type=float, default=_DEFAULT_D, help="event position, m")
    p.add_argument("--v", type=float, default=_DEFAULT_V, help="boost velocity, m/s")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("min-distance", help="separation needed for a given collapse time")
    p.add_argument("--tau", type=float, default=1e-4, help="collapse time budget, s")
    p.add_argument("--v", type=float, default=_DEFAULT_V, help="frame speed, m/s")
    p.set_defaults(func=cmd_min_distance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
