"""Command-line front end.

Each experiment and kinematics utility is a subcommand.  Machine-readable
summaries go to stdout as a single JSON object; human-readable tables go
to stderr under --verbose, so pipelines can consume stdout unconditionally.
Exit codes: 0 success, 2 usage or validation error, 1 runtime failure.

The three ensemble subcommands share one handler: each runs its ensemble,
writes the records and manifest, and prints the summary fields that
ENSEMBLE_COMMANDS lists for it, read from the manifest just written.  The
summary and the --verbose table both read the manifest's stats block.
Each ensemble flag is stored under its EnsembleConfig field, and only when
given, so the config is the config file's fields updated by the flags.

disagree prints as ``analytic`` the manifest's analytic_disagreement,
2 p (1 - p): the Gamma_A Delta -> infinity limit of the idealization in
which frame A runs on D1's noise alone, not a prediction at the given d
and v.  At the defaults Gamma_A Delta = 0.936, and the
budget_violation_fraction printed beside it is 1.0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial, reduce
from operator import getitem

from .ensemble import ConfigError, EnsembleConfig, export_ensemble, run_ensemble, usable_cpus
from .experiment import frame_pair
from .relativity import (C, Event, Frame, activation_gap, boost, detection_events, gamma,
                         min_separation)

# every default the flags show or use is EnsembleConfig's
_DEFAULTS = {name: f.default for name, f in EnsembleConfig.__dataclass_fields__.items()}


def _json_out(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))


def _add_ensemble_flags(p: argparse.ArgumentParser) -> None:
    # a flag is stored under its EnsembleConfig field, and only when given
    flag = partial(p.add_argument, default=argparse.SUPPRESS)
    flag("--q0", type=float, help=f"initial branch-1 weight (default {_DEFAULTS['q0']:g})")
    flag("--runs", type=int, help=f"number of trials (default {_DEFAULTS['runs']})")
    flag("--seed", type=int, dest="master_seed", metavar="SEED",
         help=f"master seed (default {_DEFAULTS['master_seed']})")
    flag("--d", type=float, help=f"detector distance, m (default {_DEFAULTS['d']:g})")
    flag("--v", type=float, help=f"frame speed, m/s (default {_DEFAULTS['v'] / C:g}c)")
    p.add_argument("--config", default=None, help="JSON config file; flags override it")
    flag("--out-dir", help="output directory for records and manifest")
    flag("--workers", type=int, help="max parallel workers, this process counted as one "
                                     "(default: the CPUs this process may run on; results "
                                     "identical)")
    flag("--format", choices=("csv", "jsonl"), dest="record_format",
         help=f"records file format (default {_DEFAULTS['record_format']})")
    p.add_argument("--verbose", action="store_true", help="print a table to stderr")


def _ensemble_config(args, kind: str) -> EnsembleConfig:
    file_cfg: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        if file_cfg.get("kind", kind) != kind:
            raise ConfigError(
                f"config file kind {file_cfg['kind']!r} does not match subcommand {kind!r}")
    flags = {name: value for name, value in vars(args).items() if name in _DEFAULTS}
    merged = {**file_cfg, **flags, "kind": kind}
    merged.setdefault("workers", usable_cpus())
    # a null out_dir in the file is no out_dir
    if merged.get("out_dir") is None:
        merged["out_dir"] = os.path.join("collapsemc-out", kind)
    return EnsembleConfig.from_dict(merged)


def _stats_table(stats: dict) -> None:
    print(f"{'class':<12} {'count':>8} {'freq':>10} {'wilson 95%':>24}", file=sys.stderr)
    for cls, count in stats["counts"].items():
        if cls in stats["freq"]:
            lo, hi = stats["wilson"][cls]
            print(f"{cls:<12} {count:>8} {stats['freq'][cls]:>10.6f} "
                  f"[{lo:.6f}, {hi:.6f}]", file=sys.stderr)
        else:
            print(f"{cls:<12} {count:>8}", file=sys.stderr)
    p10, p50, p90 = stats["duration_quantiles_s"]
    print(f"duration_s   p10={p10:.6e} p50={p50:.6e} p90={p90:.6e}", file=sys.stderr)


# Summary fields printed by every ensemble subcommand: a field is a key
# path into the manifest.
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
}


def cmd_ensemble(args) -> int:
    kind, _help, fields = ENSEMBLE_COMMANDS[args.command]
    config = _ensemble_config(args, kind)
    # an unusable out_dir fails before the runs, not after them
    os.makedirs(config.out_dir, exist_ok=True)
    stats, records = run_ensemble(config)
    paths, manifest = export_ensemble(config, stats, records, config.out_dir)
    summary = {"records_path": paths["records"], "manifest_path": paths["manifest"]}
    for name, path in {**_COMMON_FIELDS, **fields}.items():
        summary[name] = reduce(getitem, path, manifest)
    _json_out(summary)
    if args.verbose:
        _stats_table(stats)
    return 0


def cmd_frames(args) -> int:
    d, v = args.d, args.v
    e1, e2 = detection_events(d)
    g = gamma(v)
    rows = {frame.label: (boost(e1, frame.v).t, boost(e2, frame.v).t)
            for frame in (Frame(0.0), *frame_pair(v))}
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


# built on first use, not at import, and shared by every later main call:
# a parse reads the parser without changing it, and the ensemble flags
# default to nothing, so no call's flags reach the next
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapsemc",
        description="Two-branch collapse Monte Carlo with per-detector noise "
                    "and relativistic frame ordering.",
        epilog="exit codes: 0 success, 2 usage or validation error, 1 runtime failure")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (_kind, help_text, _fields) in ENSEMBLE_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        _add_ensemble_flags(p)
        p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("frames", help="detection times in the three frames")
    p.add_argument("--d", type=float, default=_DEFAULTS["d"], help="detector distance, m")
    p.add_argument("--v", type=float, default=_DEFAULTS["v"], help="frame speed, m/s")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_frames)

    p = sub.add_parser("transform", help="boost one event")
    p.add_argument("--t", type=float, default=_DEFAULTS["d"] / C, help="event time, s")
    p.add_argument("--x", type=float, default=_DEFAULTS["d"], help="event position, m")
    p.add_argument("--v", type=float, default=_DEFAULTS["v"], help="boost velocity, m/s")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("min-distance", help="separation needed for a given collapse time")
    p.add_argument("--tau", type=float, default=1e-4, help="collapse time budget, s")
    p.add_argument("--v", type=float, default=_DEFAULTS["v"], help="frame speed, m/s")
    p.set_defaults(func=cmd_min_distance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
