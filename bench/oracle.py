"""Closed-form checks of an ensemble's records.

In q the collapse is the martingale dq = 2 sqrt(Gamma) q (1 - q) dW,
absorbed at q = eps and q = 1 - eps.  Two closed forms follow:

* P(winner 1) = (q0 - eps) / (1 - 2 eps), per frame;
* E[T](q0) = [(1 - 2 eps) logit(1 - eps) - (2 q0 - 1) logit(q0)] / (2 Gamma).

Frames A and B draw from disjoint noise streams, so their winners are
independent and disagree with probability 2 p (1 - p), p = P(winner 1).
The package's own ``disagreement_rate_analytic`` and the manifest's
``analytic_disagreement`` use 2 q0 (1 - q0), which ignores eps; they are
deliberately not used here (see NOTES.md).
"""

from __future__ import annotations

import csv
import json
import math

# Two-sided band on the z-score of a count.  At 4.5 a correct engine fails
# one gate in about 150 000, so repeated benchmark runs over many seeds stay
# quiet, while a bias of a few percent in a rate still fails at 4096 runs.
Z_GATE = 4.5

FRAMES = {"born_rule": ("frame0",), "collapse_time": ("A",), "cross_frame": ("A", "B")}


def p_winner1(q0: float, eps: float) -> float:
    return (q0 - eps) / (1.0 - 2.0 * eps)


def disagreement(p: float) -> float:
    return 2.0 * p * (1.0 - p)


def _logit(x: float) -> float:
    return math.log(x) - math.log1p(-x)


def mean_time(q0: float, eps: float, gamma: float) -> float:
    """Expected time to absorption from q0 at collapse rate gamma."""
    return ((1.0 - 2.0 * eps) * _logit(1.0 - eps) - (2.0 * q0 - 1.0) * _logit(q0)) / (2.0 * gamma)


def z_score(k: int, n: int, p: float) -> float:
    return (k - n * p) / math.sqrt(n * p * (1.0 - p))


def load_records(path: str, fmt: str) -> list[dict]:
    """Records as dicts with int ``run_index`` and ``winner``, str ``frame``,
    ``reading_D1``/``reading_D2``, and float-or-None ``duration_s``."""
    with open(path, encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            rows = list(csv.DictReader(fh))
            for r in rows:
                r["run_index"] = int(r["run_index"])
                r["winner"] = int(r["winner"])
                r["duration_s"] = float(r["duration_s"]) if r["duration_s"] else None
            return rows
        return [json.loads(line) for line in fh if line.strip()]


def check(records: list[dict], manifest: dict, kind: str, runs: int, q0: float):
    """Gate an ensemble's records against the closed forms.

    Returns (gates, stats): gates maps a gate name to (passed, detail);
    stats holds the counts behind them, the failed run indices and the
    simulated/closed-form mean-time ratio.
    """
    frames = FRAMES[kind]
    eps = manifest["derived"]["epsilon"]
    rates = manifest["derived"]["collapse_rate_per_s"]
    p = p_winner1(q0, eps)
    gates: dict[str, tuple[bool, str]] = {}

    expected_keys = [(k, f) for k in range(runs) for f in sorted(frames)]
    got_keys = [(r["run_index"], r["frame"]) for r in records]
    gates["records.complete"] = (got_keys == expected_keys,
                                 f"{len(records)} records for {runs} runs x {len(frames)} frames")
    readings = {1: ("yes", "no"), 2: ("no", "yes")}
    bad = sum(1 for r in records if r["winner"] in readings
              and (r["reading_D1"], r["reading_D2"]) != readings[r["winner"]])
    gates["records.readings"] = (bad == 0, f"{bad} records whose readings contradict the winner")

    winners: dict[int, dict[str, int]] = {}
    for r in records:
        winners.setdefault(r["run_index"], {})[r["frame"]] = r["winner"]
    failed_runs = sorted(k for k, w in winners.items() if 0 in w.values())
    ok = {k: w for k, w in winners.items() if 0 not in w.values()}

    stats = {"failed_runs": failed_runs, "p_winner1": p}
    for f in frames:
        w1 = sum(1 for w in ok.values() if w[f] == 1)
        z = z_score(w1, len(ok), p)
        stats[f"winner1.{f}"] = w1
        gates[f"born.{f}"] = (abs(z) <= Z_GATE,
                              f"winner1 {w1}/{len(ok)} vs p={p:.6f}: z={z:+.2f}")
    if kind == "cross_frame":
        dis = sum(1 for w in ok.values() if w["A"] != w["B"])
        pd = disagreement(p)
        z = z_score(dis, len(ok), pd)
        stats["disagree"] = dis
        gates["disagreement"] = (abs(z) <= Z_GATE,
                                 f"disagree {dis}/{len(ok)} vs 2p(1-p)={pd:.6f}: z={z:+.2f}")
        counts = {"agree": len(ok) - dis, "disagree": dis}
    else:
        w1 = stats[f"winner1.{frames[0]}"]
        counts = {"winner1": w1, "winner2": len(ok) - w1}
    counts["failed"] = runs - len(ok)
    gates["manifest.counts"] = (manifest["stats"]["counts"] == counts,
                                f"manifest {manifest['stats']['counts']} vs records {counts}")

    simulated = sum(r["duration_s"] for r in records if r["run_index"] in ok)
    analytic = sum(mean_time(q0, eps, rates[r["frame"]]) for r in records if r["run_index"] in ok)
    stats["mean_time_ratio"] = simulated / analytic
    return gates, stats
