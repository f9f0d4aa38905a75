"""Stochastic two-branch collapse dynamics as one scalar SDE.

Each spatial cell n carries an occupation number eta_n(i) in branch i of
a two-branch superposition; the branches differ wherever a macroscopic
pointer sits in different places.  Over a timestep dt the raw (linear,
unnormalized) update of the log squared branch magnitudes is

    logw_i += sum_n [ 2 * eta_n(i) * dB_n  -  2 * lam * eta_n(i)^2 * dt ]

with dB_n the Brownian increment of cell n, variance lam * dt.  Under the
physical ("cooked") measure dB_n has mean 2 * lam * etabar_n * dt, where
etabar_n = eta_n(2) + q * delta_n, delta_n = eta_n(1) - eta_n(2) and q is
the branch-1 weight before the step.  Only r = logw1 - logw2 = logit(q)
matters.  In its update the decay terms give -2 lam dt sum_n (delta_n^2 +
2 delta_n eta_n(2)) and the mean of dB_n gives 4 lam dt sum_n delta_n
(eta_n(2) + q delta_n); the eta_n(2) terms cancel, and 2q - 1 = tanh(r/2):

    r += 2 * Gamma * dt * tanh(r / 2)  +  2 * sqrt(dt) * sum_s sqrt(Gamma_s) * zeta_s

Cells are grouped into detector noise streams s.  A stream's cells enter
only through sum_{n in s} 2 delta_n dB_n, a normal of variance
4 Gamma_s dt with Gamma_s = lam * sum_{n in s} delta_n^2, so each stream
gives one standard normal zeta_s per step, and Gamma = sum_s Gamma_s.
Under the raw (zero-mean) measure the drift is the constant
-2 * lam * dt * sum_n (eta_n(1)^2 - eta_n(2)^2).

The cooked measure makes q a martingale, which gives Born-rule outcome
frequencies at the absorbing thresholds q <= epsilon and q >= 1 - epsilon,
reached after a model time of order 1/Gamma.  Runs of a batch step in
lockstep on their own counter-addressed noise, with streams summed
elementwise in fixed order, so a run's arithmetic does not depend on the
batch it shares.

Absorption is checked only at step times, and a path that crosses the
nominal barrier L = logit(1 - epsilon) between two steps would be missed,
which makes runs too long.  Broadie, Glasserman and Kou (Math. Finance 7
(1997) 325) show that monitoring a discretely observed walk against the
barrier shifted inward by beta * sigma, with sigma = 2 sqrt(Gamma dt) the
per-step standard deviation of r and beta = -zeta(1/2) / sqrt(2 pi)
~= 0.5826, matches continuous monitoring of L to first order in sqrt(dt).
collapse_batch and run_trajectory therefore absorb at
|r| >= L - beta * sigma, in both measures.
"""

from __future__ import annotations

import csv
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .noise import BLOCK_STEPS, DEFAULT_NOISE, PhiloxNoiseSource

# Hard ceiling on Gamma * dt; runs refuse to start above it.  Scenario
# builders aim lower (see experiment.TARGET_GAMMA_DT): even with the
# Broadie-Glasserman-Kou barrier shift, the frozen-drift Euler step and
# the overshoot past the barrier leave a mean collapse time about 2.4 %
# long at this ceiling (frame 0, epsilon 0.01), against under 1 % at the
# target.
MAX_GAMMA_DT = 0.05

# Broadie-Glasserman-Kou constant -zeta(1/2) / sqrt(2 pi): the absorbing
# barrier sits this many per-step standard deviations of r inside the
# nominal threshold.
BARRIER_BETA = 0.5825971579390107


class InvalidProfileError(ValueError):
    """Occupation profile violates its invariants."""


class IncompleteNoiseError(ValueError):
    """The stream layout does not cover exactly the cells of the union."""


class NoCollapsePossibleError(ValueError):
    """Branch profiles are identical (Gamma = 0), so q never moves."""


def stable_q(r):
    """Branch-1 weight sigma(r) = 1 / (1 + exp(-r)), overflow-safe.

    Accepts scalars or arrays; stable for any |r| because only exp of a
    non-positive number is ever taken.
    """
    r = np.asarray(r, dtype=np.float64)
    e = np.exp(-np.abs(r))
    q = np.where(r >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return q if q.ndim else float(q)


def _logit(q: float) -> float:
    """Log-odds r = log q - log(1 - q) of a start weight, +-inf at 1 and 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q0 must be in [0, 1], got {q}")
    if q == 0.0:
        return -math.inf
    if q == 1.0:
        return math.inf
    return math.log(q) - math.log1p(-q)


@dataclass(frozen=True)
class OccupationProfile:
    """Per-cell occupation numbers eta_n for one branch.

    Cells are an ordered tuple of (cell_id, eta) pairs.  Two profiles are
    compared on the union of their cell ids; a cell absent from a profile
    reads as eta = 0.
    """

    cells: tuple[tuple[str, float], ...]

    def __post_init__(self):
        seen = set()
        for cid, eta in self.cells:
            if cid in seen:
                raise InvalidProfileError(f"duplicate cell id {cid!r}")
            seen.add(cid)
            if not math.isfinite(eta) or eta < 0:
                raise InvalidProfileError(f"cell {cid!r} has invalid eta {eta!r}")

    @classmethod
    def from_dict(cls, occupations: Mapping[str, float]) -> "OccupationProfile":
        return cls(tuple((cid, float(eta)) for cid, eta in occupations.items()))

    @property
    def cell_ids(self) -> tuple[str, ...]:
        return tuple(cid for cid, _ in self.cells)

    def eta(self, cell_id: str) -> float:
        for cid, eta in self.cells:
            if cid == cell_id:
                return eta
        return 0.0


def union_cells(profile1: OccupationProfile, profile2: OccupationProfile) -> tuple[str, ...]:
    """Cell ids of the union, profile1's order first then profile2's extras."""
    out = list(profile1.cell_ids)
    seen = set(out)
    for cid in profile2.cell_ids:
        if cid not in seen:
            out.append(cid)
            seen.add(cid)
    return tuple(out)


@dataclass(frozen=True)
class CollapseParams:
    """Integration and absorption parameters."""

    dt: float
    lam: float = 1e-16
    epsilon: float = 1e-6
    max_steps: int = 1_000_000

    def __post_init__(self):
        for name in ("dt", "lam", "epsilon"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise TypeError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not isinstance(self.max_steps, numbers.Integral):
            raise TypeError(f"max_steps must be an integer, got {self.max_steps!r}")
        if not self.lam > 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not 0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")

    @property
    def log_threshold(self) -> float:
        """Nominal absorption threshold logit(1 - epsilon) on r = logit(q).

        The engine absorbs at a barrier shifted inward from this by the
        Broadie-Glasserman-Kou correction for discrete monitoring.
        """
        return math.log1p(-self.epsilon) - math.log(self.epsilon)


def effective_rate(profile1: OccupationProfile, profile2: OccupationProfile,
                   lam: float) -> float:
    """Branch-distinguishing rate Gamma = lam * sum_n (delta eta_n)^2."""
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    total = 0.0
    for cid in union_cells(profile1, profile2):
        d = profile1.eta(cid) - profile2.eta(cid)
        total += d * d
    return lam * total


@dataclass(frozen=True)
class StreamLayout:
    """Assignment of the cell union to noise streams.

    Every run of a batch shares the layout and supplies one stream key per
    stream, in layout order.  The cells only set each stream's rate
    Gamma_s; the engine draws one normal per stream per step.
    """

    stream_cells: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        flat = [c for cells in self.stream_cells for c in cells]
        if len(flat) != len(set(flat)):
            raise ValueError("cell assigned to more than one stream")

    @property
    def cells(self) -> tuple[str, ...]:
        return tuple(c for cells in self.stream_cells for c in cells)

    def check_covers(self, profile1: OccupationProfile, profile2: OccupationProfile):
        need = set(union_cells(profile1, profile2))
        have = set(self.cells)
        if have != need:
            missing = sorted(need - have)
            extra = sorted(have - need)
            raise IncompleteNoiseError(
                f"stream layout does not match cell union (missing {missing}, extra {extra})")


@dataclass
class BatchResult:
    """Per-run outcomes of a batch collapse.

    winner is 1 or 2, or 0 for runs that hit the step cap without
    absorbing.  duration is steps * dt.  r is the final log-odds (at the
    absorbing step), usable to continue a trajectory past absorption.
    """

    winner: np.ndarray
    steps: np.ndarray
    duration: np.ndarray
    r: np.ndarray

    @property
    def q(self) -> np.ndarray:
        return stable_q(self.r)


@dataclass
class EvolveResult:
    """Final state of a fixed-step batch evolution (no absorption)."""

    r: np.ndarray
    r_min: np.ndarray | None = None
    r_max: np.ndarray | None = None

    @property
    def q(self) -> np.ndarray:
        return stable_q(self.r)


def _prepare(profile1, profile2, params, layout, stream_keys, measure):
    """Validate one engine call and reduce it to the scalar SDE.

    Returns (gamma, sig, drift, keys): the total rate, the noise scale
    2 sqrt(Gamma_s dt) of each stream, the drift as a function of r, and
    the per-run stream keys.
    """
    if measure not in ("cooked", "raw"):
        raise ValueError(f"measure must be 'cooked' or 'raw', got {measure!r}")
    layout.check_covers(profile1, profile2)
    rates = [params.lam * sum((profile1.eta(c) - profile2.eta(c)) ** 2 for c in cells)
             for cells in layout.stream_cells]
    gamma = sum(rates)
    if gamma * params.dt > MAX_GAMMA_DT:
        raise ValueError(
            f"Gamma*dt = {gamma * params.dt:.3g} exceeds {MAX_GAMMA_DT}; reduce dt")
    keys = [tuple(k) for k in stream_keys]
    for k in keys:
        if len(k) != len(rates):
            raise ValueError(f"expected {len(rates)} stream keys per run, got {len(k)}")
    sig = [2.0 * math.sqrt(rate * params.dt) for rate in rates]
    if measure == "cooked":
        gain = 2.0 * gamma * params.dt

        def drift(r):
            return gain * np.tanh(0.5 * r)
    else:
        shift = -2.0 * params.lam * params.dt * sum(
            profile1.eta(c) ** 2 - profile2.eta(c) ** 2 for c in layout.cells)

        def drift(r):
            return shift
    return gamma, sig, drift, keys


def _barrier(params: CollapseParams, sig) -> float:
    """Absorbing barrier on |r|: the nominal threshold less beta times the
    per-step standard deviation sqrt(sum_s sig_s^2) of r."""
    thr = params.log_threshold - BARRIER_BETA * math.sqrt(sum(s * s for s in sig))
    if not thr > 0:
        raise ValueError(
            f"epsilon = {params.epsilon} is too wide for this step: the shifted "
            f"barrier falls to {thr:.3g}; reduce dt")
    return thr


def _window_noise(noise, keys, sig, block_index, rows):
    """Noise increments sum_s sig_s * zeta_s of one window, shape (rows, runs).

    The streams are summed elementwise in layout order rather than by a
    matrix product, whose reduction order may depend on the batch shape.
    """
    dw = np.zeros((rows, len(keys)))
    zeta = np.empty_like(dw)
    for s, scale in enumerate(sig):
        for j, run_keys in enumerate(keys):
            zeta[:, j] = noise.block_normals(run_keys[s], block_index, rows=rows)
        zeta *= scale
        dw += zeta
    return dw


def _drive(r, keys, sig, drift, n_steps, noise, thr=None, record=None):
    """Advance each run's r (one start value and one key tuple per run) by
    up to n_steps steps, one noise window at a time.

    With thr, a run stops at the first step k >= 0 with |r| >= thr and keeps
    that r, winner 1 if r >= thr else 2; runs live after n_steps keep winner
    0.  record(k, x), if given, sees the live runs' r after each step k >= 1.
    Absorbed runs leave the live set at the end of their window, which ends
    early once all its runs are done.  Returns (r, steps, winner).
    """
    r = np.array(r, dtype=np.float64)
    winner = np.zeros(r.size, dtype=np.int8)
    if thr is not None:
        winner[r >= thr] = 1
        winner[r <= -thr] = 2
    steps = np.where(winner > 0, 0, n_steps)
    live = np.flatnonzero(winner == 0)
    base = 0
    while live.size and base < n_steps:
        rows = min(BLOCK_STEPS, n_steps - base)
        dw = _window_noise(noise, [keys[i] for i in live], sig, base // BLOCK_STEPS, rows)
        x = r[live]
        done = np.zeros(live.size, dtype=bool)
        for t in range(rows):
            x = x + drift(x) + dw[t]
            if record is not None:
                record(base + t + 1, x)
            if thr is None:
                continue
            newly = ~done & (np.abs(x) >= thr)
            if newly.any():
                hit = live[newly]
                r[hit] = x[newly]
                steps[hit] = base + t + 1
                winner[hit] = np.where(x[newly] >= thr, 1, 2)
                done |= newly
                if done.all():
                    break
        r[live[~done]] = x[~done]
        live = live[~done]
        base += rows
    return r, steps, winner


def collapse_batch(q0: float, profile1: OccupationProfile, profile2: OccupationProfile,
                   params: CollapseParams, layout: StreamLayout, stream_keys,
                   noise: PhiloxNoiseSource = DEFAULT_NOISE,
                   measure: str = "cooked") -> BatchResult:
    """Run a batch of trajectories to absorption.

    stream_keys is a sequence (one entry per run) of per-stream key
    tuples matching the layout.  Runs evolve in lockstep but consume only
    their own streams, so results per run do not depend on batch
    composition or execution schedule.
    """
    r0 = _logit(q0)
    gamma, sig, drift, keys = _prepare(profile1, profile2, params, layout, stream_keys,
                                       measure)
    if gamma == 0.0:
        raise NoCollapsePossibleError("profiles are identical on their union; Gamma = 0")
    r, steps, winner = _drive(np.full(len(keys), r0), keys, sig, drift, params.max_steps,
                              noise, thr=_barrier(params, sig))
    return BatchResult(winner, steps, steps * params.dt, r)


def evolve_batch(start, profile1: OccupationProfile, profile2: OccupationProfile,
                 params: CollapseParams, layout: StreamLayout, stream_keys,
                 n_steps: int, noise: PhiloxNoiseSource = DEFAULT_NOISE,
                 measure: str = "cooked", track_range: bool = False) -> EvolveResult:
    """Evolve a batch for a fixed number of steps with no absorption.

    start is either a scalar q0 shared by all runs or an array giving each
    run its own initial log-odds r.  With track_range the result carries
    the running min and max of r, which is how threshold crossings during
    a continuation are detected.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    _gamma, sig, drift, keys = _prepare(profile1, profile2, params, layout, stream_keys,
                                        measure)
    n = len(keys)
    if np.ndim(start) == 0:
        r = np.full(n, _logit(float(start)))
    else:
        r = np.array(start, dtype=np.float64)
        if r.shape != (n,):
            raise ValueError("start array must have one entry per run")
    r_min = r_max = record = None
    if track_range:
        r_min, r_max = r.copy(), r.copy()

        def record(_k, x):
            np.minimum(r_min, x, out=r_min)
            np.maximum(r_max, x, out=r_max)

    r, _, _ = _drive(r, keys, sig, drift, n_steps, noise, record=record)
    return EvolveResult(r, r_min, r_max)


def run_trajectory(q0: float, profile1: OccupationProfile, profile2: OccupationProfile,
                   params: CollapseParams, layout: StreamLayout, stream_keys,
                   noise: PhiloxNoiseSource = DEFAULT_NOISE,
                   measure: str = "cooked", max_rows: int | None = None) -> list[tuple]:
    """Integrate one trajectory, recording (step, t_model_s, q, r).

    stream_keys is the run's key tuple, one key per stream of the layout.
    Row 0 is the initial state; one row follows per step until absorption
    or max_rows (default params.max_steps) steps.
    """
    r0 = _logit(q0)
    gamma, sig, drift, keys = _prepare(profile1, profile2, params, layout, [stream_keys],
                                       measure)
    if gamma == 0.0:
        raise NoCollapsePossibleError("profiles are identical on their union; Gamma = 0")
    rows = [(0, 0.0, stable_q(r0), r0)]

    def record(k, x):
        r = float(x[0])
        rows.append((k, k * params.dt, stable_q(r), r))

    cap = params.max_steps if max_rows is None else min(max_rows, params.max_steps)
    _drive(np.array([r0]), keys, sig, drift, cap, noise, thr=_barrier(params, sig),
           record=record)
    return rows


def write_trajectory_csv(path, rows: list[tuple]) -> None:
    """Dump trajectory rows as CSV (step, t_model_s, q, r)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "t_model_s", "q", "r"])
        for row in rows:
            w.writerow([row[0], repr(row[1]), repr(row[2]), repr(row[3])])
