"""The split-beam two-detector experiment seen from different frames.

A beam splits into branch 1 (toward detector D1 at +d) and branch 2
(toward D2 at -d).  Branch 1 leaves D1's pointer on "yes" and D2's on
"no"; branch 2 the reverse.  Each detector's pointer thus sits in
different places in the two branches, and its noise stream drives the
collapse at the rate Gamma_D = 2 lam eta^2 (see dynamics).  Both
pointers are built alike, so a scenario holds one rate for both streams.

Which detectors drive the collapse depends on the frame: its first
detector and its label follow from the sign of its v.  A frame's active
set is an ordered tuple of detector ids, its Gamma the sum of their rates:

* frame A (v > 0) sees D1 activate first, so D1's stream alone drives
  its collapse, ("D1",);
* frame B (v < 0) likewise uses only D2, ("D2",);
* frame 0 (v = 0) sees both detectors at once and runs the joint process
  on both streams, ("D1", "D2").

Because the A and B runs of the same trial consume disjoint noise
streams, their winners are independent Born draws, each picking branch 1
with probability p = (q0 - epsilon) / (1 - 2 epsilon), and the two frames
disagree with probability 2 p (1 - p).  That rate is a limit: frame A runs
on D1's noise alone for its whole collapse, which describes the
experiment only when the collapse ends before D2 activates, the gap Delta
later, so 2 p (1 - p) is the Gamma_A Delta -> infinity limit of this
idealization.  At the defaults Gamma_A Delta = 0.936, and every run of
``collapsemc disagree --runs 20000 --seed 3`` outlasts the gap: it prints
budget_violation_fraction 1.0 next to analytic 0.5.

A batch of trials in one or more frames comes back as a record table: a
numpy structured array with one row per run and frame (see
``RECORD_DTYPE``).  The
readings of the two detectors are not stored; they follow from the winner
(winner 1 reads D1 yes, D2 no; winner 2 the reverse), so a contradictory
pair cannot be recorded.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import CollapseParams, _logit, collapse_batch
from .noise import DEFAULT_NOISE, PhiloxNoiseSource, _run_indices, derive_stream_key
from .relativity import C, Frame, activation_gap, first_detector

# Scenario builders pick dt so that Gamma * dt at the largest per-frame
# rate (frame 0, both detectors) equals this, about 140 steps a run at
# q0 0.5.  With the split step and the shifted barrier of dynamics the
# mean collapse time stays within 1 % of the closed-form E[T].  Simulated
# over closed-form E[T] under 0.10.0 (five-point noise, float32 step
# kernel), seeds 1-3 x 8192 runs at q0 0.3 (standard errors 0.0025 at
# epsilon 1e-6, 0.0043 at 0.01):
#
#     Gamma*dt (frame 0)   eps 1e-6: frame 0   frame A   eps 0.01: frame 0   frame A
#     0.05                           1.0038    1.0020              1.0002    1.0043
#     0.1 (MAX_GAMMA_DT)             1.0037    1.0027              1.0090    1.0106
#
# Seeds 1-24 give 1.0068 +- 0.0015 at 0.05 and epsilon 0.01 in frame 0,
# and 1.0020 +- 0.0015 in frame A; at 0.1 they give 1.0122 +- 0.0015, the
# figure dynamics.MAX_GAMMA_DT quotes.  At epsilon 1e-6 and 0.05 they give
# 1.0026 and 1.0011 +- 0.0009.  Gaussian noise (0.9.0) gave 1.0045 and
# 1.0104 at epsilon 0.01 over the same seeds: the shifted barrier, set for
# Gaussian steps, leaves the five-point law's runs slightly longer there.
# Frame A has half the frame-0 rate, so its Gamma * dt is half the value
# in the first column.
TARGET_GAMMA_DT = 0.05

DEFAULT_ETA = 1e10
DEFAULT_LAM = 1e-16

DETECTORS = ("D1", "D2")

_OVERRIDE_KEYS = frozenset({"lam", "dt", "epsilon", "max_steps", "eta"})


@dataclass(frozen=True)
class Scenario:
    """Full experiment setup: geometry, initial weight, the collapse rate
    of each detector's noise stream (one rate, D1's and D2's) and the
    integration parameters."""

    d: float
    q0: float
    rate: float
    params: CollapseParams

    def __post_init__(self):
        if not self.d > 0:
            raise ValueError(f"d must be > 0, got {self.d}")
        if not 0.0 <= self.q0 <= 1.0:
            raise ValueError(f"q0 must be in [0, 1], got {self.q0}")
        if self.rate == 0.0:
            raise ValueError("the detector rate is 0; no collapse possible")
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"the detector rate must be finite and > 0, got {self.rate}")

    def frame_rates(self, frame: Frame) -> tuple[float, ...]:
        """The rate of each detector active in the frame, one per stream."""
        return (self.rate,) * len(active_detectors(frame))


def _positive(name: str, value) -> float:
    """A finite number > 0, or the TypeError or ValueError that names it."""
    # JSON true and false are not numbers
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value


def build_scenario(d: float = 1000.0, q0: float = 0.5,
                   overrides: dict | None = None) -> Scenario:
    """Construct the default two-detector scenario.

    Each detector's pointer fills one yes-region cell and one no-region
    cell with eta = DEFAULT_ETA, so each detector's stream collapses at
    the rate lam * 2 eta^2, with lam = DEFAULT_LAM.  Overrides may set
    lam, dt, epsilon, max_steps or eta.  If dt is not overridden it is
    derived from the frame-0 rate, both detectors', so that
    Gamma * dt = TARGET_GAMMA_DT.
    """
    overrides = dict(overrides or {})
    unknown = set(overrides) - _OVERRIDE_KEYS
    if unknown:
        raise ValueError(f"unknown override keys: {sorted(unknown)}")
    eta = _positive("eta", overrides.pop("eta", DEFAULT_ETA))
    lam = _positive("lam", overrides.pop("lam", DEFAULT_LAM))

    # a stand-in dt lets CollapseParams check the other overrides before
    # dt is derived
    params = CollapseParams(**{"dt": 1.0, **overrides})
    if "dt" not in overrides:
        # frame-0 rate: four pointer cells each differing by eta
        gamma0 = lam * 4.0 * eta * eta
        dt = TARGET_GAMMA_DT / gamma0 if gamma0 > 0 else math.inf
        try:
            params = replace(params, dt=dt)
        except ValueError as exc:
            raise ValueError(
                f"dt derived from lam = {lam!r} and eta = {eta!r} is {dt!r}, "
                f"which cannot be run ({exc}); change lam or eta, or set dt") from exc

    # lam * sum_n delta_n^2 over the detector's yes and no cells, the
    # operations and order that fix the bits of every record
    try:
        rate = lam * ((eta - 0.0) ** 2 + (0.0 - eta) ** 2)
    except OverflowError:  # eta ** 2 past the float range
        rate = math.inf
    if not math.isfinite(rate):
        raise ValueError(f"lam = {lam!r} and eta = {eta!r} give a collapse rate past "
                         f"the float range; reduce lam or eta")
    return Scenario(d=d, q0=q0, rate=rate, params=params)


def active_detectors(frame: Frame) -> tuple[str, ...]:
    """Ids of the detectors whose streams drive the collapse in the frame.

    Frames A and B keep the detector that activates first
    (relativity.first_detector, the sign of v); the mirror frame runs the
    joint process over both.
    """
    first = first_detector(frame)
    return DETECTORS if first == "simultaneous" else (first,)


# Columns of a record table, one row per (run, frame), the same for every
# frame.  A row does not name its frame: the table that holds it does, by
# the row's place (see ensemble).  winner is 1 or 2, or 0 for a run that
# hit the step cap.  within_budget is 1 where the collapse beat the frame's
# activation gap, 2 where it did not, and 0 where there is no verdict: a
# run that hit the step cap, or frame 0, which has no gap.
RECORD_DTYPE = np.dtype([("run_index", np.int64), ("winner", np.int8),
                         ("duration", np.float64), ("within_budget", np.int8)])


def run_frame_batch(scenario: Scenario, frames: tuple[Frame, ...], master_seed: int,
                    run_indices, noise: PhiloxNoiseSource = DEFAULT_NOISE):
    """Run a batch of independent trials in each of frames, by one engine
    call.

    Run k of the batch reads each active detector's stream, keyed by
    derive_stream_key(master_seed, detector), at run index k in its
    counter, so a run's noise and record do not depend on the other runs
    of the batch.  The frames must share their frame_rates, and so the
    engine's step, or ValueError is raised.  The engine takes each frame's
    stream keys and steps every (run, frame) pair, frame-major.  The run
    indices are checked as the engine checks them, so a float or a bool
    index is refused with TypeError.

    Returns (table, table[:0]): the batch's record table, whose row F i + f
    is run_indices[i] in frames[f], with F = len(frames), and an empty
    table of its dtype.  A run that hit the step cap in a frame keeps its
    row there, with winner 0 and within_budget 0.
    """
    frames = tuple(frames)
    if not frames:
        raise ValueError("a batch runs in at least one frame, got none")
    rates = scenario.frame_rates(frames[0])
    if any(scenario.frame_rates(frame) != rates for frame in frames):
        raise ValueError("the frames of one batch must share their stream rates, got "
                         f"{[scenario.frame_rates(frame) for frame in frames]}")
    runs = _run_indices(run_indices)
    n_frames, n_runs = len(frames), runs.size
    stream_keys = [[derive_stream_key(master_seed, det) for det in active_detectors(frame)]
                   for frame in frames]
    params = scenario.params
    res = collapse_batch(scenario.q0, rates, params.dt, params.epsilon, params.max_steps,
                         stream_keys, runs, noise=noise)
    winner = res.winner.reshape(n_frames, n_runs)
    duration = res.duration.reshape(n_frames, n_runs)
    within = np.zeros(winner.shape, dtype=np.int8)
    for f, frame in enumerate(frames):
        if frame.v != 0:
            gap = activation_gap(scenario.d, abs(frame.v))
            within[f] = np.where(winner[f] > 0, 2 - (duration[f] < gap), 0)
    table = np.empty(n_frames * n_runs, dtype=RECORD_DTYPE)
    table["run_index"] = np.repeat(runs, n_frames)
    table["winner"] = winner.T.ravel()
    table["duration"] = duration.T.ravel()
    table["within_budget"] = within.T.ravel()
    # bench/spans.py counts a batch's records as the sum of this pair's
    # lengths, so the empty second table stays until it reads them
    # elsewhere (ROADMAP item 5)
    return table, table[:0]


def frame_pair(v: float) -> tuple[Frame, Frame]:
    """Frames A and B: boosted by +v and by -v, for 0 < v < c."""
    if not 0 < v < C:
        raise ValueError(f"v must satisfy 0 < v < c, got {v}")
    return Frame(v), Frame(-v)


def disagreement_rate_analytic(q0: float, epsilon: float) -> float:
    """Probability that two independent frames pick different winners.

    Each frame absorbs at q = 1 - epsilon with probability
    p = (q0 - epsilon) / (1 - 2 epsilon), clipped to [0, 1] for q0 already
    past a threshold, so the rate is 2 p (1 - p), the manifest's
    analytic_disagreement.  It is the Gamma_A Delta -> infinity limit of
    the idealization in which frame A runs on D1's noise alone, not the
    rate at a finite gap Delta (see the module docstring).
    """
    if not 0.0 <= q0 <= 1.0:
        raise ValueError(f"q0 must be in [0, 1], got {q0}")
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
    p = min(max((q0 - epsilon) / (1.0 - 2.0 * epsilon), 0.0), 1.0)
    return 2.0 * p * (1.0 - p)


# below this epsilon the sine series of collapse_time_survival keeps fewer
# than about 5 digits: its terms scale with cosh(L / 2) and cancel
SURVIVAL_EPSILON_MIN = 1e-12

# the most odd terms of the sine series that collapse_time_survival sums
# for one call, about 60 ms per tau; a tau that needs more is refused
SURVIVAL_TERMS_MAX = 2**20

# (term, tau) elements of the sine series formed per matrix product
_SURVIVAL_BLOCK = 2**18


def collapse_time_survival(tau, q0: float, epsilon: float) -> np.ndarray:
    """Exact law of the collapse time: S(tau) = P(Gamma T > tau) at each
    model time tau = Gamma t >= 0, for a run from q0 absorbed at q =
    epsilon or 1 - epsilon under continuous monitoring.

    The cooked process dr = 2 tanh(r / 2) dtau + 2 dW is the Doob
    h-transform, with h = cosh(r / 2), of the driftless walk r0 + 2 W
    killed at +-L, L = logit(1 - epsilon).  The killed walk has a sine
    series, so with a_k = k pi / (2 L)

        S(tau) = 2 cosh(L / 2) / (L cosh(r0 / 2))
                 * sum_{k odd} a_k / (1/4 + a_k^2) sin(a_k (r0 + L)) e^{-(1/2 + 2 a_k^2) tau}.

    A start at or past a threshold has S = 0.  The drift moves r by at most
    2 per unit of tau, so 1 - S(tau) <= 2 erfc(a / (2 sqrt(2 tau))), with
    a = L - |r0| - 2 tau; where that is below 2^-54, S is 1.0, S(0) too,
    with no series.  Elsewhere the series runs until the prefactor times
    e^{-2 a_k^2 tau} falls below e^-40 at the least such tau, a count that
    grows as 1 / sqrt(tau): about 50 odd terms at epsilon 1e-6 and q0 0.5.
    A tau that needs more than SURVIVAL_TERMS_MAX terms, which only a start
    within about L / 10^4 of a threshold reaches, is refused.  The terms
    scale with cosh(L / 2) and cancel, so epsilon below SURVIVAL_EPSILON_MIN
    is refused.  The engine's shifted barrier matches continuous monitoring
    to first order in sqrt(dt) (see dynamics).
    """
    r0 = _logit(q0)
    if not SURVIVAL_EPSILON_MIN <= epsilon < 0.5:
        raise ValueError(
            f"epsilon must be in [{SURVIVAL_EPSILON_MIN}, 0.5), got {epsilon}")
    tau = np.asarray(tau, dtype=np.float64)
    if not (np.isfinite(tau) & (tau >= 0.0)).all():
        raise ValueError("tau must be finite and >= 0")
    big_l = math.log1p(-epsilon) - math.log(epsilon)
    # q0 = 1 - epsilon can round to an r0 an ulp inside L, so both are read
    if abs(r0) >= big_l or not epsilon < q0 < 1.0 - epsilon:
        return np.zeros(tau.shape)
    out = np.ones(tau.shape)
    with np.errstate(divide="ignore"):  # tau 0 reaches inf
        reach = (big_l - abs(r0) - 2.0 * tau) / (2.0 * np.sqrt(2.0 * tau))
    live = 2.0 * np.vectorize(math.erfc, otypes=[float])(reach) >= 2.0**-54
    t = tau[live]
    if t.size:
        scale = 2.0 * math.cosh(0.5 * big_l) / (big_l * math.cosh(0.5 * r0))
        # scale * e^{-2 a_k^2 tau} < e^-40 from this many odd terms on
        n_terms = math.ceil(2.0 * big_l / math.pi
                            * math.sqrt((math.log(scale) + 40.0) / (2.0 * float(t.min())))) + 1
        if n_terms > SURVIVAL_TERMS_MAX:
            raise ValueError(f"tau {float(t.min())!r} needs {n_terms} terms of the series, "
                             f"more than {SURVIVAL_TERMS_MAX}")
        total = np.zeros(t.size)
        block = max(1, _SURVIVAL_BLOCK // t.size)
        for lo in range(0, n_terms, block):
            a = (2 * np.arange(lo, min(lo + block, n_terms)) + 1) * (math.pi / (2.0 * big_l))
            coef = a / (0.25 + a * a) * np.sin(a * (r0 + big_l))
            total += coef @ np.exp(-np.multiply.outer(0.5 + 2.0 * a * a, t))
        out[live] = scale * total
    return out
