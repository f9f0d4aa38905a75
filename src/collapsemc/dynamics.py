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

    dr = 2 * Gamma * tanh(r / 2) * dt  +  2 * sum_s sqrt(Gamma_s) * dW_s

Cells are grouped into detector noise streams s.  A stream's cells enter
only through sum_{n in s} 2 delta_n dB_n, a normal of variance
4 Gamma_s dt with Gamma_s = lam * sum_{n in s} delta_n^2, so each stream
gives one standard normal zeta_s = dW_s / sqrt(dt) per step, and
Gamma = sum_s Gamma_s.  The engine therefore takes one rate Gamma_s per
stream and nothing of the cells.  In the two-detector experiment each
detector's pointer fills one cell in its yes position and one in its no
position, both at eta, so the scenario supplies Gamma_D = 2 lam eta^2 per
detector, and a frame's Gamma is the sum over its active detectors.
Under the raw (zero-mean) measure r would hit the thresholds with the
gambler's-ruin odds of a linear walk, not by the Born rule, so the engine
runs the cooked measure only.

The cooked measure makes q a martingale, which gives Born-rule outcome
frequencies at the absorbing thresholds q <= epsilon and q >= 1 - epsilon,
reached after a model time of order 1/Gamma.  Runs of a batch step in
lockstep on their own counter-addressed noise, with streams summed
elementwise in fixed order, so a run's arithmetic does not depend on the
batch it shares.

The step is a Strang split.  With h = Gamma * dt the cooked drift alone,
dr = 2 tanh(r / 2) dtau over tau = Gamma t, has the exact flow

    phi_tau(r) = 2 asinh(sinh(r / 2) e^tau)

(sinh(r / 2) grows as e^tau).  A step puts half a step of this flow on
either side of the additive noise:

    r_{k+1} = phi_{h/2}(phi_{h/2}(r_k) + sum_s sig_s zeta_s),  sig_s = 2 sqrt(Gamma_s dt).

The noise zeta_s is not Gaussian: each step of a stream draws a level
index of the five-point law of ``noise``, whose moments match the
standard normal's for every order up to 5.  Every statistic the package
reports is a weak one, so the law may stand in for the normal (see
``noise``).  A step's noise dw = sum_s sig_s zeta_s then takes one of at
most 256 values, one per byte of the two streams' 4-bit indices (a frame
has one or two streams).  So an engine call works out every value once,
each product and the sum in float64, and rounds it once to float32 into
a table of 256 entries for two streams, 16 for one.  A window's level
indices are drawn once for its live runs, one ``block_normals`` call per
stream per frame, and its noise is gathered from that table one slab of
rows at a time, with no transcendental, product or sum per element.  The
kernel steps in float32 end to end, and the carried state is float32
too.  It is a log-odds with |r| of about 14 at epsilon 1e-6, each step adds noise
of standard deviation about 0.2-0.3, and the split step's
discretization error at Gamma * dt 0.05 lies orders of magnitude
above a float32 rounding.  A step rounds three times in float32: sinh
(measured within 1.4 ulp with numpy 2.4's AVX512_SPR loops), the product
by e^h (0.5 ulp) and asinh (0.9 ulp), under 4 ulps of 2**-23 relative in
all.  The drift flow does not enlarge a relative error (its elasticity
w phi'(w) / phi(w) is at most 1), so over n steps r drifts from the
exact arithmetic by at most about n * 2**-21 relative.  The conversions
at window edges stay in float64: r = phi_{h/2}(z) widens z before its
sinh, and a window's first w is worked out from r in float64 and rounded
once to float32, so a run restarted from its r at a window edge steps on
with the same bits.

The engine carries w = y / 2, half of y = phi_{h/2}(r), and its table
gives the noise at half scale, dw / 2 = sum_s (sig_s / 2) zeta_s.  Since
phi_h(z) / 2 = asinh(sinh(z / 2) e^h), a step is four in-place float32
ufuncs on the live runs: zh = w + dw / 2, written over the slab's
noise row, then w = sinh(zh), w *= e^h and w = asinh(w).  This gives the
bits of the plain float32 step z = y + dw, y <- phi_h(z), with dw the
float64 sum rounded to float32.  Scaling by 2 is exact in binary
floating point away from subnormals and overflow.  So the float64
half-scale sum is exactly half the full-scale one, and rounded to
float32 it is exactly half of dw.  Then fl(w + dw / 2) = fl(y + dw) / 2,
each zh is exactly z / 2, and phi_h(z) = 2 asinh(sinh(zh) e^h) doubles
the bits of the half-scale w.  A nonzero entry is at least 0.46 sig_s for
one stream, and a nonzero float64 sum of two products at least about
2**-53 times the smaller product; so the entries stay clear of float32's
subnormals while every sqrt(Gamma_s dt) is above about 1e-22, far below
any step a run could finish at.

float32 sinh overflows past about 89.4, which bounds the barrier a
float32 state can carry.  A run that has not hit the barrier has
|zh| < z_hi / 2 < L / 2 with L = logit(1 - epsilon), and its step forms
sinh(zh) e^h < e^{|zh| + h} / 2.  That stays below FLT_MAX / 2 whenever
L / 2 + MAX_GAMMA_DT <= ln FLT_MAX, that is L <= 2 (ln FLT_MAX -
MAX_GAMMA_DT) ~= 177.25, and the factor 2 of headroom covers the float32
rounding of sinh, of e^h and of the product.  CollapseParams therefore
refuses epsilon below EPSILON_MIN = exp(-177.25) ~= 1.05e-77.  A run
that has hit the barrier keeps stepping to the end of its slab, since
the slab is stepped whole, and may overflow to +-inf there; its hit row
is already taken, so the kernel ignores float32 overflow.

The barrier is tested on the stored zh rows once per slab of SLAB_ROWS
steps, against z_hi / 2 worked out in float64 and rounded up to float32:
a float32 zh reaches the rounded-up value exactly when it reaches z_hi /
2, and |zh| >= z_hi / 2 holds exactly when |z| >= z_hi.  A run's first
hit row in the slab gives its step, its winner and its r = phi_{h/2}(z)
= 2 asinh(sinh(zh) e^{h/2}), with zh widened to float64, and the run
leaves the live set at the slab's end, so no later slab gathers or steps
it; r is worked out only for runs that absorb and at window ends.  The
split step leaves no error in the drift when the noise is off, where an
Euler step with the tanh frozen over the step errs at first order; at
Gamma * dt 0.05 the split step's mean collapse time is about as close to
the closed form as an Euler step's at 0.02.

Absorption is checked only at step times, and a path that crosses the
nominal barrier L = logit(1 - epsilon) between two steps would be missed,
which makes runs too long.  Broadie, Glasserman and Kou (Math. Finance 7
(1997) 325) show that monitoring a discretely observed walk against the
barrier shifted inward by beta * sigma, with sigma = 2 sqrt(Gamma dt) the
per-step standard deviation of r and beta = -zeta(1/2) / sqrt(2 pi)
~= 0.5826, matches continuous monitoring of L to first order in sqrt(dt).
collapse_batch therefore absorbs at |r| >= B = L - beta * sigma.  The
driver tests z instead: phi_{h/2} is increasing and odd, so |r| >= B
exactly when |z| >= z_hi = phi_{-h/2}(B).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .noise import BLOCK_STEPS, DEFAULT_NOISE, LEVELS, PhiloxNoiseSource, _run_indices

# Hard ceiling on Gamma * dt; runs refuse to start above it.  Scenario
# builders aim at half of it (see experiment.TARGET_GAMMA_DT), so rounding
# in a derived dt cannot trip it.  At this ceiling the overshoot past the
# barrier leaves the mean collapse time of the split step about 1 % long,
# against about 0.7 % at the target (frame 0, epsilon 0.01, q0 0.3:
# 1.0122 and 1.0068 times E[T], +- 0.0015, over 24 x 8192 runs).
MAX_GAMMA_DT = 0.1

# Least epsilon a float32 state can carry: its nominal threshold L =
# logit(1 - epsilon) is at most 2 (ln FLT_MAX - MAX_GAMMA_DT) ~= 177.25,
# so that no live run's sinh(zh) e^h reaches FLT_MAX / 2 (see the module
# docstring).  About 1.05e-77.
EPSILON_MIN = math.exp(-2.0 * (math.log(float(np.finfo(np.float32).max)) - MAX_GAMMA_DT))

# Broadie-Glasserman-Kou constant -zeta(1/2) / sqrt(2 pi): the absorbing
# barrier sits this many per-step standard deviations of r inside the
# nominal threshold.  The constant is derived for Gaussian steps; it is
# measured to suffice for the five-point law at epsilon 1e-6.  There the
# lattice KS sqrt(N) D of the step counts against
# experiment.collapse_time_survival read 0.37-1.61 (mean 0.89) over seeds
# 1-8 and 123, 16384 runs each, frame 0 and A at q0 0.5 and 0.8, under
# the 1 % point 1.63.  At epsilon 0.01 the same grid read up to 1.85 (mean
# 1.11, 2 of 36 past 1.63): the discrete barrier's bias, which testing
# for a crossing between steps would remove.
BARRIER_BETA = 0.5825971579390107

# Steps per slab: the kernel gathers this many rows of a window's noise
# for the live runs, steps them, tests them against the barrier in one
# pass and drops the runs that absorbed.  Against 32, 16 ran 2048-run
# chunks 10 % slower and 64 12-18 % slower in paired runs (numpy 2.4 on a
# shared 2-CPU x86-64 VM).
SLAB_ROWS = 32


class NoCollapsePossibleError(ValueError):
    """Every stream's rate is zero (Gamma = 0), so q never moves."""


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
class CollapseParams:
    """Integration and absorption parameters."""

    dt: float
    epsilon: float = 1e-6
    max_steps: int = 1_000_000

    def __post_init__(self):
        for name, kind in (("dt", numbers.Real), ("epsilon", numbers.Real),
                           ("max_steps", numbers.Integral)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                noun = "an integer" if kind is numbers.Integral else "a number"
                raise TypeError(f"{name} must be {noun}, got {value!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not 0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        if self.epsilon < EPSILON_MIN:
            raise ValueError(
                f"epsilon = {self.epsilon} puts the barrier past what a float32 state "
                f"carries; epsilon must be >= {EPSILON_MIN:.4g}")
        # step counts are int64
        if not 1 <= self.max_steps <= 2**63 - 1:
            raise ValueError(f"max_steps must be in [1, 2**63 - 1], got {self.max_steps}")
        if not math.isfinite(self.dt * self.max_steps):
            raise ValueError(
                f"dt * max_steps overflows: dt = {self.dt}, max_steps = {self.max_steps}")

    @property
    def log_threshold(self) -> float:
        """Nominal absorption threshold logit(1 - epsilon) on r = logit(q).

        The engine absorbs at a barrier shifted inward from this by the
        Broadie-Glasserman-Kou correction for discrete monitoring.
        """
        return math.log1p(-self.epsilon) - math.log(self.epsilon)


@dataclass
class BatchResult:
    """Per-run outcomes of a batch collapse.

    winner is 1 or 2, or 0 for runs that hit the step cap without
    absorbing.  duration is steps * dt.  r is the final log-odds, float64
    of float32 precision: at the absorbing step, or after the last step
    for a run that hit the cap.
    """

    winner: np.ndarray
    steps: np.ndarray
    duration: np.ndarray
    r: np.ndarray


def _step(rates, dt, epsilon, max_steps):
    """Validate the rates and the step of one engine call and reduce them
    to the scalar SDE.

    dt, epsilon and max_steps are checked as CollapseParams.  No stream
    and more than two streams are refused with ValueError, and a rate that
    is a bool or not a real number with TypeError.  Returns
    (sig, h, thr): the noise scale 2 sqrt(Gamma_s dt) of each stream, the
    drift time h = Gamma * dt of one step and the absorbing barrier on
    |r|.  The barrier is the nominal threshold less beta times the
    per-step standard deviation sqrt(sum_s sig_s^2) of r.
    """
    params = CollapseParams(dt=dt, epsilon=epsilon, max_steps=max_steps)
    # a step's level indices, 4 bits a stream, index a table by one byte
    if not rates:
        raise ValueError("at least one noise stream, got no stream rates")
    if len(rates) > 2:
        raise ValueError(f"at most two noise streams, got {len(rates)} stream rates")
    for rate in rates:
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real):
            raise TypeError(f"stream rates must be numbers, got {rate!r}")
        if not (math.isfinite(rate) and rate >= 0):
            raise ValueError(f"stream rates must be finite and >= 0, got {rate}")
    gamma = sum(rates)
    if gamma * params.dt > MAX_GAMMA_DT:
        raise ValueError(
            f"Gamma*dt = {gamma * params.dt:.3g} exceeds {MAX_GAMMA_DT}; reduce dt")
    if gamma == 0.0:
        raise NoCollapsePossibleError("every stream rate is 0; Gamma = 0")
    sig = [2.0 * math.sqrt(rate * params.dt) for rate in rates]
    thr = params.log_threshold - BARRIER_BETA * math.sqrt(sum(s * s for s in sig))
    if not thr > 0:
        raise ValueError(
            f"epsilon = {params.epsilon} is too wide for this step: the shifted "
            f"barrier falls to {thr:.3g}; reduce dt")
    return sig, gamma * params.dt, thr


def _prepare(rates, dt, epsilon, max_steps, stream_keys, runs):
    """Validate one engine call and reduce it to _drive's (keys, runs, sig,
    h, thr): each frame's stream keys as a tuple of (k0, k1) int pairs, the
    run indices as a uint64 array, and _step's sig, h and thr.

    stream_keys holds, for each frame, derive_stream_key's (k0, k1) of each
    stream in rate order, every word an integer in [0, 2**64); runs is
    checked as noise.block_normals checks it.
    """
    sig, h, thr = _step(rates, dt, epsilon, max_steps)
    if not len(stream_keys):
        raise ValueError("expected the stream keys of at least one frame, got none")
    for frame in stream_keys:
        if len(frame) != len(rates):
            raise ValueError(f"expected {len(rates)} stream keys a frame, got {len(frame)}")
        for key in frame:
            if not (isinstance(key, tuple) and len(key) == 2 and all(
                    isinstance(w, numbers.Integral) and not isinstance(w, bool)
                    and 0 <= int(w) < 2**64 for w in key)):
                raise ValueError("a stream key must be a (k0, k1) pair of integers in "
                                 f"[0, 2**64), got {key!r}")
    keys = tuple(tuple((int(k0), int(k1)) for k0, k1 in frame) for frame in stream_keys)
    return keys, _run_indices(runs), sig, h, thr


def _noise_table(sig):
    """float32 half-scale increments dw / 2 by level index byte.

    For two streams, entry (i << 4) | j is (sig_1 / 2) LEVELS[i] +
    (sig_2 / 2) LEVELS[j], the products and the sum in float64, rounded
    once to float32; for one stream, entry i of 16 is (sig_1 / 2)
    LEVELS[i], rounded once.
    """
    dw = 0.5 * sig[0] * LEVELS
    if len(sig) == 2:
        dw = (dw[:, None] + 0.5 * sig[1] * LEVELS).ravel()
    return dw.astype(np.float32)


def _stream_bytes(noise, keys, runs, block_index):
    """Level index bytes of window block_index for runs on the streams of
    keys, flat and run-major: one block_normals call per stream.

    A two-stream frame packs a step's two indices into one byte, (i_1 << 4)
    | i_2, on uint64 views of the two index arrays: every index is below
    16, so the shift stays inside its byte on either endianness.  A
    one-stream frame reads its index as it is.  Either way a byte is an
    entry of the _noise_table of the streams' scales.
    """
    index = noise.block_normals(keys[0], block_index, runs)
    if len(keys) == 2:
        lanes = index.view(np.uint64)
        lanes <<= np.uint64(4)
        lanes |= noise.block_normals(keys[1], block_index, runs).view(np.uint64)
    return index


def _window_noise(noise, keys, runs, live, block_index):
    """Level index bytes of window block_index for the live (run, frame)
    pairs, as a (live pairs, BLOCK_STEPS) uint8 array.

    Pair f n + i is runs[i] in frame f, n = runs.size.  live is in
    increasing order, so each frame's live pairs are a slice of it: one
    _stream_bytes call per frame that has live pairs.
    """
    n = runs.size
    cuts = np.searchsorted(live, np.arange(len(keys) + 1) * n).tolist()
    parts = [_stream_bytes(noise, key, runs[live[lo:hi] - f * n], block_index)
             for f, (key, lo, hi) in enumerate(zip(keys, cuts, cuts[1:])) if lo < hi]
    index = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return index.reshape(-1, BLOCK_STEPS)


def _drive(r0, keys, runs, sig, h, thr, n_steps, noise):
    """Run every run of runs in every frame of keys from r0, frame-major, by
    split steps of drift time h until |r| >= thr or n_steps steps, one
    noise window at a time.

    A window draws its level index bytes for the live runs once, one
    block_normals call per stream per frame (_window_noise), and is then
    stepped one slab of SLAB_ROWS rows at a time.  One float32 buffer of
    min(SLAB_ROWS, n_steps) rows of the runs is allocated per call; a slab
    is its front viewed as (rows, live runs),
    into which two np.take calls, each over half its rows, gather the
    half-scale noise dw / 2 from the table, so no slab is freshly allocated
    or zeroed, and the intp copy of the index that np.take makes is half a
    slab's.

    A run stops at the first step k >= 0 with |r| >= thr and keeps that r,
    winner 1 if r >= thr else 2; runs live after n_steps keep winner 0.
    Within a window the live runs carry w = phi_{h/2}(r) / 2 in float32 and
    step in place on the slab's noise rows, which end up holding zh = z / 2
    (see the module docstring for why the bits equal those of the plain
    float32 step).  After its rows are stepped, a slab is tested against
    z_hi / 2 at once by its column maxima and minima, and each run that hit
    takes its first hit row.  Those runs leave the live set, the carried w
    and the rest of the window's index at the end of the slab, and their
    (position, step, zh) are kept until the end of the call, where r, steps
    and winner of every absorbed run are written at once.  At the window's
    end the carried w of the runs still live goes back to r in float64 from
    the last slab's last row.  Returns (r, steps, winner), r float64 with
    the precision of the float32 state.
    """
    grow_half = math.exp(0.5 * h)
    # float32: each operation of a step takes the float32 loop under
    # value-based casting (numpy 1.x) and NEP 50 (numpy 2) alike.  e^h is
    # a 0-d array, which a ufunc takes as it is, where an np.float32
    # scalar is wrapped into one on every call
    grow = np.array(math.exp(h), dtype=np.float32)
    table = _noise_table(sig)
    # rounded up, so a float32 zh reaches it exactly when it reaches the
    # float64 value
    zh_hi64 = float(np.arcsinh(np.sinh(0.5 * thr) * math.exp(-0.5 * h)))
    zh_hi = np.float32(zh_hi64)
    if float(zh_hi) < zh_hi64:
        zh_hi = np.nextafter(zh_hi, np.float32(np.inf))

    def to_r(zh):
        return 2.0 * np.arcsinh(np.sinh(zh.astype(np.float64)) * grow_half)

    r = np.full(len(keys) * runs.size, r0, dtype=np.float64)
    winner = np.zeros(r.size, dtype=np.int8)
    winner[r >= thr] = 1
    winner[r <= -thr] = 2
    steps = np.where(winner > 0, 0, n_steps)
    live = np.flatnonzero(winner == 0)
    # (positions, steps, zh) of the runs that absorbed, slab by slab
    done = []
    base = 0
    buf = np.empty(min(SLAB_ROWS, n_steps) * live.size, dtype=np.float32)
    # only runs past the barrier, whose hit row is taken, can overflow
    with np.errstate(over="ignore"):
        while live.size and base < n_steps:
            rows = min(BLOCK_STEPS, n_steps - base)
            index = _window_noise(noise, keys, runs, live, base // BLOCK_STEPS)
            w = np.arcsinh(np.sinh(0.5 * r[live]) * grow_half).astype(np.float32)
            for lo in range(0, rows, SLAB_ROWS):
                n = min(SLAB_ROWS, rows - lo)
                slab = buf[:n * live.size].reshape(n, live.size)
                # every index is in range, so mode "wrap" changes no value; it
                # spares the buffer that mode "raise" always takes for out
                half = -(-n // 2)
                for k in range(0, n, half):
                    np.take(table, index[:, k:min(k + half, n)].T, out=slab[k:k + half],
                            mode="wrap")
                index = index[:, n:]
                for row in slab:
                    np.add(w, row, row)
                    np.sinh(row, w)
                    np.multiply(w, grow, w)
                    np.arcsinh(w, w)
                last = slab[-1]
                hit = slab.max(axis=0) >= zh_hi
                hit |= slab.min(axis=0) <= -zh_hi
                fresh = np.flatnonzero(hit)
                if fresh.size:
                    first = (np.abs(slab.take(fresh, axis=1)) >= zh_hi).argmax(axis=0)
                    done.append((live[fresh], first + (base + lo + 1), slab[first, fresh]))
                    stay = np.flatnonzero(~hit)
                    live, w, last, index = live[stay], w[stay], last[stay], index[stay]
                    if not live.size:
                        break
            r[live] = to_r(last)
            base += rows
    if done:
        absorbed, at, zh = (np.concatenate(parts) for parts in zip(*done))
        r[absorbed] = to_r(zh)
        steps[absorbed] = at
        winner[absorbed] = np.where(zh >= zh_hi, 1, 2)
    return r, steps, winner


# stream_keys stays argument 5, one list of keys per frame: tools that
# trace the engine count a call's streams as len(stream_keys[0]), frame
# 0's stream count, and its (run, frame) pairs as len(res.steps)
def collapse_batch(q0: float, rates, dt: float, epsilon: float, max_steps: int, stream_keys,
                   runs, noise: PhiloxNoiseSource = DEFAULT_NOISE) -> BatchResult:
    """Run a batch of trajectories to absorption.

    rates holds one collapse rate Gamma_s per noise stream, one or two
    streams, and stream_keys, for each frame the call steps, that frame's
    derive_stream_key pairs in the same order.  runs holds the run
    indices, each the run's place in the counter of every stream (see
    noise.PhiloxNoiseSource).  Every run steps in every frame, and entry
    f n + i of the result is runs[i] in frame f, n = len(runs).  No
    frame, a key that is not a (k0, k1) tuple of integers in [0, 2**64), a
    key count other than the rate count, more than two streams and a run
    index outside [0, noise.RUN_INDEX_LIMIT) are refused before any noise
    is drawn, as are dt, epsilon and max_steps that CollapseParams
    refuses.
    Runs evolve in lockstep but consume only their own noise, so results
    per run do not depend on batch composition or execution schedule.

    The state steps in float32, so the returned r is float64 of float32
    precision (see the module docstring).

    This makes any trajectory replayable by its step cap: a run's first k
    steps read only its own noise, so for a run still live after step k,
    the same call with max_steps = k returns its r after step k, bit for
    bit.  Stepping k from 1 to the run's uncapped step count replays its
    whole path.
    """
    r0 = _logit(q0)
    drive_args = _prepare(rates, dt, epsilon, max_steps, stream_keys, runs)
    r, steps, winner = _drive(r0, *drive_args, max_steps, noise)
    return BatchResult(winner, steps, steps * dt, r)

