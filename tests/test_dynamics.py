import dataclasses
import functools
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapsemc import dynamics
from collapsemc.dynamics import (BARRIER_BETA, EPSILON_MIN, MAX_GAMMA_DT, CollapseParams,
                                 NoCollapsePossibleError, collapse_batch)
from collapsemc.noise import (BLOCK_STEPS, DEFAULT_NOISE, LEVELS, RUN_INDEX_LIMIT,
                              PhiloxNoiseSource, derive_stream_key)

ETA = 1e10
LAM = 1e-16

# one detector's stream: a yes cell and a no cell that differ by eta
# between the branches, Gamma = 2e4 / s
RATE = LAM * (ETA ** 2 + ETA ** 2)
RATES_A = (RATE,)
PARAMS = CollapseParams(dt=1.25e-7)
GAMMA = 2.0 * LAM * ETA * ETA  # 2e4 per second

# frame-0 style: one stream per detector, Gamma = 4e4 / s
RATES_0 = (RATE, RATE)

# level indices of the five-point law: +a, its mirror -a, and 0
PLUS_A, MINUS_A, ZERO = 11, 4, 5


def scalars(params):
    """The engine's (dt, epsilon, max_steps) arguments."""
    return params.dt, params.epsilon, params.max_steps


def keys_for(n, seed=1, det="D1", salt=""):
    """The engine's (stream_keys, runs) for one frame of one stream and runs
    0 ... n - 1."""
    return [[derive_stream_key(seed, det, salt=salt)]], np.arange(n)


def keys0_for(n, seed=1, runs=None):
    """The engine's (stream_keys, runs) for one frame of the two streams
    (D1, D2) and runs 0 ... n - 1, or `runs`."""
    keys = [[derive_stream_key(seed, "D1"), derive_stream_key(seed, "D2")]]
    return keys, np.arange(n) if runs is None else np.asarray(runs)


class _ConstNoise(PhiloxNoiseSource):
    """Every step of every stream draws the same level index, so steps can
    be checked by hand."""

    def __init__(self, level):
        super().__init__()
        self.level = level

    def block_normals(self, key, block_index, runs):
        return np.full(len(runs) * BLOCK_STEPS, self.level, dtype=np.uint8)


class _SpyNoise(PhiloxNoiseSource):
    """Records the window, run count and shape of every draw it hands out."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def block_normals(self, key, block_index, runs):
        vals = super().block_normals(key, block_index, runs)
        self.calls.append((block_index, len(runs), vals.shape))
        return vals


def phi(tau, r):
    """Exact flow of the cooked drift dr = 2 tanh(r / 2) dtau."""
    return 2.0 * math.asinh(math.sinh(0.5 * r) * math.exp(tau))


def split_step(h, r, noise):
    """One Strang step: half a drift flow either side of the noise."""
    return phi(0.5 * h, phi(0.5 * h, r) + noise)


def half_noise(rate, dt, level):
    """The engine's half-scale noise of one stream at a level index: its
    table entry, sqrt(Gamma_s dt) LEVELS[level] in float64 rounded once to
    float32."""
    return float(np.float32(0.5 * (2.0 * math.sqrt(rate * dt)) * LEVELS[level]))


def float32_path(r0, h, half_noise):
    """r after each step of the kernel's float32 recursion from r0 at drift
    time h, on the half-scale noise half_noise[t] of step t.  A window's
    first w = asinh(sinh(r / 2) e^{h/2}) is worked out in float64 and
    rounded to float32; a step is zh = w + dw / 2, then w = asinh(sinh(zh)
    e^h) in float32; and r = 2 asinh(sinh(zh) e^{h/2}) with zh widened to
    float64, which the next window starts from."""
    grow, grow_half = np.float32(math.exp(h)), math.exp(0.5 * h)
    r, path = np.array([r0], dtype=np.float64), []
    for t, dwh in enumerate(half_noise):
        if t % BLOCK_STEPS == 0:
            w = np.arcsinh(np.sinh(0.5 * r) * grow_half).astype(np.float32)
        zh = w + np.float32(dwh)
        w = np.arcsinh(np.sinh(zh) * grow)
        r = 2.0 * np.arcsinh(np.sinh(zh.astype(np.float64)) * grow_half)
        path.append(float(r[0]))
    return path


def ceil32(x):
    """The least float32 >= x."""
    y = np.float32(x)
    return y if float(y) >= x else np.nextafter(y, np.float32(np.inf))


def q_of(r):
    """Branch-1 weight 1 / (1 + e^-r) of log-odds r, overflow-safe."""
    e = np.exp(-np.abs(r))
    return np.where(np.asarray(r) >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# state and stream rates
# ---------------------------------------------------------------------------

def test_start_q_round_trips():
    # a run starts at r = logit(q0), which reads back as q0
    def start_q(q0):
        return float(q_of(dynamics._logit(q0)))
    assert start_q(0.3) == pytest.approx(0.3, rel=1e-14)
    for q in (0.0, 1.0, 1e-9, 1.0 - 1e-9):
        assert start_q(q) == pytest.approx(q, rel=1e-12, abs=1e-300)


def test_start_q_validation():
    with pytest.raises(ValueError):
        collapse_batch(1.5, RATES_A, *scalars(PARAMS), *keys_for(1))
    with pytest.raises(ValueError):
        collapse_batch(-0.1, RATES_A, *scalars(PARAMS), *keys_for(1))


def test_engine_reads_one_column_per_stream():
    spy = _SpyNoise()
    res = collapse_batch(0.5, RATES_0, *scalars(PARAMS), *keys0_for(40, seed=29), noise=spy)
    assert all(shape == (runs * BLOCK_STEPS,) for _, runs, shape in spy.calls)
    # a run is drawn for in every window it enters, once per stream
    windows = int(sum(-(-int(k) // BLOCK_STEPS) for k in res.steps))
    assert windows > 40
    assert sum(runs for _, runs, _ in spy.calls) == 2 * windows


@pytest.mark.parametrize("n", [8, 200, 2500])
def test_noise_calls_do_not_grow_with_runs(n):
    # Gamma * dt is 0.005 here, a tenth of the scenario target, so runs
    # live about 11 windows; a window's live runs are drawn by one call per
    # stream, however many there are and however gapped their indices are
    # after the first window
    spy = _SpyNoise()
    res = collapse_batch(0.5, RATES_0, *scalars(PARAMS), *keys0_for(n, seed=5), noise=spy)
    last_window = -(-int(res.steps.max()) // BLOCK_STEPS)
    assert last_window >= 8
    assert len(spy.calls) == 2 * last_window
    assert sorted(b for b, _, _ in spy.calls) == sorted(2 * list(range(last_window)))


# ---------------------------------------------------------------------------
# one step of the log-odds recursion
# ---------------------------------------------------------------------------

def test_step_hand_example():
    # one stream, Gamma dt = 0.01, level +a ~= 0.92286 every step: noise
    # 2 sqrt(Gamma dt) a = 0.2 a ~= 0.18457, its half 0.1 a rounded once to
    # float32 in the table, and half a step h / 2 = 0.005 of the drift flow
    # either side of the noise; phi fixes r = 0.  Two steps stay far inside
    # the barrier, so the run stops at the step cap
    rates = (0.01,)
    params = CollapseParams(dt=1.0, epsilon=1e-6, max_steps=2)
    cooked = collapse_batch(0.5, rates, *scalars(params), *keys_for(1),
                            noise=_ConstNoise(PLUS_A))
    assert (cooked.winner[0], cooked.steps[0]) == (0, 2)
    noise = 0.2 * LEVELS[PLUS_A]
    assert noise == pytest.approx(0.1845718, abs=1e-7)
    assert phi(0.005, noise) == pytest.approx(0.1854943, abs=1e-7)
    half = half_noise(0.01, 1.0, PLUS_A)
    assert half != 0.5 * noise and half == pytest.approx(0.5 * noise, rel=2**-24)
    # the kernel's float32 steps give the bits; the double-precision split
    # step agrees within the float32 state's 2**-21 a step
    assert cooked.r[0] == float32_path(0.0, 0.01, [half] * 2)[-1]
    assert cooked.r[0] == pytest.approx(split_step(0.01, split_step(0.01, 0.0, noise), noise),
                                        rel=2 * 2**-21)
    assert cooked.r[0] == pytest.approx(0.37283, abs=1e-5)
    # the frozen-drift Euler step gives 0.4 a + 0.02 tanh(0.1 a) = 0.37098
    euler = 2.0 * noise + 0.02 * math.tanh(0.5 * noise)
    assert euler == pytest.approx(0.37098, abs=1e-5)


def test_barrier_shift_hand_example():
    # constant level +a, 0.2 a ~= 0.1846 a step (up to the float32 rounding
    # of its half).  The nominal threshold logit(1 - eps) is 1, and the
    # shifted barrier is 1 - beta * 0.2 = 0.8835, where 0.2 is the per-step
    # standard deviation whatever level is drawn.  The split recursion
    # gives r_k = 0.1855, 0.3728, 0.5620, 0.7529, 0.9455, so r first passes
    # the barrier at step 5
    rates = (0.01,)
    params = CollapseParams(dt=1.0, epsilon=1.0 / (1.0 + math.e), max_steps=10)
    assert params.log_threshold == pytest.approx(1.0, abs=1e-15)
    r, path = 0.0, []
    while r < 1.0 - BARRIER_BETA * 0.2:
        r = split_step(0.01, r, 0.2 * LEVELS[PLUS_A])
        path.append(r)
    assert len(path) == 5 and path[3] == pytest.approx(0.7529, abs=1e-4)
    # the kernel's float32 steps, which give the engine's bits, stay within
    # 2**-21 a step of the double-precision path
    path32 = float32_path(0.0, 0.01, [half_noise(0.01, 1.0, PLUS_A)] * 5)
    assert path32 == pytest.approx(path, rel=5 * 2**-21)
    res = collapse_batch(0.5, rates, *scalars(params), *keys_for(1), noise=_ConstNoise(PLUS_A))
    assert (res.winner[0], res.steps[0]) == (1, 5)
    assert res.r[0] == path32[4]
    # capped one step short, the run is still live and holds r_4
    capped = collapse_batch(0.5, rates, 1.0, params.epsilon, 4, *keys_for(1),
                            noise=_ConstNoise(PLUS_A))
    assert (capped.winner[0], capped.steps[0]) == (0, 4)
    assert capped.r[0] == path32[3]
    # the flow is odd and level -a mirrors +a, so the path mirrors bit for
    # bit and the run absorbs at the lower barrier at the same step
    mirror = collapse_batch(0.5, rates, *scalars(params), *keys_for(1),
                            noise=_ConstNoise(MINUS_A))
    assert (mirror.winner[0], mirror.steps[0]) == (2, 5)
    assert mirror.r[0] == -res.r[0]
    # a barrier 0.001 under r_4 is reached at step 4, although the carried
    # z = phi_{-h/2}(r_4) sits about 0.004 under r_4: z is tested against
    # the barrier mapped the same way
    near = 1.0 / (1.0 + math.exp(path[3] - 0.001 + BARRIER_BETA * 0.2))
    res = collapse_batch(0.5, rates, 1.0, near, 10, *keys_for(1), noise=_ConstNoise(PLUS_A))
    assert (res.winner[0], res.steps[0]) == (1, 4)
    assert res.r[0] == path32[3]
    # a start between the barrier and the nominal threshold absorbs at once
    start = 1.0 / (1.0 + math.exp(-0.9))
    assert collapse_batch(start, rates, *scalars(params), *keys_for(1)).steps[0] == 0
    # a threshold narrower than the shift leaves no barrier to absorb at
    with pytest.raises(ValueError, match="reduce dt"):
        collapse_batch(0.5, rates, 1.0, 0.49, 10, *keys_for(1))


def test_step_cap_past_int64_is_refused():
    # the cap is checked before any step count is made; 2**63 - 1 runs
    for max_steps in (2**64, 10**31):
        with pytest.raises(ValueError, match="max_steps"):
            collapse_batch(0.5, RATES_A, PARAMS.dt, PARAMS.epsilon, max_steps, *keys_for(1))
    res = collapse_batch(0.5, RATES_A, PARAMS.dt, PARAMS.epsilon, 2**63 - 1, *keys_for(4))
    ref = collapse_batch(0.5, RATES_A, *scalars(PARAMS), *keys_for(4))
    assert np.array_equal(res.steps, ref.steps) and np.array_equal(res.r, ref.r)


def test_step_noise_errors():
    # the stream keys must supply exactly one stream per rate
    with pytest.raises(ValueError, match="stream keys"):
        collapse_batch(0.5, RATES_A, *scalars(PARAMS), *keys0_for(1))
    with pytest.raises(ValueError, match="stream keys"):
        collapse_batch(0.5, RATES_0, *scalars(PARAMS), *keys_for(1))


def test_params_validation():
    with pytest.raises(ValueError):
        CollapseParams(dt=0.0)
    with pytest.raises(ValueError):
        CollapseParams(dt=1.0, epsilon=0.5)
    # an epsilon whose barrier a float32 state cannot carry: the floor
    # puts the nominal threshold at 2 (ln FLT_MAX - MAX_GAMMA_DT)
    ln_max = math.log(float(np.finfo(np.float32).max))
    assert EPSILON_MIN == pytest.approx(math.exp(-2.0 * (ln_max - MAX_GAMMA_DT)), rel=1e-15)
    assert 1.0e-77 < EPSILON_MIN < 1.1e-77
    for epsilon in (1e-300, 5e-324, 1e-78, math.nextafter(EPSILON_MIN, 0.0)):
        with pytest.raises(ValueError, match="float32"):
            CollapseParams(dt=1.0, epsilon=epsilon)
    floor = CollapseParams(dt=1.0, epsilon=EPSILON_MIN)
    assert floor.log_threshold == pytest.approx(2.0 * (ln_max - MAX_GAMMA_DT), rel=1e-15)
    with pytest.raises(ValueError):
        CollapseParams(dt=1.0, max_steps=0)
    # non-finite values, and a step cap whose duration overflows
    for bad in ({"dt": math.inf}, {"dt": math.nan}):
        with pytest.raises(ValueError, match="finite"):
            CollapseParams(**bad)
    for max_steps in (2, 2**62):
        with pytest.raises(ValueError, match="overflows"):
            CollapseParams(dt=1e308, max_steps=max_steps)
    assert CollapseParams(dt=1e308, max_steps=1).dt == 1e308
    # step counts are int64, so the cap is at most 2**63 - 1
    for max_steps in (2**63, 2**64, 10**31, 10**400):
        with pytest.raises(ValueError, match=r"max_steps must be in \[1, 2\*\*63 - 1\]"):
            CollapseParams(dt=1.0, max_steps=max_steps)
    assert CollapseParams(dt=1e-300, max_steps=2**63 - 1).max_steps == 2**63 - 1
    # the rates are the engine's own arguments, not parameters
    assert [f.name for f in dataclasses.fields(CollapseParams)] == ["dt", "epsilon",
                                                                     "max_steps"]
    p = CollapseParams(dt=1.0, epsilon=1e-6)
    assert p.log_threshold == pytest.approx(math.log((1 - 1e-6) / 1e-6), rel=1e-12)


# ---------------------------------------------------------------------------
# collapse_batch
# ---------------------------------------------------------------------------

def test_immediate_absorption():
    keys = keys_for(1)
    res = collapse_batch(1.0, RATES_A, *scalars(PARAMS), *keys)
    assert (res.winner[0], res.duration[0], res.steps[0]) == (1, 0.0, 0)
    res = collapse_batch(0.0, RATES_A, *scalars(PARAMS), *keys)
    assert (res.winner[0], res.duration[0]) == (2, 0.0)
    res = collapse_batch(PARAMS.epsilon / 2, RATES_A, *scalars(PARAMS), *keys)
    assert (res.winner[0], res.steps[0]) == (2, 0)


def test_gamma_zero_raises():
    with pytest.raises(NoCollapsePossibleError):
        collapse_batch(0.5, (0.0,), *scalars(PARAMS), *keys_for(1))
    with pytest.raises(NoCollapsePossibleError):
        collapse_batch(0.5, (0.0, 0.0), *scalars(PARAMS), *keys0_for(1))


def test_gamma_dt_bound_enforced():
    params = CollapseParams(dt=1.0)  # Gamma * dt = 2e4
    with pytest.raises(ValueError, match="Gamma"):
        collapse_batch(0.5, RATES_A, *scalars(params), *keys_for(1))


def test_non_convergence_carries_final_q():
    params = CollapseParams(dt=1.25e-7, max_steps=40)
    res = collapse_batch(0.5, RATES_A, *scalars(params), *keys_for(3))
    assert np.all(res.winner == 0)
    assert np.all(res.steps == 40)
    q = q_of(res.r)
    assert np.all((0.0 <= q) & (q <= 1.0))


def test_born_rule_small():
    n = 2000
    res = collapse_batch(0.5, RATES_A, *scalars(PARAMS), *keys_for(n, seed=12))
    freq = float(np.mean(res.winner == 1))
    assert abs(freq - 0.5) < 4.0 * math.sqrt(0.25 / n)


def test_determinism_same_keys_bit_identical():
    keys = keys_for(64, seed=77)
    a = collapse_batch(0.4, RATES_A, *scalars(PARAMS), *keys)
    b = collapse_batch(0.4, RATES_A, *scalars(PARAMS), *keys)
    assert np.array_equal(a.winner, b.winner)
    assert np.array_equal(a.steps, b.steps)
    assert np.array_equal(a.r, b.r)


def test_batch_composition_invariance():
    keys, runs = keys_for(32, seed=31)
    full = collapse_batch(0.5, RATES_A, *scalars(PARAMS), keys, runs)
    for j in (0, 13, 31):
        single = collapse_batch(0.5, RATES_A, *scalars(PARAMS), keys, runs[[j]])
        assert single.winner[0] == full.winner[j]
        assert single.steps[0] == full.steps[j]
        assert single.r[0] == full.r[j]


# gapped run indices: consecutive segments of 4, 3, 1 and 4 runs
SPLIT_KEYS, SPLIT_RUNS = keys0_for(12, seed=71, runs=(0, 1, 2, 3, 7, 8, 9, 15, 31, 32, 33, 34))


@functools.cache
def _whole_batch():
    return collapse_batch(0.5, RATES_0, *scalars(PARAMS), SPLIT_KEYS, SPLIT_RUNS)


@settings(max_examples=8, deadline=None)
@given(order=st.permutations(range(12)),
       cuts=st.lists(st.integers(1, 11), unique=True, max_size=4))
@example(order=list(range(11, -1, -1)), cuts=[])
@example(order=list(range(11, -1, -1)), cuts=[5])
@example(order=[0, 2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 11], cuts=[6])
def test_batch_splits_are_bit_equal(order, cuts):
    # any regrouping and reordering of the runs into smaller batches, the
    # reversed order and batches of every other run among them, gives each
    # run the same winner, steps and final r as the whole batch
    whole = _whole_batch()
    assert whole.steps.max() > 3 * BLOCK_STEPS
    bounds = [0, *sorted(cuts), 12]
    for lo, hi in zip(bounds, bounds[1:]):
        part = list(order[lo:hi])
        res = collapse_batch(0.5, RATES_0, *scalars(PARAMS), SPLIT_KEYS, SPLIT_RUNS[part])
        assert np.array_equal(res.winner, whole.winner[part])
        assert np.array_equal(res.steps, whole.steps[part])
        assert np.array_equal(res.r, whole.r[part])


class _PieceCount(PhiloxNoiseSource):
    """Counts the block_normals calls and the Philox draws they make."""

    def __init__(self):
        super().__init__()
        self.calls = self.draws = 0

    def block_normals(self, key, block_index, runs):
        self.calls += 1
        return super().block_normals(key, block_index, runs)

    def _draw(self, first_run, n_runs):
        self.draws += 1
        return super()._draw(first_run, n_runs)


def test_sub_blocks_do_not_change_results(monkeypatch):
    # gathering and stepping a window's noise in slabs of any size, with
    # absorbed runs leaving at every slab edge, leaves every run's result
    # bit for bit
    whole = _whole_batch()
    for size in (1, 3, 5):
        monkeypatch.setattr(dynamics, "SLAB_ROWS", size)
        res = collapse_batch(0.5, RATES_0, *scalars(PARAMS), SPLIT_KEYS, SPLIT_RUNS)
        assert np.array_equal(res.steps, whole.steps)
        assert np.array_equal(res.r, whole.r)


def test_sub_block_size_does_not_change_a_gapped_batch(monkeypatch):
    # the noise is gathered, and absorbed runs leave, one slab at a time,
    # so a two-stream batch gives every run the same r, steps and winner
    # at any slab size: 640 runs out of 3000 that live through at least
    # three windows, and 300 runs up to 199 apart, whose live runs are cut
    # into several pieces at gaps past MAX_GAP
    rates, dt = KERNEL_FRAMES["0"]
    rng = np.random.default_rng(17)
    gapped = np.sort(rng.choice(3000, size=640, replace=False))
    wide = np.cumsum(rng.integers(1, 200, size=300))
    for seed, runs in ((19, gapped), (23, wide)):
        args = (0.5, rates, dt, 1e-6, 10_000, *keys0_for(0, seed=seed, runs=runs))
        monkeypatch.setattr(dynamics, "SLAB_ROWS", 32)
        noise = _PieceCount()
        whole = collapse_batch(*args, noise=noise)
        assert whole.steps.max() > 2 * BLOCK_STEPS and (whole.winner > 0).all()
        for size in (1, 7):
            monkeypatch.setattr(dynamics, "SLAB_ROWS", size)
            res = collapse_batch(*args)
            for field in ("r", "steps", "winner"):
                assert np.array_equal(getattr(res, field), getattr(whole, field)), size
    # the wide runs took more draws than block_normals calls
    assert noise.draws > noise.calls


def test_stream_address_validation():
    # a call reads each frame's stream keys once, derive_stream_key's (k0,
    # k1) pairs in rate order, and each run's index once.  Each of these is
    # refused before any noise is drawn: no frame, a frame whose key count
    # is not the rate count, a key that is not a (k0, k1) tuple of integers
    # in [0, 2**64) (a float key is not read as its integer, nor True as 1,
    # nor an array as a pair), and run indices that block_normals refuses,
    # a bool among them, with a run index past the counter's range refused
    # even when every run absorbs at step 0, so that no window would be
    # drawn
    key = derive_stream_key(1, "D1")
    k0, k1 = key
    refused = [
        (ValueError, "stream keys", RATES_0, 0.5, [[key]], [0]),
        (ValueError, "stream keys", RATES_A, 0.5, [[key, key]], [0]),
        (ValueError, "stream keys", RATES_A, 0.5, [[]], [0]),
        (ValueError, "stream keys", RATES_A, 0.5, [], [0]),
        (ValueError, "stream keys", RATES_A, 0.5, [[key], [key, key]], [0]),
        (ValueError, "integer", RATES_A, 0.5, [[(float(k0), k1)]], [0]),
        (ValueError, "integer", RATES_A, 0.5, [[(k0, True)]], [0]),
        (ValueError, "integer", RATES_A, 0.5, [[(k0, 2**64)]], [0]),
        (ValueError, "integer", RATES_A, 0.5, [[(-1, k1)]], [0]),
        (ValueError, "integer", RATES_A, 0.5, [[(k0, k1, 0)]], [0]),
        (ValueError, "integer", RATES_A, 0.5, [[[k0, k1]]], [0]),
        (ValueError, "integer", RATES_A, 0.5, [[np.array(key, dtype=np.uint64)]], [0]),
        (ValueError, "integer", RATES_A, 0.5, [[np.array(key, dtype=np.float64)]], [0]),
        # the transposed (k0 words, k1 words) layout, with shared and
        # with per-run words
        (ValueError, "integer", RATES_A, 0.5, ((k0,), (k1,)), [0]),
        (ValueError, "integer", RATES_0, 0.5, ((k0, k0), (k1, k1)), [0]),
        (ValueError, "integer", RATES_A, 0.5,
         ((np.array([k0, k0], dtype=np.uint64),), (np.array([k1, k1], dtype=np.uint64),)),
         [0, 1]),
        (ValueError, "run index must be", RATES_A, 0.5, [[key]], [3, -1]),
        (ValueError, "run index must be", RATES_A, 1.0, [[key]], [0, RUN_INDEX_LIMIT]),
        (ValueError, "1-D", RATES_A, 0.5, [[key]], np.zeros((2, 1), dtype=np.int64)),
        (TypeError, "integer", RATES_A, 0.5, [[key]], [1.5]),
        (TypeError, "integer", RATES_A, 0.5, [[key]], [0, True]),
        (TypeError, "integer", RATES_A, 0.5, [[key]], np.array([1.0])),
    ]
    for exc, match, rates, q0, keys, runs in refused:
        spy = _SpyNoise()
        with pytest.raises(exc, match=match):
            collapse_batch(q0, rates, *scalars(PARAMS), keys, runs, noise=spy)
        assert spy.calls == []
    empty = collapse_batch(0.5, RATES_A, *scalars(PARAMS), [[key]], [])
    assert empty.steps.shape == (0,)
    # numpy-integer key words and the greatest run index the counter holds
    # are read, and numpy words give the bits of the ints they equal
    runs = [0, 5, RUN_INDEX_LIMIT - 1]
    assert collapse_batch(0.5, RATES_A, *scalars(PARAMS), [[key]], runs).winner[-1] > 0
    for dtype, words in ((np.uint64, key), (np.int64, (k0 % 2**63, k1 % 2**63))):
        want = collapse_batch(0.5, RATES_A, *scalars(PARAMS), [[words]], runs)
        got = collapse_batch(0.5, RATES_A, *scalars(PARAMS),
                             [[tuple(dtype(w) for w in words)]], runs)
        for field in ("r", "steps", "winner"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


def test_one_call_steps_two_frames_as_calls_of_each_alone():
    # one call steps frames A and B, D1's key in A and D2's in B, and gives
    # each (run, frame) pair the r, steps and winner bits of a call for its
    # frame alone, the pairs frame-major: every run in A, then every run in
    # B.  At epsilon 0.01 and a cap of 140 steps some runs fail in exactly
    # one frame and some absorb in the second window.  A window takes one
    # block_normals call per frame that has live runs in it
    rates, dt = KERNEL_FRAMES["A"]
    runs = np.arange(0, 400, 2)
    keys = [[derive_stream_key(29, det)] for det in ("D1", "D2")]
    alone = [collapse_batch(0.5, rates, dt, 0.01, 140, [k], runs) for k in keys]
    fail_a, fail_b = (res.winner == 0 for res in alone)
    assert (fail_a & ~fail_b).any() and (~fail_a & fail_b).any()
    assert any(((res.steps > BLOCK_STEPS) & (res.winner > 0)).any() for res in alone)
    spy = _SpyNoise()
    res = collapse_batch(0.5, rates, dt, 0.01, 140, keys, runs, noise=spy)
    for field in ("r", "steps", "winner"):
        want = np.concatenate([getattr(alone[0], field), getattr(alone[1], field)])
        assert getattr(res, field).dtype == want.dtype
        assert np.array_equal(getattr(res, field), want), field
    assert [block for block, _, _ in spy.calls] == [0, 0, 1, 1]


class _KeyLevel(PhiloxNoiseSource):
    """Draws the level index levels[key] at every step of stream key, and
    records the window and key of every draw."""

    def __init__(self, levels):
        super().__init__()
        self.levels, self.calls = levels, []

    def block_normals(self, key, block_index, runs):
        self.calls.append((block_index, key))
        return np.full(len(runs) * BLOCK_STEPS, self.levels[key], dtype=np.uint8)


def test_a_frame_with_no_live_runs_is_not_drawn_again():
    # D1's stream draws +a at every step and D2's 0, so frame A's runs all
    # absorb inside window 0 and frame B's stay at r = 0 until the cap:
    # from window 1 on only B's key is drawn, and every (run, frame) pair
    # keeps the bits of its frame's own call
    rates, dt = KERNEL_FRAMES["A"]
    d1, d2 = (derive_stream_key(7, det) for det in ("D1", "D2"))
    cap = 3 * BLOCK_STEPS
    runs = np.arange(5)
    noise = _KeyLevel({d1: PLUS_A, d2: ZERO})
    res = collapse_batch(0.5, rates, dt, 0.01, cap, [[d1], [d2]], runs, noise=noise)
    assert (res.winner[:5] == 1).all() and (res.steps[:5] < BLOCK_STEPS).all()
    assert (res.winner[5:] == 0).all() and (res.steps[5:] == cap).all()
    assert (res.r[5:] == 0.0).all()
    assert noise.calls == [(0, d1), (0, d2), (1, d2), (2, d2)]
    for f, key in enumerate((d1, d2)):
        alone = collapse_batch(0.5, rates, dt, 0.01, cap, [[key]], runs, noise=noise)
        for field in ("r", "steps", "winner"):
            assert np.array_equal(getattr(res, field)[5 * f:5 * (f + 1)], getattr(alone, field))


def test_engine_matches_reference_stepper():
    # a scalar loop of the carried split step, y = phi_{h/2}(r) worked out
    # in float64 and rounded to float32, then z = y + 2 sqrt(Gamma dt) zeta
    # and y = phi_h(z) in float32, with r = phi_{h/2}(z) in float64 at the
    # end, in the same operation order, must reproduce the batch engine
    # exactly over 50 steps that stay inside the barrier; the noise is
    # 2 sqrt(Gamma dt) LEVELS[i] in float64 rounded once to float32, at
    # full scale where the engine's table holds its half
    gamma = LAM * (ETA ** 2 + (0.5 * ETA) ** 2)
    key = derive_stream_key(5, "D1")
    params = dataclasses.replace(PARAMS, max_steps=50)
    h = gamma * params.dt
    sig = 2.0 * math.sqrt(h)
    zeta = LEVELS[DEFAULT_NOISE.block_normals(key, 0, [9])[:params.max_steps]]

    def flow(part, r):
        return 2.0 * np.arcsinh(np.sinh(0.5 * r) * math.exp(part * h))

    grow = np.float32(math.exp(h))
    res = collapse_batch(0.37, (gamma,), *scalars(params), [[key]], [9])
    assert (res.winner[0], res.steps[0]) == (0, params.max_steps)
    r = math.log(0.37) - math.log1p(-0.37)
    y = np.float32(flow(0.5, r))
    for t in range(params.max_steps):
        z = y + np.float32(sig * zeta[t])
        y = np.float32(2.0) * np.arcsinh(np.sinh(np.float32(0.5) * z) * grow)
    assert z.dtype == y.dtype == np.float32
    assert flow(0.5, np.float64(z)) == res.r[0]


def reference_window(noise, keys, runs, live, sig, block_index, rows):
    """A window's full-scale float32 noise for the live (run, frame) pairs,
    pair f n + i being runs[i] in frame f, shape (rows, live pairs): each
    stream's level indices drawn pair by pair from block_normals under the
    key of the pair's frame, mapped through LEVELS, scaled by sig_s and
    summed stream by stream in rate order, all in float64, and rounded
    once to float32."""
    frame, at = np.divmod(live, len(runs))
    dw = np.zeros((rows, len(live)))
    for s, scale in enumerate(sig):
        level = np.concatenate([noise.block_normals(keys[f][s], block_index, [k])
                                for f, k in zip(frame.tolist(), runs[at].tolist())])
        dw += scale * LEVELS[level.reshape(-1, BLOCK_STEPS)[:, :rows].T]
    return dw.astype(np.float32)


def reference_drive(r0, keys, runs, sig, h, thr, n_steps, noise, record=None):
    """The per-step loop the slab kernel replaced: full-scale float32 noise
    worked out per run in a fresh window array, the barrier tested after every step, and the
    window cut at the step where its last run absorbs.  A window starts
    from y = phi_{h/2}(r) in float64 rounded to float32, steps y = phi_h(z)
    in float32, and goes back to r = phi_{h/2}(z) in float64.  Same
    arguments and returns as dynamics._drive."""
    grow = np.float32(math.exp(h))

    def half(r):
        return 2.0 * np.arcsinh(np.sinh(0.5 * r) * math.exp(0.5 * h))

    def whole(z):
        return np.float32(2.0) * np.arcsinh(np.sinh(np.float32(0.5) * z) * grow)

    def to_r(z):
        return half(z.astype(np.float64))

    z_hi = ceil32(2.0 * np.arcsinh(np.sinh(0.5 * thr) * math.exp(-0.5 * h)))
    r = np.full(len(keys) * len(runs), r0, dtype=np.float64)
    winner = np.zeros(r.size, dtype=np.int8)
    winner[r >= thr] = 1
    winner[r <= -thr] = 2
    steps = np.where(winner > 0, 0, n_steps)
    live = np.flatnonzero(winner == 0)
    base = 0
    while live.size and base < n_steps:
        rows = min(BLOCK_STEPS, n_steps - base)
        dw = reference_window(noise, keys, runs, live, sig, base // BLOCK_STEPS, rows)
        y = half(r[live]).astype(np.float32)
        done = np.zeros(live.size, dtype=bool)
        for t in range(rows):
            z = y + dw[t]
            if record is not None:
                record(base + t + 1, to_r(z))
            newly = ~done & (np.abs(z) >= z_hi)
            if newly.any():
                hit = live[newly]
                r[hit] = to_r(z[newly])
                steps[hit] = base + t + 1
                winner[hit] = np.where(z[newly] >= z_hi, 1, 2)
                done |= newly
                if done.all():
                    break
            y = whole(z)
        r[live[~done]] = to_r(z[~done])
        live = live[~done]
        base += rows
    return r, steps, winner


# frame 0 (two streams) and frame A (one stream), each at Gamma * dt 0.05,
# the scenario target, so runs absorb in every slab of the first windows
KERNEL_FRAMES = {"0": (RATES_0, 0.05 / (2.0 * GAMMA)), "A": (RATES_A, 0.05 / GAMMA)}
KERNEL_EPSILONS = (1e-6, 0.01)
GAPPED_RUNS = (0, 1, 2, 5, 6, 9, 17, 18, 19, 20, 40, 63, 64, 100, 101, 255, 256, 257,
               300, 511, 512, 700, 701, 702, 1000, 1023, 1024, 2047, 2048, 4095)

# the largest step cap of the kernel grid, and the slab and window edges
# the grid's runs must absorb at
KERNEL_CAP = 300
EDGE_STEPS = (dynamics.SLAB_ROWS, dynamics.SLAB_ROWS + 1, 2 * dynamics.SLAB_ROWS,
              BLOCK_STEPS, BLOCK_STEPS + 1)


def kernel_q0(epsilon):
    """Two start weights inside the barrier and one past it."""
    return (0.5, 0.8, 1.0 - epsilon / 2)


def _frame_keys(frame, runs):
    """One frame's (stream_keys, runs) for `runs` at seed 83."""
    rates, _ = KERNEL_FRAMES[frame]
    [keys], runs = keys0_for(0, seed=83, runs=runs)
    return [keys[:len(rates)]], runs


@functools.cache
def kernel_runs():
    """The kernel grid's runs at seed 83, found by a scan of runs 0 ... 4095
    in every frame, epsilon and start weight of the grid: those of
    GAPPED_RUNS and, for each of EDGE_STEPS, the first run that absorbs at
    that step in some case.  Only runs that absorb within KERNEL_CAP steps
    in every case are taken, so the grid's runs stop at a step cap only
    below it, and the choice holds under any noise."""
    scan = np.arange(GAPPED_RUNS[-1] + 1)
    cases = []
    for frame, epsilon in itertools.product(KERNEL_FRAMES, KERNEL_EPSILONS):
        rates, dt = KERNEL_FRAMES[frame]
        case = dynamics._prepare(rates, dt, epsilon, KERNEL_CAP, *_frame_keys(frame, scan))
        for q0 in kernel_q0(epsilon):
            r0 = math.log(q0) - math.log1p(-q0)
            _, steps, winner = dynamics._drive(r0, *case, KERNEL_CAP, DEFAULT_NOISE)
            cases.append((steps, winner))
    absorbs = np.logical_and.reduce([winner > 0 for _, winner in cases])
    runs = {k for k in GAPPED_RUNS if absorbs[k]}
    for edge in EDGE_STEPS:
        at_edge = np.logical_or.reduce([steps == edge for steps, _ in cases]) & absorbs
        assert at_edge.any(), f"no run of the scan absorbs at step {edge}"
        runs.add(int(at_edge.argmax()))
    return tuple(sorted(runs))


def _kernel_case(frame, epsilon, max_steps):
    """_drive's (keys, runs, sig, h, thr) for the grid's runs in one frame."""
    rates, dt = KERNEL_FRAMES[frame]
    return dynamics._prepare(rates, dt, epsilon, max_steps, *_frame_keys(frame, kernel_runs()))


@pytest.mark.parametrize("max_steps", [1, 31, 32, 33, 127, 128, 129, 300])
@pytest.mark.parametrize("epsilon", KERNEL_EPSILONS)
@pytest.mark.parametrize("frame", ["0", "A"])
def test_slab_kernel_matches_reference_drive(frame, epsilon, max_steps):
    # the half-scaled, slab-tested kernel gives every run the bits of the
    # per-step loop: final r, step and winner, for runs that absorb in any
    # slab or window, at step 0, or not before the step cap
    case = _kernel_case(frame, epsilon, max_steps)
    for q0 in kernel_q0(epsilon):
        r0 = math.log(q0) - math.log1p(-q0)
        want = reference_drive(r0, *case, max_steps, DEFAULT_NOISE)
        got = dynamics._drive(r0, *case, max_steps, DEFAULT_NOISE)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_slab_kernel_grid_reaches_the_edges():
    # the grid above holds runs that absorb at step 0, in the last row of a
    # slab, in the first row of the next slab and of the next window, and
    # runs stopped by the step cap
    absorbed, capped = set(), set()
    for frame in KERNEL_FRAMES:
        for epsilon in KERNEL_EPSILONS:
            for max_steps in (31, KERNEL_CAP):
                case = _kernel_case(frame, epsilon, max_steps)
                for q0 in kernel_q0(epsilon):
                    r0 = math.log(q0) - math.log1p(-q0)
                    _, steps, winner = reference_drive(r0, *case, max_steps, DEFAULT_NOISE)
                    absorbed.update(steps[winner > 0].tolist())
                    capped.update(steps[winner == 0].tolist())
    assert {0, 32, 33, 64, 128, BLOCK_STEPS + 1} <= absorbed
    assert capped == {31}


def test_slab_kernel_barrier_is_closed():
    # with the noise off, a start whose first float32 z lands exactly on
    # the barrier absorbs at step 1, and one a float32 step inside it only
    # at step 2: the barrier test is |z| >= z_hi, with z_hi / 2 rounded up
    # to float32, as in the reference
    case = _kernel_case("A", 1e-6, 300)
    *_, h, thr = case
    zh_hi = ceil32(np.arcsinh(np.sinh(0.5 * thr) * math.exp(-0.5 * h)))
    zero = _ConstNoise(ZERO)
    for zh, at in ((zh_hi, 1), (np.nextafter(zh_hi, np.float32(0.0)), 2)):
        # the double-precision start whose first w rounds to zh
        r0 = 2.0 * math.asinh(math.sinh(float(zh)) * math.exp(-0.5 * h))
        w = np.arcsinh(np.sinh(0.5 * np.array([r0])) * math.exp(0.5 * h)).astype(np.float32)
        assert w[0] == zh
        for start, side in ((r0, 1), (-r0, 2)):
            _, steps, winner = dynamics._drive(start, *case, 300, zero)
            assert (steps == at).all() and (winner == side).all()
            assert np.array_equal(steps, reference_drive(start, *case, 300, zero)[1])


@pytest.mark.parametrize("slab", [1, 7, BLOCK_STEPS])
def test_slab_size_does_not_change_results(monkeypatch, slab):
    case = _kernel_case("0", 1e-6, 300)
    want = dynamics._drive(0.0, *case, 300, DEFAULT_NOISE)
    monkeypatch.setattr(dynamics, "SLAB_ROWS", slab)
    got = dynamics._drive(0.0, *case, 300, DEFAULT_NOISE)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_a_start_per_pair_steps_as_scalar_starts():
    # _drive takes one start r0 per (run, frame) pair, frame-major, and
    # gives each pair the r, steps and winner bits of a call from that
    # start alone: 10 runs in frames A and B, with starts on both sides,
    # past +-thr (absorbed at step 0), absorbed in the second window and
    # stopped by the step cap
    rates, dt = KERNEL_FRAMES["A"]
    runs = np.arange(40, 50)
    keys = [[derive_stream_key(31, det)] for det in ("D1", "D2")]
    case = dynamics._prepare(rates, dt, 1e-6, 140, keys, runs)
    thr = case[-1]
    r0 = np.linspace(-1.5 * thr, 1.5 * thr, 2 * runs.size)
    got = dynamics._drive(r0, *case, 140, DEFAULT_NOISE)
    _, steps, winner = got
    assert (steps[np.abs(r0) >= thr] == 0).all() and (np.abs(r0) >= thr).sum() == 8
    assert ((steps > BLOCK_STEPS) & (winner > 0)).any() and (winner == 0).any()
    for pair, start in enumerate(r0.tolist()):
        want = dynamics._drive(start, *case, 140, DEFAULT_NOISE)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a[pair].tobytes() == b[pair].tobytes()


def _uncapped_steps(frame, runs):
    """Uncapped step counts of `runs` at seed 83, q0 0.5 and epsilon 1e-6."""
    rates, dt = KERNEL_FRAMES[frame]
    keys = _frame_keys(frame, runs)
    return collapse_batch(0.5, rates, dt, 1e-6, CollapseParams(dt=dt).max_steps, *keys).steps


# where the scan for each replay run starts, and the edge it must live past
# in both frames: the window edge for the first two, a slab edge for the others
REPLAY_STARTS = (0, 9, 256, 1023)
REPLAY_EDGES = (BLOCK_STEPS + 1, BLOCK_STEPS + 1, dynamics.SLAB_ROWS + 1, dynamics.SLAB_ROWS + 1)


@functools.cache
def replay_runs():
    """The replay runs at seed 83, q0 0.5 and epsilon 1e-6, found by a
    scan: for each of REPLAY_STARTS, the first run at or past it, and past
    the run before, that lives past its edge of REPLAY_EDGES in both
    frames."""
    scan = np.arange(REPLAY_STARTS[-1] + 256)
    lives = np.minimum(*(_uncapped_steps(frame, scan) for frame in KERNEL_FRAMES))
    runs = []
    for start, edge in zip(REPLAY_STARTS, REPLAY_EDGES):
        lo = max(start, runs[-1] + 1 if runs else 0)
        hits = lo + np.flatnonzero(lives[lo:] > edge)
        assert hits.size, f"no run from {lo} lives past step {edge}"
        runs.append(int(hits[0]))
    return tuple(runs)


@functools.cache
def _replayed(frame):
    """Each replay run's r after every step k, read from collapse_batch
    capped at k, as a (steps, runs) array up to the last run's absorbing
    step, and the uncapped step count of each run."""
    rates, dt = KERNEL_FRAMES[frame]
    keys = _frame_keys(frame, replay_runs())
    steps = _uncapped_steps(frame, replay_runs())
    path = np.array([collapse_batch(0.5, rates, dt, 1e-6, k, *keys).r
                     for k in range(1, int(steps.max()) + 1)])
    return path, steps


@pytest.mark.parametrize("max_steps", [None, 31, 32, 33, 128, 129])
@pytest.mark.parametrize("start", REPLAY_STARTS)
def test_trajectory_matches_reference_record(start, max_steps):
    # a trajectory replays by step cap: collapse_batch capped at k gives
    # the r the reference records after step k, bit for bit, at every step
    # up to absorption or the reference's cap, in both frames.  The run is
    # the one replay_runs finds from start: the first two live past the
    # window edge in both frames, the others past a slab edge; None is the
    # default step cap
    col = REPLAY_STARTS.index(start)
    run = replay_runs()[col]
    for frame in KERNEL_FRAMES:
        path, steps = _replayed(frame)
        assert steps.min() > dynamics.SLAB_ROWS + 1 and steps[:2].min() > BLOCK_STEPS + 1
        rates, dt = KERNEL_FRAMES[frame]
        cap = CollapseParams(dt=dt).max_steps if max_steps is None else max_steps
        case = dynamics._prepare(rates, dt, 1e-6, cap, *_frame_keys(frame, [run]))
        recorded = []
        reference_drive(0.0, *case, cap, DEFAULT_NOISE,
                        record=lambda k, x: recorded.append(float(x[0])))
        assert len(recorded) == min(cap, steps[col])
        assert path[:len(recorded), col].tolist() == recorded
        if cap >= steps[col]:
            # a cap past the absorbing step leaves the absorbed r as it was
            assert (path[steps[col]:, col] == recorded[-1]).all()


def test_zero_noise_follows_exact_drift_flow():
    # with the noise off the split step is the exact flow of the cooked
    # drift, over several windows and at the largest step allowed; the
    # frozen-drift Euler step misses by 0.03 to 0.09 here.  The state is
    # float32: each step rounds sinh (within 1.4 ulp), the product by e^h
    # (0.5 ulp) and asinh (0.9 ulp), under 4 ulps of 2**-23 relative, and
    # the flow's elasticity w phi'(w) / phi(w) is at most 1, so the
    # relative errors add up and r lies within n * 2**-21 of the flow.
    # The kernel matches the float32 per-step loop, with its float64 round
    # trip at each window edge, bit for bit.  At the smallest epsilon the
    # barrier sits near |r| = 177, which the flow does not reach
    n = 3 * BLOCK_STEPS + 17
    for gamma_dt in (0.05, MAX_GAMMA_DT):
        params = CollapseParams(dt=gamma_dt / GAMMA, epsilon=EPSILON_MIN, max_steps=n)
        *_, h, _ = dynamics._prepare(RATES_A, *scalars(params), *keys_for(1))
        for q0 in (0.3, 0.8, 1e-6):
            r0 = math.log(q0) - math.log1p(-q0)
            res = collapse_batch(q0, RATES_A, *scalars(params), *keys_for(1),
                                 noise=_ConstNoise(ZERO))
            assert (res.winner[0], res.steps[0]) == (0, n)
            assert res.r[0] == float32_path(r0, h, [0.0] * n)[-1]
            expected = 2.0 * math.asinh(math.sinh(0.5 * r0) * math.exp(n * h))
            assert res.r[0] == pytest.approx(expected, rel=n * 2**-21, abs=0.0)


def test_one_step_cooked_mean_preserves_q():
    n = 200_000
    params = dataclasses.replace(PARAMS, max_steps=1)
    res = collapse_batch(0.3, RATES_A, *scalars(params), *keys_for(n, seed=8))
    assert np.all(res.winner == 0)
    q = q_of(res.r)
    se = float(q.std()) / math.sqrt(n)
    assert abs(float(q.mean()) - 0.3) < 4.0 * se


def test_martingale_at_intermediate_time():
    # q stopped at absorption or at the step cap Gamma t = 1, whichever
    # comes first, keeps its mean; at epsilon 0.01 about a fifth of the
    # runs absorb before the cap, so the stopped values are covered
    n = 20_000
    params = dataclasses.replace(PARAMS, epsilon=0.01,
                                 max_steps=round(1.0 / GAMMA / PARAMS.dt))
    res = collapse_batch(0.3, RATES_A, *scalars(params), *keys_for(n, seed=21))
    assert np.mean(res.winner > 0) >= 0.1
    q = q_of(res.r)
    se = float(q.std()) / math.sqrt(n)
    assert abs(float(q.mean()) - 0.3) < 4.0 * se


def test_time_scaling_doubling_gamma_halves_median():
    n = 3000
    slow = collapse_batch(0.5, RATES_A, *scalars(PARAMS), *keys_for(n, seed=41))
    fast = collapse_batch(0.5, (2.0 * RATE,), *scalars(PARAMS), *keys_for(n, seed=42))
    ratio = float(np.median(fast.duration) / np.median(slow.duration))
    assert 0.43 < ratio < 0.57


def test_extreme_epsilon_absorbs_without_overflow():
    # at the smallest epsilon a float32 state carries, the barrier sits near
    # |r| = 177, and absorbed runs step on to the end of their window, where
    # float32 sinh may overflow; every run absorbs with a finite r and no
    # warning reaches the caller
    params = CollapseParams(dt=MAX_GAMMA_DT / GAMMA, epsilon=EPSILON_MIN)
    assert params.log_threshold > 177.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = collapse_batch(0.5, RATES_A, *scalars(params), *keys_for(64, seed=19))
    assert np.all(res.winner > 0)
    assert np.all(np.abs(res.r) > 176.0) and np.all(np.isfinite(res.r))
    # a live run's largest step, sinh of the float32 just inside the
    # barrier times e^h, stays finite at the largest and at a small step
    for gamma_dt in (MAX_GAMMA_DT, 1e-6):
        case = dynamics._prepare(RATES_A, gamma_dt / GAMMA, EPSILON_MIN, 1, *keys_for(1))
        *_, h, thr = case
        zh_hi = ceil32(np.arcsinh(np.sinh(0.5 * thr) * math.exp(-0.5 * h)))
        inside = np.array([np.nextafter(zh_hi, np.float32(0.0))])
        with np.errstate(over="raise"):
            assert np.isfinite(np.sinh(inside) * np.float32(math.exp(h))).all()


def test_stream_layout_validation():
    # the streams are laid out by their rates, one per stream key of a
    # run (see test_step_noise_errors), and each must be finite and >= 0
    for bad in (-RATE, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="rates"):
            collapse_batch(0.5, (RATE, bad), *scalars(PARAMS), *keys0_for(1))


def test_noise_table_maps_a_byte_of_levels_to_half_the_increment():
    # entry (i << 4) | j of a two-stream table is (sig_1 / 2) LEVELS[i] +
    # (sig_2 / 2) LEVELS[j] in float64 rounded once to float32, so it is
    # exactly half the full-scale increment rounded once; a one-stream
    # table has 16 entries.  The table is odd: byte 255 - k mirrors byte k
    sig = [2.0 * math.sqrt(RATE * PARAMS.dt), 2.0 * math.sqrt(0.3 * RATE * PARAMS.dt)]
    table = dynamics._noise_table(sig)
    assert table.dtype == np.float32 and table.shape == (256,)
    for i, j in itertools.product(range(16), repeat=2):
        full = sig[0] * LEVELS[i] + sig[1] * LEVELS[j]
        assert table[(i << 4) | j] == np.float32(0.5 * sig[0] * LEVELS[i]
                                                 + 0.5 * sig[1] * LEVELS[j])
        assert table[(i << 4) | j] == np.float32(full) / 2
    assert np.array_equal(table[::-1], -table)
    one = dynamics._noise_table(sig[:1])
    assert one.shape == (16,) and np.array_equal(one, (0.5 * sig[0] * LEVELS).astype(np.float32))
    # five values, each a step's variance sig^2 at the law's weights
    assert np.unique(one).size == 5
    assert math.fsum(float(v) ** 2 for v in one) / 16 == pytest.approx(sig[0] ** 2 / 4,
                                                                       rel=1e-6)


def test_more_than_two_streams_are_refused():
    # a step's level indices fill one byte, so a frame has one or two streams
    keys = [[derive_stream_key(1, det) for det in ("D1", "D2", "D3")]]
    spy = _SpyNoise()
    with pytest.raises(ValueError, match="at most two noise streams"):
        collapse_batch(0.5, (RATE, RATE, RATE), *scalars(PARAMS), keys, [0], noise=spy)
    assert spy.calls == []


def test_rates_that_are_not_numbers_or_no_stream_are_refused():
    # a bool rate is not read as 1 or 0, a rate that is not a real number
    # is named in the refusal, and an empty rate tuple is not a frame whose
    # every rate is 0; each is refused before any noise is drawn
    [[key]], runs = keys_for(1)
    for rate in (True, False, "1e4", None, 1e4 + 0j):
        spy = _SpyNoise()
        refusal = re.escape(f"stream rates must be numbers, got {rate!r}")
        with pytest.raises(TypeError, match=refusal):
            collapse_batch(0.5, (rate,), *scalars(PARAMS), [[key]], runs, noise=spy)
        with pytest.raises(TypeError, match=re.escape(f"got {rate!r}")):
            collapse_batch(0.5, (RATE, rate), *scalars(PARAMS), [[key, key]], runs, noise=spy)
        assert spy.calls == []
    spy = _SpyNoise()
    with pytest.raises(ValueError, match="at least one noise stream"):
        collapse_batch(0.5, (), *scalars(PARAMS), [[]], runs, noise=spy)
    assert spy.calls == []
    # numpy and other real numbers stay rates
    for rate in (np.float32(RATE), np.float64(RATE), np.int64(20_000)):
        res = collapse_batch(0.5, (rate,), *scalars(PARAMS), [[key]], runs)
        assert res.winner[0] in (1, 2)
