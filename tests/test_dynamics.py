import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapsemc import dynamics
from collapsemc.dynamics import (BARRIER_BETA, MAX_GAMMA_DT, CollapseParams,
                                 IncompleteNoiseError, InvalidProfileError,
                                 NoCollapsePossibleError,
                                 OccupationProfile, StreamLayout, collapse_batch,
                                 effective_rate, run_trajectory,
                                 stable_q, union_cells, write_trajectory_csv)
from collapsemc.noise import BLOCK_STEPS, DEFAULT_NOISE, PhiloxNoiseSource, derive_stream_key

ETA = 1e10
LAM = 1e-16

# frame-A style pair: one occupied cell per branch, Gamma = 2e4 / s
P1 = OccupationProfile((("yes", ETA), ("no", 0.0)))
P2 = OccupationProfile((("yes", 0.0), ("no", ETA)))
LAYOUT = StreamLayout((("yes", "no"),))
PARAMS = CollapseParams(dt=1.25e-7, lam=LAM)
GAMMA = 2.0 * LAM * ETA * ETA  # 2e4 per second


# frame-0 style pair: one stream per detector, Gamma = 4e4 / s
P01 = OccupationProfile((("D1.yes", ETA), ("D1.no", 0.0), ("D2.yes", 0.0), ("D2.no", ETA)))
P02 = OccupationProfile((("D1.yes", 0.0), ("D1.no", ETA), ("D2.yes", ETA), ("D2.no", 0.0)))
LAYOUT0 = StreamLayout((("D1.yes", "D1.no"), ("D2.yes", "D2.no")))


def keys_for(n, seed=1, det="D1", salt=""):
    """One-stream addresses of runs 0 ... n - 1."""
    key = derive_stream_key(seed, det, salt=salt)
    return [((*key, k),) for k in range(n)]


def keys0_for(n, seed=1, runs=None):
    """Two-stream (D1, D2) addresses of runs 0 ... n - 1, or of `runs`."""
    k1, k2 = derive_stream_key(seed, "D1"), derive_stream_key(seed, "D2")
    return [((*k1, k), (*k2, k)) for k in (range(n) if runs is None else runs)]


class _ConstNoise(PhiloxNoiseSource):
    """Every increment is the same value, so steps can be checked by hand."""

    def __init__(self, value):
        super().__init__()
        self.value = value

    def block_normals(self, key, block_index, runs):
        return np.full(len(runs) * BLOCK_STEPS, self.value)


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


# ---------------------------------------------------------------------------
# state and profiles
# ---------------------------------------------------------------------------

def test_stable_q_basic():
    assert stable_q(0.0) == 0.5
    assert stable_q(800.0) == 1.0
    assert stable_q(-700.0) > 0.0
    assert stable_q(-800.0) == 0.0  # graceful underflow, no overflow or NaN
    arr = stable_q(np.array([-1.0, 0.0, 1.0]))
    assert arr[0] + arr[2] == pytest.approx(1.0, abs=1e-15)


def start_q(q0):
    """q read back from row 0 of a trajectory, which holds the start r = logit(q0)."""
    return run_trajectory(q0, P1, P2, PARAMS, LAYOUT, keys_for(1)[0], max_rows=0)[0][2]


def test_start_q_round_trips():
    assert start_q(0.3) == pytest.approx(0.3, rel=1e-14)
    for q in (0.0, 1.0, 1e-9, 1.0 - 1e-9):
        assert start_q(q) == pytest.approx(q, rel=1e-12, abs=1e-300)


def test_start_q_validation():
    with pytest.raises(ValueError):
        collapse_batch(1.5, P1, P2, PARAMS, LAYOUT, keys_for(1))
    with pytest.raises(ValueError):
        collapse_batch(-0.1, P1, P2, PARAMS, LAYOUT, keys_for(1))
    with pytest.raises(ValueError):
        run_trajectory(1.5, P1, P2, PARAMS, LAYOUT, keys_for(1)[0])


def test_profile_validation():
    with pytest.raises(InvalidProfileError):
        OccupationProfile((("a", 1.0), ("a", 2.0)))
    with pytest.raises(InvalidProfileError):
        OccupationProfile((("a", -1.0),))
    with pytest.raises(InvalidProfileError):
        OccupationProfile((("a", math.nan),))


def test_profile_absent_cells_read_zero():
    p = OccupationProfile((("a", 3.0),))
    assert p.eta("a") == 3.0
    assert p.eta("missing") == 0.0


def test_union_cells_order():
    p1 = OccupationProfile((("a", 1.0), ("b", 2.0)))
    p2 = OccupationProfile((("b", 1.0), ("c", 2.0)))
    assert union_cells(p1, p2) == ("a", "b", "c")


# ---------------------------------------------------------------------------
# effective_rate and per-stream rates
# ---------------------------------------------------------------------------

def test_effective_rate_identical_profiles_zero():
    p = OccupationProfile((("a", 5.0), ("b", 7.0)))
    assert effective_rate(p, p, 0.123) == 0.0


def test_effective_rate_single_cell():
    p1 = OccupationProfile((("a", ETA),))
    p2 = OccupationProfile(())
    assert effective_rate(p1, p2, LAM) == pytest.approx(1e4, rel=1e-12)


def test_effective_rate_two_cells():
    assert effective_rate(P1, P2, LAM) == pytest.approx(2e4, rel=1e-12)


def test_effective_rate_disjoint_union():
    p1 = OccupationProfile((("a", 3.0),))
    p2 = OccupationProfile((("b", 4.0),))
    assert effective_rate(p1, p2, 1.0) == pytest.approx(25.0, rel=1e-14)


def test_aggregate_preserves_rate_property():
    # three cells per stream with delta eta (1, 2, 2) x 1e10 against one
    # cell with 3e10: the per-stream rates are equal to the last bit, and
    # the engine reads the cells only through them
    spread1 = OccupationProfile((("a1", 1e10), ("a2", 2e10), ("a3", 2e10)))
    spread2 = OccupationProfile((("b1", 1e10), ("b2", 2e10), ("b3", 2e10)))
    spread_layout = StreamLayout((("a1", "a2", "a3"), ("b1", "b2", "b3")))
    one1 = OccupationProfile((("a", 3e10),))
    one2 = OccupationProfile((("b", 3e10),))
    one_layout = StreamLayout((("a",), ("b",)))
    assert effective_rate(spread1, spread2, LAM) == effective_rate(one1, one2, LAM)
    keys = keys0_for(64, seed=23)
    spread = collapse_batch(0.4, spread1, spread2, PARAMS, spread_layout, keys)
    one = collapse_batch(0.4, one1, one2, PARAMS, one_layout, keys)
    assert np.array_equal(spread.winner, one.winner)
    assert np.array_equal(spread.steps, one.steps)
    assert np.array_equal(spread.r, one.r)


def test_engine_reads_one_column_per_stream():
    spy = _SpyNoise()
    res = collapse_batch(0.5, P01, P02, PARAMS, LAYOUT0, keys0_for(40, seed=29), noise=spy)
    assert all(shape == (runs * BLOCK_STEPS,) for _, runs, shape in spy.calls)
    # a run is drawn for in every window it enters, once per stream
    windows = int(sum(-(-int(k) // BLOCK_STEPS) for k in res.steps))
    assert windows > 40
    assert sum(runs for _, runs, _ in spy.calls) == 2 * windows


@pytest.mark.parametrize("n", [8, 200])
def test_noise_calls_do_not_grow_with_runs(n):
    # Gamma * dt is 0.005 here, a tenth of the scenario target, so runs
    # live about 11 windows; the live runs of a sub-block are drawn by one
    # call per stream and window, however many there are and however
    # gapped their indices are after the first window
    assert n <= dynamics.SUB_BLOCK_RUNS
    spy = _SpyNoise()
    res = collapse_batch(0.5, P01, P02, PARAMS, LAYOUT0, keys0_for(n, seed=5), noise=spy)
    last_window = -(-int(res.steps.max()) // BLOCK_STEPS)
    assert last_window >= 8
    assert len(spy.calls) == 2 * last_window
    assert sorted(b for b, _, _ in spy.calls) == sorted(2 * list(range(last_window)))


# ---------------------------------------------------------------------------
# one step of the log-odds recursion
# ---------------------------------------------------------------------------

def test_step_hand_example():
    # single cell, eta1 = 1, eta2 = 0, lam dt = 0.01, unit normal +1:
    # noise 2 sqrt(Gamma dt) = 0.2, and half a step h / 2 = 0.005 of the
    # drift flow either side of the noise; phi fixes r = 0.  Two steps
    # stay far inside the barrier, so the run stops at the step cap
    p1 = OccupationProfile((("c", 1.0),))
    p2 = OccupationProfile((("c", 0.0),))
    layout = StreamLayout((("c",),))
    params = CollapseParams(dt=1.0, lam=0.01, epsilon=1e-6, max_steps=2)
    cooked = collapse_batch(0.5, p1, p2, params, layout, keys_for(1), noise=_ConstNoise(1.0))
    assert (cooked.winner[0], cooked.steps[0]) == (0, 2)
    one = phi(0.005, 0.2)
    assert one == pytest.approx(0.2009992, abs=1e-7)
    assert cooked.r[0] == pytest.approx(phi(0.005, phi(0.005, one) + 0.2), abs=1e-15)
    # the frozen-drift Euler step gives 0.4 + 0.02 tanh(0.1) = 0.40199
    assert cooked.r[0] == pytest.approx(0.40399, abs=1e-5)


def test_barrier_shift_hand_example():
    # constant +1 noise, 0.2 a step.  The nominal threshold logit(1 - eps)
    # is 1, and the shifted barrier is 1 - beta * 0.2 = 0.8835.  The split
    # recursion gives r_k = 0.2010, 0.4040, 0.6089, 0.8158, 1.0243, so r
    # first passes the barrier at step 5
    p1 = OccupationProfile((("c", 1.0),))
    p2 = OccupationProfile((("c", 0.0),))
    layout = StreamLayout((("c",),))
    params = CollapseParams(dt=1.0, lam=0.01, epsilon=1.0 / (1.0 + math.e), max_steps=10)
    assert params.log_threshold == pytest.approx(1.0, abs=1e-15)
    r, path = 0.0, []
    while r < 1.0 - BARRIER_BETA * 0.2:
        r = split_step(0.01, r, 0.2)
        path.append(r)
    assert len(path) == 5 and path[3] == pytest.approx(0.8158, abs=1e-4)
    res = collapse_batch(0.5, p1, p2, params, layout, keys_for(1), noise=_ConstNoise(1.0))
    assert (res.winner[0], res.steps[0]) == (1, 5)
    assert res.r[0] == pytest.approx(path[-1], abs=1e-14)
    rows = run_trajectory(0.5, p1, p2, params, layout, keys_for(1)[0], noise=_ConstNoise(1.0))
    assert len(rows) - 1 == 5 and rows[-1][3] == res.r[0]
    # the flow is odd, so -1 noise mirrors the path bit for bit and the run
    # absorbs at the lower barrier at the same step
    mirror = collapse_batch(0.5, p1, p2, params, layout, keys_for(1), noise=_ConstNoise(-1.0))
    assert (mirror.winner[0], mirror.steps[0]) == (2, 5)
    assert mirror.r[0] == -res.r[0]
    # a barrier 0.001 under r_4 is reached at step 4, although the carried
    # z = phi_{-h/2}(r_4) sits about 0.004 under r_4: z is tested against
    # the barrier mapped the same way
    near = 1.0 / (1.0 + math.exp(path[3] - 0.001 + BARRIER_BETA * 0.2))
    res = collapse_batch(0.5, p1, p2, CollapseParams(dt=1.0, lam=0.01, epsilon=near,
                                                     max_steps=10),
                         layout, keys_for(1), noise=_ConstNoise(1.0))
    assert (res.winner[0], res.steps[0]) == (1, 4)
    assert res.r[0] == pytest.approx(path[3], abs=1e-14)
    # a start between the barrier and the nominal threshold absorbs at once
    start = 1.0 / (1.0 + math.exp(-0.9))
    assert collapse_batch(start, p1, p2, params, layout, keys_for(1)).steps[0] == 0
    # a threshold narrower than the shift leaves no barrier to absorb at
    wide = CollapseParams(dt=1.0, lam=0.01, epsilon=0.49, max_steps=10)
    with pytest.raises(ValueError, match="reduce dt"):
        collapse_batch(0.5, p1, p2, wide, layout, keys_for(1))


def test_step_noise_errors():
    # the stream layout must supply noise for exactly the cells of the union
    with pytest.raises(IncompleteNoiseError):
        collapse_batch(0.5, P1, P2, PARAMS, StreamLayout((("yes",),)), keys_for(1))
    with pytest.raises(IncompleteNoiseError):
        collapse_batch(0.5, P1, P2, PARAMS, StreamLayout((("yes", "no", "other"),)),
                       keys_for(1))
    with pytest.raises(ValueError, match="stream keys"):
        collapse_batch(0.5, P1, P2, PARAMS, LAYOUT, keys0_for(1))


def test_params_validation():
    with pytest.raises(ValueError):
        CollapseParams(dt=0.0)
    with pytest.raises(ValueError):
        CollapseParams(dt=1.0, lam=-1.0)
    with pytest.raises(ValueError):
        CollapseParams(dt=1.0, epsilon=0.5)
    with pytest.raises(ValueError):
        CollapseParams(dt=1.0, max_steps=0)
    # non-finite values, and a step cap whose duration overflows
    for bad in ({"dt": math.inf}, {"dt": math.nan}, {"dt": 1.0, "lam": math.inf},
                {"dt": 1.0, "lam": math.nan}):
        with pytest.raises(ValueError, match="finite"):
            CollapseParams(**bad)
    for max_steps in (2, 10**400):
        with pytest.raises(ValueError, match="overflows"):
            CollapseParams(dt=1e308, max_steps=max_steps)
    assert CollapseParams(dt=1e308, max_steps=1).dt == 1e308
    p = CollapseParams(dt=1.0, epsilon=1e-6)
    assert p.log_threshold == pytest.approx(math.log((1 - 1e-6) / 1e-6), rel=1e-12)


# ---------------------------------------------------------------------------
# collapse_batch
# ---------------------------------------------------------------------------

def test_immediate_absorption():
    keys = keys_for(1)
    res = collapse_batch(1.0, P1, P2, PARAMS, LAYOUT, keys)
    assert (res.winner[0], res.duration[0], res.steps[0]) == (1, 0.0, 0)
    res = collapse_batch(0.0, P1, P2, PARAMS, LAYOUT, keys)
    assert (res.winner[0], res.duration[0]) == (2, 0.0)
    res = collapse_batch(PARAMS.epsilon / 2, P1, P2, PARAMS, LAYOUT, keys)
    assert (res.winner[0], res.steps[0]) == (2, 0)


def test_gamma_zero_raises():
    p = OccupationProfile((("a", 1.0),))
    layout = StreamLayout((("a",),))
    with pytest.raises(NoCollapsePossibleError):
        collapse_batch(0.5, p, p, PARAMS, layout, keys_for(1))
    with pytest.raises(NoCollapsePossibleError):
        run_trajectory(0.5, p, p, PARAMS, layout, keys_for(1)[0])


def test_gamma_dt_bound_enforced():
    params = CollapseParams(dt=1.0, lam=LAM)  # Gamma * dt = 2e4
    with pytest.raises(ValueError, match="Gamma"):
        collapse_batch(0.5, P1, P2, params, LAYOUT, keys_for(1))


def test_non_convergence_carries_final_q():
    params = CollapseParams(dt=1.25e-7, lam=LAM, max_steps=40)
    res = collapse_batch(0.5, P1, P2, params, LAYOUT, keys_for(3))
    assert np.all(res.winner == 0)
    assert np.all(res.steps == 40)
    assert np.all((0.0 <= res.q) & (res.q <= 1.0))


def test_born_rule_small():
    n = 2000
    res = collapse_batch(0.5, P1, P2, PARAMS, LAYOUT, keys_for(n, seed=12))
    freq = float(np.mean(res.winner == 1))
    assert abs(freq - 0.5) < 4.0 * math.sqrt(0.25 / n)


def test_determinism_same_keys_bit_identical():
    keys = keys_for(64, seed=77)
    a = collapse_batch(0.4, P1, P2, PARAMS, LAYOUT, keys)
    b = collapse_batch(0.4, P1, P2, PARAMS, LAYOUT, keys)
    assert np.array_equal(a.winner, b.winner)
    assert np.array_equal(a.steps, b.steps)
    assert np.array_equal(a.r, b.r)


def test_batch_composition_invariance():
    keys = keys_for(32, seed=31)
    full = collapse_batch(0.5, P1, P2, PARAMS, LAYOUT, keys)
    for j in (0, 13, 31):
        single = collapse_batch(0.5, P1, P2, PARAMS, LAYOUT, [keys[j]])
        assert single.winner[0] == full.winner[j]
        assert single.steps[0] == full.steps[j]
        assert single.r[0] == full.r[j]


# gapped run indices: consecutive segments of 4, 3, 1 and 4 runs
SPLIT_KEYS = keys0_for(12, seed=71, runs=(0, 1, 2, 3, 7, 8, 9, 15, 31, 32, 33, 34))


@functools.cache
def _whole_batch():
    return collapse_batch(0.5, P01, P02, PARAMS, LAYOUT0, SPLIT_KEYS)


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
        res = collapse_batch(0.5, P01, P02, PARAMS, LAYOUT0, [SPLIT_KEYS[j] for j in part])
        assert np.array_equal(res.winner, whole.winner[part])
        assert np.array_equal(res.steps, whole.steps[part])
        assert np.array_equal(res.r, whole.r[part])


def test_sub_blocks_do_not_change_results(monkeypatch):
    # drawing the live runs in sub-blocks of any size, split between
    # segments of consecutive run indices or not, and with runs of other
    # keys mixed in, leaves every run's result bit for bit
    whole = _whole_batch()
    for size in (1, 3, 5):
        monkeypatch.setattr(dynamics, "SUB_BLOCK_RUNS", size)
        res = collapse_batch(0.5, P01, P02, PARAMS, LAYOUT0, SPLIT_KEYS)
        assert np.array_equal(res.steps, whole.steps)
        assert np.array_equal(res.r, whole.r)
    monkeypatch.setattr(dynamics, "SUB_BLOCK_RUNS", 256)
    other = keys0_for(12, seed=72)
    mixed = collapse_batch(0.5, P01, P02, PARAMS, LAYOUT0,
                           [k for pair in zip(SPLIT_KEYS, other) for k in pair])
    alone = collapse_batch(0.5, P01, P02, PARAMS, LAYOUT0, other)
    assert np.array_equal(mixed.r[0::2], whole.r)
    assert np.array_equal(mixed.r[1::2], alone.r)
    assert np.array_equal(mixed.steps[1::2], alone.steps)


def test_stream_address_validation():
    key = derive_stream_key(1, "D1")
    for bad in ([((*key,),)], [((*key, -1),)], [((*key, 1, 2),)], [((*key, 2**64),)]):
        with pytest.raises(ValueError, match="stream"):
            collapse_batch(0.5, P1, P2, PARAMS, LAYOUT, bad)
    with pytest.raises(ValueError, match="run index"):
        collapse_batch(0.5, P1, P2, PARAMS, LAYOUT, [((*key, 2**59 - 1),)])
    empty = collapse_batch(0.5, P1, P2, PARAMS, LAYOUT, [])
    assert empty.steps.shape == (0,)


def test_engine_matches_reference_stepper():
    # a scalar loop of the carried split step, y = phi_{h/2}(r), then
    # z = y + 2 sqrt(Gamma dt) zeta and y = phi_h(z), with r = phi_{h/2}(z)
    # at the end, in the same operation order, must reproduce the batch
    # engine exactly over 50 steps that stay inside the barrier
    p1 = OccupationProfile((("yes", ETA), ("no", 0.0)))
    p2 = OccupationProfile((("yes", 0.0), ("no", 0.5 * ETA)))
    key = derive_stream_key(5, "D1")
    params = dataclasses.replace(PARAMS, max_steps=50)
    gamma = effective_rate(p1, p2, LAM)
    h = gamma * params.dt
    sig = 2.0 * math.sqrt(h)
    zeta = DEFAULT_NOISE.block_normals(key, 0, [9])[:params.max_steps]

    def flow(part, r):
        return 2.0 * np.arcsinh(np.sinh(0.5 * r) * math.exp(part * h))

    res = collapse_batch(0.37, p1, p2, params, LAYOUT, [((*key, 9),)])
    assert (res.winner[0], res.steps[0]) == (0, params.max_steps)
    r = math.log(0.37) - math.log1p(-0.37)
    y = flow(0.5, r)
    for t in range(params.max_steps):
        z = y + zeta[t] * sig
        y = flow(1.0, z)
    assert flow(0.5, z) == res.r[0]


def reference_drive(r0, addr, sig, h, thr, n_steps, noise, record=None):
    """The per-step loop the slab kernel replaced: full-scale noise, the
    barrier tested after every step, and the window cut at the step where
    its last run absorbs.  Same arguments and returns as dynamics._drive."""
    def flow(part):
        grow = math.exp(part * h)

        def phi(r):
            return 2.0 * np.arcsinh(np.sinh(0.5 * r) * grow)
        return phi

    half, whole = flow(0.5), flow(1.0)
    z_hi = flow(-0.5)(thr)
    r = np.full(len(addr), r0, dtype=np.float64)
    winner = np.zeros(r.size, dtype=np.int8)
    winner[r >= thr] = 1
    winner[r <= -thr] = 2
    steps = np.where(winner > 0, 0, n_steps)
    live = np.flatnonzero(winner == 0)
    base = 0
    while live.size and base < n_steps:
        rows = min(BLOCK_STEPS, n_steps - base)
        dw = dynamics._window_noise(noise, addr[live], sig, base // BLOCK_STEPS, rows)
        y = half(r[live])
        done = np.zeros(live.size, dtype=bool)
        for t in range(rows):
            z = y + dw[t]
            if record is not None:
                record(base + t + 1, half(z))
            newly = ~done & (np.abs(z) >= z_hi)
            if newly.any():
                hit = live[newly]
                r[hit] = half(z[newly])
                steps[hit] = base + t + 1
                winner[hit] = np.where(z[newly] >= z_hi, 1, 2)
                done |= newly
                if done.all():
                    break
            y = whole(z)
        r[live[~done]] = half(z[~done])
        live = live[~done]
        base += rows
    return r, steps, winner


# frame 0 (two streams) and frame A (one stream), each at Gamma * dt 0.05,
# the scenario target, so runs absorb in every slab of the first windows
KERNEL_FRAMES = {"0": (P01, P02, LAYOUT0, 0.05 / (2.0 * GAMMA)),
                 "A": (P1, P2, LAYOUT, 0.05 / GAMMA)}
GAPPED_RUNS = (0, 1, 2, 5, 6, 9, 17, 18, 19, 20, 40, 63, 64, 100, 101, 255, 256, 257,
               300, 511, 512, 700, 701, 702, 1000, 1023, 1024, 2047, 2048, 4095)


def kernel_q0(epsilon):
    """Two start weights inside the barrier and one past it."""
    return (0.5, 0.8, 1.0 - epsilon / 2)


def _kernel_case(frame, epsilon, max_steps):
    """_drive's (sig, h, thr, addr) for the gapped runs in one frame."""
    p1, p2, layout, dt = KERNEL_FRAMES[frame]
    params = CollapseParams(dt=dt, lam=LAM, epsilon=epsilon, max_steps=max_steps)
    keys = [pair[:len(layout.stream_cells)]
            for pair in keys0_for(0, seed=83, runs=GAPPED_RUNS)]
    return dynamics._prepare(p1, p2, params, layout, keys)


@pytest.mark.parametrize("max_steps", [1, 31, 32, 33, 127, 128, 129, 300])
@pytest.mark.parametrize("epsilon", [1e-6, 0.01])
@pytest.mark.parametrize("frame", ["0", "A"])
def test_slab_kernel_matches_reference_drive(frame, epsilon, max_steps):
    # the half-scaled, slab-tested kernel gives every run the bits of the
    # per-step loop: final r, step and winner, for runs that absorb in any
    # slab or window, at step 0, or not before the step cap
    sig, h, thr, addr = _kernel_case(frame, epsilon, max_steps)
    for q0 in kernel_q0(epsilon):
        r0 = math.log(q0) - math.log1p(-q0)
        want = reference_drive(r0, addr, sig, h, thr, max_steps, DEFAULT_NOISE)
        got = dynamics._drive(r0, addr, sig, h, thr, max_steps, DEFAULT_NOISE)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_slab_kernel_grid_reaches_the_edges():
    # the grid above holds runs that absorb at step 0, in the last row of a
    # slab, in the first row of the next slab and of the next window, and
    # runs stopped by the step cap
    absorbed, capped = set(), set()
    for frame in KERNEL_FRAMES:
        for epsilon in (1e-6, 0.01):
            for max_steps in (31, 300):
                sig, h, thr, addr = _kernel_case(frame, epsilon, max_steps)
                for q0 in kernel_q0(epsilon):
                    r0 = math.log(q0) - math.log1p(-q0)
                    _, steps, winner = reference_drive(r0, addr, sig, h, thr, max_steps,
                                                       DEFAULT_NOISE)
                    absorbed.update(steps[winner > 0].tolist())
                    capped.update(steps[winner == 0].tolist())
    assert {0, 32, 33, 64, 128, BLOCK_STEPS + 1} <= absorbed
    assert capped == {31}


def test_slab_kernel_barrier_is_closed():
    # with the noise off, a start whose z lands exactly on z_hi absorbs at
    # step 1: the barrier test is |z| >= z_hi, as in the reference
    sig, h, thr, addr = _kernel_case("A", 1e-6, 300)
    z_hi = 2.0 * np.arcsinh(np.sinh(0.5 * thr) * math.exp(-0.5 * h))
    r0 = 2.0 * math.asinh(math.sinh(0.5 * thr) * math.exp(-h))
    for _ in range(64):
        y = 2.0 * np.arcsinh(np.sinh(0.5 * np.array([r0])) * math.exp(0.5 * h))
        if y[0] == z_hi:
            break
        r0 = math.nextafter(r0, math.inf if y[0] < z_hi else -math.inf)
    assert y[0] == z_hi
    zero = _ConstNoise(0.0)
    for start, side in ((r0, 1), (-r0, 2)):
        _, steps, winner = dynamics._drive(start, addr, sig, h, thr, 300, zero)
        assert (steps == 1).all() and (winner == side).all()
        assert np.array_equal(steps, reference_drive(start, addr, sig, h, thr, 300, zero)[1])


@pytest.mark.parametrize("slab", [1, 7, BLOCK_STEPS])
def test_slab_size_does_not_change_results(monkeypatch, slab):
    sig, h, thr, addr = _kernel_case("0", 1e-6, 300)
    want = dynamics._drive(0.0, addr, sig, h, thr, 300, DEFAULT_NOISE)
    monkeypatch.setattr(dynamics, "SLAB_ROWS", slab)
    got = dynamics._drive(0.0, addr, sig, h, thr, 300, DEFAULT_NOISE)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("max_rows", [None, 31, 32, 33, 128, 129])
@pytest.mark.parametrize("run", [0, 9, 256, 1023])
def test_trajectory_matches_reference_record(run, max_rows):
    # run_trajectory's rows are the reference's recorded rows, step for
    # step and bit for bit, up to and including the absorbing step
    p1, p2, layout, dt = KERNEL_FRAMES["A"]
    params = CollapseParams(dt=dt, lam=LAM)
    key = ((*derive_stream_key(83, "D1"), run),)
    rows = run_trajectory(0.5, p1, p2, params, layout, key, max_rows=max_rows)
    sig, h, thr, addr = dynamics._prepare(p1, p2, params, layout, [key])
    recorded = []
    cap = params.max_steps if max_rows is None else max_rows
    _, steps, _ = reference_drive(0.0, addr, sig, h, thr, cap, DEFAULT_NOISE,
                                  record=lambda k, x: recorded.append((k, float(x[0]))))
    assert [(k, r) for k, _, _, r in rows[1:]] == recorded
    assert len(recorded) == steps[0]


def test_zero_noise_follows_exact_drift_flow():
    # with the noise off the split step is the exact flow of the cooked
    # drift, over several windows and at the largest step allowed; the
    # frozen-drift Euler step misses by 0.03 to 0.09 here.  At epsilon
    # 1e-300 the barrier sits near |r| = 690, which the flow does not reach
    n = 3 * BLOCK_STEPS + 17
    for gamma_dt in (0.05, MAX_GAMMA_DT):
        params = CollapseParams(dt=gamma_dt / GAMMA, lam=LAM, epsilon=1e-300, max_steps=n)
        for q0 in (0.3, 0.8, 1e-6):
            r0 = math.log(q0) - math.log1p(-q0)
            res = collapse_batch(q0, P1, P2, params, LAYOUT, keys_for(1),
                                 noise=_ConstNoise(0.0))
            assert (res.winner[0], res.steps[0]) == (0, n)
            expected = 2.0 * math.asinh(math.sinh(0.5 * r0) * math.exp(n * gamma_dt))
            assert res.r[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_one_step_cooked_mean_preserves_q():
    n = 200_000
    params = dataclasses.replace(PARAMS, max_steps=1)
    res = collapse_batch(0.3, P1, P2, params, LAYOUT, keys_for(n, seed=8))
    assert np.all(res.winner == 0)
    q = res.q
    se = float(q.std()) / math.sqrt(n)
    assert abs(float(q.mean()) - 0.3) < 4.0 * se


def test_martingale_at_intermediate_time():
    # q stopped at absorption or at the step cap Gamma t = 1, whichever
    # comes first, keeps its mean; at epsilon 0.01 about a fifth of the
    # runs absorb before the cap, so the stopped values are covered
    n = 20_000
    params = dataclasses.replace(PARAMS, epsilon=0.01,
                                 max_steps=round(1.0 / GAMMA / PARAMS.dt))
    res = collapse_batch(0.3, P1, P2, params, LAYOUT, keys_for(n, seed=21))
    assert np.mean(res.winner > 0) >= 0.1
    q = res.q
    se = float(q.std()) / math.sqrt(n)
    assert abs(float(q.mean()) - 0.3) < 4.0 * se


def test_time_scaling_doubling_gamma_halves_median():
    p1_fast = OccupationProfile((("yes", ETA * math.sqrt(2.0)), ("no", 0.0)))
    p2_fast = OccupationProfile((("yes", 0.0), ("no", ETA * math.sqrt(2.0))))
    n = 3000
    slow = collapse_batch(0.5, P1, P2, PARAMS, LAYOUT, keys_for(n, seed=41))
    fast = collapse_batch(0.5, p1_fast, p2_fast, PARAMS, LAYOUT, keys_for(n, seed=42))
    ratio = float(np.median(fast.duration) / np.median(slow.duration))
    assert 0.43 < ratio < 0.57


def test_extreme_epsilon_absorbs_without_overflow():
    # at the smallest epsilon the barrier sits near |r| = 744, and absorbed
    # runs step on to the end of their window; sinh(r / 2) overflows only
    # past |r| = 1420, so every run absorbs and no warning is raised
    params = CollapseParams(dt=MAX_GAMMA_DT / GAMMA, lam=LAM, epsilon=5e-324)
    assert params.log_threshold > 744.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = collapse_batch(0.5, P1, P2, params, LAYOUT, keys_for(64, seed=19))
    assert np.all(res.winner > 0)
    assert np.all(np.abs(res.r) > 740.0) and np.all(np.isfinite(res.r))


def test_stream_layout_validation():
    with pytest.raises(ValueError):
        StreamLayout((("a", "b"), ("b",)))
    bad = StreamLayout((("yes",),))
    with pytest.raises(IncompleteNoiseError):
        collapse_batch(0.5, P1, P2, PARAMS, bad, keys_for(1))


def test_trajectory_recording(tmp_path):
    key = derive_stream_key(3, "D1")
    rows = run_trajectory(0.5, P1, P2, PARAMS, LAYOUT, ((*key, 4),))
    assert rows[0][:3] == (0, 0.0, 0.5)
    ref = collapse_batch(0.5, P1, P2, PARAMS, LAYOUT, [((*key, 4),)])
    assert len(rows) - 1 == ref.steps[0]
    assert rows[-1][3] == ref.r[0]
    # consecutive rows follow the split step on the run's own noise, up to
    # the rounding of phi_h against two half flows
    h = GAMMA * PARAMS.dt
    sig = 2.0 * math.sqrt(h)
    for (k, t, q, r), nxt in zip(rows, rows[1:]):
        zeta = DEFAULT_NOISE.block_normals(key, k // BLOCK_STEPS, [4])[k % BLOCK_STEPS]
        assert nxt[0] == k + 1 and nxt[1] == (k + 1) * PARAMS.dt
        assert nxt[3] == pytest.approx(split_step(h, r, sig * zeta), abs=1e-12)
        assert nxt[2] == stable_q(nxt[3])
    # the run absorbs at the shifted barrier, which may sit short of the
    # nominal threshold, and not a step before
    barrier = PARAMS.log_threshold - BARRIER_BETA * sig
    assert abs(rows[-1][3]) >= barrier > abs(rows[-2][3])
    assert (rows[-1][3] > 0) == (ref.winner[0] == 1)

    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,t_model_s,q,r"
    assert len(lines) == len(rows) + 1


def test_trajectory_max_rows_is_a_prefix():
    key = ((*derive_stream_key(3, "D1"), 4),)
    full = run_trajectory(0.5, P1, P2, PARAMS, LAYOUT, key)
    capped = run_trajectory(0.5, P1, P2, PARAMS, LAYOUT, key, max_rows=1100)
    assert len(full) > 1101
    assert capped == full[:1101]
