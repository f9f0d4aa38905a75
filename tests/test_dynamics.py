import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsemc.dynamics import (BARRIER_BETA, CollapseParams, IncompleteNoiseError,
                                 InvalidProfileError, NoCollapsePossibleError,
                                 OccupationProfile, StreamLayout, collapse_batch,
                                 effective_rate, evolve_batch, run_trajectory,
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
    return [(derive_stream_key(seed, det, k, salt=salt),) for k in range(n)]


def keys0_for(n, seed=1):
    return [(derive_stream_key(seed, "D1", k), derive_stream_key(seed, "D2", k))
            for k in range(n)]


class _OnesNoise(PhiloxNoiseSource):
    """Every increment is +1, so one step can be checked by hand."""

    def block_normals(self, key, block_index, rows=None):
        return np.ones(rows)


class _SpyNoise(PhiloxNoiseSource):
    """Records the shape of every window it hands out."""

    def __init__(self):
        super().__init__()
        self.shapes = []

    def block_normals(self, key, block_index, rows=None):
        vals = super().block_normals(key, block_index, rows=rows)
        self.shapes.append(vals.shape)
        return vals


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


def test_start_q_round_trips():
    assert evolve_batch(0.3, P1, P2, PARAMS, LAYOUT, keys_for(1), 0).q[0] == pytest.approx(
        0.3, rel=1e-14)
    for q in (0.0, 1.0, 1e-9, 1.0 - 1e-9):
        res = evolve_batch(q, P1, P2, PARAMS, LAYOUT, keys_for(1), 0)
        assert res.q[0] == pytest.approx(q, rel=1e-12, abs=1e-300)


def test_start_q_validation():
    with pytest.raises(ValueError):
        evolve_batch(1.5, P1, P2, PARAMS, LAYOUT, keys_for(1), 1)
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
    assert all(len(shape) == 1 for shape in spy.shapes)
    # a run is drawn for in every window it enters, once per stream
    windows = int(sum(-(-int(k) // BLOCK_STEPS) for k in res.steps))
    assert windows > 40
    assert len(spy.shapes) == 2 * windows


# ---------------------------------------------------------------------------
# one step of the log-odds recursion
# ---------------------------------------------------------------------------

def test_step_identical_profiles_leave_q_unchanged():
    p = OccupationProfile((("a", ETA), ("b", 3.0)))
    layout = StreamLayout((("a", "b"),))
    for measure in ("cooked", "raw"):
        out = evolve_batch(0.5, p, p, PARAMS, layout, keys_for(3), 5, measure=measure)
        assert np.all(out.q == 0.5)


def test_step_hand_example():
    # single cell, eta1 = 1, eta2 = 0, lam dt = 0.01, unit normal +1:
    # noise 2 sqrt(Gamma dt) = 0.2; raw drift -2 lam dt (1 - 0) = -0.02;
    # cooked drift 2 Gamma dt tanh(0) = 0 at q = 0.5
    p1 = OccupationProfile((("c", 1.0),))
    p2 = OccupationProfile((("c", 0.0),))
    layout = StreamLayout((("c",),))
    params = CollapseParams(dt=1.0, lam=0.01, epsilon=1e-6, max_steps=10)
    raw = evolve_batch(0.5, p1, p2, params, layout, keys_for(1), 1,
                       noise=_OnesNoise(), measure="raw")
    assert raw.r[0] == pytest.approx(0.18, abs=1e-15)
    expected_q = 1.0 / (1.0 + math.exp(-0.18))
    assert raw.q[0] == pytest.approx(expected_q, rel=1e-12)
    assert expected_q == pytest.approx(0.5449, abs=5e-5)
    cooked = evolve_batch(0.5, p1, p2, params, layout, keys_for(1), 2, noise=_OnesNoise())
    assert cooked.r[0] == pytest.approx(0.4 + 0.02 * math.tanh(0.1), abs=1e-15)


def test_barrier_shift_hand_example():
    # raw measure, constant +1 noise: r grows by 0.2 - 0.02 = 0.18 a step.
    # The nominal threshold logit(1 - eps) is 1, which r passes at step 6;
    # the shifted barrier 1 - beta * 0.2 = 0.8835 is passed at step 5
    p1 = OccupationProfile((("c", 1.0),))
    p2 = OccupationProfile((("c", 0.0),))
    layout = StreamLayout((("c",),))
    params = CollapseParams(dt=1.0, lam=0.01, epsilon=1.0 / (1.0 + math.e), max_steps=10)
    assert params.log_threshold == pytest.approx(1.0, abs=1e-15)
    res = collapse_batch(0.5, p1, p2, params, layout, keys_for(1), noise=_OnesNoise(),
                         measure="raw")
    assert (res.winner[0], res.steps[0]) == (1, 5)
    assert res.r[0] == pytest.approx(0.9, abs=1e-14)
    rows = run_trajectory(0.5, p1, p2, params, layout, keys_for(1)[0], noise=_OnesNoise(),
                          measure="raw")
    assert len(rows) - 1 == 5 and rows[-1][3] == res.r[0]
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
        evolve_batch(0.5, P1, P2, PARAMS, StreamLayout((("yes",),)), keys_for(1), 1)
    with pytest.raises(IncompleteNoiseError):
        evolve_batch(0.5, P1, P2, PARAMS, StreamLayout((("yes", "no", "other"),)),
                     keys_for(1), 1)
    with pytest.raises(ValueError, match="stream keys"):
        evolve_batch(0.5, P1, P2, PARAMS, LAYOUT, keys0_for(1), 1)


def test_params_validation():
    with pytest.raises(ValueError):
        CollapseParams(dt=0.0)
    with pytest.raises(ValueError):
        CollapseParams(dt=1.0, lam=-1.0)
    with pytest.raises(ValueError):
        CollapseParams(dt=1.0, epsilon=0.5)
    with pytest.raises(ValueError):
        CollapseParams(dt=1.0, max_steps=0)
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


SPLIT_KEYS = keys0_for(12, seed=71)


@functools.cache
def _whole_batch():
    return collapse_batch(0.5, P01, P02, PARAMS, LAYOUT0, SPLIT_KEYS)


@settings(max_examples=8, deadline=None)
@given(order=st.permutations(range(12)),
       cuts=st.lists(st.integers(1, 11), unique=True, max_size=4))
def test_batch_splits_are_bit_equal(order, cuts):
    # any regrouping and reordering of the runs into smaller batches gives
    # each run the same winner, steps and final r as the whole batch
    whole = _whole_batch()
    assert whole.steps.max() > 3 * BLOCK_STEPS
    bounds = [0, *sorted(cuts), 12]
    for lo, hi in zip(bounds, bounds[1:]):
        part = list(order[lo:hi])
        res = collapse_batch(0.5, P01, P02, PARAMS, LAYOUT0, [SPLIT_KEYS[j] for j in part])
        assert np.array_equal(res.winner, whole.winner[part])
        assert np.array_equal(res.steps, whole.steps[part])
        assert np.array_equal(res.r, whole.r[part])


def test_engine_matches_reference_stepper():
    # a scalar loop of r += drift(r) + 2 sqrt(Gamma dt) zeta with the same
    # operation order must reproduce the batch engine exactly; the
    # profiles differ in total occupation, so the raw drift is not zero
    p1 = OccupationProfile((("yes", ETA), ("no", 0.0)))
    p2 = OccupationProfile((("yes", 0.0), ("no", 0.5 * ETA)))
    key = derive_stream_key(5, "D1", 9)
    n_steps = 50
    gamma = effective_rate(p1, p2, LAM)
    sig = 2.0 * math.sqrt(gamma * PARAMS.dt)
    zeta = DEFAULT_NOISE.block_normals(key, 0, rows=n_steps)
    for measure in ("raw", "cooked"):
        res = evolve_batch(0.37, p1, p2, PARAMS, LAYOUT, [(key,)], n_steps, measure=measure)
        r = math.log(0.37) - math.log1p(-0.37)
        for t in range(n_steps):
            if measure == "raw":
                drift = -2.0 * LAM * PARAMS.dt * (ETA ** 2 - (0.5 * ETA) ** 2)
            else:
                drift = 2.0 * gamma * PARAMS.dt * np.tanh(0.5 * r)
            r = r + drift + zeta[t] * sig
        assert r == res.r[0]


def test_one_step_cooked_mean_preserves_q():
    n = 200_000
    res = evolve_batch(0.3, P1, P2, PARAMS, LAYOUT, keys_for(n, seed=8), 1)
    q = res.q
    se = float(q.std()) / math.sqrt(n)
    assert abs(float(q.mean()) - 0.3) < 4.0 * se


def test_martingale_at_intermediate_time():
    n = 20_000
    n_steps = round(0.3 / GAMMA / PARAMS.dt)
    res = evolve_batch(0.3, P1, P2, PARAMS, LAYOUT, keys_for(n, seed=21), n_steps)
    q = res.q
    se = float(q.std()) / math.sqrt(n)
    assert abs(float(q.mean()) - 0.3) < 4.0 * se


def test_raw_measure_is_not_born():
    # under the unbiased measure the log ratio is a driftless walk for
    # these symmetric profiles, so the hitting probability comes from the
    # gambler's-ruin linear interpolation, not from q0
    n = 4000
    res = collapse_batch(0.3, P1, P2, PARAMS, LAYOUT, keys_for(n, seed=13), measure="raw")
    freq = float(np.mean(res.winner == 1))
    thr = PARAMS.log_threshold
    r0 = math.log(0.3) - math.log1p(-0.3)
    expected = (r0 + thr) / (2.0 * thr)
    assert abs(freq - expected) < 4.0 * math.sqrt(expected * (1 - expected) / n)
    assert abs(freq - 0.3) > 0.05


def test_time_scaling_doubling_gamma_halves_median():
    p1_fast = OccupationProfile((("yes", ETA * math.sqrt(2.0)), ("no", 0.0)))
    p2_fast = OccupationProfile((("yes", 0.0), ("no", ETA * math.sqrt(2.0))))
    n = 3000
    slow = collapse_batch(0.5, P1, P2, PARAMS, LAYOUT, keys_for(n, seed=41))
    fast = collapse_batch(0.5, p1_fast, p2_fast, PARAMS, LAYOUT, keys_for(n, seed=42))
    ratio = float(np.median(fast.duration) / np.median(slow.duration))
    assert 0.43 < ratio < 0.57


def test_winner_immutability_small():
    n = 2000
    res = collapse_batch(0.5, P1, P2, PARAMS, LAYOUT, keys_for(n, seed=51))
    cont_keys = keys_for(n, seed=51, salt="cont")
    n_cont = round(6.0 / GAMMA / PARAMS.dt)
    cont = evolve_batch(res.r, P1, P2, PARAMS, LAYOUT,
                        cont_keys, n_cont, track_range=True)
    thr = PARAMS.log_threshold
    reversed_1 = (res.winner == 1) & (cont.r_min <= -thr)
    reversed_2 = (res.winner == 2) & (cont.r_max >= thr)
    assert int(reversed_1.sum() + reversed_2.sum()) <= max(1, int(0.001 * n))


def test_evolve_batch_per_run_start_matches_single_runs():
    # with an array start and no absorption every run takes all steps, and
    # each equals the same run evolved alone from its own start
    keys = keys0_for(12, seed=61)
    start = np.linspace(-3.0, 3.0, 12)
    full = evolve_batch(start, P01, P02, PARAMS, LAYOUT0, keys, 1500, track_range=True)
    for j in (0, 5, 11):
        single = evolve_batch(start[j:j + 1], P01, P02, PARAMS, LAYOUT0, [keys[j]], 1500,
                              track_range=True)
        assert single.r[0] == full.r[j]
        assert single.r_min[0] == full.r_min[j] <= start[j] <= full.r_max[j]
        assert single.r_max[0] == full.r_max[j]


def test_evolve_batch_validation():
    with pytest.raises(ValueError):
        evolve_batch(0.5, P1, P2, PARAMS, LAYOUT, keys_for(2), -1)
    with pytest.raises(ValueError):
        evolve_batch(np.zeros(3), P1, P2, PARAMS, LAYOUT, keys_for(2), 1)


def test_stream_layout_validation():
    with pytest.raises(ValueError):
        StreamLayout((("a", "b"), ("b",)))
    bad = StreamLayout((("yes",),))
    with pytest.raises(IncompleteNoiseError):
        collapse_batch(0.5, P1, P2, PARAMS, bad, keys_for(1))


def test_trajectory_recording(tmp_path):
    keys = [(derive_stream_key(3, "D1", 4),)]
    rows = run_trajectory(0.5, P1, P2, PARAMS, LAYOUT, keys[0])
    assert rows[0][:3] == (0, 0.0, 0.5)
    ref = collapse_batch(0.5, P1, P2, PARAMS, LAYOUT, keys)
    assert len(rows) - 1 == ref.steps[0]
    assert rows[-1][3] == ref.r[0]
    # the run absorbs at the shifted barrier, which may sit short of the
    # nominal threshold, and not a step before
    barrier = PARAMS.log_threshold - BARRIER_BETA * 2.0 * math.sqrt(GAMMA * PARAMS.dt)
    assert abs(rows[-1][3]) >= barrier > abs(rows[-2][3])
    assert (rows[-1][3] > 0) == (ref.winner[0] == 1)

    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,t_model_s,q,r"
    assert len(lines) == len(rows) + 1


def test_trajectory_max_rows_is_a_prefix():
    key = (derive_stream_key(3, "D1", 4),)
    full = run_trajectory(0.5, P1, P2, PARAMS, LAYOUT, key)
    capped = run_trajectory(0.5, P1, P2, PARAMS, LAYOUT, key, max_rows=1100)
    assert len(full) > 1101
    assert capped == full[:1101]
