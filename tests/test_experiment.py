import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from collapsemc.dynamics import MAX_GAMMA_DT, CollapseParams, _logit, collapse_batch
from collapsemc.ensemble import export_records
from collapsemc.experiment import (RECORD_DTYPE, SURVIVAL_EPSILON_MIN, TARGET_GAMMA_DT,
                                   Scenario, active_detectors, build_scenario,
                                   collapse_time_survival, disagreement_rate_analytic,
                                   frame_pair, run_frame_batch)
from collapsemc.noise import PhiloxNoiseSource, derive_stream_key
from collapsemc.relativity import C, Frame, activation_gap

V99 = 0.99 * C
FRAME_0 = Frame(0.0)
FRAME_A = Frame(V99)
FRAME_B = Frame(-V99)


class _SpyNoise(PhiloxNoiseSource):
    """Records the requested stream addresses (k0, k1, run_index);
    optionally corrupts the draws of a chosen key set, mirroring each
    level index i to 15 - i."""

    def __init__(self, corrupt_keys=()):
        super().__init__()
        self.requested = []
        self.corrupt_keys = set(corrupt_keys)

    def block_normals(self, key, block_index, runs):
        self.requested.extend((*key, int(k)) for k in runs)
        vals = super().block_normals(key, block_index, runs)
        if key in self.corrupt_keys:
            return 15 - vals
        return vals


def assert_tables_equal(a, b):
    assert a.dtype == b.dtype
    for name in a.dtype.names:
        assert np.array_equal(a[name], b[name], equal_nan=a.dtype[name].kind == "f"), name


def test_build_scenario_default_rates():
    # lam 1e-16 and eta 1e10 give each detector 2 lam eta^2 = 2e4 per
    # second, and frame 0 runs at the sum of both
    scn = build_scenario(d=1000.0, q0=0.5)
    assert scn.rate == 2e4
    assert scn.frame_rates(FRAME_A) == (2e4,)
    assert scn.frame_rates(FRAME_B) == (2e4,)
    assert scn.frame_rates(FRAME_0) == (2e4, 2e4)
    assert sum(scn.frame_rates(FRAME_0)) == 4e4


def test_build_scenario_dt_target():
    scn = build_scenario()
    assert scn.params.dt == pytest.approx(TARGET_GAMMA_DT / 4e4, rel=1e-12)
    # inside the hard integrator bound
    assert 4e4 * scn.params.dt <= MAX_GAMMA_DT


def test_active_detectors_per_frame():
    # the detector that activates first drives frames A and B alone, and
    # both drive the mirror frame, D1 first
    assert active_detectors(FRAME_0) == ("D1", "D2")
    assert active_detectors(FRAME_A) == ("D1",)
    assert active_detectors(FRAME_B) == ("D2",)
    assert active_detectors(Frame(-1e-3)) == ("D2",)


def test_build_scenario_overrides():
    scn = build_scenario(overrides={"eta": 2e10, "lam": 2e-16})
    assert scn.frame_rates(FRAME_A) == (2e-16 * ((2e10) ** 2 + (2e10) ** 2),)
    assert scn.rate == pytest.approx(2.0 * 2e-16 * (2e10) ** 2, rel=1e-15)


def test_build_scenario_invalid_overrides():
    with pytest.raises(ValueError):
        build_scenario(overrides={"bogus": 1})
    with pytest.raises(ValueError, match="alpha"):
        build_scenario(overrides={"alpha": 1e-7})
    with pytest.raises(ValueError):
        build_scenario(overrides={"eta": -1.0})
    # lam is checked as eta is, with the same messages
    for name in ("eta", "lam"):
        with pytest.raises(TypeError, match=f"{name} must be a number, got True"):
            build_scenario(overrides={name: True})
        for bad in (0.0, -1e-16, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                build_scenario(overrides={name: bad, "dt": 1e-9})
    with pytest.raises(ValueError):
        build_scenario(overrides={"epsilon": 0.7})
    with pytest.raises(ValueError):
        build_scenario(d=-5.0)
    with pytest.raises(ValueError):
        build_scenario(q0=1.5)


def test_detector_spec_validation():
    # a scenario specifies both detectors by their one rate, which must be
    # finite and > 0
    params = CollapseParams(dt=1.25e-7)
    for bad in (-2e4, math.inf, math.nan):
        with pytest.raises(ValueError, match="detector rate must be finite and > 0"):
            Scenario(d=1000.0, q0=0.5, rate=bad, params=params)


@pytest.mark.parametrize("overrides", [{"eta": 1e160, "dt": 1e-9},
                                       {"lam": 1e300, "dt": 1e-9}])
def test_overflowing_rate_is_refused(overrides):
    # eta ** 2 overflows in the first case, and with dt set no derived dt
    # catches it first; an infinite product of lam and the cells, in the
    # second, is refused the same way
    with pytest.raises(ValueError, match=r"lam = .* and eta = .*float range"):
        build_scenario(overrides=overrides)


def test_stream_key_sets_disjoint_between_frames():
    scn = build_scenario()
    spy_a, spy_b = _SpyNoise(), _SpyNoise()
    run_frame_batch(scn, (FRAME_A,), 4, [0], noise=spy_a)
    run_frame_batch(scn, (FRAME_B,), 4, [0], noise=spy_b)
    assert spy_a.requested and spy_b.requested
    assert not set(spy_a.requested) & set(spy_b.requested)


def test_run_frame_trivial_q0():
    scn = build_scenario(q0=1.0)
    for frame in (FRAME_0, FRAME_A, FRAME_B):
        table, empty = run_frame_batch(scn, (frame,), 1, [0])
        assert len(empty) == 0
        assert table["winner"].tolist() == [1]
        assert table["duration"].tolist() == [0.0]


def test_run_frame_first_detector_and_budget(tmp_path):
    # the rows hold no frame: the writer, handed the batch's frame, spells
    # its label and first detector on every row; at d = 3000 m the gap
    # splits frame A's and B's collapses, and each row's within_budget
    # code says on which side it fell
    scn = build_scenario(d=3000.0)
    gap = activation_gap(scn.d, V99)
    for frame, first in ((FRAME_A, "D1"), (FRAME_B, "D2"), (FRAME_0, "simultaneous")):
        table, empty = run_frame_batch(scn, (frame,), 2, range(5, 405))
        assert len(empty) == 0 and table.dtype == RECORD_DTYPE
        assert table["run_index"].tolist() == list(range(5, 405))
        export_records(table, str(tmp_path / "records.csv"), "csv", (frame,))
        with open(tmp_path / "records.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert {(row["frame"], row["first_detector"]) for row in rows} == {(frame.label, first)}
        codes = table["within_budget"].tolist()
        if frame is FRAME_0:
            assert set(codes) == {0}
        else:
            assert codes == [1 if t < gap else 2 for t in table["duration"].tolist()]
            assert set(codes) == {1, 2}


def test_run_frame_refuses_indices_that_are_not_integers():
    # 1.5, 2.7 and True are not run indices: they are refused, not read as
    # runs 1, 2 and 1; a numpy integer is the run it equals
    scn = build_scenario()
    for bad in ([1.5], np.array([2.7]), [True], np.array([True]), [0, 1.0]):
        with pytest.raises(TypeError, match="integers"):
            run_frame_batch(scn, (FRAME_A,), 3, bad)
    table, _ = run_frame_batch(scn, (FRAME_A,), 3, [np.uint64(2)])
    assert table["run_index"].tolist() == [2]
    assert table.tobytes() == run_frame_batch(scn, (FRAME_A,), 3, [2])[0].tobytes()


def test_run_frame_capped_rows_have_no_verdict():
    # capped at 200 steps, some runs of each frame fail and some absorb;
    # a failed run keeps its row in place, winner 0 with no verdict, and
    # frame A's absorbed rows keep theirs
    scn = build_scenario(d=3000.0, overrides={"max_steps": 200})
    for frame in (FRAME_A, FRAME_0):
        table, empty = run_frame_batch(scn, (frame,), 2, range(50))
        assert len(empty) == 0 and empty.dtype == RECORD_DTYPE
        assert table["run_index"].tolist() == list(range(50))
        capped = table["winner"] == 0
        assert 0 < capped.sum() < 50
        assert table["within_budget"][capped].tolist() == [0] * capped.sum()
        if frame is FRAME_A:
            assert set(table["within_budget"][~capped].tolist()) <= {1, 2}


def test_frame_a_outcome_depends_only_on_d1_stream():
    scn = build_scenario()
    seed, run = 6, 11
    spy = _SpyNoise()
    baseline, _ = run_frame_batch(scn, (FRAME_A,), seed, [run], noise=spy)
    d1_key = derive_stream_key(seed, "D1")
    d2_key = derive_stream_key(seed, "D2")
    assert set(spy.requested) == {(*d1_key, run)}

    corrupted = _SpyNoise(corrupt_keys=[d2_key])
    perturbed, _ = run_frame_batch(scn, (FRAME_A,), seed, [run], noise=corrupted)
    assert_tables_equal(perturbed, baseline)


def test_frame0_consumes_both_streams():
    scn = build_scenario()
    spy = _SpyNoise()
    run_frame_batch(scn, (FRAME_0,), 6, [11], noise=spy)
    assert set(spy.requested) == {(*derive_stream_key(6, "D1"), 11),
                                  (*derive_stream_key(6, "D2"), 11)}


def test_cross_frame_disagreement_rate():
    scn = build_scenario(q0=0.3)
    n = 3000
    outcomes_a, empty_a = run_frame_batch(scn, (FRAME_A,), 77, range(n))
    outcomes_b, empty_b = run_frame_batch(scn, (FRAME_B,), 77, range(n))
    assert len(empty_a) == len(empty_b) == 0
    assert (outcomes_a["winner"] > 0).all() and (outcomes_b["winner"] > 0).all()
    rate = np.count_nonzero(outcomes_a["winner"] != outcomes_b["winner"]) / n
    expected = disagreement_rate_analytic(0.3, scn.params.epsilon)
    assert abs(rate - expected) < 4.0 * math.sqrt(expected * (1 - expected) / n)


def test_disagreement_rate_analytic_values():
    assert disagreement_rate_analytic(0.5, 1e-6) == pytest.approx(0.5, rel=1e-15)
    assert disagreement_rate_analytic(0.0, 1e-6) == 0.0
    assert disagreement_rate_analytic(1.0, 1e-6) == 0.0
    # p = (q0 - eps) / (1 - 2 eps), rate 2 p (1 - p), evaluated in exact rationals
    assert disagreement_rate_analytic(0.3, 1e-6) == pytest.approx(0.41999967999904, rel=1e-12)
    assert disagreement_rate_analytic(0.8, 0.01) == pytest.approx(0.3125780924614744, rel=1e-12)
    with pytest.raises(ValueError):
        disagreement_rate_analytic(1.2, 1e-6)


def _logit(x):
    return math.log(x) - math.log1p(-x)


@pytest.mark.parametrize("frame, epsilon, n", [
    (FRAME_0, 1e-6, 4096), (FRAME_A, 1e-6, 4096),
    (FRAME_0, 0.01, 32768), (FRAME_A, 0.01, 32768),
], ids=["frame0", "A", "frame0-eps0.01", "A-eps0.01"])
def test_closed_form_born_and_mean_time(frame, epsilon, n):
    # dq = 2 sqrt(Gamma) q (1 - q) dW absorbed at eps and 1 - eps gives
    # P(winner 1) = (q0 - eps) / (1 - 2 eps) and
    # E[T] = [(1 - 2 eps) logit(1 - eps) - (2 q0 - 1) logit(q0)] / (2 Gamma);
    # the mean time pins the Gamma of the combined detector noise.  At
    # eps 0.01 the 4-standard-error band is about 2 % of E[T], narrow
    # enough to catch the 2.5-3 % frame-0 lag of an unshifted barrier
    scn = build_scenario(q0=0.3, overrides={"epsilon": epsilon})
    q0, eps = scn.q0, scn.params.epsilon
    gamma = sum(scn.frame_rates(frame))
    outcomes, empty = run_frame_batch(scn, (frame,), 131, range(n))
    assert len(empty) == 0 and (outcomes["winner"] > 0).all()
    p = (q0 - eps) / (1.0 - 2.0 * eps)
    w1 = np.count_nonzero(outcomes["winner"] == 1)
    assert abs(w1 / n - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)
    durations = outcomes["duration"]
    mean_t = ((1.0 - 2.0 * eps) * _logit(1.0 - eps) - (2.0 * q0 - 1.0) * _logit(q0)) / (2.0 * gamma)
    assert abs(durations.mean() - mean_t) < 4.0 * durations.std() / math.sqrt(n)


def _mean_time(q0, eps):
    """Closed-form E[Gamma T] from q0."""
    return ((1.0 - 2.0 * eps) * _logit(1.0 - eps) - (2.0 * q0 - 1.0) * _logit(q0)) / 2.0


@pytest.mark.parametrize("q0, epsilon", [(0.5, 1e-6), (0.8, 1e-6), (0.3, 0.01)])
def test_collapse_time_survival_integrates_to_mean_time(q0, epsilon):
    # S(0) = 1, S falls monotonically, and its integral over tau is the
    # closed-form E[Gamma T]; the trapezoid rule at step 0.005 errs by
    # under 1e-9 here, since S is flat at 0 and decays as e^{-tau / 2}
    tau = np.arange(0.0, 150.0, 0.005)
    s = collapse_time_survival(tau, q0, epsilon)
    assert s[0] == 1.0 and s[-1] < 1e-30
    assert (np.diff(s) <= 1e-12).all() and (s > -1e-12).all()
    integral = float(np.sum(0.5 * (s[1:] + s[:-1])) * 0.005)
    assert integral == pytest.approx(_mean_time(q0, epsilon), rel=1e-9)


def test_collapse_time_survival_edges():
    # a start at or past a threshold has collapsed at tau 0
    assert collapse_time_survival([0.0, 1.0], 1.0, 1e-6).tolist() == [0.0, 0.0]
    assert collapse_time_survival([0.0, 1.0], 0.005, 0.01).tolist() == [0.0, 0.0]
    assert collapse_time_survival(np.zeros((2, 3)), 0.5, 0.01).shape == (2, 3)
    for bad in ({"tau": -1.0}, {"tau": math.nan}, {"q0": 1.5},
                {"epsilon": SURVIVAL_EPSILON_MIN / 2}, {"epsilon": 0.5}):
        args = {"tau": 1.0, "q0": 0.5, "epsilon": 1e-6, **bad}
        with pytest.raises(ValueError):
            collapse_time_survival(args["tau"], args["q0"], args["epsilon"])


def test_collapse_time_survival_on_the_threshold():
    # q0 0.99 at epsilon 0.01 rounds to an r0 one ulp inside L, and the
    # start is still on the threshold: both starts there have collapsed
    assert abs(_logit(0.99)) < math.log1p(-0.01) - math.log(0.01)
    for q0 in (0.99, 0.01):
        assert collapse_time_survival([1e-6, 1e-3, 0.005, 0.1], q0, 0.01).tolist() == [0.0] * 4


def test_collapse_time_survival_at_small_tau():
    # 1 - S is bounded below 2^-54 here, so S is 1.0 with no series, which
    # would need about 4e151 and 4e8 terms
    assert collapse_time_survival([1e-300, 1e-14], 0.5, 1e-6).tolist() == [1.0, 1.0]
    # a start 1e-4 inside a threshold, in logit, has no such bound at tau
    # 1e-10, and its series would need 4e6 terms, past SURVIVAL_TERMS_MAX
    with pytest.raises(ValueError, match="tau 1e-10 needs"):
        collapse_time_survival([1.0, 1e-10], 1.0 - 1.0001e-6, 1e-6)


# the 1 % point of the Kolmogorov distribution of sqrt(N) D
KS_1PCT = 1.63


@pytest.mark.parametrize("q0", [0.5, 0.8])
@pytest.mark.parametrize("frame", [FRAME_0, FRAME_A], ids=["frame0", "A"])
def test_collapse_time_law_lattice_ks(frame, q0):
    # the engine's step counts against the exact law: the ECDF at every
    # step k up to the longest run against 1 - S(k Gamma dt), at the
    # scenario step (Gamma dt 0.05 in frame 0, 0.025 in frame A) and
    # epsilon 1e-6, where seed 123 gives sqrt(N) D of 0.49-0.91.  At
    # epsilon 0.01 the shifted barrier's discretization bias shows at this
    # run count: seeds 1-8 give up to 1.85, past the 1 % point, so that
    # epsilon is left to the E[T] test above
    n = 16384
    scn = build_scenario(q0=q0)
    params = scn.params
    keys = [[derive_stream_key(123, det) for det in active_detectors(frame)]]
    rates = scn.frame_rates(frame)
    res = collapse_batch(q0, rates, params.dt, params.epsilon, params.max_steps, keys,
                         np.arange(n))
    assert (res.winner > 0).all()
    steps = np.arange(int(res.steps.max()) + 1)
    ecdf = np.searchsorted(np.sort(res.steps), steps, side="right") / n
    law = 1.0 - collapse_time_survival(steps * (sum(rates) * params.dt), q0, params.epsilon)
    assert math.sqrt(n) * float(np.abs(ecdf - law).max()) < KS_1PCT


def test_born_marginal_per_frame():
    scn = build_scenario(q0=0.3)
    n = 3000
    outcomes, empty = run_frame_batch(scn, (FRAME_B,), 91, range(n))
    assert len(empty) == 0 and (outcomes["winner"] > 0).all()
    freq = np.count_nonzero(outcomes["winner"] == 1) / n
    assert abs(freq - 0.3) < 4.0 * math.sqrt(0.3 * 0.7 / n)


def mirror_scenario(scenario: Scenario) -> Scenario:
    """Relabel D1 <-> D2 and branches 1 <-> 2: both detectors share one
    rate, so only q0 -> 1 - q0 changes.

    Outcome statistics are invariant under the combined relabeling plus
    v -> -v.
    """
    return replace(scenario, q0=1.0 - scenario.q0)


def test_mirror_symmetry_statistics():
    n = 3000
    scn = build_scenario(q0=0.3)
    mirrored = mirror_scenario(scn)
    assert mirrored.q0 == pytest.approx(0.7, rel=1e-12)

    base, _ = run_frame_batch(scn, (FRAME_A,), 101, range(n))
    flip, _ = run_frame_batch(mirrored, (FRAME_B,), 202, range(n))
    f_base = np.count_nonzero(base["winner"] == 1) / n
    f_flip = np.count_nonzero(flip["winner"] == 2) / n
    se = math.sqrt(2.0 * 0.3 * 0.7 / n)
    assert abs(f_base - f_flip) < 4.0 * se


def test_run_frame_batch_failures():
    # every run hits the cap of 64 steps, and each keeps its row, in place,
    # with the capped duration; the second table is empty
    scn = build_scenario(overrides={"max_steps": 64})
    table, empty = run_frame_batch(scn, (FRAME_A,), 1, range(8))
    assert len(empty) == 0 and empty.dtype == table.dtype == RECORD_DTYPE
    assert table["run_index"].tolist() == list(range(8))
    assert np.all(table["winner"] == 0)
    assert np.all(table["duration"] == 64 * scn.params.dt)


def test_frame_pair_batch_rows_keep_frame_order():
    # one run_frame_batch over (A, B) steps both frames in one engine call,
    # and its table's row 2 k + f is run k in frame f.  Capped at 80 steps
    # at epsilon 0.01, some runs fail in A alone, some in B alone and some
    # in both, among them the first and the last run; each failed row sits
    # in place, and every row is the one a one-run batch of its frame gives
    scn = build_scenario(d=3000.0, overrides={"epsilon": 0.01, "max_steps": 80})
    runs = np.arange(3, 60)
    table, empty = run_frame_batch(scn, (FRAME_A, FRAME_B), 3, runs)
    assert len(empty) == 0 and empty.dtype == RECORD_DTYPE
    assert len(table) == 2 * runs.size
    assert table["run_index"].tolist() == np.repeat(runs, 2).tolist()
    fail_a, fail_b = table["winner"][0::2] == 0, table["winner"][1::2] == 0
    assert (fail_a & ~fail_b).any() and (~fail_a & fail_b).any() and (fail_a & fail_b).any()
    assert (fail_a | fail_b)[[0, -1]].all() and not (fail_a | fail_b).all()
    for i, run in enumerate(runs.tolist()):
        for f, frame in enumerate((FRAME_A, FRAME_B)):
            alone, _ = run_frame_batch(scn, (frame,), 3, [run])
            assert_tables_equal(table[2 * i + f:2 * i + f + 1], alone)


def test_frame_batch_refuses_frames_of_other_rates():
    # one engine call steps every frame of a batch, so the frames must
    # share their stream rates: frame 0 runs two streams, A and B one
    scn = build_scenario()
    for frames in ((FRAME_0, FRAME_A), (FRAME_B, FRAME_0)):
        with pytest.raises(ValueError, match="share their stream rates"):
            run_frame_batch(scn, frames, 1, [0])
    with pytest.raises(ValueError, match="at least one frame"):
        run_frame_batch(scn, (), 1, [0])


def test_frame_pair_validation():
    a, b = frame_pair(V99)
    assert a.label == "A" and b.label == "B" and b.v == -a.v
    with pytest.raises(ValueError):
        frame_pair(0.0)
    with pytest.raises(ValueError):
        frame_pair(C)


def test_scenario_rejects_identical_branch_profiles():
    # a pointer that sits alike in both branches gives rate 0, and a frame
    # its detector drives could never collapse
    params = CollapseParams(dt=1.25e-7)
    for zero in (0.0, -0.0):
        with pytest.raises(ValueError, match="detector rate is 0; no collapse possible"):
            Scenario(d=1000.0, q0=0.5, rate=zero, params=params)
