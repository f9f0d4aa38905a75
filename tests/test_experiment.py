import math
from dataclasses import replace

import numpy as np
import pytest

from collapsemc.dynamics import MAX_GAMMA_DT, OccupationProfile, effective_rate
from collapsemc.experiment import (TARGET_GAMMA_DT, DetectorSpec, Scenario,
                                   active_profiles, build_scenario,
                                   disagreement_rate_analytic, frame_pair,
                                   q0_from_amplitudes, run_frame_batch)
from collapsemc.noise import PhiloxNoiseSource, derive_stream_key
from collapsemc.relativity import C, Frame, activation_gap

V99 = 0.99 * C
FRAME_0 = Frame(0.0, "frame0")
FRAME_A = Frame(V99, "A")
FRAME_B = Frame(-V99, "B")


class _SpyNoise(PhiloxNoiseSource):
    """Records the requested stream addresses (k0, k1, run_index);
    optionally corrupts the draws of a chosen key set."""

    def __init__(self, corrupt_keys=()):
        super().__init__()
        self.requested = []
        self.corrupt_keys = set(corrupt_keys)

    def block_normals(self, key, block_index, runs):
        self.requested.extend((*key, int(k)) for k in runs)
        vals = super().block_normals(key, block_index, runs)
        if key in self.corrupt_keys:
            return -3.0 * vals + 1.0
        return vals


def assert_tables_equal(a, b):
    assert a.dtype == b.dtype
    for name in a.dtype.names:
        assert np.array_equal(a[name], b[name], equal_nan=a.dtype[name].kind == "f"), name


def test_build_scenario_default_rates():
    scn = build_scenario(d=1000.0, q0=0.5)
    lam = scn.params.lam
    p1, p2, ids = active_profiles(scn, FRAME_A)
    assert ids == ("D1",)
    assert effective_rate(p1, p2, lam) == pytest.approx(2e4, rel=1e-12)
    p1, p2, ids = active_profiles(scn, FRAME_B)
    assert ids == ("D2",)
    assert effective_rate(p1, p2, lam) == pytest.approx(2e4, rel=1e-12)
    p1, p2, ids = active_profiles(scn, FRAME_0)
    assert ids == ("D1", "D2")
    assert effective_rate(p1, p2, lam) == pytest.approx(4e4, rel=1e-12)


def test_build_scenario_dt_target():
    scn = build_scenario()
    assert scn.params.dt == pytest.approx(TARGET_GAMMA_DT / 4e4, rel=1e-12)
    # inside the hard integrator bound
    assert 4e4 * scn.params.dt <= MAX_GAMMA_DT


def test_active_profile_occupations():
    scn = build_scenario()
    p1, p2, _ = active_profiles(scn, FRAME_0)
    assert p1.eta("D1.yes") == 1e10 and p1.eta("D1.no") == 0.0
    assert p1.eta("D2.no") == 1e10 and p1.eta("D2.yes") == 0.0
    assert p2.eta("D1.no") == 1e10 and p2.eta("D1.yes") == 0.0
    assert p2.eta("D2.yes") == 1e10 and p2.eta("D2.no") == 0.0


def test_build_scenario_overrides():
    scn = build_scenario(overrides={"eta": 2e10, "lam": 2e-16})
    p1, p2, _ = active_profiles(scn, FRAME_A)
    assert effective_rate(p1, p2, scn.params.lam) == pytest.approx(
        2.0 * 2e-16 * (2e10) ** 2, rel=1e-12)
    scn = build_scenario(q0=0.9, overrides={"amplitudes": (2.0, 2.0)})
    assert scn.q0 == 0.5
    scn = build_scenario(overrides={"amplitudes": (1.0, 3.0)})
    assert scn.q0 == 0.25


def test_build_scenario_invalid_overrides():
    with pytest.raises(ValueError):
        build_scenario(overrides={"bogus": 1})
    with pytest.raises(ValueError, match="alpha"):
        build_scenario(overrides={"alpha": 1e-7})
    with pytest.raises(ValueError):
        build_scenario(overrides={"eta": -1.0})
    with pytest.raises(ValueError):
        build_scenario(overrides={"epsilon": 0.7})
    with pytest.raises(ValueError):
        build_scenario(d=-5.0)
    with pytest.raises(ValueError):
        build_scenario(q0=1.5)
    with pytest.raises(ValueError):
        q0_from_amplitudes(0.0, 0.0)


def test_detector_spec_validation():
    from collapsemc.dynamics import OccupationProfile
    yes = OccupationProfile((("x.yes", 1e10),))
    no = OccupationProfile((("x.no", 1e10),))
    with pytest.raises(ValueError):
        DetectorSpec("D3", 1.0, yes, no)
    with pytest.raises(ValueError):
        DetectorSpec("D1", -1.0, yes, no)
    with pytest.raises(ValueError):
        DetectorSpec("D1", 1.0, yes, yes)


def test_stream_key_sets_disjoint_between_frames():
    scn = build_scenario()
    spy_a, spy_b = _SpyNoise(), _SpyNoise()
    run_frame_batch(scn, FRAME_A, 4, [0], noise=spy_a)
    run_frame_batch(scn, FRAME_B, 4, [0], noise=spy_b)
    assert spy_a.requested and spy_b.requested
    assert not set(spy_a.requested) & set(spy_b.requested)


def test_run_frame_trivial_q0():
    scn = build_scenario(q0=1.0)
    for frame in (FRAME_0, FRAME_A, FRAME_B):
        absorbed, failed = run_frame_batch(scn, frame, 1, [0])
        assert len(failed) == 0
        assert absorbed["winner"].tolist() == [1]
        assert absorbed["duration"].tolist() == [0.0]


def test_run_frame_first_detector_and_budget():
    scn = build_scenario()
    gap = activation_gap(scn.d, V99)
    for frame, first in ((FRAME_A, "D1"), (FRAME_B, "D2"), (FRAME_0, "simultaneous")):
        (row,), failed = run_frame_batch(scn, frame, 2, [5])
        assert len(failed) == 0
        assert (row["run_index"], row["frame"], row["first_detector"]) == (5, frame.label, first)
        if frame is FRAME_0:
            assert math.isnan(row["budget"])
        else:
            assert row["budget"] == gap


def test_frame_a_outcome_depends_only_on_d1_stream():
    scn = build_scenario()
    seed, run = 6, 11
    spy = _SpyNoise()
    baseline, _ = run_frame_batch(scn, FRAME_A, seed, [run], noise=spy)
    d1_key = derive_stream_key(seed, "D1")
    d2_key = derive_stream_key(seed, "D2")
    assert set(spy.requested) == {(*d1_key, run)}

    corrupted = _SpyNoise(corrupt_keys=[d2_key])
    perturbed, _ = run_frame_batch(scn, FRAME_A, seed, [run], noise=corrupted)
    assert_tables_equal(perturbed, baseline)


def test_frame0_consumes_both_streams():
    scn = build_scenario()
    spy = _SpyNoise()
    run_frame_batch(scn, FRAME_0, 6, [11], noise=spy)
    assert set(spy.requested) == {(*derive_stream_key(6, "D1"), 11),
                                  (*derive_stream_key(6, "D2"), 11)}


def test_cross_frame_disagreement_rate():
    scn = build_scenario(q0=0.3)
    n = 3000
    outcomes_a, fail_a = run_frame_batch(scn, FRAME_A, 77, range(n))
    outcomes_b, fail_b = run_frame_batch(scn, FRAME_B, 77, range(n))
    assert len(fail_a) == len(fail_b) == 0
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
    p1, p2, _ = active_profiles(scn, frame)
    gamma = effective_rate(p1, p2, scn.params.lam)
    outcomes, failures = run_frame_batch(scn, frame, 131, range(n))
    assert len(failures) == 0
    p = (q0 - eps) / (1.0 - 2.0 * eps)
    w1 = np.count_nonzero(outcomes["winner"] == 1)
    assert abs(w1 / n - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)
    durations = outcomes["duration"]
    mean_t = ((1.0 - 2.0 * eps) * _logit(1.0 - eps) - (2.0 * q0 - 1.0) * _logit(q0)) / (2.0 * gamma)
    assert abs(durations.mean() - mean_t) < 4.0 * durations.std() / math.sqrt(n)


def test_born_marginal_per_frame():
    scn = build_scenario(q0=0.3)
    n = 3000
    outcomes, failures = run_frame_batch(scn, FRAME_B, 91, range(n))
    assert len(failures) == 0
    freq = np.count_nonzero(outcomes["winner"] == 1) / n
    assert abs(freq - 0.3) < 4.0 * math.sqrt(0.3 * 0.7 / n)


def mirror_scenario(scenario: Scenario) -> Scenario:
    """Relabel D1 <-> D2 and branches 1 <-> 2.

    Outcome statistics are invariant under the combined relabeling plus
    v -> -v.
    """
    d1, d2 = scenario.detectors
    swap = {
        "D1": replace(d2, id="D1", position=-d2.position),
        "D2": replace(d1, id="D2", position=-d1.position),
    }
    renamed = []
    for det_id in ("D1", "D2"):
        det = swap[det_id]
        rename = lambda p, old, new: OccupationProfile(
            tuple((c.replace(old, new), e) for c, e in p.cells))
        old = "D2" if det_id == "D1" else "D1"
        renamed.append(replace(
            det,
            yes_profile=rename(det.yes_profile, old, det_id),
            no_profile=rename(det.no_profile, old, det_id),
        ))
    return replace(scenario, q0=1.0 - scenario.q0, detectors=tuple(renamed))


def test_mirror_symmetry_statistics():
    n = 3000
    scn = build_scenario(q0=0.3)
    mirrored = mirror_scenario(scn)
    assert mirrored.q0 == pytest.approx(0.7, rel=1e-12)

    base, _ = run_frame_batch(scn, FRAME_A, 101, range(n))
    flip, _ = run_frame_batch(mirrored, FRAME_B, 202, range(n))
    f_base = np.count_nonzero(base["winner"] == 1) / n
    f_flip = np.count_nonzero(flip["winner"] == 2) / n
    se = math.sqrt(2.0 * 0.3 * 0.7 / n)
    assert abs(f_base - f_flip) < 4.0 * se


def test_run_frame_batch_failures():
    scn = build_scenario(overrides={"max_steps": 64})
    outcomes, failures = run_frame_batch(scn, FRAME_A, 1, range(8))
    assert len(outcomes) == 0
    assert failures["run_index"].tolist() == list(range(8))
    assert np.all(failures["winner"] == 0)
    assert np.all(failures["duration"] == 64 * scn.params.dt)


def test_frame_pair_validation():
    a, b = frame_pair(V99)
    assert a.label == "A" and b.label == "B" and b.v == -a.v
    with pytest.raises(ValueError):
        frame_pair(0.0)
    with pytest.raises(ValueError):
        frame_pair(C)


def test_scenario_rejects_identical_branch_profiles():
    from collapsemc.dynamics import OccupationProfile
    same = OccupationProfile((("D1.yes", 1e10),))
    det1 = DetectorSpec("D1", 1000.0, same, OccupationProfile((("D1.no", 1e10),)))
    det2 = DetectorSpec("D2", -1000.0,
                        OccupationProfile((("D2.yes", 0.0),)),
                        OccupationProfile((("D2.no", 0.0),)))
    from collapsemc.dynamics import CollapseParams
    with pytest.raises(ValueError, match="no collapse possible"):
        Scenario(d=1000.0, q0=0.5, detectors=(det1, det2),
                 params=CollapseParams(dt=1.25e-7))
