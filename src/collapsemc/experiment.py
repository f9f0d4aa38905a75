"""The split-beam two-detector experiment seen from different frames.

A beam splits into branch 1 (toward detector D1 at +d) and branch 2
(toward D2 at -d).  Branch 1 leaves D1's pointer on "yes" and D2's on
"no"; branch 2 the reverse.  The occupation profiles of the two branches
therefore differ in the pointer cells of both detectors, and those
differences drive the collapse.

Which detector's cells and noise participate depends on the frame:

* frame A sees D1 activate first, so its collapse is driven entirely by
  D1's cells and D1's noise stream;
* frame B likewise uses only D2;
* frame 0 sees both detectors simultaneously and runs the joint process
  on all pointer cells.

Because the A and B runs of the same trial consume disjoint noise
streams, their winners are independent Born draws, each picking branch 1
with probability p = (q0 - epsilon) / (1 - 2 epsilon), and the two frames
disagree with probability 2 p (1 - p).

A batch of trials in one frame comes back as a record table: a numpy
structured array with one row per run (see ``record_dtype``).  The
readings of the two detectors are not stored; they follow from the winner
(winner 1 reads D1 yes, D2 no; winner 2 the reverse), so a contradictory
pair cannot be recorded.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics
from .dynamics import CollapseParams, OccupationProfile, StreamLayout, collapse_batch
from .noise import DEFAULT_NOISE, PhiloxNoiseSource, derive_stream_key
from .relativity import C, Frame, activation_gap, first_detector

# Scenario builders pick dt so that Gamma * dt at the largest per-frame
# rate (frame 0, all pointer cells) equals this, about 140 steps a run at
# q0 0.5.  With the split step and the shifted barrier of dynamics the
# mean collapse time stays within 1 % of the closed-form E[T].  Simulated
# over closed-form E[T], seeds 1-3 x 8192 runs at q0 0.3 (standard errors
# 0.0025 at epsilon 1e-6, 0.0044 at 0.01):
#
#     Gamma*dt (frame 0)   eps 1e-6: frame 0   frame A   eps 0.01: frame 0   frame A
#     0.05                           0.9970    0.9998              1.0051    1.0013
#     0.1 (MAX_GAMMA_DT)             1.0052    1.0003              1.0164    1.0034
#
# Frame A has half the frame-0 rate, so its Gamma * dt is half the value
# in the first column.
TARGET_GAMMA_DT = 0.05

DEFAULT_ETA = 1e10

_OVERRIDE_KEYS = frozenset(
    {"lam", "dt", "epsilon", "max_steps", "eta", "amplitudes"})


@dataclass(frozen=True)
class DetectorSpec:
    """One detector: its position and the pointer occupations of its two
    readings.

    yes_profile and no_profile list the cells the pointer fills in the
    yes and no positions; the regions are disjoint.
    """

    id: str
    position: float
    yes_profile: OccupationProfile
    no_profile: OccupationProfile

    def __post_init__(self):
        if self.id not in ("D1", "D2"):
            raise ValueError(f"detector id must be 'D1' or 'D2', got {self.id!r}")
        if self.id == "D1" and not self.position > 0:
            raise ValueError("D1 must sit at positive x")
        if self.id == "D2" and not self.position < 0:
            raise ValueError("D2 must sit at negative x")
        if set(self.yes_profile.cell_ids) & set(self.no_profile.cell_ids):
            raise ValueError(f"{self.id}: yes and no pointer regions must be disjoint")

    @property
    def cells(self) -> tuple[str, ...]:
        return self.yes_profile.cell_ids + self.no_profile.cell_ids

    def branch_profiles(self) -> tuple[OccupationProfile, OccupationProfile]:
        """This detector's cells as occupied in the yes branch and the no
        branch, both over the same cell list."""
        occ_yes = {c: self.yes_profile.eta(c) for c in self.cells}
        occ_no = {c: self.no_profile.eta(c) for c in self.cells}
        return (OccupationProfile.from_dict(occ_yes),
                OccupationProfile.from_dict(occ_no))


@dataclass(frozen=True)
class Scenario:
    """Full experiment setup: geometry, initial weight and parameters."""

    d: float
    q0: float
    detectors: tuple[DetectorSpec, DetectorSpec]
    params: CollapseParams

    def __post_init__(self):
        if not self.d > 0:
            raise ValueError(f"d must be > 0, got {self.d}")
        if not 0.0 <= self.q0 <= 1.0:
            raise ValueError(f"q0 must be in [0, 1], got {self.q0}")
        d1, d2 = self.detectors
        if (d1.id, d2.id) != ("D1", "D2"):
            raise ValueError("detectors must be (D1, D2)")
        if abs(d1.position) != self.d or abs(d2.position) != self.d:
            raise ValueError("both detectors must sit at distance d")
        for frame in (Frame(0.0, "frame0"), Frame(1.0, "A"), Frame(-1.0, "B")):
            p1, p2, _ = active_profiles(self, frame)
            if dynamics.effective_rate(p1, p2, self.params.lam) == 0.0:
                raise ValueError(
                    f"branch profiles do not differ for frame {frame.label}; no collapse possible")

    @property
    def detector_by_id(self) -> dict[str, DetectorSpec]:
        return {det.id: det for det in self.detectors}


def _is_number(value) -> bool:
    """A real number that is not a bool (JSON true and false are not numbers)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def q0_from_amplitudes(w1: float, w2: float) -> float:
    """Normalized branch-1 weight from possibly unnormalized |a|^2 pair."""
    if w1 < 0 or w2 < 0 or w1 + w2 <= 0:
        raise ValueError(f"amplitude weights must be >= 0 with positive sum, got ({w1}, {w2})")
    return w1 / (w1 + w2)


def build_scenario(d: float = 1000.0, q0: float = 0.5,
                   overrides: dict | None = None) -> Scenario:
    """Construct the default two-detector scenario.

    Each detector gets one yes-region cell and one no-region cell with
    eta = 1e10 where the pointer sits.  Overrides may set lam, dt,
    epsilon, max_steps, eta, or amplitudes (an unnormalized
    (|a1|^2, |a2|^2) pair that replaces q0).  If dt is not overridden it
    is derived from the frame-0 rate so that Gamma * dt = TARGET_GAMMA_DT.
    """
    overrides = dict(overrides or {})
    unknown = set(overrides) - _OVERRIDE_KEYS
    if unknown:
        raise ValueError(f"unknown override keys: {sorted(unknown)}")
    if "amplitudes" in overrides:
        weights = overrides.pop("amplitudes")
        if not (isinstance(weights, (list, tuple)) and len(weights) == 2
                and all(_is_number(w) for w in weights)):
            raise TypeError(f"amplitudes must be a pair of numbers, got {weights!r}")
        q0 = q0_from_amplitudes(*weights)
    eta = overrides.pop("eta", DEFAULT_ETA)
    if not _is_number(eta):
        raise TypeError(f"eta must be a number, got {eta!r}")
    if not eta > 0:
        raise ValueError(f"eta must be > 0, got {eta}")

    # a stand-in dt lets CollapseParams check the overrides, lam among them,
    # before dt is derived from lam
    params = CollapseParams(**{"dt": 1.0, **overrides})
    if "dt" not in overrides:
        # frame-0 rate: four pointer cells each differing by eta
        gamma0 = params.lam * 4.0 * eta * eta
        dt = TARGET_GAMMA_DT / gamma0 if gamma0 > 0 else math.inf
        try:
            params = replace(params, dt=dt)
        except ValueError as exc:
            raise ValueError(
                f"dt derived from lam = {params.lam!r} and eta = {eta!r} is {dt!r}, "
                f"which cannot be run ({exc}); change lam or eta, or set dt") from exc

    def detector(det_id: str, sign: float) -> DetectorSpec:
        return DetectorSpec(
            id=det_id,
            position=sign * d,
            yes_profile=OccupationProfile(((f"{det_id}.yes", eta),)),
            no_profile=OccupationProfile(((f"{det_id}.no", eta),)),
        )

    return Scenario(d=d, q0=q0, detectors=(detector("D1", 1.0), detector("D2", -1.0)),
                    params=params)


def active_profiles(scenario: Scenario, frame: Frame):
    """Branch profiles and detector ids active in the given frame.

    Frames A and B restrict to the cells of the detector that activates
    first (relativity.first_detector, the sign of v); the mirror frame
    runs the joint process over both detectors.  Returns
    (profile1, profile2, detector_ids); the noise stream of each listed
    detector covers exactly that detector's cells, in order.
    """
    first = first_detector(frame)
    dets = (scenario.detectors if first == "simultaneous"
            else (scenario.detector_by_id[first],))

    occ1: dict[str, float] = {}
    occ2: dict[str, float] = {}
    for det in dets:
        yes_occ, no_occ = det.branch_profiles()
        # branch 1: D1 pointer on yes, D2 pointer on no; branch 2 mirrored
        b1, b2 = (yes_occ, no_occ) if det.id == "D1" else (no_occ, yes_occ)
        for c in det.cells:
            occ1[c] = b1.eta(c)
            occ2[c] = b2.eta(c)
    return (OccupationProfile.from_dict(occ1), OccupationProfile.from_dict(occ2),
            tuple(det.id for det in dets))


def frame_layout(scenario: Scenario, frame: Frame):
    """Stream layout (one stream per active detector) for a frame."""
    p1, p2, det_ids = active_profiles(scenario, frame)
    by_id = scenario.detector_by_id
    layout = StreamLayout(tuple(by_id[i].cells for i in det_ids))
    return p1, p2, det_ids, layout


def record_dtype(frame_label: str) -> np.dtype:
    """Columns of a record table, one row per (run, frame).

    winner is 1 or 2, or 0 for a run that hit the step cap.  first_detector
    and budget are constants of the frame: the detector that activates
    first ('simultaneous' in frame 0) and the activation gap that a
    collapse must beat, NaN where the frame has none (v = 0).
    """
    return np.dtype([("run_index", np.int64), ("frame", f"U{len(frame_label)}"),
                     ("first_detector", "U12"), ("winner", np.int8),
                     ("duration", np.float64), ("budget", np.float64)])


def run_frame_batch(scenario: Scenario, frame: Frame, master_seed: int,
                    run_indices, noise: PhiloxNoiseSource = DEFAULT_NOISE):
    """Run a batch of independent trials of one frame.

    Run k of the batch reads each active detector's stream at address
    (k0, k1, k), the detector's key from derive_stream_key(master_seed,
    detector) and the run index, so a run's noise and record do not depend
    on the other runs of the batch.  Returns (absorbed, failed): the
    record tables of the runs that absorbed and of those that hit the step
    cap, each in run_indices order.
    """
    p1, p2, det_ids, layout = frame_layout(scenario, frame)
    runs = np.asarray(run_indices, dtype=np.int64)
    if runs.size and runs.min() < 0:
        raise ValueError(f"run indices must be >= 0, got {runs.min()}")
    addr = np.empty((runs.size, len(det_ids), 3), dtype=np.uint64)
    addr[:, :, :2] = [derive_stream_key(master_seed, det) for det in det_ids]
    addr[:, :, 2] = runs[:, None]
    res = collapse_batch(scenario.q0, p1, p2, scenario.params, layout, addr, noise=noise)
    table = np.empty(runs.size, dtype=record_dtype(frame.label))
    table["run_index"] = run_indices
    table["frame"] = frame.label
    first = first_detector(frame)
    table["first_detector"] = first
    table["winner"] = res.winner
    table["duration"] = res.duration
    table["budget"] = (math.nan if first == "simultaneous"
                       else activation_gap(scenario.d, abs(frame.v)))
    absorbed = res.winner > 0
    return table[absorbed], table[~absorbed]


def frame_pair(v: float) -> tuple[Frame, Frame]:
    if not 0 < v < C:
        raise ValueError(f"v must satisfy 0 < v < c, got {v}")
    return Frame(v, "A"), Frame(-v, "B")


def disagreement_rate_analytic(q0: float, epsilon: float) -> float:
    """Probability that two independent frames pick different winners.

    Each frame absorbs at q = 1 - epsilon with probability
    p = (q0 - epsilon) / (1 - 2 epsilon), clipped to [0, 1] for q0 already
    past a threshold, so the rate is 2 p (1 - p).
    """
    if not 0.0 <= q0 <= 1.0:
        raise ValueError(f"q0 must be in [0, 1], got {q0}")
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
    p = min(max((q0 - epsilon) / (1.0 - 2.0 * epsilon), 0.0), 1.0)
    return 2.0 * p * (1.0 - p)
