"""Monte Carlo engine for two-branch dynamical collapse.

Simulates the stochastic selection of one branch of a macroscopic
superposition by detector-local noise, and measures what observers in
relatively boosted frames record when each frame's collapse is driven
only by the detector that activates first for it.
"""

from ._version import __version__
from .dynamics import (
    CollapseParams,
    NoCollapsePossibleError,
    NonConvergenceError,
    OccupationProfile,
    effective_rate,
)
from .ensemble import (
    EnsembleConfig,
    EnsembleStats,
    run_ensemble,
    wilson_interval,
)
from .experiment import (
    DetectorSpec,
    FrameOutcome,
    Scenario,
    active_profiles,
    build_scenario,
    cross_frame_trial,
    disagreement_rate_analytic,
    run_frame,
)
from .noise import PhiloxNoiseSource, derive_stream_key
from .relativity import (
    C,
    Event,
    Frame,
    activation_gap,
    boost,
    detection_events,
    first_detector,
    gamma,
    min_separation,
)

__all__ = [
    "__version__",
    "C",
    "CollapseParams",
    "DetectorSpec",
    "EnsembleConfig",
    "EnsembleStats",
    "Event",
    "Frame",
    "FrameOutcome",
    "NoCollapsePossibleError",
    "NonConvergenceError",
    "OccupationProfile",
    "PhiloxNoiseSource",
    "Scenario",
    "activation_gap",
    "active_profiles",
    "boost",
    "build_scenario",
    "cross_frame_trial",
    "derive_stream_key",
    "detection_events",
    "disagreement_rate_analytic",
    "effective_rate",
    "first_detector",
    "gamma",
    "min_separation",
    "run_ensemble",
    "run_frame",
    "wilson_interval",
]
