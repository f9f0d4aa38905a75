"""Monte Carlo engine for two-branch dynamical collapse.

Simulates the stochastic selection of one branch of a macroscopic
superposition by detector-local noise, and measures what observers in
relatively boosted frames record when each frame's collapse is driven
only by the detector that activates first for it.  Each detector's noise
stream collapses the superposition at one rate, Gamma_D = 2 lam eta^2;
a frame's collapse runs at the sum of the rates of its active detectors.
"""

from ._version import __version__
from .dynamics import CollapseParams, NoCollapsePossibleError
from .ensemble import EnsembleConfig, run_ensemble, wilson_interval
from .experiment import Scenario, build_scenario, disagreement_rate_analytic
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
    "EnsembleConfig",
    "Event",
    "Frame",
    "NoCollapsePossibleError",
    "PhiloxNoiseSource",
    "Scenario",
    "activation_gap",
    "boost",
    "build_scenario",
    "derive_stream_key",
    "detection_events",
    "disagreement_rate_analytic",
    "first_detector",
    "gamma",
    "min_separation",
    "run_ensemble",
    "wilson_interval",
]
