"""Special-relativistic kinematics for the two-detector geometry.

Everything is 1+1 dimensional (the experiment is collinear along x) and
in SI units with c the exact defined constant.  A boost by velocity v
maps (t, x) to (gamma (t - v x / c^2), gamma (x - v t)) with the standard
Lorentz factor gamma = 1 / sqrt(1 - v^2 / c^2).

Each quantity has one formula, the direct product, and a result whose
product overflows a float is refused: at 0.99c, the gap of detectors more
than about 4.3e298 m apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

C = 2.99792458e8  # speed of light, m/s (exact)

# a frame's label by the detector that activates first in it
FRAME_LABELS = {"D1": "A", "D2": "B", "simultaneous": "frame0"}


class SuperluminalFrameError(ValueError):
    """Boost velocity magnitude is >= c."""


class InvalidGeometryError(ValueError):
    """Bad detector separation or collapse time, or one past the float range."""


@dataclass(frozen=True)
class Event:
    """Spacetime point: coordinate time t (s) and position x (m)."""

    t: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise ValueError(f"event components must be finite, got ({self.t}, {self.x})")


@dataclass(frozen=True)
class Frame:
    """Inertial frame boosted by v along x.

    A frame is its velocity: its label, like its first detector, follows
    from the sign of v.  frame0 is the mirror rest frame (v = 0), A moves
    in +x (v > 0), B in -x (v < 0).
    """

    v: float

    def __post_init__(self):
        if not abs(self.v) < C:
            raise SuperluminalFrameError(f"|v| must be < c, got {self.v}")

    @property
    def label(self) -> str:
        """'A' or 'B' where D1 or D2 activates first, else 'frame0'."""
        return FRAME_LABELS[first_detector(self)]


def gamma(v: float) -> float:
    """Lorentz factor 1 / sqrt(1 - v^2 / c^2)."""
    beta = v / C
    if not abs(beta) < 1.0:
        raise SuperluminalFrameError(f"|v| must be < c, got {v}")
    return 1.0 / math.sqrt(1.0 - beta * beta)


def boost(e: Event, v: float) -> Event:
    """Coordinates of an event in the frame moving at v along +x.  Event
    refuses a boosted coordinate past the float range: at 0.99c, from |x|
    near 6e299 m, where v x overflows."""
    g = gamma(v)
    return Event(g * (e.t - v * e.x / (C * C)), g * (e.x - v * e.t))


def detection_events(d: float) -> tuple[Event, Event]:
    """Mirror-frame detection events for detectors at +d and -d.

    Both fire at t0 = d / c, so they are simultaneous in the mirror
    frame and light-like separated from the emission at the origin.
    """
    if not (math.isfinite(d) and d > 0):
        raise InvalidGeometryError(f"d must be finite and > 0, got {d}")
    t0 = d / C
    return Event(t0, d), Event(t0, -d)


def activation_gap(d: float, v: float) -> float:
    """Time between the two detections in a frame boosted by v:
    delta_t = 2 gamma v d / c^2.

    A gap whose product 2 gamma v d overflows is refused: at 0.99c, d past
    about 4.3e298 m.
    """
    if not d > 0:
        raise InvalidGeometryError(f"d must be > 0, got {d}")
    if not 0 < v < C:
        raise SuperluminalFrameError(f"v must satisfy 0 < v < c, got {v}")
    gap = 2.0 * gamma(v) * v * d / (C * C)
    if math.isinf(gap):
        raise InvalidGeometryError(f"d {d} and v {v} give an activation gap that "
                                   f"overflows a float")
    return gap


def min_separation(tau: float, v: float) -> float:
    """Detector distance for which the activation gap equals tau.

    Inverts activation_gap: d = tau c^2 / (2 gamma v).  A d whose product
    tau c^2 overflows is refused: tau past about 2e291 s.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise InvalidGeometryError(f"tau must be finite and > 0, got {tau}")
    if not 0 < v < C:
        raise SuperluminalFrameError(f"v must satisfy 0 < v < c, got {v}")
    d = tau * C * C / (2.0 * gamma(v) * v)
    if math.isinf(d):
        raise InvalidGeometryError(f"tau {tau} at v {v} gives a separation that overflows")
    return d


def first_detector(frame: Frame) -> str:
    """Which detection comes first in the given frame: 'D1', 'D2' or
    'simultaneous'.

    In a frame boosted by v the detection at +d precedes the one at -d by
    the activation gap 2 gamma v d / c^2, for any d, so the order is the
    sign of v, however small v is; only the mirror frame (v = 0, of either
    sign) sees the two together.  This is the one place the sign of v is
    read: the frame's label follows from it.
    """
    if frame.v > 0:
        return "D1"
    if frame.v < 0:
        return "D2"
    return "simultaneous"
