import math
import re

import pytest

from collapsemc.relativity import (C, Event, Frame, InvalidGeometryError,
                                   SuperluminalFrameError, activation_gap, boost,
                                   detection_events, first_detector, gamma,
                                   min_separation)

V99 = 0.99 * C

# the largest d whose gap 2 gamma v d / c^2 is finite at 0.99c
D_MAX_V99 = 4.272245538645686e298


def sig_figs_equal(x: float, y: float, n: int) -> bool:
    """Agreement to n significant figures: |x - y| <= 0.5 * 10**(1-n) * |y|."""
    return abs(x - y) <= 0.5 * 10.0 ** (1 - n) * abs(y)


def test_gamma_values():
    assert gamma(0.0) == 1.0
    assert gamma(0.6 * C) == pytest.approx(1.25, rel=1e-12)
    assert gamma(V99) == pytest.approx(7.08881, rel=1e-6)
    assert gamma(-V99) == gamma(V99)


def test_gamma_superluminal():
    with pytest.raises(SuperluminalFrameError):
        gamma(C)
    with pytest.raises(SuperluminalFrameError):
        gamma(-1.01 * C)


def test_gamma_refuses_nan():
    # NaN fails every comparison, so |v| >= c alone would let it through
    with pytest.raises(SuperluminalFrameError):
        gamma(math.nan)


def test_boost_origin_fixed():
    for v in (0.0, 0.5 * C, -V99):
        out = boost(Event(0.0, 0.0), v)
        assert (out.t, out.x) == (0.0, 0.0)


def test_boost_detection_event_frame_a():
    e1, _ = detection_events(1000.0)
    out = boost(e1, V99)
    assert sig_figs_equal(out.t, 2.3646e-7, 5)
    assert sig_figs_equal(out.x, 70.888, 5)
    # the detection event is light-like and stays light-like
    assert abs(C * out.t - out.x) <= 1e-6


def test_boost_detection_event_frame_b():
    e1, _ = detection_events(1000.0)
    out = boost(e1, -V99)
    assert sig_figs_equal(out.t, 4.7055e-5, 5)


def test_detection_events_geometry():
    e1, e2 = detection_events(1000.0)
    assert e1.t == e2.t == pytest.approx(3.33564e-6, rel=1e-6)
    assert (e1.x, e2.x) == (1000.0, -1000.0)
    one_second = detection_events(C)[0]
    assert one_second.t == 1.0
    for d in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidGeometryError, match="d must be finite and > 0"):
            detection_events(d)


def test_events_simultaneous_in_frame0():
    e1, e2 = detection_events(2500.0)
    assert boost(e1, 0.0).t == boost(e2, 0.0).t


def test_activation_gap_value_and_consistency():
    dt = activation_gap(1000.0, V99)
    assert sig_figs_equal(dt, 4.6819e-5, 5)
    e1, e2 = detection_events(1000.0)
    from_boosts = abs(boost(e2, V99).t - boost(e1, V99).t)
    assert dt == pytest.approx(from_boosts, rel=1e-12)


def test_activation_gap_limits():
    assert activation_gap(1000.0, 1e-3) < 1e-16
    assert activation_gap(2000.0, V99) == pytest.approx(
        2.0 * activation_gap(1000.0, V99), rel=1e-14)
    with pytest.raises(InvalidGeometryError):
        activation_gap(-1.0, V99)
    with pytest.raises(SuperluminalFrameError):
        activation_gap(1000.0, C)
    with pytest.raises(SuperluminalFrameError):
        activation_gap(1000.0, -V99)


def test_activation_gap_keeps_the_bits_of_the_direct_form():
    # every gap the direct product gives is returned bit for bit, so the
    # delta_t_s of every manifest it wrote stays the same
    for d in (1e-3, 1.0, 1000.0, 2.5e4, 3.7e100):
        for v in (1e-3, 1.0, 0.3 * C, 0.9 * C, V99, C * (1 - 1e-12)):
            assert activation_gap(d, v) == 2.0 * gamma(v) * v * d / (C * C)
    assert activation_gap(D_MAX_V99, V99) == 2.0 * gamma(V99) * V99 * D_MAX_V99 / (C * C)
    for tau in (1e-9, 1e-4, 3e-3, 1e100):
        for v in (0.3 * C, V99):
            assert min_separation(tau, v) == tau * C * C / (2.0 * gamma(v) * v)


def test_activation_gap_past_the_direct_products_range():
    # at v 0.99c, 2 gamma v d overflows for every d above D_MAX_V99, and
    # such a gap is refused, with the d and v that give it
    for d in (math.nextafter(D_MAX_V99, math.inf), 5e298, 1e308, math.inf):
        assert math.isinf(2.0 * gamma(V99) * V99 * d)
        with pytest.raises(InvalidGeometryError, match=re.escape(
                f"d {d} and v {V99} give an activation gap that overflows a float")):
            activation_gap(d, V99)
    # tau c^2 overflows here, though d would be about 6.7e295 m
    with pytest.raises(InvalidGeometryError, match="separation that overflows"):
        min_separation(1e295, C * (1 - 1e-15))


def test_min_separation_value():
    d = min_separation(1e-4, V99)
    assert d == pytest.approx(2135.9056, rel=1e-6)
    # same order as a kilometre
    assert 1e3 < d < 1e4


def test_min_separation_round_trip():
    for tau in (1e-6, 1e-4, 3e-3):
        for v in (0.3 * C, 0.9 * C, V99):
            d = min_separation(tau, v)
            assert activation_gap(d, v) == pytest.approx(tau, rel=1e-12)


def test_min_separation_validation():
    for tau in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidGeometryError, match="tau must be finite and > 0"):
            min_separation(tau, V99)
    # tau c^2 overflows from tau near 2e291 s, at any v
    assert math.isfinite(min_separation(2e291, V99))
    for v in (1.0, V99):
        with pytest.raises(InvalidGeometryError, match=re.escape(
                f"tau 1e+300 at v {v} gives a separation that overflows")):
            min_separation(1e300, v)
    with pytest.raises(SuperluminalFrameError):
        min_separation(1e-4, 1.5 * C)


def test_first_detector_per_frame():
    assert first_detector(Frame(V99)) == "D1"
    assert first_detector(Frame(-V99)) == "D2"
    assert first_detector(Frame(0.0)) == "simultaneous"
    # the sign of v decides however small the gap: 2.2e-20 s at d = 1 m
    assert first_detector(Frame(1e-3)) == "D1"
    assert first_detector(Frame(-1e-300)) == "D2"


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("d", [1.0, 1000.0, 2.99792458e8])
def test_boost_round_trip(beta, d):
    v = beta * C
    for e in detection_events(d):
        back = boost(boost(e, v), -v)
        assert back.t == pytest.approx(e.t, rel=1e-12)
        assert back.x == pytest.approx(e.x, rel=1e-12)


def test_boost_keeps_the_bits_of_the_direct_form():
    # every event the direct form boosts is returned bit for bit, so the
    # frame times that frames and transform print stay the same
    for t in (0.0, -2e-5, 3.3356e-6, 1.0, 4.7e3, 1e100):
        for x in (0.0, 40.0, -700.0, 1000.0, -2e8, 3.7e100, 1e250):
            for v in (-V99, -0.3 * C, -1e-3, 0.0, 1.0, 0.5 * C, V99, C * (1 - 1e-12)):
                g = gamma(v)
                out = boost(Event(t, x), v)
                assert (out.t, out.x) == (g * (t - v * x / (C * C)), g * (x - v * t))


def test_boost_past_the_direct_products_range():
    # at v 0.99c, v x overflows from x near 6e299 m, and at v c/2, v t from
    # t near 1.2e300 s; Event refuses the boosted coordinate that overflows
    assert math.isfinite(boost(Event(0.0, 1e299), V99).t)
    for t, x, v in ((0.0, 1e300, V99), (0.0, -1e302, -V99), (1.2e300, 1.7e308, 0.5 * C),
                    (-1.2e300, -1.7e308, 0.5 * C)):
        assert math.isinf(v * x) or math.isinf(v * t)
        with pytest.raises(ValueError, match="event components must be finite, got .*inf"):
            boost(Event(t, x), v)


def interval2(e):
    """Invariant c^2 t^2 - x^2 (m^2) of an event."""
    return (C * e.t) ** 2 - e.x ** 2


@pytest.mark.parametrize("beta", [0.1, 0.6, 0.99])
def test_interval_invariance(beta):
    v = beta * C
    events = [Event(3.3e-6, 700.0), Event(1.0, -2e8), Event(-2e-5, 40.0)]
    for e in events:
        out = boost(e, v)
        assert interval2(out) == pytest.approx(interval2(e), rel=1e-9)
    # near-null events: absolute tolerance in m^2
    e1, _ = detection_events(1000.0)
    assert abs(interval2(boost(e1, v)) - interval2(e1)) <= 1e-6 + 1e-9 * abs(interval2(e1))


@pytest.mark.parametrize("beta", [0.2, 0.99])
def test_first_detector_antisymmetry(beta):
    a = first_detector(Frame(beta * C))
    b = first_detector(Frame(-beta * C))
    assert {a, b} == {"D1", "D2"}
    # and it names the detection that comes first in the boosted frame
    e1, e2 = detection_events(1000.0)
    assert (a == "D1") == (boost(e1, beta * C).t < boost(e2, beta * C).t)


def test_frame_validation():
    with pytest.raises(SuperluminalFrameError):
        Frame(C)
    with pytest.raises(SuperluminalFrameError):
        Frame(-C)
    # the label, like the first detector, is the sign of v, however small
    for v, label, first in ((0.0, "frame0", "simultaneous"), (-0.0, "frame0", "simultaneous"),
                            (5e-324, "A", "D1"), (-5e-324, "B", "D2"),
                            (V99, "A", "D1"), (-V99, "B", "D2")):
        assert (Frame(v).label, first_detector(Frame(v))) == (label, first), v


def test_frame_refuses_nan():
    # a NaN v has no sign, so it must not pass as the mirror frame
    with pytest.raises(SuperluminalFrameError):
        Frame(math.nan)


def test_event_validation():
    with pytest.raises(ValueError):
        Event(math.inf, 0.0)
    with pytest.raises(ValueError):
        Event(0.0, math.nan)
