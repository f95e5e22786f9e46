"""Half-plane formulas against independently computed values.

The thresholds here (2C + ln 16 for the midpoint, sin^2 theta against
4e^-ell for the ideal isosceles angle) were evaluated in oracle_tools.py
first; the other values are closed forms frozen by hand.
"""

import math

import pytest

from relhyp.hyp2 import (
    ideal_isosceles_angle, ideal_midpoint_check, right_triangle_gap,
    tangent_projection_diameter,
)


def test_midpoint_check_frozen():
    # threshold 2C + ln 16 at C=1 is about 4.7726
    assert ideal_midpoint_check(5.0, 1.0)
    assert -math.log(math.cosh(2.5)) <= -1.0
    assert ideal_midpoint_check(1.0, 1.0)  # vacuous region
    with pytest.raises(ValueError):
        ideal_midpoint_check(-1.0, 1.0)


def test_midpoint_check_sweep():
    for big_c in (0.5, 1.0, 2.0):
        start = 2 * big_c + math.log(16)
        steps = int(10 / 0.1)
        for n in range(steps + 1):
            assert ideal_midpoint_check(start + 0.1 * n, big_c)


def test_right_triangle_gap():
    t, ok = right_triangle_gap(2.0, math.pi / 6)
    assert t == pytest.approx(math.asinh(2 * math.sinh(2)), abs=1e-12)
    assert t - 2.0 == pytest.approx(0.6793795880521523, abs=1e-9)
    assert ok
    t, ok = right_triangle_gap(3.0, math.pi / 2)
    assert t == pytest.approx(3.0, abs=1e-12)
    assert ok
    with pytest.raises(ValueError):
        right_triangle_gap(0.5, 1.0)
    with pytest.raises(ValueError):
        right_triangle_gap(2.0, 2.0)


def test_right_triangle_sweep():
    for ui in range(1, 46):
        u = 1.0 + 0.2 * ui
        for ti in range(1, 16):
            theta = math.pi / 2 * ti / 16
            _, ok = right_triangle_gap(u, theta)
            assert ok, (u, theta)


def test_isosceles_frozen():
    theta, ok = ideal_isosceles_angle(math.log(3))
    assert math.sin(theta) ** 2 == pytest.approx(0.75, abs=1e-12)
    assert ok
    theta_small, _ = ideal_isosceles_angle(1e-6)
    assert theta_small == pytest.approx(math.pi / 2, abs=1e-3)


def test_isosceles_sweep():
    ell = 0.1
    while ell <= 20:
        _, ok = ideal_isosceles_angle(ell)
        assert ok, ell
        ell += 0.1


def test_tangent_projection():
    assert tangent_projection_diameter(1.0, -1.0, 1.0) == pytest.approx(2.0)
    assert tangent_projection_diameter(5.0, 3.0, 13.0) == pytest.approx(2.0)
    assert tangent_projection_diameter(2.0, 4.0, 4.0) == 0.0
    with pytest.raises(ValueError):
        tangent_projection_diameter(1.0, 0.0, 5.0)

