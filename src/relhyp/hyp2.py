"""Upper half-plane closed forms behind the metric estimates.

Each function evaluates one closed form (the midpoint depth of a long
geodesic, the gap of a right triangle, the base angle of an ideal
isosceles triangle, the projection of a tangent geodesic onto a
horosphere).  The first three also say whether the estimate they back
holds at the given values.  Everything is double precision with natural
logs, and horoballs are based at infinity, of the form {y > h}.
"""

from __future__ import annotations

import math

_EPS = 1e-12


def ideal_midpoint_check(ell: float, big_c: float) -> bool:
    """Two points at distance ell on the unit horosphere: once ell passes
    2C + ln 16 the connecting geodesic's midpoint descends below -C.
    Returns True exactly on the guaranteed region (short ell is vacuous).
    """
    if ell <= 0 or big_c <= 0:
        raise ValueError("need positive length and depth")
    if ell < 2.0 * big_c + math.log(16.0):
        return True
    midpoint_value = -math.log(math.cosh(ell / 2.0))
    return midpoint_value <= -big_c


def right_triangle_gap(u: float, theta: float):
    """Right triangle with legs meeting at angle theta opposite side t.

    Solves sinh t = sinh u / sin theta (hyperbolic law of sines with the
    right angle opposite t) and checks t - u >= ln(1/(2 sin theta)).
    """
    if u <= 1:
        raise ValueError("leg length must exceed 1")
    if not 0 < theta <= math.pi / 2:
        raise ValueError("angle must be in (0, pi/2]")
    t = math.asinh(math.sinh(u) / math.sin(theta))
    bound = math.log(1.0 / (2.0 * math.sin(theta)))
    return t, (t - u) >= bound - 1e-9


def ideal_isosceles_angle(ell: float):
    """Base angle of the isosceles triangle with apex at infinity and base
    length ell: sin^2 theta = 2/(cosh ell + 1), which decays like 4e^-ell.
    """
    if ell <= 0:
        raise ValueError("need a positive base length")
    s2 = 2.0 / (math.cosh(ell) + 1.0)
    theta = math.asin(math.sqrt(s2))
    return theta, s2 <= 4.0 * math.exp(-ell) + _EPS


def tangent_projection_diameter(h: float, e1: float, e2: float) -> float:
    """Horospherical distance on y = h between the projections of the two
    ideal endpoints of a geodesic tangent to the horoball from below."""
    if h <= 0:
        raise ValueError("horoball height must be positive")
    if e1 == e2:
        return 0.0
    if abs(abs(e1 - e2) / 2.0 - h) > 1e-9:
        raise ValueError("geodesic is not tangent to the horoball")
    return abs(e1 - e2) / h

