"""Composition of rotations and displacements.

Order convention everywhere: the first argument acts first, so
``compose_*(a, b)`` is the motion "do a, then b" and the matrix of the
result is M(b)·M(a).

Two-axis trigonometric results are expressed in a canonical frame: the
first axis is +x through the origin and the second axis has direction
(cos nu, sin nu, 0); when the axes do not meet, the second axis passes
through (0, 0, u) with u their minimal separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .core import AT_PI_CUT, DEGENERATE_CUT, MIN_COUPLE_ANGLE, ZERO_CUT, _half_turn_flip
from .core import EX, Rotation, UnitVec3, Vec3, make_unit
from .errors import (
    DegenerateInput,
    DegenerateResultant,
    IntersectingAxes,
    ResultantHalfTurn,
    ZeroTranslation,
)
from .rotation import Displacement, GibbsVector, apply_displacement, rodrigues_rotate

if TYPE_CHECKING:
    from .screw import Screw


@dataclass(frozen=True, slots=True)
class Couple:
    """Rotation +theta about (point1, dir) followed by -theta about (point2, dir).

    The net effect of a couple is a pure translation perpendicular to dir.
    """

    dir: UnitVec3
    point1: Vec3
    point2: Vec3
    theta: float


class ResultantFrame(NamedTuple):
    """Resultant angle and unit-axis components in the canonical two-axis frame."""

    theta: float
    cos_x: float
    cos_y: float
    cos_z: float


class SineRatios(NamedTuple):
    """Sines of the angles from the resultant axis to the two given axes."""

    sin_to_first: float
    sin_to_second: float


class ThreeAxisResult(NamedTuple):
    """Resultant angle of three coordinate-axis rotations and the squared
    sines of the angles between the resultant axis and x, y, z."""

    theta: float
    sin2_x: float
    sin2_y: float
    sin2_z: float


def fold_half_angle(
    dir1: Vec3, theta1: float, dir2: Vec3, theta2: float
) -> tuple[float, Vec3]:
    """Half-angle fold of two rotations about unit axes through a common point.

    Returns (w, v) with w = cos(Theta/2) and v the resultant axis scaled by
    sin(Theta/2), for the motion "rotate about dir1, then about dir2".
    Free of half-tangent parameters, so Theta = pi stays representable.
    """
    c1, s1 = math.cos(theta1 / 2.0), math.sin(theta1 / 2.0)
    c2, s2 = math.cos(theta2 / 2.0), math.sin(theta2 / 2.0)
    w = c1 * c2 - s1 * s2 * dir1.dot(dir2)
    v = dir1 * (s1 * c2) + dir2 * (s2 * c1) + dir2.cross(dir1) * (s1 * s2)
    return w, v


def fold_angle_axis(w: float, v: Vec3) -> tuple[float, Vec3 | None]:
    """Reduce a fold (w, v) to (Theta in [0, pi], axis vector or None).

    The returned vector is v possibly negated (when w < 0) so that rotating
    by Theta about its direction reproduces the fold; it is None when the
    resultant is the identity. At Theta = pi the sign is fixed so the first
    component larger than 1e-12 in size is positive.
    """
    norm = v.norm()
    theta = 2.0 * math.atan2(norm, w)
    if theta > math.pi:
        theta = 2.0 * math.pi - theta
        v = -v
    if norm == 0.0 or theta == 0.0:
        return 0.0, None
    if abs(theta - math.pi) <= AT_PI_CUT and _half_turn_flip(v):
        v = -v
    return theta, v


def compose_gibbs(q1: GibbsVector, q2: GibbsVector) -> GibbsVector:
    """Rotation vector of "rotate by q1, then by q2" (axes through one point).

    Rational in both arguments: (q1 + q2 + (1/2) q2 x q1) / (1 - q1.q2/4).
    Raises ResultantHalfTurn when the denominator vanishes within 1e-12
    (the resultant is a half turn and has no finite rotation vector).
    """
    a = q1.as_vec3()
    b = q2.as_vec3()
    den = 1.0 - a.dot(b) / 4.0
    if abs(den) < AT_PI_CUT:
        raise ResultantHalfTurn(
            f"resultant is a half turn (denominator {den}); it has no rotation vector"
        )
    s = (a + b + b.cross(a) * 0.5) / den
    return GibbsVector(s.x, s.y, s.z)


def resultant_trig(theta1: float, theta2: float, nu: float) -> ResultantFrame:
    """Resultant of two rotations about axes meeting at angle nu.

    Computed in the canonical frame (first axis = x, second = (cos nu,
    sin nu, 0)): cos(Theta/2) = cos(theta1/2)cos(theta2/2)
    - sin(theta1/2)sin(theta2/2)cos nu, and the axis components follow from
    the half-angle fold. Theta lands in [0, pi]; Theta = pi is allowed.
    An identity resultant returns the +x axis by convention.
    """
    axis2 = Vec3(math.cos(nu), math.sin(nu), 0.0)
    w, v = fold_half_angle(EX, theta1, axis2, theta2)
    theta, vec = fold_angle_axis(w, v)
    if vec is None:
        return ResultantFrame(0.0, 1.0, 0.0, 0.0)
    axis = make_unit(vec)
    return ResultantFrame(theta, axis.x, axis.y, axis.z)


def order_swap_axis(
    theta1: float, theta2: float, nu: float
) -> tuple[UnitVec3, UnitVec3]:
    """Resultant axes of the two application orders of the same two rotations.

    Both orders give the same resultant angle; the two axes agree inside the
    plane spanned by the input axes and differ in sign along its normal
    (they are mirror images in that plane).
    """
    axis2 = Vec3(math.cos(nu), math.sin(nu), 0.0)
    w_f, v_f = fold_half_angle(EX, theta1, axis2, theta2)
    w_r, v_r = fold_half_angle(axis2, theta2, EX, theta1)
    _, vec_f = fold_angle_axis(w_f, v_f)
    _, vec_r = fold_angle_axis(w_r, v_r)
    if vec_f is None or vec_r is None:
        return EX, EX
    return make_unit(vec_f), make_unit(vec_r)


def sine_proportionality(theta1: float, theta2: float, nu: float) -> SineRatios:
    """Sines of the angles between the resultant axis and each given axis.

    sin(to_first) = sin(theta2/2) sin nu / sin(Theta/2) and symmetrically,
    so the sines are proportional to the half-angle sines of the opposite
    rotations. Raises DegenerateResultant when the resultant is the identity.
    """
    axis2 = Vec3(math.cos(nu), math.sin(nu), 0.0)
    w, v = fold_half_angle(EX, theta1, axis2, theta2)
    sin_half = v.norm()
    if sin_half <= ZERO_CUT:
        raise DegenerateResultant("identity resultant: axis angles undefined")
    s1 = math.sin(theta1 / 2.0)
    s2 = math.sin(theta2 / 2.0)
    return SineRatios(
        abs(s2 * math.sin(nu)) / sin_half, abs(s1 * math.sin(nu)) / sin_half
    )


def compose_displacements(D1: Displacement, D2: Displacement) -> Displacement:
    """Displacement "do D1, then D2".

    The rotation parameters fold by the four-parameter product of Rodrigues'
    memoir, (w2 w1 - v2.v1, w2 v1 + w1 v2 + v2 x v1); at w1 = w2 = 1 its
    ratio is compose_gibbs's. The product is in half-turn form when its w is
    below 1e-12 in size, where compose_gibbs raises. The new origin
    displacement is the image of D1.delta under D2.
    """
    w1, a = D1.w, D1.v
    w2, b = D2.w, D2.v
    ax, ay, az, bx, by, bz = a.x, a.y, a.z, b.x, b.y, b.z
    w = w1 * w2 - (ax * bx + ay * by + az * bz)
    v = Vec3(
        (w2 * ax + w1 * bx) + (by * az - bz * ay),
        (w2 * ay + w1 * by) + (bz * ax - bx * az),
        (w2 * az + w1 * bz) + (bx * ay - by * ax),
    )
    return Displacement(w=w, v=v, delta=apply_displacement(D2, D1.delta))


def _closest_points(
    p1: Vec3, d1: UnitVec3, p2: Vec3, d2: UnitVec3
) -> tuple[Vec3, Vec3]:
    """A closest pair of points between two lines (first on line 1)."""
    c = d1.dot(d2)
    w = p2 - p1
    den = 1.0 - c * c
    if den < ZERO_CUT:
        o2 = p2 + d2 * ((p1 - p2).dot(d2))
        return p1, o2
    t1 = (w.dot(d1) - c * w.dot(d2)) / den
    t2 = (c * w.dot(d1) - w.dot(d2)) / den
    return p1 + d1 * t1, p2 + d2 * t2


def nonintersecting_pair(line1: Rotation, line2: Rotation) -> tuple["Screw", Vec3]:
    """Resultant screw of two rotations about separated (skew or parallel) axes.

    Works in the canonical frame built on the common perpendicular: x along
    the first axis, z from the first axis toward the second, the second axis
    through (0, 0, u). There the composite moves the frame origin by
    (-u sin nu sin theta2, u cos nu sin theta2, 2u sin^2(theta2/2)) and the
    rotation folds as for intersecting axes; the slide is the projection of
    that displacement on the resultant axis.

    Returns (screw, delta) with delta the displacement of the world origin.
    Raises IntersectingAxes when the axes meet within 1e-9, and
    DegenerateResultant when the composite is the identity.
    """
    from .screw import Screw, fold_central_axis

    p1, d1 = line1.line.point, line1.line.dir
    p2, d2 = line2.line.point, line2.line.dir
    th1, th2 = line1.angle, line2.angle

    o1, o2 = _closest_points(p1, d1, p2, d2)
    sep = o2 - o1
    u = sep.norm()
    if u < DEGENERATE_CUT:
        raise IntersectingAxes(
            f"axes meet within {DEGENERATE_CUT}; use the intersecting form"
        )

    ex = d1
    ez = make_unit(sep)
    ey = ez.cross(ex)
    nu = math.atan2(d2.dot(ey), d2.dot(ex))

    axis2_c = Vec3(math.cos(nu), math.sin(nu), 0.0)
    w, v = fold_half_angle(EX, th1, axis2_c, th2)
    theta, vec = fold_angle_axis(w, v)

    s2 = math.sin(th2)
    delta_c = Vec3(
        -u * math.sin(nu) * s2,
        u * math.cos(nu) * s2,
        2.0 * u * math.sin(th2 / 2.0) ** 2,
    )

    turned = rodrigues_rotate(d1, th1, -p1) + p1
    delta_world = p2 + rodrigues_rotate(d2, th2, turned - p2)

    if vec is None:
        if delta_c.norm() <= ZERO_CUT:
            raise DegenerateResultant("the two rotations cancel exactly")
        return Screw.pure_translation(delta_world), delta_world

    axis_c, point_c, slide = fold_central_axis(w, vec, delta_c)

    def to_world(comp: Vec3) -> Vec3:
        return ex * comp.x + ey * comp.y + ez * comp.z

    axis_w = make_unit(to_world(axis_c))
    point_w = o1 + to_world(point_c)
    return Screw.general(point_w, axis_w, theta, slide), delta_world


def three_axis_resultant(
    theta_x: float, theta_y: float, theta_z: float
) -> ThreeAxisResult:
    """Resultant of rotations about the coordinate axes: z first, then y, then x.

    cos(Theta/2) = cos(tx/2)cos(ty/2)cos(tz/2) - sin(tx/2)sin(ty/2)sin(tz/2),
    and the squared sines of the angles between the resultant axis and the
    coordinate axes are (1 - cos ty cos tz) / (2 sin^2(Theta/2)) for x,
    (1 - cos tx cos tz + sin tx sin ty sin tz) / (2 sin^2(Theta/2)) for y,
    (1 - cos tx cos ty) / (2 sin^2(Theta/2)) for z; they sum to 2 exactly.
    An identity resultant returns (0, 0, 0, 0).
    """
    c_x, s_x = math.cos(theta_x / 2.0), math.sin(theta_x / 2.0)
    c_y, s_y = math.cos(theta_y / 2.0), math.sin(theta_y / 2.0)
    c_z, s_z = math.cos(theta_z / 2.0), math.sin(theta_z / 2.0)
    w = c_x * c_y * c_z - s_x * s_y * s_z
    v = Vec3(
        c_y * c_z * s_x + c_x * s_y * s_z,
        c_x * c_z * s_y - c_y * s_x * s_z,
        c_x * c_y * s_z + c_z * s_x * s_y,
    )
    theta, vec = fold_angle_axis(w, v)
    if vec is None:
        return ThreeAxisResult(0.0, 0.0, 0.0, 0.0)
    sin2_half = vec.dot(vec)
    half = 2.0 * sin2_half
    sin2_x = (1.0 - math.cos(theta_y) * math.cos(theta_z)) / half
    sin2_y = (
        1.0
        - math.cos(theta_x) * math.cos(theta_z)
        + math.sin(theta_x) * math.sin(theta_y) * math.sin(theta_z)
    ) / half
    sin2_z = (1.0 - math.cos(theta_x) * math.cos(theta_y)) / half
    return ThreeAxisResult(theta, sin2_x, sin2_y, sin2_z)


def couple_translation(c: Couple) -> Vec3:
    """Net translation of a couple of equal and opposite rotations.

    Every point of space moves by the same vector; its length is
    2 d sin(theta/2) with d the perpendicular separation of the two axes,
    and it lies in the plane perpendicular to dir, at angle theta/2 from
    the normal to the plane of the two axes. Zero separation or zero theta
    gives the zero vector.
    """
    arm = c.point1 - c.point2
    return rodrigues_rotate(c.dir, -c.theta, arm) - arm


def translation_as_couple(t: Vec3, thetaB: float, psi: float) -> Couple:
    """A couple of angle thetaB whose net translation is exactly t.

    The couple axis direction lies in the plane perpendicular to t, at
    azimuth psi from a fixed reference (the normalized projection of +x, or
    of +y when t is parallel to x); its first axis passes through the
    origin. The separation of the two axes is |t| / (2 sin(thetaB/2)),
    which is why thetaB below 1e-6 is rejected (the axes recede to
    infinity). Raises ZeroTranslation for |t| = 0.
    """
    mag = t.norm()
    if mag <= ZERO_CUT:
        raise ZeroTranslation("cannot represent a zero translation as a couple")
    if not (MIN_COUPLE_ANGLE <= thetaB < math.pi):
        raise DegenerateInput(
            f"couple angle must lie in [{MIN_COUPLE_ANGLE}, pi); got {thetaB}"
        )
    t_hat = make_unit(t)
    ref = Vec3(1.0, 0.0, 0.0) - t_hat * t_hat.x
    if ref.norm() <= DEGENERATE_CUT:
        ref = Vec3(0.0, 1.0, 0.0) - t_hat * t_hat.y
    e1 = make_unit(ref)
    e2 = t_hat.cross(e1)
    b = make_unit(e1 * math.cos(psi) + e2 * math.sin(psi))
    m = b.cross(t_hat)
    half = mag / 2.0
    w = t_hat * (-half) + m * (half / math.tan(thetaB / 2.0))
    return Couple(dir=b, point1=Vec3(0.0, 0.0, 0.0), point2=-w, theta=thetaB)
