"""Composition of rotations and displacements.

Order convention everywhere: the first argument acts first, so
``compose_*(a, b)`` is the motion "do a, then b" and the matrix of the
result is M(b)·M(a).

Every two-rotation result, whether the axes meet or not, is read from the
four-parameter product compose_displacements through
screw.screw_from_displacement. The trigonometric results for axes that
meet are expressed in a canonical frame: the first axis is +x through the
origin and the second axis has direction (cos nu, sin nu, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .core import AT_PI_CUT, DEGENERATE_CUT, MIN_COUPLE_ANGLE, ZERO_CUT
from .core import EX, Rotation, UnitVec3, Vec3, distance_between_lines, make_unit
from .errors import (
    DegenerateInput,
    DegenerateResultant,
    IntersectingAxes,
    ResultantHalfTurn,
    ZeroTranslation,
)
from .rotation import (
    Displacement,
    GibbsVector,
    apply_displacement,
    displacement_of_rotation,
    rodrigues_rotate,
)

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


def _product(w1, ax, ay, az, w2, bx, by, bz, scale=True):
    """Rodrigues' product of the parameters (w1, a) and (w2, b), "a then b":
    (w1 w2 - a.b, w2 a + w1 b + b x a), times 2^-k, as (w, x, y, z, k).

    k is 0 unless the product overflows, or nearly, and scale is true.
    """
    w = w1 * w2 - (ax * bx + ay * by + az * bz)
    x = (w2 * ax + w1 * bx) + (by * az - bz * ay)
    y = (w2 * ay + w1 * by) + (bz * ax - bx * az)
    z = (w2 * az + w1 * bz) + (bx * ay - by * ax)
    if abs(w) + abs(x) + abs(y) + abs(z) < math.inf or not scale:
        return w, x, y, z, 0
    # Scaling each factor by its own power of two keeps its ratio. Halving
    # the larger factor halves every term, exactly unless that factor holds
    # a subnormal entry. Where that overflows too, the larger factor is
    # scaled first, and only so far that the exponents of the two factors
    # sum to at most 1021: then no term can overflow, and neither factor is
    # scaled further than needed.
    f1, f2 = (w1, ax, ay, az), (w2, bx, by, bz)
    e1, e2 = (math.frexp(max(map(abs, f)))[1] for f in (f1, f2))
    halve = (1, 0) if e1 >= e2 else (0, 1)
    for k1, k2 in (halve, (max(0, e1 - max(1021 - e2, 510)), max(0, e2 - max(1021 - e1, 510)))):
        w, x, y, z, _ = _product(*(math.ldexp(c, -k1) for c in f1), *(math.ldexp(c, -k2) for c in f2), False)
        if max(abs(w), abs(x), abs(y), abs(z)) < math.inf:
            break
    return w, x, y, z, k1 + k2


def compose_gibbs(q1: GibbsVector, q2: GibbsVector) -> GibbsVector:
    """Rotation vector of "rotate by q1, then by q2" (axes through one point).

    The ratio 2 v / w of the four-parameter product of (2, q1) and (2, q2),
    which is (q1 + q2 + (1/2) q2 x q1) / (1 - q1.q2/4). Raises
    ResultantHalfTurn when that denominator, w/4, vanishes within 1e-12 (the
    resultant is a half turn and has no finite rotation vector), and
    ValueError when the rotation vector overflows.
    """
    w, x, y, z, k = _product(2.0, q1.m, q1.n, q1.p, 2.0, q2.m, q2.n, q2.p)
    if abs(w) < math.ldexp(4.0 * AT_PI_CUT, -k):
        raise ResultantHalfTurn(
            f"resultant is a half turn (denominator {math.ldexp(w, k - 2)}); it has no rotation vector"
        )
    half = w * 0.5
    return GibbsVector(x / half, y / half, z / half)


def _resultant_screw(dir1: Vec3, theta1: float, dir2: Vec3, theta2: float) -> "Screw":
    """Screw of "rotate by theta1 about dir1, then by theta2 about dir2", both
    unit axes through the origin: the four-parameter product of
    (cos(theta/2), sin(theta/2) * axis), read by screw_from_displacement."""
    from .screw import screw_from_displacement

    h1, h2 = theta1 / 2.0, theta2 / 2.0
    D1 = Displacement(w=math.cos(h1), v=dir1 * math.sin(h1))
    D2 = Displacement(w=math.cos(h2), v=dir2 * math.sin(h2))
    return screw_from_displacement(compose_displacements(D1, D2))


def resultant_trig(theta1: float, theta2: float, nu: float) -> ResultantFrame:
    """Resultant of two rotations about axes meeting at angle nu.

    Computed in the canonical frame (first axis = x, second = (cos nu,
    sin nu, 0)): cos(Theta/2) = cos(theta1/2)cos(theta2/2)
    - sin(theta1/2)sin(theta2/2)cos nu, and the axis components follow from
    the four-parameter product. Theta lands in [0, pi]; Theta = pi is
    allowed. An identity resultant returns the +x axis by convention.
    """
    screw = _resultant_screw(EX, theta1, Vec3(math.cos(nu), math.sin(nu), 0.0), theta2)
    if screw.axis is None:
        return ResultantFrame(0.0, 1.0, 0.0, 0.0)
    axis = screw.axis.dir
    return ResultantFrame(screw.theta, axis.x, axis.y, axis.z)


def order_swap_axis(
    theta1: float, theta2: float, nu: float
) -> tuple[UnitVec3, UnitVec3]:
    """Resultant axes of the two application orders of the same two rotations.

    Both orders give the same resultant angle; the two axes agree inside the
    plane spanned by the input axes and differ in sign along its normal
    (they are mirror images in that plane).
    """
    axis2 = Vec3(math.cos(nu), math.sin(nu), 0.0)
    forward = _resultant_screw(EX, theta1, axis2, theta2)
    reverse = _resultant_screw(axis2, theta2, EX, theta1)
    if forward.axis is None or reverse.axis is None:
        return EX, EX
    return forward.axis.dir, reverse.axis.dir


def sine_proportionality(theta1: float, theta2: float, nu: float) -> SineRatios:
    """Sines of the angles between the resultant axis and each given axis.

    sin(to_first) = sin(theta2/2) sin nu / sin(Theta/2) and symmetrically,
    so the sines are proportional to the half-angle sines of the opposite
    rotations. Raises DegenerateResultant when the resultant is the identity.
    """
    screw = _resultant_screw(EX, theta1, Vec3(math.cos(nu), math.sin(nu), 0.0), theta2)
    if screw.axis is None:
        raise DegenerateResultant("identity resultant: axis angles undefined")
    sin_half = math.sin(screw.theta / 2.0)
    s1 = math.sin(theta1 / 2.0)
    s2 = math.sin(theta2 / 2.0)
    return SineRatios(
        abs(s2 * math.sin(nu)) / sin_half, abs(s1 * math.sin(nu)) / sin_half
    )


def compose_displacements(D1: Displacement, D2: Displacement) -> Displacement:
    """Displacement "do D1, then D2".

    The rotation parameters fold by the four-parameter product of Rodrigues'
    memoir, (w2 w1 - v2.v1, w2 v1 + w1 v2 + v2 x v1), the one compose_gibbs
    reads its ratio from, with its one overflow rule: each factor is scaled
    by its own power of two. The product is in half-turn form when its
    unscaled w is below 1e-12 in size, where compose_gibbs raises. The new
    origin displacement is the image of D1.delta under D2.
    """
    a, b = D1.v, D2.v
    w, x, y, z, k = _product(D1.w, a.x, a.y, a.z, D2.w, b.x, b.y, b.z)
    if k and abs(w) >= math.ldexp(AT_PI_CUT, -k):
        # The unscaled w is past the half-turn cut; the scaled one may not be.
        w, x, y, z = 1.0, x / w, y / w, z / w
    return Displacement(w=w, v=Vec3(x, y, z), delta=apply_displacement(D2, D1.delta))


def nonintersecting_pair(line1: Rotation, line2: Rotation) -> tuple["Screw", Vec3]:
    """Resultant screw of two rotations about separated (skew or parallel) axes.

    The displacements of the two rotations fold by the four-parameter
    product (compose_displacements), whatever the distance of their axes;
    the screw is read from the product, and its slide is the projection of
    the origin's displacement on the resultant axis.

    Returns (screw, delta) with delta the displacement of the world origin.
    Raises IntersectingAxes when the axes meet within 1e-9, and
    DegenerateResultant when the composite is the identity.
    """
    from .screw import ScrewKind, screw_from_displacement

    if distance_between_lines(line1.line, line2.line) < DEGENERATE_CUT:
        raise IntersectingAxes(
            f"axes meet within {DEGENERATE_CUT}; use the intersecting form"
        )
    D = compose_displacements(
        displacement_of_rotation(line1.line.point, line1.line.dir, line1.angle),
        displacement_of_rotation(line2.line.point, line2.line.dir, line2.angle),
    )
    screw = screw_from_displacement(D)
    if screw.kind is ScrewKind.IDENTITY:
        raise DegenerateResultant("the two rotations cancel exactly")
    return screw, D.delta


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
    from .screw import screw_from_displacement

    c_x, s_x = math.cos(theta_x / 2.0), math.sin(theta_x / 2.0)
    c_y, s_y = math.cos(theta_y / 2.0), math.sin(theta_y / 2.0)
    c_z, s_z = math.cos(theta_z / 2.0), math.sin(theta_z / 2.0)
    w = c_x * c_y * c_z - s_x * s_y * s_z
    v = Vec3(
        c_y * c_z * s_x + c_x * s_y * s_z,
        c_x * c_z * s_y - c_y * s_x * s_z,
        c_x * c_y * s_z + c_z * s_x * s_y,
    )
    screw = screw_from_displacement(Displacement(w=w, v=v))
    if screw.axis is None:
        return ThreeAxisResult(0.0, 0.0, 0.0, 0.0)
    half = 2.0 * v.dot(v)
    sin2_x = (1.0 - math.cos(theta_y) * math.cos(theta_z)) / half
    sin2_y = (
        1.0
        - math.cos(theta_x) * math.cos(theta_z)
        + math.sin(theta_x) * math.sin(theta_y) * math.sin(theta_z)
    ) / half
    sin2_z = (1.0 - math.cos(theta_x) * math.cos(theta_y)) / half
    return ThreeAxisResult(screw.theta, sin2_x, sin2_y, sin2_z)


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
    infinity). |t| is Vec3.norm, so every finite t has one. Raises
    ZeroTranslation for |t| <= 1e-12.
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
