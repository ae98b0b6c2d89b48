"""Central-axis (screw) form of a displacement and the classical constructions.

Every rigid displacement is a rotation about one line plus a slide along it.
The Screw type stores that canonical form; the operations here convert to
and from it, split a screw into two plain rotations about skew lines (with
the invariant that ties such a pair to its screw), and recover the axis
geometrically from tracked points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .core import (
    AT_PI_CUT,
    DEGENERATE_CUT,
    RESIDUAL_TOL,
    RIGIDITY_TOL,
    SCALE_FLOOR,
    ZERO_CUT,
    AxisLine,
    Rotation,
    UnitVec3,
    Vec3,
    angle_between,
    canonicalize_rotation,
    distance_between_lines,
    _half_turn_flip,
    make_unit,
)
from .compose import _resultant_screw, compose_displacements, translation_as_couple
from .errors import DegenerateInput, DegenerateResultant, ParallelPlanes
from .pointfit import Correspondence
from .rotation import (
    GIBBS_ZERO,
    Displacement,
    displacement_of_rotation,
    rodrigues_rotate,
)


class ScrewKind(Enum):
    IDENTITY = "identity"
    TRANSLATION = "translation"
    GENERAL = "general"


@dataclass(frozen=True, slots=True)
class Screw:
    """Canonical central-axis form of a displacement.

    Three variants: the identity, a pure translation, and the general screw
    with an axis line, an angle theta in (0, pi], and a signed slide along
    the axis direction. In the general form the stored axis point is the
    foot of the perpendicular from the origin, making equal screws compare
    equal; construct through the classmethods, which canonicalize.
    """

    kind: ScrewKind
    translation: Vec3 | None = None
    axis: AxisLine | None = None
    theta: float | None = None
    slide: float | None = None

    @staticmethod
    def identity() -> "Screw":
        return Screw(ScrewKind.IDENTITY)

    @staticmethod
    def pure_translation(t: Vec3) -> "Screw":
        return Screw(ScrewKind.TRANSLATION, translation=t)

    @staticmethod
    def general(
        point: Vec3, direction: UnitVec3, theta: float, slide: float
    ) -> "Screw":
        if theta < 0.0:
            direction, theta, slide = -direction, -theta, -slide
        if theta > math.pi:
            if theta > math.pi + RESIDUAL_TOL:
                raise ValueError(f"screw angle {theta} outside (0, pi]")
            theta = math.pi
        if theta == 0.0:
            raise ValueError("a zero-angle screw is the identity or a translation")
        if abs(theta - math.pi) <= AT_PI_CUT and _half_turn_flip(direction):
            direction, slide = -direction, -slide
        s = point.dot(direction)
        foot = Vec3(
            point.x - direction.x * s,
            point.y - direction.y * s,
            point.z - direction.z * s,
        )
        return Screw(
            ScrewKind.GENERAL,
            axis=AxisLine(foot, direction),
            theta=theta,
            slide=slide,
        )


class AbsoluteTranslation(NamedTuple):
    """Slide of a displacement along its axis; |delta| when no axis exists."""

    value: float
    translation_only: bool


class ConjugatePair(NamedTuple):
    """Two rotations composing to a screw; degenerate marks a zero-slide input
    (the second rotation is then the zero-angle identity)."""

    line_a: Rotation
    line_b: Rotation
    degenerate: bool


class InvariantSides(NamedTuple):
    """Both sides of the skew-pair identity
    distance * sin nu * sin(thetaA/2) * sin(thetaB/2) = (1/2) |slide| * sin(thetaC/2)."""

    lhs: float
    rhs: float


def screw_from_displacement(D: Displacement) -> Screw:
    """Extract the central axis, angle, and slide of a displacement.

    theta = 2 atan2(|v|, w) = 2 atan(|q|/2); the axis passes through
    r0 = delta/2 + w (v x delta) / (2 |v|^2), which is the slide's midpoint
    construction delta/2 - delta x q / q^2 at w = 1; the slide is the
    projection of delta on the axis direction. A half turn is covered. A
    rotation vector of length at most 1e-12 gives the identity or a pure
    translation.
    """
    w, v, d = D.w, D.v, D.delta
    vx, vy, vz = v.x, v.y, v.z
    v2 = vx * vx + vy * vy + vz * vz
    vn = v.norm()
    # 2 |v| is |q| at w = 1; in half-turn form |v| is about 1.
    if vn + vn <= ZERO_CUT:
        if d.norm() == 0.0:
            return Screw.identity()
        return Screw.pure_translation(d)
    ux, uy, uz = vx / vn, vy / vn, vz / vn
    # atan2(y, 1.0) and atan(y) can differ in the last bit; w = 1 keeps atan's.
    theta = 2.0 * (math.atan(vn) if w == 1.0 else math.atan2(vn, w))
    slide = d.x * ux + d.y * uy + d.z * uz
    h = v2 + v2
    rx = d.x * 0.5 - w * (d.y * vz - d.z * vy) / h
    ry = d.y * 0.5 - w * (d.z * vx - d.x * vz) / h
    rz = d.z * 0.5 - w * (d.x * vy - d.y * vx) / h
    if not abs(rx) + abs(ry) + abs(rz) < math.inf:  # v x delta overflowed; u x (delta/2) cannot
        rx, ry, rz = (d * 0.5 + UnitVec3(ux, uy, uz).cross(d * 0.5) * (w / vn)).as_tuple()
    return Screw.general(Vec3(rx, ry, rz), UnitVec3(ux, uy, uz), theta, slide)


def displacement_from_screw(S: Screw) -> Displacement:
    """Rebuild the displacement: rotate about the axis, then slide along it.

    A half-turn screw gives a displacement in half-turn form.
    """
    if S.kind is ScrewKind.IDENTITY:
        return Displacement(GIBBS_ZERO, Vec3(0.0, 0.0, 0.0))
    if S.kind is ScrewKind.TRANSLATION:
        return Displacement(GIBBS_ZERO, S.translation)
    D = displacement_of_rotation(S.axis.point, S.axis.dir, S.theta)
    return Displacement(w=D.w, v=D.v, delta=D.delta + S.axis.dir * S.slide)


def absolute_translation(D: Displacement) -> AbsoluteTranslation:
    """Projection of every point's displacement on the axis direction.

    The projection is the same for all points: the slide of
    screw_from_displacement, half-turn direction rule included. For a pure
    translation there is no axis and the full length |delta| is returned
    with translation_only set, as it is for a rotation vector of length at
    most 1e-12.
    """
    S = screw_from_displacement(D)
    if S.axis is None:
        return AbsoluteTranslation(D.delta.norm(), True)
    return AbsoluteTranslation(S.slide, False)


def conjugate_pair_decompose(S: Screw, thetaB: float, psi: float) -> ConjugatePair:
    """Split a general screw into two plain rotations about skew lines.

    The slide is replaced by a couple of angle thetaB whose first axis runs
    through the screw's axis point (azimuth psi selects one member of the
    infinite family); that axis's rotation folds with the screw's rotation
    into line_a, and the couple's second axis survives as line_b. Composing
    line_a then line_b reproduces the screw.

    A zero-slide screw is already a single rotation: the result is then
    (that rotation, a zero-angle rotation, degenerate=True); a slide is zero
    up to 1e-12 max(1, |delta|), |delta| = hypot(slide, 2 sin(theta/2) |axis point|).
    """
    if S.kind is not ScrewKind.GENERAL:
        raise DegenerateInput("only a general screw splits into a rotation pair")
    c_hat = S.axis.dir
    anchor = S.axis.point
    origin_move = math.hypot(S.slide, 2.0 * math.sin(S.theta / 2.0) * anchor.norm())
    if abs(S.slide) <= ZERO_CUT * max(1.0, origin_move):
        return ConjugatePair(
            Rotation(S.axis, S.theta),
            Rotation(AxisLine(anchor, c_hat), 0.0),
            True,
        )
    if not (0.0 < thetaB < math.pi):
        raise DegenerateInput(f"couple angle must lie in (0, pi); got {thetaB}")
    couple = translation_as_couple(c_hat * S.slide, thetaB, psi)
    b_hat = couple.dir
    turn_a = _resultant_screw(c_hat, S.theta, b_hat, thetaB)
    if turn_a.kind is ScrewKind.IDENTITY:
        raise DegenerateInput("screw rotation and couple cancel; no pair exists")
    line_a = Rotation(AxisLine(anchor, turn_a.axis.dir), turn_a.theta)
    line_b = Rotation(AxisLine(anchor + couple.point2, b_hat), -thetaB)
    return ConjugatePair(line_a, line_b, False)


def conjugate_invariant(lineA: Rotation, lineB: Rotation) -> InvariantSides:
    """Evaluate both sides of the skew-pair identity.

    lhs uses only the pair's geometry: axis distance, inter-axis angle, and
    the half-angle sines. rhs uses only the composed screw: half its |slide|
    times the half-angle sine of its rotation. For any two rotations about
    skew lines the two agree.

    Raises DegenerateResultant when the pair composes to the identity; a
    pair composing to a pure translation has rhs = 0.
    """
    a = canonicalize_rotation(lineA)
    b = canonicalize_rotation(lineB)
    dist = distance_between_lines(a.line, b.line)
    nu = angle_between(a.line.dir, b.line.dir)
    lhs = (
        dist
        * math.sin(nu)
        * math.sin(a.angle / 2.0)
        * math.sin(b.angle / 2.0)
    )
    D1 = displacement_of_rotation(a.line.point, a.line.dir, a.angle)
    D2 = displacement_of_rotation(b.line.point, b.line.dir, b.angle)
    composed = screw_from_displacement(compose_displacements(D1, D2))
    if composed.kind is ScrewKind.IDENTITY:
        raise DegenerateResultant("the pair composes to the identity")
    if composed.kind is ScrewKind.TRANSLATION:
        return InvariantSides(lhs, 0.0)
    rhs = 0.5 * abs(composed.slide) * math.sin(composed.theta / 2.0)
    return InvariantSides(lhs, rhs)


def euler_fixed_axis(corrA: Correspondence, corrB: Correspondence) -> AxisLine:
    """Axis of the rotation about the origin carrying A to A' and B to B'.

    The axis direction is normal to both chords (each bisecting normal
    plane passes through the origin); when the chords are parallel the axis
    is recovered instead as the intersection of the planes OAB and OA'B'.

    Raises DegenerateInput for collinear base points, non-rigid data, data
    no origin-fixed rotation explains, or the identity (no unique axis).
    """
    A, Ap = corrA.before, corrA.after
    B, Bp = corrB.before, corrB.after
    scale = max(A.norm(), B.norm(), Ap.norm(), Bp.norm())
    if scale <= 0.0:
        raise DegenerateInput("all points at the origin")
    for before, after in ((A, Ap), (B, Bp)):
        if abs(before.norm() - after.norm()) > RIGIDITY_TOL * scale:
            raise DegenerateInput("distances to the origin are not preserved")
    if abs((A - B).norm() - (Ap - Bp).norm()) > RIGIDITY_TOL * scale:
        raise DegenerateInput("distance between the points is not preserved")
    if A.cross(B).norm() <= DEGENERATE_CUT * scale * scale:
        raise DegenerateInput("base points are collinear with the origin")
    if (Ap - A).norm() <= ZERO_CUT * scale and (Bp - B).norm() <= ZERO_CUT * scale:
        raise DegenerateInput("identity motion has no unique axis")

    normal = (Ap - A).cross(Bp - B)
    if normal.norm() > DEGENERATE_CUT * scale * scale:
        direction = make_unit(normal)
    else:
        meet = A.cross(B).cross(Ap.cross(Bp))
        if meet.norm() <= DEGENERATE_CUT * scale**4:
            raise DegenerateInput(
                "chords parallel and planes coincide; axis not determined"
            )
        direction = make_unit(meet)

    flat_a = A - direction * A.dot(direction)
    flat_ap = Ap - direction * Ap.dot(direction)
    if flat_a.norm() > DEGENERATE_CUT * scale:
        u, v = flat_a, flat_ap
    else:
        u = B - direction * B.dot(direction)
        v = Bp - direction * Bp.dot(direction)
        if u.norm() <= DEGENERATE_CUT * scale:
            raise DegenerateInput("both points lie on the axis")
    angle = math.atan2(u.cross(v).dot(direction), u.dot(v))
    if angle < 0.0:
        direction, angle = -direction, -angle

    for before, after in ((A, Ap), (B, Bp)):
        if (
            rodrigues_rotate(direction, angle, before) - after
        ).norm() > RIGIDITY_TOL * scale:
            raise DegenerateInput(
                "no rotation about the origin carries both points as given"
            )
    return AxisLine(Vec3(0.0, 0.0, 0.0), direction)


def levy_central_axis(
    corrA: Correspondence, corrB: Correspondence, dir: UnitVec3
) -> AxisLine:
    """Central axis of known direction from two tracked points.

    Each tracked point yields a plane: through the chord's midpoint,
    containing the axis direction, normal to the chord. Both planes contain
    the central axis, so their intersection is the axis. When the two
    planes coincide, the two points determine the turn about dir inside
    that plane, and screw_from_displacement reads the axis of the
    displacement that turns A into A' by it. The returned line's point is
    the foot of the perpendicular from the origin.

    Raises ParallelPlanes for every configuration without a unique
    intersection (a chord parallel to dir, distinct parallel planes, or no
    turning component).
    """
    A, Ap = corrA.before, corrA.after
    B, Bp = corrB.before, corrB.after
    scale = max(A.norm(), B.norm(), Ap.norm(), Bp.norm(), SCALE_FLOOR)

    def perp(p: Vec3) -> Vec3:
        return p - dir * p.dot(dir)

    n_a = perp(Ap - A)
    n_b = perp(Bp - B)
    if (
        n_a.norm() <= DEGENERATE_CUT * scale
        or n_b.norm() <= DEGENERATE_CUT * scale
    ):
        raise ParallelPlanes("a chord is parallel to the axis direction")
    mid_a = (A + Ap) * 0.5
    mid_b = (B + Bp) * 0.5

    if make_unit(n_a).cross(make_unit(n_b)).norm() > DEGENERATE_CUT:
        # Cramer's rule on the rows n_a, n_b, dir with right side
        # (n_a . mid_a, n_b . mid_b, 0): the solution is
        # (h_a (n_b x dir) + h_b (dir x n_a)) / (n_a . (n_b x dir)).
        nb_dir = n_b.cross(dir)
        point = (nb_dir * n_a.dot(mid_a) + dir.cross(n_a) * n_b.dot(mid_b)) / n_a.dot(nb_dir)
        return AxisLine(point, dir)

    if abs(make_unit(n_a).dot(mid_b - mid_a)) > DEGENERATE_CUT * scale:
        raise ParallelPlanes("the two construction planes are parallel and distinct")

    # Coincident planes: both chords turn inside one plane through the axis.
    # The relative position turns by theta about dir; the displacement
    # turning A into A' by that angle has the central axis as its own.
    rel, rel_p = perp(B - A), perp(Bp - Ap)
    if rel.norm() <= DEGENERATE_CUT * scale:
        raise ParallelPlanes("the two tracked points project to one point")
    theta = math.atan2(rel.cross(rel_p).dot(dir), rel.dot(rel_p))
    axis = None
    if abs(theta) > ZERO_CUT:
        h = theta / 2.0
        turn = Displacement(w=math.cos(h), v=dir * math.sin(h), delta=Ap - rodrigues_rotate(dir, theta, A))
        # Within a few ulps of the cut the reader may still see no turn.
        axis = screw_from_displacement(turn).axis
    if axis is None:
        raise ParallelPlanes("no in-plane turning; axis not determined")
    return AxisLine(axis.point, dir)


def displaced_line_angle(theta: float, phi: float) -> float:
    """Angle between a line and its image under a rotation.

    For a rotation by theta and a line at angle phi from the rotation axis
    the image makes the angle 2 asin(sin(theta/2) sin(phi)) with the
    original; it depends on nothing else.
    """
    arg = math.sin(theta / 2.0) * math.sin(phi)
    return 2.0 * math.asin(max(-1.0, min(1.0, arg)))
