"""First-order displacement (twist) algebra, moments, and virtual work.

A twist (delta, omega) assigns each point r the first-order displacement
delta + omega x r. Twists are exact linear objects here; whether they model
a genuinely small motion is the caller's concern, and the convergence-order
tests in the test suite validate that linearization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import DEGENERATE_CUT, RESIDUAL_TOL, ZERO_CUT, AxisLine, UnitVec3, Vec3
from .errors import CoupleDegenerate, DegenerateInput
from .rotation import Twist


@dataclass(frozen=True, slots=True)
class PointForce:
    """A force vector applied at a point."""

    at: Vec3
    f: Vec3


def twist_field(tw: Twist, r: Vec3) -> Vec3:
    """First-order displacement of the point r under the twist."""
    return tw.delta + tw.omega.cross(r)


def twist_of_rotation(line: AxisLine, theta_small: float) -> Twist:
    """Linearization of a rotation by theta_small about the line.

    omega = theta_small * dir; delta makes points on the line stationary to
    first order.
    """
    omega = line.dir * theta_small
    delta = line.dir.cross(-line.point) * theta_small
    return Twist(delta, omega)


def compose_twists(ts: Sequence[Twist]) -> Twist:
    """Componentwise sum of twists.

    Summed with math.fsum, so the result is independent of the sequence
    order down to the last bit.
    """
    delta = Vec3(
        math.fsum(t.delta.x for t in ts),
        math.fsum(t.delta.y for t in ts),
        math.fsum(t.delta.z for t in ts),
    )
    omega = Vec3(
        math.fsum(t.omega.x for t in ts),
        math.fsum(t.omega.y for t in ts),
        math.fsum(t.omega.z for t in ts),
    )
    return Twist(delta, omega)


def twist_equilibrium(ts: Sequence[Twist], tol: float = RESIDUAL_TOL) -> bool:
    """True when the summed twist vanishes: |sum delta| and |sum omega| <= tol."""
    total = compose_twists(ts)
    return total.delta.norm() <= tol and total.omega.norm() <= tol


def rotation_moment(
    rot_line: AxisLine, theta: float, target_dir: UnitVec3, target_point: Vec3
) -> float:
    """First-order displacement along a target line caused by a rotation.

    Returns theta * (rot dir x (target point - rot point)) . target dir,
    which equals theta * distance * sin nu up to the orientation sign of the
    configuration (right-handed triple of rotation direction, offset, and
    target direction); it is the same for every point of the target line.
    """
    arm = target_point - rot_line.point
    return theta * rot_line.dir.cross(arm).dot(target_dir)


def parallel_rotation_center(
    lines: Sequence[AxisLine], thetas: Sequence[float]
) -> Vec3:
    """Center of a family of first-order rotations about parallel lines.

    The composed twist equals a single rotation by the summed angle about
    the parallel line through the theta-weighted mean of the axis points.
    The returned point is the mean with its component along the common
    direction removed, so it does not depend on which point represents each
    line.

    Raises CoupleDegenerate when the angles sum to (near) zero — the
    resultant is then a translation with no center — and DegenerateInput
    for non-parallel lines or mismatched sequence lengths.
    """
    if len(lines) == 0 or len(lines) != len(thetas):
        raise DegenerateInput("need one angle per line, at least one line")
    d0 = lines[0].dir
    for line in lines[1:]:
        if d0.dot(line.dir) < 1.0 - DEGENERATE_CUT:
            raise DegenerateInput("axis lines are not parallel (equal directions)")
    total = math.fsum(thetas)
    if abs(total) <= ZERO_CUT:
        raise CoupleDegenerate("angles cancel; the resultant is a translation")
    mean = Vec3(
        math.fsum(line.point.x * t for line, t in zip(lines, thetas)) / total,
        math.fsum(line.point.y * t for line, t in zip(lines, thetas)) / total,
        math.fsum(line.point.z * t for line, t in zip(lines, thetas)) / total,
    )
    return mean - d0 * mean.dot(d0)


def virtual_work(forces: Sequence[PointForce], tw: Twist) -> float:
    """First-order work of the forces through the twist's displacement field.

    A plain left-to-right sum of f . (delta + omega x r) over the forces.
    """
    total = 0.0
    for force in forces:
        total += force.f.dot(twist_field(tw, force.at))
    return total


_BASIS_TWISTS = (
    Twist(Vec3(1.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.0)),
    Twist(Vec3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 0.0)),
    Twist(Vec3(0.0, 0.0, 1.0), Vec3(0.0, 0.0, 0.0)),
    Twist(Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0)),
    Twist(Vec3(0.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0)),
    Twist(Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 1.0)),
)


def force_equilibrium(forces: Sequence[PointForce], tol: float = RESIDUAL_TOL) -> bool:
    """True when net force and net moment vanish within tol.

    Evaluated literally as virtual_work on the six basis twists (three unit
    translations, three unit rotations about the coordinate axes through
    the origin), which computes exactly the components of sum f and
    sum r x f; the equivalence with the virtual-work formulation is
    arithmetic identity, not approximation.
    """
    return all(abs(virtual_work(forces, tw)) <= tol for tw in _BASIS_TWISTS)
