"""Shared value types, the threshold table, and the orientation convention.

All cross products in this package are right-handed; every angle is in
radians. Types are immutable values and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ZeroVector

# The threshold table. Rodrigues' formulas are exact; the library departs from
# them only at these values, and every library module reads them from here.
ZERO_CUT = 1e-12  # 4500 ulps of 1: a length, angle, slide or sum this small is rounding
AT_PI_CUT = 1e-12  # this near a half turn |q| = 2 tan(theta/2) passes 4e12: q blows up
PI_ROUNDING = 1e-15  # two ulps of pi: a Rotation angle may pass pi by this much
RESIDUAL_TOL = 1e-9  # 4.5e6 ulps: kept rounding of an identity (orthonormal, net zero)
DEGENERATE_CUT = 1e-9  # relative: this near collinear, coplanar or meeting is degenerate
TRACE_CUT = 1e-9  # 1 + trace = 4 cos^2(theta/2): 3.2e-5 rad from pi, q is unusable
CHORD_TOL = 1e-10  # relative chord residual that rounding of an exact fit stays below
RIGIDITY_TOL = 1e-6  # set by measurement noise: relative distance change still rigid
MIN_COUPLE_ANGLE = 1e-6  # below it a couple's axes sit over 1e6 |t| apart
SCALE_FLOOR = 1e-30  # below any real data scale: acts only when every point is at 0
UNDERFLOW_CUT = 1e-150  # squares to 1e-300, near 2.2e-308: Vec3.norm takes shorter lengths by hypot


@dataclass(frozen=True, slots=True)
class Vec3:
    """A point or free vector with finite real components."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        # x - x is 0 for every finite x, int and Fraction too, and NaN otherwise.
        if not (self.x - self.x) + (self.y - self.y) + (self.z - self.z) == 0.0:
            raise ValueError(f"non-finite component in {(self.x, self.y, self.z)}")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec3":
        return Vec3(self.x / s, self.y / s, self.z / s)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        """sqrt(x^2 + y^2 + z^2), the package's one length rule: hypot takes
        every length whose squares overflow or lose bits (below 1e-150)."""
        n = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if UNDERFLOW_CUT <= n < math.inf:
            return n
        return math.hypot(self.x, self.y, self.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


ZERO = Vec3(0.0, 0.0, 0.0)
EX = Vec3(1.0, 0.0, 0.0)
EZ = Vec3(0.0, 0.0, 1.0)


@dataclass(frozen=True, slots=True)
class UnitVec3(Vec3):
    """A direction: a Vec3 whose length is 1 within 1e-12.

    Construct through make_unit (or directly with already-normalized
    components); the constructor enforces the length invariant.
    """

    def __post_init__(self):
        # Explicit base call: slots=True rebuilds the class, which breaks
        # the zero-argument super() closure.
        Vec3.__post_init__(self)
        if abs(self.norm() - 1.0) > ZERO_CUT:
            raise ValueError(f"not unit length: {(self.x, self.y, self.z)}")

    def __neg__(self) -> "UnitVec3":
        return UnitVec3(-self.x, -self.y, -self.z)


def make_unit(v: Vec3) -> UnitVec3:
    """Normalize v to unit length, its length taken by Vec3.norm.

    Raises ZeroVector when |v| <= 1e-12, and ValueError when |v| is past
    the largest float, about 1.8e308.
    """
    return UnitVec3(*_unit_components(v.x, v.y, v.z))


def _unit_components(x: float, y: float, z: float) -> tuple[float, float, float]:
    """The components of make_unit(Vec3(x, y, z)), without building either.

    Raises as make_unit does, and ValueError for a non-finite component.
    """
    n = math.sqrt(x * x + y * y + z * z)
    if not ZERO_CUT < n < math.inf:  # inside, this root is Vec3.norm bit for bit
        n = Vec3(x, y, z).norm()
        if n <= ZERO_CUT:
            raise ZeroVector(f"cannot normalize near-zero vector {(x, y, z)}")
        if n == math.inf:
            raise ValueError(f"non-finite component: the length of {(x, y, z)} overflows")
    return x / n, y / n, z / n


@dataclass(frozen=True, slots=True)
class AxisLine:
    """An oriented line in space: a point on it and a unit direction."""

    point: Vec3
    dir: UnitVec3


@dataclass(frozen=True, slots=True)
class Rotation:
    """A finite rotation about a fixed line, angle in (-pi, pi] radians."""

    line: AxisLine
    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError("non-finite rotation angle")
        if not (-math.pi < self.angle <= math.pi + PI_ROUNDING):
            raise ValueError(f"rotation angle {self.angle} outside (-pi, pi]")


def distance_between_lines(a: AxisLine, b: AxisLine) -> float:
    """Minimal distance between two lines (0 when they meet)."""
    n = a.dir.cross(b.dir)
    w = b.point - a.point
    nn = n.norm()
    if nn <= ZERO_CUT:
        return (w - a.dir * w.dot(a.dir)).norm()
    return abs(w.dot(n)) / nn


def angle_between(u: Vec3, v: Vec3) -> float:
    """Angle between two nonzero vectors, in [0, pi]."""
    return math.atan2(u.cross(v).norm(), u.dot(v))


def _half_turn_flip(v: Vec3) -> bool:
    """True when the first component of v larger than 1e-12 in size is negative.

    At a half turn both directions of the axis give the same map; every
    caller keeps the one this returns False for.
    """
    for c in (v.x, v.y, v.z):
        if abs(c) > ZERO_CUT:
            return c < 0.0
    return False


def canonicalize_rotation(r: Rotation) -> Rotation:
    """Return the same point map with angle in [0, pi].

    A negative angle flips both the axis direction and the angle sign. At a
    half turn, where both directions give the same map, the direction is
    fixed so its first component larger than 1e-12 in size is positive.
    """
    dir_, angle = r.line.dir, r.angle
    if angle < 0:
        dir_, angle = -dir_, -angle
    if abs(angle - math.pi) <= AT_PI_CUT and _half_turn_flip(dir_):
        dir_ = -dir_
    if dir_ is r.line.dir and angle == r.angle:
        return r
    return Rotation(AxisLine(r.line.point, dir_), angle)
