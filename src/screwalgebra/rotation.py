"""Finite rotations and general displacements in rational half-tangent form.

A rotation by theta about a unit axis is carried by the vector
q = 2 tan(theta/2) * axis, which keeps every composition and evaluation
formula rational in the parameters. theta = pi is not representable in this
form; the Euler-Rodrigues parameters (cos(theta/2), sin(theta/2) * axis)
cover it (compose.fold_half_angle, screw.screw_from_fold).

A general displacement is stored as (q, delta) where delta is the image
displacement of the coordinate origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import AT_PI_CUT, RESIDUAL_TOL, TRACE_CUT, ZERO_CUT
from .core import EZ, UnitVec3, Vec3, make_unit
from .errors import AngleAtPi, TraceSingular


@dataclass(frozen=True, slots=True)
class GibbsVector:
    """The half-tangent rotation vector q = 2 tan(theta/2) * axis."""

    m: float
    n: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and math.isfinite(self.n) and math.isfinite(self.p)):
            raise ValueError("non-finite component in rotation vector")

    def as_vec3(self) -> Vec3:
        return Vec3(self.m, self.n, self.p)

    def norm(self) -> float:
        return math.sqrt(self.m * self.m + self.n * self.n + self.p * self.p)

    @staticmethod
    def from_vec3(v: Vec3) -> "GibbsVector":
        return GibbsVector(v.x, v.y, v.z)


GIBBS_ZERO = GibbsVector(0.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class RotationMatrix:
    """A proper orthonormal 3x3 matrix, stored as row tuples, acting r -> M r."""

    rows: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if len(self.rows) != 3 or any(len(r) != 3 for r in self.rows):
            raise ValueError("rotation matrix needs 3 rows of 3 entries")
        a, b, c = self.rows
        dots = (
            abs(a[0] * a[0] + a[1] * a[1] + a[2] * a[2] - 1.0),
            abs(b[0] * b[0] + b[1] * b[1] + b[2] * b[2] - 1.0),
            abs(c[0] * c[0] + c[1] * c[1] + c[2] * c[2] - 1.0),
            abs(a[0] * b[0] + a[1] * b[1] + a[2] * b[2]),
            abs(a[0] * c[0] + a[1] * c[1] + a[2] * c[2]),
            abs(b[0] * c[0] + b[1] * c[1] + b[2] * c[2]),
        )
        if max(dots) > RESIDUAL_TOL:
            raise ValueError("matrix rows are not orthonormal")
        if abs(self.det() - 1.0) > RESIDUAL_TOL:
            raise ValueError("matrix determinant is not +1")

    def apply(self, r: Vec3) -> Vec3:
        a, b, c = self.rows
        return Vec3(
            a[0] * r.x + a[1] * r.y + a[2] * r.z,
            b[0] * r.x + b[1] * r.y + b[2] * r.z,
            c[0] * r.x + c[1] * r.y + c[2] * r.z,
        )

    def matmul(self, other: "RotationMatrix") -> "RotationMatrix":
        out = []
        for i in range(3):
            row = []
            for j in range(3):
                row.append(sum(self.rows[i][k] * other.rows[k][j] for k in range(3)))
            out.append(tuple(row))
        return RotationMatrix(tuple(out))

    def transpose(self) -> "RotationMatrix":
        r = self.rows
        return RotationMatrix(tuple(tuple(r[j][i] for j in range(3)) for i in range(3)))

    def trace(self) -> float:
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def det(self) -> float:
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@dataclass(frozen=True, slots=True)
class Displacement:
    """General rigid displacement: rotation vector q plus origin image delta.

    q may be zero (pure translation). The midpoint-law constant vector is
    derived, never stored: gamma() = delta - (1/2) q x delta.
    """

    q: GibbsVector
    delta: Vec3

    def gamma(self) -> Vec3:
        return self.delta - self.q.as_vec3().cross(self.delta) * 0.5


@dataclass(frozen=True, slots=True)
class Twist:
    """First-order rigid displacement: origin velocity delta, angular vector omega."""

    delta: Vec3
    omega: Vec3


def rodrigues_rotate(axis: UnitVec3, theta: float, r: Vec3) -> Vec3:
    """Rotate r by theta about the unit axis through the origin (right-handed)."""
    c = math.cos(theta)
    s = math.sin(theta)
    return r * c + axis * (axis.dot(r) * (1.0 - c)) + axis.cross(r) * s


def gibbs_from_axis_angle(axis: UnitVec3, theta: float) -> GibbsVector:
    """Build q = 2 tan(theta/2) * axis; |theta| must stay below pi.

    Raises AngleAtPi within 1e-12 of a half turn, where the parameter blows up.
    """
    if abs(theta) >= math.pi - AT_PI_CUT:
        raise AngleAtPi(f"half-tangent parameter undefined at angle {theta}")
    t = 2.0 * math.tan(theta / 2.0)
    return GibbsVector(axis.x * t, axis.y * t, axis.z * t)


def axis_angle_from_gibbs(q: GibbsVector) -> tuple[UnitVec3, float]:
    """Recover (unit axis, angle in [0, pi)) from q; |q| <= 1e-12 maps to (+z, 0)."""
    norm = q.norm()
    if norm <= ZERO_CUT:
        return EZ, 0.0
    theta = 2.0 * math.atan(norm / 2.0)
    return make_unit(q.as_vec3()), theta


def matrix_from_gibbs(q: GibbsVector) -> RotationMatrix:
    """The rotation matrix of q, rational in its components.

    Every entry is a polynomial in (m, n, p) divided by 1 + (m^2+n^2+p^2)/4;
    no square roots or trigonometric functions are involved.
    """
    m, n, p = q.m, q.n, q.p
    mm, nn, pp = m * m, n * n, p * p
    w = 1.0 / (1.0 + (mm + nn + pp) / 4.0)
    return RotationMatrix((
        (
            w * (1.0 + (mm - nn - pp) / 4.0),
            w * (m * n / 2.0 - p),
            w * (p * m / 2.0 + n),
        ),
        (
            w * (m * n / 2.0 + p),
            w * (1.0 + (nn - pp - mm) / 4.0),
            w * (n * p / 2.0 - m),
        ),
        (
            w * (p * m / 2.0 - n),
            w * (n * p / 2.0 + m),
            w * (1.0 + (pp - mm - nn) / 4.0),
        ),
    ))


def gibbs_from_matrix(M: RotationMatrix) -> GibbsVector:
    """Invert matrix_from_gibbs: q from the skew part over 1 + trace.

    Raises TraceSingular when 1 + trace <= 1e-9 (half turn; q does not exist).
    """
    s = 1.0 + M.trace()
    if s <= TRACE_CUT:
        raise TraceSingular(f"1 + trace = {s}; the rotation is a half turn")
    r = M.rows
    return GibbsVector(
        2.0 * (r[2][1] - r[1][2]) / s,
        2.0 * (r[0][2] - r[2][0]) / s,
        2.0 * (r[1][0] - r[0][1]) / s,
    )


def apply_displacement(D: Displacement, r: Vec3) -> Vec3:
    """Image of the point r under D, evaluated by the rational chord formula.

    The chord is delta + [q x r + (1/2)(q (q.r) - q^2 r)] / (1 + q^2/4);
    the result is r + chord.
    """
    qv = D.q.as_vec3()
    q2 = qv.dot(qv)
    if q2 == 0.0:
        return r + D.delta
    num = qv.cross(r) + (qv * qv.dot(r) - r * q2) * 0.5
    chord = D.delta + num / (1.0 + q2 / 4.0)
    return r + chord


def midpoint_of(D: Displacement, r: Vec3) -> Vec3:
    """Midpoint of the chord from r to its image under D."""
    return r + (apply_displacement(D, r) - r) * 0.5


def displacement_of_rotation(line_point: Vec3, axis: UnitVec3, theta: float) -> Displacement:
    """Displacement of a pure rotation about the line through line_point.

    theta is first reduced into [-pi, pi] (exact for |theta| <= pi, so such
    an angle keeps its bits). Raises AngleAtPi when the reduced angle is
    within 1e-12 of a half turn (no q exists).
    """
    theta = math.remainder(theta, 2.0 * math.pi)
    q = gibbs_from_axis_angle(axis, theta)
    delta = line_point - rodrigues_rotate(axis, theta, line_point)
    return Displacement(q, delta)
