"""Finite rotations and general displacements in Rodrigues' parameters.

A rotation by theta about a unit axis has the four parameters
(w, v) = (cos(theta/2), sin(theta/2) * axis) of Rodrigues' memoir, up to a
common factor. Their ratio, the rotation vector q = 2 v / w =
2 tan(theta/2) * axis, keeps every formula rational; it does not exist at
theta = pi. A general displacement is stored as (w, v, delta), delta the
image of the origin, with w = 1 and v = q/2 exactly wherever q exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import AT_PI_CUT, RESIDUAL_TOL, TRACE_CUT, ZERO_CUT
from .core import EZ, ZERO, UnitVec3, Vec3, make_unit
from .errors import AngleAtPi, DegenerateInput, GibbsOverflow, TraceSingular


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
        """|q|, taken by Vec3.norm."""
        return self.as_vec3().norm()

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
        # Written so that a NaN entry fails: every entry reaches the determinant.
        if not max(dots) <= RESIDUAL_TOL:
            raise ValueError("matrix rows are not orthonormal")
        if not abs(self.det() - 1.0) <= RESIDUAL_TOL:
            raise ValueError("matrix determinant is not +1")

    def apply(self, r: Vec3) -> Vec3:
        a, b, c = self.rows
        return Vec3(
            a[0] * r.x + a[1] * r.y + a[2] * r.z,
            b[0] * r.x + b[1] * r.y + b[2] * r.z,
            c[0] * r.x + c[1] * r.y + c[2] * r.z,
        )

    def matmul(self, other: "RotationMatrix") -> "RotationMatrix":
        # Each entry is summed from 0 left to right, so a -0.0 sum is +0.0.
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = self.rows
        (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = other.rows
        return RotationMatrix((
            (
                0.0 + a0 * p0 + a1 * q0 + a2 * r0,
                0.0 + a0 * p1 + a1 * q1 + a2 * r1,
                0.0 + a0 * p2 + a1 * q2 + a2 * r2,
            ),
            (
                0.0 + b0 * p0 + b1 * q0 + b2 * r0,
                0.0 + b0 * p1 + b1 * q1 + b2 * r1,
                0.0 + b0 * p2 + b1 * q2 + b2 * r2,
            ),
            (
                0.0 + c0 * p0 + c1 * q0 + c2 * r0,
                0.0 + c0 * p1 + c1 * q1 + c2 * r1,
                0.0 + c0 * p2 + c1 * q2 + c2 * r2,
            ),
        ))

    def transpose(self) -> "RotationMatrix":
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = self.rows
        return RotationMatrix(((a0, b0, c0), (a1, b1, c1), (a2, b2, c2)))

    def trace(self) -> float:
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def det(self) -> float:
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@dataclass(frozen=True, slots=True, init=False)
class Displacement:
    """General rigid displacement: rotation parameters (w, v) plus origin image delta.

    Built from the rotation vector q, zero for a pure translation, it has
    w = 1 and v = q/2. Within 1e-12 of a half turn, where q does not exist,
    (w, v) are in half-turn form: w^2 + |v|^2 = 1 and 0 <= w < 1e-12. q
    and the midpoint-law vector gamma() = delta - (1/2) q x delta are
    derived, and both raise GibbsOverflow in half-turn form.
    """

    w: float
    v: Vec3
    delta: Vec3

    def __init__(
        self, q: GibbsVector | None = None, delta: Vec3 = ZERO, *, w: float = 1.0, v: Vec3 = ZERO
    ):
        """Displacement(q, delta) from the rotation vector q, or
        Displacement(w=w, v=v, delta=delta) from rotation parameters
        proportional to (w, v): they are scaled to w = 1 when |w| >= 1e-12,
        and to half-turn form otherwise (DegenerateInput if the length of
        (w, v) is zero, or past the largest float; ValueError if w is not
        finite). That cut is on w as given, so the length must be at least
        1, as for the unscaled product of two displacements' parameters.
        """
        if q is not None:
            v = Vec3(q.m * 0.5, q.n * 0.5, q.p * 0.5)
        elif abs(w) < AT_PI_CUT:
            n = math.sqrt(w * w + v.dot(v))
            if not 0.0 < n < math.inf:  # the squares overflow or underflow
                n = math.hypot(w, v.norm())
            if not 0.0 < n < math.inf:
                raise DegenerateInput(f"rotation parameters ({w}, {v.as_tuple()}) have no scale")
            n = math.copysign(n, w)
            w, v = w / n, v / n
        elif w != 1.0:
            if not abs(w) < math.inf:
                raise ValueError(f"non-finite rotation parameter w = {w}")
            w, v = 1.0, Vec3(v.x / w, v.y / w, v.z / w)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "delta", delta)

    @property
    def q(self) -> GibbsVector:
        """The rotation vector 2 v / w; raises GibbsOverflow in half-turn form."""
        if self.w != 1.0:
            raise GibbsOverflow("the rotation is a half turn; it has no rotation vector")
        v = self.v
        return GibbsVector(v.x * 2.0, v.y * 2.0, v.z * 2.0)

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
    """Image of the point r under D: r plus the rational chord.

    The chord is delta + 2 [w v x r + v (v.r) - |v|^2 r] / (w^2 + |v|^2), which
    is delta + [q x r + (1/2)(q (q.r) - q^2 r)] / (1 + q^2/4) at w = 1.
    """
    w, v, d = D.w, D.v, D.delta
    vx, vy, vz = v.x, v.y, v.z
    v2 = vx * vx + vy * vy + vz * vz
    if v2 == 0.0:
        return r + d
    rx, ry, rz = r.x, r.y, r.z
    s = vx * rx + vy * ry + vz * rz
    den = w * w + v2
    x, y, z = (
        rx + (d.x + 2.0 * (w * (vy * rz - vz * ry) + (vx * s - rx * v2)) / den),
        ry + (d.y + 2.0 * (w * (vz * rx - vx * rz) + (vy * s - ry * v2)) / den),
        rz + (d.z + 2.0 * (w * (vx * ry - vy * rx) + (vz * s - rz * v2)) / den),
    )
    if not abs(x) + abs(y) + abs(z) < math.inf:  # r |v|^2 or v (v.r) overflowed
        n = v.norm()
        return d + rodrigues_rotate(UnitVec3(vx / n, vy / n, vz / n), 2.0 * math.atan2(n, w), r)
    return Vec3(x, y, z)


def midpoint_of(D: Displacement, r: Vec3) -> Vec3:
    """Midpoint of the chord from r to its image under D."""
    return r + (apply_displacement(D, r) - r) * 0.5


def displacement_of_rotation(line_point: Vec3, axis: UnitVec3, theta: float) -> Displacement:
    """Displacement of a pure rotation about the line through line_point.

    theta is first reduced into [-pi, pi] (exact for |theta| <= pi, so such
    an angle keeps its bits). Within 1e-12 of a half turn the displacement
    is in half-turn form.
    """
    theta = math.remainder(theta, 2.0 * math.pi)
    delta = line_point - rodrigues_rotate(axis, theta, line_point)
    if abs(theta) < math.pi - AT_PI_CUT:
        return Displacement(gibbs_from_axis_angle(axis, theta), delta)
    half = theta / 2.0
    return Displacement(w=math.cos(half), v=axis * math.sin(half), delta=delta)
