"""Brute-force verification layer on the matrix-plus-translation form.

Everything here is built directly from cosines and sines and from generic
linear algebra (SVD, least squares) — deliberately none of the rational
half-tangent formulas of the main modules — so its failure modes are
independent of theirs. It shares only the plain value containers. The one
fit here, gibbs_by_midpoint_elimination, solves the chord equations by
least squares where pointfit builds frames.
It only verifies: no library or command-line answer is computed by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import UnitVec3, Vec3
from .pointfit import Correspondence
from .rotation import Displacement, GibbsVector, RotationMatrix
from .screw import Screw

_ZERO_ANGLE_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class HomTransform:
    """Affine rigid map r -> R r + d with R proper orthonormal."""

    R: RotationMatrix
    d: Vec3

    def apply(self, r: Vec3) -> Vec3:
        return self.R.apply(r) + self.d


IDENTITY_HOM = HomTransform(
    RotationMatrix(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
    Vec3(0.0, 0.0, 0.0),
)


def _trig_matrix(axis: Vec3, theta: float) -> RotationMatrix:
    """Rotation matrix from cosines and sines: c I + s K + (1-c) n n^T."""
    c, s = math.cos(theta), math.sin(theta)
    x, y, z = axis.x, axis.y, axis.z
    k = 1.0 - c
    return RotationMatrix(
        (
            (c + k * x * x, k * x * y - s * z, k * x * z + s * y),
            (k * y * x + s * z, c + k * y * y, k * y * z - s * x),
            (k * z * x - s * y, k * z * y + s * x, c + k * z * z),
        )
    )


def hom_from_rotation(point: Vec3, axis: UnitVec3, theta: float) -> HomTransform:
    """Affine form of a rotation about the line (point, axis); theta is first
    reduced exactly into [-pi, pi], so a whole number of turns gives R = I."""
    R = _trig_matrix(axis, math.remainder(theta, 2.0 * math.pi))
    return HomTransform(R, point - R.apply(point))


def hom_from_translation(t: Vec3) -> HomTransform:
    """Affine form of a pure translation."""
    return HomTransform(IDENTITY_HOM.R, t)


def hom_from_displacement(D: Displacement) -> HomTransform:
    """Affine form of a displacement; the rotation matrix is built from the
    recovered angle 2 atan2(|v|, w) and axis v / |v| trigonometrically, not
    from the rational formula. A half turn is covered."""
    w, v = D.w, D.v
    vn = v.norm()
    if vn == 0.0:
        return HomTransform(IDENTITY_HOM.R, D.delta)
    # atan2(y, 1.0) and atan(y) can differ in the last bit; w = 1 keeps atan's.
    theta = 2.0 * (math.atan(vn) if w == 1.0 else math.atan2(vn, w))
    return HomTransform(_trig_matrix(v / vn, theta), D.delta)


def hom_compose(H1: HomTransform, H2: HomTransform) -> HomTransform:
    """Affine form of "do H1, then H2": matrix product and translation chain."""
    return HomTransform(H2.R.matmul(H1.R), H2.R.apply(H1.d) + H2.d)


def stacked_matmul(
    pairs: Sequence[tuple[RotationMatrix, RotationMatrix]]
) -> list[list[list[float]]]:
    """The rows of A.matmul(B) for every pair (A, B), as one stacked product.

    Each entry is accumulated as 0 + A[i0] B[0j] + A[i1] B[1j] + A[i2] B[2j],
    in RotationMatrix.matmul's order, so every product keeps its bits.
    """
    import numpy as np

    A = np.array([a.rows for a, _ in pairs]).reshape(-1, 3, 3)
    B = np.array([b.rows for _, b in pairs]).reshape(-1, 3, 3)
    P = 0.0
    for k in range(3):
        P = P + A[:, :, k, None] * B[:, None, k, :]
    return P.tolist()


def _dots(a, b):
    """Row-wise dot products of two (n, 3) stacks, with the bits of a @ b on
    each single row (a plain sum or einsum rounds differently)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def screws_from_homs(homs: Sequence[HomTransform]) -> list[Screw]:
    """Screw parameters of affine rigid maps, by generic linear algebra.

    The axis direction is the eigenvector of R for eigenvalue 1 (smallest
    singular direction of R - I); the angle comes from trace and skew part;
    the axis point is the minimum-norm solution of
    (R - I) p = -(d - (d.axis) axis), which is the foot of the
    perpendicular from the origin; the slide is d.axis. Identity and pure
    translations are returned as their own variants.

    The maps are stacked and go through one SVD call; each screw has the
    bits it would have alone, so screw_from_hom_bruteforce is the one-map
    call of this function.
    """
    import numpy as np

    R = np.array([H.R.rows for H in homs]).reshape(-1, 3, 3)
    d = np.array([H.d.as_tuple() for H in homs]).reshape(-1, 3)
    tr = np.trace(R, axis1=1, axis2=2)
    skew = np.stack(
        [R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0], R[:, 1, 0] - R[:, 0, 1]],
        axis=1,
    ) / 2.0
    # math.atan2 per map: np.arctan2 rounds differently.
    theta = np.array([
        math.atan2(s, (t - 1.0) / 2.0)
        for s, t in zip(np.sqrt(_dots(skew, skew)).tolist(), tr.tolist())
    ])

    # Identity and pure translations take no SVD.
    turning = theta > _ZERO_ANGLE_TOL
    R, d, skew, theta = R[turning], d[turning], skew[turning], theta[turning]
    u, sv, vt = np.linalg.svd(R - np.eye(3))
    axis = vt[:, -1]
    # The skew part fixes the sign down to |sin theta| ~ 1e-12, still three
    # orders above matrix noise; at a half turn, where it is noise, Screw.general
    # picks the direction.
    axis = np.where((_dots(axis, skew) < 0.0)[:, None], -axis, axis)
    slide = _dots(d, axis)
    perp = d - slide[:, None] * axis
    # Minimum-norm solution of (R - I) p = -perp from the two genuine
    # singular directions only; the third is pure rounding noise and at
    # small angles it sits above lstsq's default cutoff, so cutting by
    # index (rank is exactly 2 for any non-identity rotation) is the
    # reliable way to keep the axis component out of the solution. The
    # sum starts at 0 so that a -0.0 component comes out as +0.0.
    point = 0.0
    for i in range(2):
        point = point + (_dots(u[:, :, i], -perp) / sv[:, i])[:, None] * vt[:, i]

    general = zip(theta.tolist(), axis.tolist(), point.tolist(), slide.tolist())
    screws = []
    for H, turns in zip(homs, turning.tolist()):
        if not turns:
            # exact: a norm would square a tiny slide to 0
            screws.append(
                Screw.pure_translation(H.d) if any(H.d.as_tuple()) else Screw.identity()
            )
            continue
        th, a, p, sl = next(general)
        a = Vec3(*a)
        n = a.norm()
        screws.append(
            Screw.general(Vec3(*p), UnitVec3(a.x / n, a.y / n, a.z / n), th, sl)
        )
    return screws


def screw_from_hom_bruteforce(H: HomTransform) -> Screw:
    """Screw parameters of one affine rigid map: screws_from_homs([H])[0]."""
    return screws_from_homs([H])[0]


def gibbs_by_midpoint_elimination(
    c0: Correspondence, c1: Correspondence, c2: Correspondence
) -> Displacement:
    """Alternative fit: solve the chord-difference equations for q directly.

    The six linear equations chord_i - chord_0 = q x (mid_i - mid_0)
    (i = 1, 2) are solved for q by least squares; the translation follows by
    solving delta - (1/2) q x delta = chord - q x mid for delta. Used as an
    independent cross-check of fit_displacement.
    """
    import numpy as np

    corrs = (c0, c1, c2)
    chord0 = corrs[0].after - corrs[0].before
    mid0 = (corrs[0].after + corrs[0].before) * 0.5
    rows = []
    rhs = []
    for c in corrs[1:]:
        chord = c.after - c.before
        mid = (c.after + c.before) * 0.5
        w = mid - mid0
        rows += [[0.0, w.z, -w.y], [-w.z, 0.0, w.x], [w.y, -w.x, 0.0]]
        d = chord - chord0
        rhs.extend([d.x, d.y, d.z])
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    q = Vec3(float(sol[0]), float(sol[1]), float(sol[2]))

    gamma = chord0 - q.cross(mid0)
    A = np.array(
        [[1.0, q.z / 2.0, -q.y / 2.0], [-q.z / 2.0, 1.0, q.x / 2.0], [q.y / 2.0, -q.x / 2.0, 1.0]]
    )
    d = np.linalg.solve(A, np.array([gamma.x, gamma.y, gamma.z]))
    return Displacement(
        GibbsVector(q.x, q.y, q.z), Vec3(float(d[0]), float(d[1]), float(d[2]))
    )
