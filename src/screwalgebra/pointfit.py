"""Recovering a displacement from tracked point correspondences.

Three tracked points determine the unique proper rigid motion that carries
them; four or more support a full rigidity-and-orientation check (a mirror
image preserves all distances but flips the signed volume of a tetrahedron,
and no proper motion produces it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import CHORD_TOL, DEGENERATE_CUT, RIGIDITY_TOL, Vec3, _unit_components
from .errors import CollinearPoints, CoplanarPoints, NonRigidData, TooFewPoints
from .rotation import Displacement, GibbsVector, RotationMatrix, gibbs_from_matrix


@dataclass(frozen=True, slots=True)
class Correspondence:
    """One tracked point: its position before and after the motion."""

    before: Vec3
    after: Vec3


class RigidityReport(NamedTuple):
    """Distance preservation and orientation verdicts for a point set."""

    rigid: bool
    proper: bool


def _pair_distances(points: Sequence[Vec3]) -> list[float]:
    """|p_i - p_j| for every pair i < j, in row order, taken by hypot."""
    out = []
    for i, p in enumerate(points):
        px, py, pz = p.x, p.y, p.z
        for r in points[i + 1 :]:
            dx, dy, dz = px - r.x, py - r.y, pz - r.z
            d = math.hypot(dx, dy, dz)
            if not d < math.inf:
                p - r  # an overflowed difference raises, as Vec3 arithmetic does
            out.append(d)
    return out


def _distance_change(
    corrs: Sequence[Correspondence], before: Sequence[float], limit: float
) -> float | None:
    """Largest change of a pairwise distance between the two poses.

    ``before`` holds the before-distances in _pair_distances order. Returns
    None as soon as one pair changes by more than ``limit``; the pairs after
    it are not evaluated. Distances are taken as in _pair_distances.
    """
    worst = 0.0
    k = 0
    for i, c in enumerate(corrs):
        a = c.after
        ax, ay, az = a.x, a.y, a.z
        for other in corrs[i + 1 :]:
            b = other.after
            dx, dy, dz = ax - b.x, ay - b.y, az - b.z
            d1 = math.hypot(dx, dy, dz)
            if not d1 < math.inf:
                a - b  # an overflowed difference raises, as Vec3 arithmetic does
            change = abs(d1 - before[k])
            k += 1
            if change > limit:
                return None
            if change > worst:
                worst = change
    return worst


def _frame(p0: Vec3, p1: Vec3, p2: Vec3, unit: float) -> tuple[float, ...]:
    """Right-handed orthonormal frame built on a triangle by Gram-Schmidt.

    The edges are first multiplied by unit, a power of two, which changes no
    bit of the frame but measures the short-edge cut in that unit. Returns
    the axes e1, e2, e3 as nine floats.
    """
    x1, y1, z1 = _unit_components(
        (p1.x - p0.x) * unit, (p1.y - p0.y) * unit, (p1.z - p0.z) * unit
    )
    rx, ry, rz = (p2.x - p0.x) * unit, (p2.y - p0.y) * unit, (p2.z - p0.z) * unit
    s = x1 * rx + y1 * ry + z1 * rz
    x2, y2, z2 = _unit_components(rx - x1 * s, ry - y1 * s, rz - z1 * s)
    s = x1 * x2 + y1 * y2 + z1 * z2
    x2, y2, z2 = _unit_components(x2 - x1 * s, y2 - y1 * s, z2 - z1 * s)
    return (
        x1, y1, z1,
        x2, y2, z2,
        y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2,
    )


def fit_displacement(
    c0: Correspondence, c1: Correspondence, c2: Correspondence
) -> Displacement:
    """The unique proper rigid motion carrying three tracked points.

    Builds orthonormal frames on the triangle in both poses and converts the
    frame-to-frame map into the rotation vector; the translation part is the
    image displacement of the origin. The independently solved chord
    equations (see oracle.gibbs_by_midpoint_elimination) are evaluated as a
    consistency check on every call.

    Raises CollinearPoints for a degenerate triangle and NonRigidData when
    the pairwise distances disagree beyond rel 1e-6 or the chord equations
    cannot be satisfied.
    """
    corrs = (c0, c1, c2)
    b0, b1, b2 = c0.before, c1.before, c2.before
    dist = _pair_distances((b0, b1, b2))
    scale = max(dist)
    if scale <= 0.0:
        raise CollinearPoints("the three base points coincide")
    # Edges in units of 2^e with scale = m 2^e, 1/2 <= m < 1 (or of 2^-1023 for
    # a subnormal spread): exact, and the area below cannot underflow.
    unit = math.ldexp(1.0, min(-math.frexp(scale)[1], 1023))
    ux, uy, uz = (b1.x - b0.x) * unit, (b1.y - b0.y) * unit, (b1.z - b0.z) * unit
    vx, vy, vz = (b2.x - b0.x) * unit, (b2.y - b0.y) * unit, (b2.z - b0.z) * unit
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    area2 = math.sqrt(nx * nx + ny * ny + nz * nz)
    if not area2 < math.inf:
        Vec3(nx, ny, nz)  # an overflowed cross product raises, as in Vec3.cross
    if area2 <= DEGENERATE_CUT * (scale * unit) * (scale * unit):
        raise CollinearPoints("base points are collinear; no frame exists")
    # scale is the largest before-distance, so each pair's tolerance
    # RIGIDITY_TOL * max(distance, scale) is RIGIDITY_TOL * scale.
    change = _distance_change(corrs, dist, RIGIDITY_TOL * scale)
    if change is None:
        raise NonRigidData("pairwise distances are not preserved")

    e1x, e1y, e1z, e2x, e2y, e2z, e3x, e3y, e3z = _frame(b0, b1, b2, unit)
    f1x, f1y, f1z, f2x, f2y, f2z, f3x, f3y, f3z = _frame(c0.after, c1.after, c2.after, unit)
    # M = f1 e1^T + f2 e2^T + f3 e3^T carries the before frame onto the after frame.
    rows = (
        (
            f1x * e1x + f2x * e2x + f3x * e3x,
            f1x * e1y + f2x * e2y + f3x * e3y,
            f1x * e1z + f2x * e2z + f3x * e3z,
        ),
        (
            f1y * e1x + f2y * e2x + f3y * e3x,
            f1y * e1y + f2y * e2y + f3y * e3y,
            f1y * e1z + f2y * e2z + f3y * e3z,
        ),
        (
            f1z * e1x + f2z * e2x + f3z * e3x,
            f1z * e1y + f2z * e2y + f3z * e3y,
            f1z * e1z + f2z * e2z + f3z * e3z,
        ),
    )
    M = RotationMatrix(rows)
    q = gibbs_from_matrix(M)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    a0 = c0.after
    delta = Vec3(
        a0.x - (r00 * b0.x + r01 * b0.y + r02 * b0.z),
        a0.y - (r10 * b0.x + r11 * b0.y + r12 * b0.z),
        a0.z - (r20 * b0.x + r21 * b0.y + r22 * b0.z),
    )
    _verify_chord_equations(q, corrs, scale, change / scale)
    return Displacement(q, delta)


def _verify_chord_equations(
    q: GibbsVector,
    corrs: Sequence[Correspondence],
    scale: float,
    defect: float,
) -> None:
    """Check the fitted rotation vector against the chord-difference law.

    For a rigid displacement the chords obey
    chord_i - chord_0 = q x (mid_i - mid_0), linear in q. The fitted q must
    satisfy these equations up to rounding plus the data's own rigidity
    defect; a larger residual means the correspondence is not explainable
    by one proper motion.
    """
    qx, qy, qz = q.m, q.n, q.p
    a, b = corrs[0].after, corrs[0].before
    cx, cy, cz = a.x - b.x, a.y - b.y, a.z - b.z
    mx, my, mz = (a.x + b.x) * 0.5, (a.y + b.y) * 0.5, (a.z + b.z) * 0.5
    qn = math.sqrt(qx * qx + qy * qy + qz * qz)
    bound = max(CHORD_TOL * max(1.0, qn), 4.0 * defect) * scale
    for c in corrs[1:]:
        a, b = c.after, c.before
        dx, dy, dz = (a.x - b.x) - cx, (a.y - b.y) - cy, (a.z - b.z) - cz
        wx = (a.x + b.x) * 0.5 - mx
        wy = (a.y + b.y) * 0.5 - my
        wz = (a.z + b.z) * 0.5 - mz
        rx = dx - (qy * wz - qz * wy)
        ry = dy - (qz * wx - qx * wz)
        rz = dz - (qx * wy - qy * wx)
        resid = math.hypot(rx, ry, rz)
        if not resid < math.inf:
            # An overflowed chord or midpoint sum raises Vec3's ValueError.
            for p in (corrs[0], c):
                p.after - p.before, p.after + p.before
        if resid > bound:
            raise NonRigidData(
                f"chord equations disagree with the frame fit by {resid:.3e}"
            )


def _signed_volume(p0: Vec3, p1: Vec3, p2: Vec3, p3: Vec3, scale: float) -> float:
    """(p1 - p0) x (p2 - p0) . (p3 - p0) / scale^3: six times the
    tetrahedron's volume in units of scale^3.

    Each edge is divided by scale before the products, so the result stays
    finite while scale bounds the edges.
    """
    ax, ay, az = (p1.x - p0.x) / scale, (p1.y - p0.y) / scale, (p1.z - p0.z) / scale
    bx, by, bz = (p2.x - p0.x) / scale, (p2.y - p0.y) / scale, (p2.z - p0.z) / scale
    cx, cy, cz = (p3.x - p0.x) / scale, (p3.y - p0.y) / scale, (p3.z - p0.z) / scale
    vol = (ay * bz - az * by) * cx + (az * bx - ax * bz) * cy + (ax * by - ay * bx) * cz
    if not abs(vol) < math.inf:
        p1 - p0, p2 - p0, p3 - p0  # an overflowed edge raises, as Vec3 arithmetic does
    return vol


def check_rigidity(corrs: Sequence[Correspondence]) -> RigidityReport:
    """Distance-preservation and orientation check for four or more points.

    rigid: every pairwise distance is preserved within rel 1e-6.
    proper: the signed volume of the tetrahedron on the first four points
    keeps its sign (False means the data is a mirror image, which no
    rotation-plus-translation can produce).

    Raises TooFewPoints below four correspondences, CoplanarPoints when
    the first four before-points span no volume (the exception carries the
    rigid verdict in its `rigid` attribute), and ValueError when a
    coordinate difference or pairwise distance overflows.
    """
    if len(corrs) < 4:
        raise TooFewPoints(f"need at least 4 correspondences, got {len(corrs)}")
    before = [c.before for c in corrs]
    dist = _pair_distances(before)
    scale = max(dist)
    if not scale < math.inf:
        raise ValueError("non-finite component: a pairwise distance overflows")
    rigid = (
        scale > 0.0
        and _distance_change(corrs, dist, RIGIDITY_TOL * scale) is not None
    )
    # scale = 0: the before-points coincide at float resolution.
    vol_before = _signed_volume(*before[:4], scale) if scale > 0.0 else 0.0
    if abs(vol_before) <= DEGENERATE_CUT:
        raise CoplanarPoints(
            "first four points are coplanar; orientation is undecidable",
            rigid=rigid,
        )
    vol_after = _signed_volume(*(c.after for c in corrs[:4]), scale)
    return RigidityReport(rigid=rigid, proper=vol_before * vol_after > 0.0)
