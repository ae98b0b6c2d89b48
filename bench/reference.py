"""Independent float reference for checking the library's answers.

Plain tuples, cosines and sines only: nothing here calls the library, so an
error in a library formula cannot cancel against the same error in the
check. Affine maps are (R, d) with R a row-major 3x3 tuple, acting as
p -> R p + d; "do A, then B" is compose(A, B).
"""

from __future__ import annotations

import math

IDENTITY = (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (0.0, 0.0, 0.0))


def unit(v):
    n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return (v[0] / n, v[1] / n, v[2] / n)


def norm(v):
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def scale(a, s):
    return (a[0] * s, a[1] * s, a[2] * s)


def dist(a, b):
    return norm(sub(a, b))


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def matvec(R, p):
    return (
        R[0][0] * p[0] + R[0][1] * p[1] + R[0][2] * p[2],
        R[1][0] * p[0] + R[1][1] * p[1] + R[1][2] * p[2],
        R[2][0] * p[0] + R[2][1] * p[1] + R[2][2] * p[2],
    )


def matmul(A, B):
    return tuple(
        tuple(A[i][0] * B[0][j] + A[i][1] * B[1][j] + A[i][2] * B[2][j] for j in range(3))
        for i in range(3)
    )


def rotation(axis, theta):
    """Matrix of a right-handed turn by theta about a unit axis."""
    c, s = math.cos(theta), math.sin(theta)
    x, y, z = axis
    k = 1.0 - c
    return (
        (c + k * x * x, k * x * y - s * z, k * x * z + s * y),
        (k * y * x + s * z, c + k * y * y, k * y * z - s * x),
        (k * z * x - s * y, k * z * y + s * x, c + k * z * z),
    )


def quaternion_rotation(w, x, y, z):
    """Matrix of the unit quaternion (w, x, y, z)."""
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


def reflection(normal):
    """Matrix of the mirror in the plane through the origin with unit normal."""
    return tuple(
        tuple((1.0 if i == j else 0.0) - 2.0 * normal[i] * normal[j] for j in range(3))
        for i in range(3)
    )


def turn_about(point, axis, theta):
    """Affine map of a turn about the line (point, unit axis)."""
    R = rotation(axis, theta)
    return R, sub(point, matvec(R, point))


def compose(A, B):
    """Affine map of "do A, then B"."""
    return matmul(B[0], A[0]), add(matvec(B[0], A[1]), B[1])


def apply(A, p):
    return add(matvec(A[0], p), A[1])


def screw_map(point, axis, theta, slide):
    """Affine map of a turn about (point, axis) followed by a slide along axis."""
    R, d = turn_about(point, axis, theta)
    return R, add(d, scale(axis, slide))


def gibbs_map(q, delta):
    """Affine map of a displacement given as rotation vector q and origin image delta."""
    qn = norm(q)
    if qn == 0.0:
        return IDENTITY[0], delta
    return rotation(scale(q, 1.0 / qn), 2.0 * math.atan(qn / 2.0)), delta


def max_error(A, B, probes):
    """Largest distance between the images of the probes under A and under B,
    each scaled by 1 + |image| so that far points are judged relatively."""
    worst = 0.0
    for p in probes:
        a = apply(A, p)
        worst = max(worst, dist(a, apply(B, p)) / (1.0 + norm(a)))
    return worst
