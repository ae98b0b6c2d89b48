"""The rotation carrier: Rodrigues' parameters (w, v) inside Displacement."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from screwalgebra import (
    DegenerateInput,
    Displacement,
    GibbsOverflow,
    GibbsVector,
    Screw,
    ScrewKind,
    UnitVec3,
    Vec3,
    apply_displacement,
    compose_displacements,
    compose_gibbs,
    displacement_from_screw,
    displacement_of_rotation,
    make_unit,
    rodrigues_rotate,
    screw_from_displacement,
)
from screwalgebra.core import AT_PI_CUT, ZERO_CUT, ZERO
from screwalgebra.oracle import hom_compose, hom_from_displacement
from _util import mnp, xyz


def _apply_in_q(q: GibbsVector, delta: Vec3, r: Vec3) -> Vec3:
    """The rational chord formula in q, operation for operation."""
    qv = q.as_vec3()
    q2 = qv.dot(qv)
    if q2 == 0.0:
        return r + delta
    num = qv.cross(r) + (qv * qv.dot(r) - r * q2) * 0.5
    return r + (delta + num / (1.0 + q2 / 4.0))


def _screw_in_q(q: GibbsVector, d: Vec3) -> tuple:
    """Angle, axis direction, axis point and slide from q, operation for operation."""
    qx, qy, qz = q.m, q.n, q.p
    q2 = qx * qx + qy * qy + qz * qz
    qn = math.sqrt(q2)
    if qn <= ZERO_CUT:
        return None
    u = (qx / qn, qy / qn, qz / qn)
    theta = 2.0 * math.atan(qn / 2.0)
    slide = d.x * u[0] + d.y * u[1] + d.z * u[2]
    r0 = Vec3(
        d.x * 0.5 - (d.y * qz - d.z * qy) / q2,
        d.y * 0.5 - (d.z * qx - d.x * qz) / q2,
        d.z * 0.5 - (d.x * qy - d.y * qx) / q2,
    )
    s = Screw.general(r0, UnitVec3(*u), theta, slide)
    return xyz(s.axis.point), xyz(s.axis.dir), s.theta, s.slide


def _random_q(rng: random.Random) -> GibbsVector:
    mag = 10.0 ** rng.uniform(-13.0, 6.0)
    d = make_unit(Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)))
    return GibbsVector(d.x * mag, d.y * mag, d.z * mag)


def test_rotation_vector_displacements_keep_the_bits_of_q():
    # w = 1 and v = q/2 wherever q exists, so every kernel in (w, v) gives
    # exactly the bits of its rational form in q.
    rng = random.Random(2024)
    for _ in range(2000):
        q1, q2 = _random_q(rng), _random_q(rng)
        d1, d2, r = (Vec3(*(rng.uniform(-5, 5) for _ in range(3))) for _ in range(3))
        D1, D2 = Displacement(q1, d1), Displacement(q2, d2)
        assert (D1.w, mnp(D1.q)) == (1.0, mnp(q1))
        assert apply_displacement(D1, r) == _apply_in_q(q1, d1, r)
        expected = _screw_in_q(q1, d1)
        s = screw_from_displacement(D1)
        if expected is None:
            assert s.kind is not ScrewKind.GENERAL
        else:
            assert (xyz(s.axis.point), xyz(s.axis.dir), s.theta, s.slide) == expected
        C = compose_displacements(D1, D2)
        assert mnp(C.q) == mnp(compose_gibbs(q1, q2))
        assert C.delta == _apply_in_q(q2, d2, d1)


@pytest.mark.parametrize("theta", [math.pi, -math.pi, math.pi - 1e-13, 3.0 * math.pi])
def test_half_turn_is_kept_in_half_turn_form(theta):
    axis = make_unit(Vec3(1.0, -2.0, 2.0))
    point = Vec3(0.5, 1.0, -1.0)
    D = displacement_of_rotation(point, axis, theta)
    assert 0.0 <= D.w < AT_PI_CUT
    assert D.w * D.w + D.v.dot(D.v) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(GibbsOverflow):
        D.q
    with pytest.raises(GibbsOverflow):
        D.gamma()
    # Points on the axis stay; others turn by about pi around it.
    assert xyz(apply_displacement(D, point)) == pytest.approx(xyz(point), abs=1e-12)
    s = screw_from_displacement(D)
    assert s.theta == pytest.approx(math.pi, abs=1e-12)
    assert abs(s.axis.dir.dot(axis)) == pytest.approx(1.0, abs=1e-12)
    assert s.slide == pytest.approx(0.0, abs=1e-12)


def test_half_turn_screw_round_trip():
    S = Screw.general(Vec3(1.0, 2.0, 0.0), make_unit(Vec3(0.0, 0.6, 0.8)), math.pi, -1.5)
    back = screw_from_displacement(displacement_from_screw(S))
    assert back.theta == S.theta
    assert xyz(back.axis.dir) == pytest.approx(xyz(S.axis.dir), abs=1e-15)
    assert xyz(back.axis.point) == pytest.approx(xyz(S.axis.point), abs=1e-12)
    assert back.slide == pytest.approx(S.slide, abs=1e-12)


def test_two_half_turns_about_parallel_axes_are_a_translation():
    axis = make_unit(Vec3(0.0, 0.0, 1.0))
    D1 = displacement_of_rotation(ZERO, axis, math.pi)
    D2 = displacement_of_rotation(Vec3(1.0, 0.0, 0.0), axis, -math.pi)
    C = compose_displacements(D1, D2)
    assert C.w == 1.0
    assert mnp(C.q) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)
    assert xyz(C.delta) == pytest.approx((2.0, 0.0, 0.0), abs=1e-15)


def test_parameters_are_scaled_to_one_of_the_two_forms():
    v = Vec3(0.3, -0.4, 1.2)
    D = Displacement(w=-2.0, v=v)
    assert (D.w, xyz(D.v)) == (1.0, xyz(v / -2.0))
    D = Displacement(w=-1e-13, v=v)
    assert 0.0 < D.w < AT_PI_CUT
    assert D.v.dot(v) < 0.0
    D = Displacement(w=-0.0, v=v)
    assert (D.w, D.v.dot(v) < 0.0) == (0.0, True)


@pytest.mark.parametrize("w, v", [(0.0, ZERO), (0.0, Vec3(1e200, 0.0, 0.0))])
def test_parameters_without_a_scale_are_rejected(w, v):
    # w^2 + |v|^2 is 0, or overflows: neither has a half-turn form.
    with pytest.raises(DegenerateInput, match="no scale"):
        Displacement(w=w, v=v)


@pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan])
def test_non_finite_w_is_out_of_range(w):
    with pytest.raises(ValueError, match="non-finite"):
        Displacement(w=w, v=Vec3(1.0, 0.0, 0.0))


def test_product_whose_w_overflows_is_out_of_range():
    # v1.v2 = 4e307 overflows w to -inf while the vector part stays finite;
    # scaling v by 1/w would leave the identity. compose_gibbs scales its
    # factors and still answers: an 11.4 degree turn.
    D1 = Displacement(GibbsVector(4e154, 0.0, 0.0))
    D2 = Displacement(GibbsVector(4e154, 4e153, 0.0))
    with pytest.raises(ValueError, match="non-finite"):
        compose_displacements(D1, D2)
    q = compose_gibbs(D1.q, D2.q)
    assert mnp(q) == pytest.approx((-2e-154, -1e-155, 0.2), rel=1e-12)


def test_huge_point_is_moved_by_the_bounded_rotation():
    # r |v|^2 overflows for a turn of 179.9999 degrees on a point at 1e306.
    axis, theta = make_unit(Vec3(0.0, 0.6, 0.8)), math.radians(179.9999)
    D = displacement_of_rotation(ZERO, axis, theta)
    r = Vec3(1e306, -2e305, 0.0)
    assert D.v.dot(D.v) * r.x == math.inf
    want = rodrigues_rotate(axis, theta, r)
    assert xyz(apply_displacement(D, r)) == pytest.approx(xyz(want), rel=1e-12, abs=1e294)


def test_huge_slide_gives_a_bounded_half_turn_axis():
    # v x delta overflows; its size is 1.5e308 * sqrt(2) on the axis (0, 1, 1)/sqrt(2).
    axis = make_unit(Vec3(0.0, 1.0, 1.0))
    D = displacement_of_rotation(ZERO, axis, math.pi)
    D = Displacement(w=D.w, v=D.v, delta=Vec3(0.0, 1.5e308, -1.5e308))
    s = screw_from_displacement(D)
    assert s.theta == math.pi
    assert s.axis.point.y == 0.75e308 and s.axis.point.z == -0.75e308
    assert abs(s.axis.point.x) < 1e292


def test_rotation_vector_too_long_to_square_has_a_length():
    # |v|^2 overflows: the turn is a half turn up to 4e-155 rad, about x.
    q = GibbsVector(1e155, 0.0, 0.0)
    assert q.norm() == 1e155
    D = Displacement(q, Vec3(0.5, -1.0, 2.0))
    lift = Displacement(delta=Vec3(0.0, 3.0, -1.0))
    points = [ZERO, Vec3(1.0, 2.0, 3.0), Vec3(-4.0, 0.5, 2.0)]

    def assert_same_map(got: Displacement, H) -> None:
        for r in points:
            assert xyz(apply_displacement(got, r)) == pytest.approx(xyz(H.apply(r)), abs=1e-9)

    H = hom_from_displacement(D)
    assert_same_map(D, H)
    assert_same_map(displacement_from_screw(screw_from_displacement(D)), H)
    assert_same_map(compose_displacements(lift, D), hom_compose(hom_from_displacement(lift), H))
    assert_same_map(compose_displacements(D, lift), hom_compose(H, hom_from_displacement(lift)))


def test_replace_keeps_the_parameters():
    D = Displacement(GibbsVector(0.4, -0.7, 1.3), Vec3(0.5, -1.0, 2.0))
    moved = dataclasses.replace(D, delta=Vec3(1.0, 2.0, 3.0))
    assert (moved.w, moved.v, moved.delta) == (D.w, D.v, Vec3(1.0, 2.0, 3.0))
