"""Vector, line, and rotation primitives."""

from __future__ import annotations

import math

import pytest

from screwalgebra import (
    AxisLine,
    Rotation,
    UnitVec3,
    Vec3,
    ZeroVector,
    angle_between,
    canonicalize_rotation,
    distance_between_lines,
    make_unit,
)
from _util import xyz


class TestVec3:
    def test_arithmetic(self):
        a = Vec3(1.0, 2.0, 3.0)
        b = Vec3(-4.0, 0.5, 2.0)
        assert xyz(a + b) == (-3.0, 2.5, 5.0)
        assert xyz(a - b) == (5.0, 1.5, 1.0)
        assert xyz(-a) == (-1.0, -2.0, -3.0)
        assert xyz(a * 2.0) == (2.0, 4.0, 6.0)

    def test_dot_and_norm(self):
        a = Vec3(1.0, 2.0, 3.0)
        assert a.dot(Vec3(4.0, -5.0, 6.0)) == 12.0
        assert Vec3(3.0, 4.0, 0.0).norm() == 5.0

    def test_cross_is_right_handed(self):
        assert xyz(Vec3(1, 0, 0).cross(Vec3(0, 1, 0))) == (0.0, 0.0, 1.0)
        assert xyz(Vec3(0, 1, 0).cross(Vec3(0, 0, 1))) == (1.0, 0.0, 0.0)
        assert xyz(Vec3(0, 0, 1).cross(Vec3(1, 0, 0))) == (0.0, 1.0, 0.0)

    def test_cross_anticommutes(self):
        a = Vec3(1.3, -0.2, 2.2)
        b = Vec3(0.7, 1.9, -1.1)
        assert xyz(a.cross(b)) == xyz(-(b.cross(a)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec3(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            Vec3(0.0, float("inf"), 0.0)


class TestUnitVec3:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            UnitVec3(1.0, 1.0, 0.0)

    def test_make_unit_normalizes(self):
        u = make_unit(Vec3(0.0, 0.0, 7.5))
        assert xyz(u) == (0.0, 0.0, 1.0)

    def test_make_unit_idempotent(self):
        u = make_unit(Vec3(1.0, 0.3, -2.0))
        again = make_unit(Vec3(u.x, u.y, u.z))
        assert xyz(again) == pytest.approx(xyz(u), abs=1e-15)

    def test_make_unit_rejects_zero(self):
        with pytest.raises(ZeroVector):
            make_unit(Vec3(0.0, 0.0, 0.0))


class TestRotation:
    def test_angle_range_enforced(self):
        line = AxisLine(Vec3(0, 0, 0), make_unit(Vec3(0, 0, 1)))
        with pytest.raises(ValueError):
            Rotation(line, 3.0 * math.pi / 2.0)
        assert Rotation(line, math.pi).angle == math.pi

    def test_canonicalize_flips_negative_angle(self):
        r = Rotation(
            AxisLine(Vec3(0, 0, 0), make_unit(Vec3(0, 0, 1))), -math.pi / 2
        )
        c = canonicalize_rotation(r)
        assert c.angle == pytest.approx(math.pi / 2, abs=0.0)
        assert xyz(c.line.dir) == pytest.approx((0.0, 0.0, -1.0), abs=0.0)

    def test_canonicalize_keeps_axis_point(self):
        r = Rotation(
            AxisLine(Vec3(5, 7, 9), make_unit(Vec3(0, 0, 1))), math.pi / 3
        )
        c = canonicalize_rotation(r)
        assert xyz(c.line.point) == (5.0, 7.0, 9.0)
        assert c.angle == pytest.approx(math.pi / 3, abs=0.0)

    def test_half_turn_tie_break_first_component_positive(self):
        # At a half turn both direction signs describe the same rotation;
        # the canonical pick makes the first nonzero component positive.
        for raw, expected in [
            (Vec3(0, 0, -1), (0.0, 0.0, 1.0)),
            (Vec3(0, 0, 1), (0.0, 0.0, 1.0)),
            (Vec3(-1, 1, 0), (1 / math.sqrt(2), -1 / math.sqrt(2), 0.0)),
        ]:
            r = Rotation(AxisLine(Vec3(0, 0, 0), make_unit(raw)), math.pi)
            c = canonicalize_rotation(r)
            assert xyz(c.line.dir) == pytest.approx(expected, abs=1e-15)
            assert c.angle == math.pi


class TestLineGeometry:
    def test_skew_line_distance(self):
        a = AxisLine(Vec3(0, 0, 0), make_unit(Vec3(1, 0, 0)))
        b = AxisLine(Vec3(0, 0, 1), make_unit(Vec3(0, 1, 0)))
        assert distance_between_lines(a, b) == pytest.approx(1.0, abs=1e-15)

    def test_parallel_line_distance(self):
        a = AxisLine(Vec3(0, 0, 0), make_unit(Vec3(1, 0, 0)))
        b = AxisLine(Vec3(0, 3, 4), make_unit(Vec3(-1, 0, 0)))
        assert distance_between_lines(a, b) == pytest.approx(5.0, abs=1e-15)

    def test_intersecting_lines_distance_zero(self):
        a = AxisLine(Vec3(1, 1, 0), make_unit(Vec3(1, 0, 0)))
        b = AxisLine(Vec3(1, 1, 0), make_unit(Vec3(0, 0, 1)))
        assert distance_between_lines(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_angle_between(self):
        assert angle_between(Vec3(1, 0, 0), Vec3(0, 2, 0)) == pytest.approx(
            math.pi / 2, abs=1e-15
        )
        assert angle_between(Vec3(1, 0, 0), Vec3(3, 0, 0)) == 0.0
        assert angle_between(Vec3(1, 0, 0), Vec3(-2, 0, 0)) == pytest.approx(
            math.pi, abs=1e-15
        )
