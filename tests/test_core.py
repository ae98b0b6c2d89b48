"""Vector, line, and rotation primitives."""

from __future__ import annotations

import math
import random

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
from screwalgebra.core import _unit_components
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

    def test_norm_is_the_root_of_the_squares_where_they_fit(self):
        # In [1e-150, inf) the length keeps the bits of sqrt(x^2 + y^2 + z^2);
        # outside that range the squares overflow or lose bits, and hypot takes it.
        rng = random.Random(83)
        branches = set()
        for _ in range(3000):
            size = 10.0 ** rng.uniform(-320.0, 308.0)
            x, y, z = (rng.uniform(-1.0, 1.0) * size for _ in range(3))
            root = math.sqrt(x * x + y * y + z * z)
            in_range = 1e-150 <= root < math.inf
            branches.add(in_range)
            assert Vec3(x, y, z).norm() == (root if in_range else math.hypot(x, y, z))
        assert branches == {True, False}


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

    @pytest.mark.parametrize("size", [1e-11, 1.0, 1e154, 1e200, 1e308])
    def test_make_unit_takes_every_finite_length(self, size):
        u = make_unit(Vec3(0.6 * size, 0.0, -0.8 * size))
        assert xyz(u) == pytest.approx((0.6, 0.0, -0.8), abs=1e-15)

    def test_make_unit_limits(self):
        with pytest.raises(ZeroVector):
            make_unit(Vec3(1e-13, 0.0, 0.0))
        with pytest.raises(ValueError, match="overflows"):
            make_unit(Vec3(1.5e308, 1.5e308, 0.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"non-finite component in \("):
                _unit_components(0.0, bad, 1.0)


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
