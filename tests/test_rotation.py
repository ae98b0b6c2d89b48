"""Rotation vectors, the rational rotation matrix, and point maps."""

from __future__ import annotations

import math
import random

import pytest

from screwalgebra import (
    AngleAtPi,
    Displacement,
    GibbsVector,
    RotationMatrix,
    TraceSingular,
    Vec3,
    apply_displacement,
    axis_angle_from_gibbs,
    displacement_of_rotation,
    gibbs_from_axis_angle,
    gibbs_from_matrix,
    make_unit,
    matrix_from_gibbs,
    midpoint_of,
    rodrigues_rotate,
)
from _util import mnp, xyz

X_QUARTER = GibbsVector(2.0, 0.0, 0.0)


class TestGibbsAxisAngle:
    def test_quarter_turn_roundtrip(self):
        axis, theta = axis_angle_from_gibbs(X_QUARTER)
        assert xyz(axis) == (1.0, 0.0, 0.0)
        assert theta == pytest.approx(math.pi / 2, abs=1e-15)
        back = gibbs_from_axis_angle(axis, theta)
        assert mnp(back) == pytest.approx((2.0, 0.0, 0.0), abs=1e-12)

    @pytest.mark.parametrize("q", [GibbsVector(0.0, 0.0, 0.0), GibbsVector(1e-13, 0.0, 0.0)])
    def test_rounding_size_vector_is_no_rotation(self, q):
        # |q| <= 1e-12 is the zero rule of screw_from_displacement as well.
        axis, theta = axis_angle_from_gibbs(q)
        assert (xyz(axis), theta) == ((0.0, 0.0, 1.0), 0.0)

    def test_magnitude_is_twice_half_tangent(self):
        q = gibbs_from_axis_angle(make_unit(Vec3(0, 0, 1)), 2.0)
        assert q.norm() == pytest.approx(2.0 * math.tan(1.0), abs=1e-12)

    def test_undefined_at_half_turn(self):
        with pytest.raises(AngleAtPi):
            gibbs_from_axis_angle(make_unit(Vec3(0, 0, 1)), math.pi)


class TestMatrixFromGibbs:
    def test_quarter_turn_about_x_is_exact(self):
        # Every entry of the matrix is a ratio of integers here, so the
        # floating-point result is exact.
        m = matrix_from_gibbs(X_QUARTER)
        assert m.rows == ((1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 1.0, 0.0))

    def test_rotates_y_to_z(self):
        m = matrix_from_gibbs(X_QUARTER)
        assert xyz(m.apply(Vec3(0, 1, 0))) == (0.0, 0.0, 1.0)

    def test_orthonormal_and_proper(self):
        rng = random.Random(42)
        for _ in range(100):
            q = GibbsVector(*(rng.uniform(-6, 6) for _ in range(3)))
            m = matrix_from_gibbs(q)
            mtm = m.transpose().matmul(m)
            dev = max(
                abs(mtm.rows[i][j] - (1.0 if i == j else 0.0))
                for i in range(3)
                for j in range(3)
            )
            assert dev < 1e-14
            assert m.det() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("entry", [(0, 0), (2, 2), (2, 0)])
    def test_nan_entry_is_not_a_rotation(self, entry):
        rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        rows[entry[0]][entry[1]] = math.nan
        with pytest.raises(ValueError):
            RotationMatrix(tuple(map(tuple, rows)))

    def test_rotation_vector_too_long_to_square_is_refused(self):
        # |q|^2 overflows, and the entries are inf * 0.
        with pytest.raises(ValueError):
            matrix_from_gibbs(GibbsVector(1e155, 0.0, 0.0))

    def test_zero_vector_gives_identity(self):
        m = matrix_from_gibbs(GibbsVector(0.0, 0.0, 0.0))
        assert m.rows == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

    def test_matches_rodrigues_rotation(self):
        rng = random.Random(7)
        for _ in range(100):
            q = GibbsVector(*(rng.uniform(-6, 6) for _ in range(3)))
            r = Vec3(*(rng.uniform(-3, 3) for _ in range(3)))
            axis, theta = axis_angle_from_gibbs(q)
            via_matrix = matrix_from_gibbs(q).apply(r)
            direct = rodrigues_rotate(axis, theta, r)
            assert xyz(via_matrix) == pytest.approx(xyz(direct), abs=1e-12)


class TestGibbsFromMatrix:
    def test_roundtrip(self):
        rng = random.Random(11)
        for _ in range(200):
            q = GibbsVector(*(rng.uniform(-5, 5) for _ in range(3)))
            back = gibbs_from_matrix(matrix_from_gibbs(q))
            assert mnp(back) == pytest.approx(mnp(q), rel=1e-10, abs=1e-10)

    def test_half_turn_matrix_rejected(self):
        half = RotationMatrix(
            ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))
        )
        with pytest.raises(TraceSingular):
            gibbs_from_matrix(half)


class TestRodriguesRotate:
    def test_quarter_turn(self):
        out = rodrigues_rotate(make_unit(Vec3(1, 0, 0)), math.pi / 2, Vec3(0, 1, 0))
        assert xyz(out) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)

    def test_axis_points_fixed(self):
        axis = make_unit(Vec3(1, 1, 1))
        r = Vec3(2, 2, 2)
        out = rodrigues_rotate(axis, 1.234, r)
        assert xyz(out) == pytest.approx(xyz(r), abs=1e-15)

    def test_preserves_length(self):
        rng = random.Random(3)
        for _ in range(50):
            axis = make_unit(Vec3(*(rng.gauss(0, 1) for _ in range(3))))
            r = Vec3(*(rng.uniform(-4, 4) for _ in range(3)))
            out = rodrigues_rotate(axis, rng.uniform(-3, 3), r)
            assert out.norm() == pytest.approx(r.norm(), rel=1e-13)


class TestDisplacementMaps:
    def test_off_axis_rotation_displacement(self):
        d = displacement_of_rotation(
            Vec3(1, 0, 0), make_unit(Vec3(0, 0, 1)), math.pi / 2
        )
        assert mnp(d.q) == pytest.approx((0.0, 0.0, 2.0), abs=1e-12)
        assert xyz(d.delta) == pytest.approx((1.0, -1.0, 0.0), abs=1e-12)

    def test_apply_fixes_axis_point(self):
        d = Displacement(GibbsVector(0.0, 0.0, 2.0), Vec3(1.0, -1.0, 0.0))
        assert xyz(apply_displacement(d, Vec3(1, 0, 0))) == pytest.approx(
            (1.0, 0.0, 0.0), abs=1e-15
        )
        assert xyz(apply_displacement(d, Vec3(0, 0, 0))) == pytest.approx(
            (1.0, -1.0, 0.0), abs=1e-15
        )

    def test_midpoint_lies_halfway(self):
        d = Displacement(GibbsVector(0.0, 0.0, 2.0), Vec3(1.0, -1.0, 0.0))
        assert xyz(midpoint_of(d, Vec3(0, 0, 0))) == (0.5, -0.5, 0.0)
        pure_turn = Displacement(GibbsVector(0.0, 0.0, 2.0), Vec3(0.0, 0.0, 0.0))
        assert xyz(midpoint_of(pure_turn, Vec3(1, 0, 0))) == pytest.approx(
            (0.5, 0.5, 0.0), abs=1e-15
        )

    def test_gamma_is_delta_minus_half_cross(self):
        d = Displacement(GibbsVector(0.0, 0.0, 2.0), Vec3(1.0, -1.0, 0.0))
        assert xyz(d.gamma()) == pytest.approx((0.0, -2.0, 0.0), abs=1e-15)
