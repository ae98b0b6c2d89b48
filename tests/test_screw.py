"""Screw extraction, the central axis, and rotation-pair decomposition."""

from __future__ import annotations

import math
import random

import pytest

from screwalgebra import (
    AxisLine,
    Correspondence,
    DegenerateInput,
    Displacement,
    GibbsVector,
    Screw,
    ScrewKind,
    Vec3,
    absolute_translation,
    apply_displacement,
    compose_displacements,
    conjugate_invariant,
    conjugate_pair_decompose,
    displaced_line_angle,
    displacement_from_screw,
    displacement_of_rotation,
    euler_fixed_axis,
    levy_central_axis,
    make_unit,
    rodrigues_rotate,
    screw_from_displacement,
)
from _util import ROOT3, lines_coincide, mnp, xyz

QUARTER_ABOUT_OFFSET_Z = Displacement(
    GibbsVector(0.0, 0.0, 2.0), Vec3(1.0, -1.0, 0.0)
)


class TestScrewFromDisplacement:
    def test_quarter_turn_about_offset_axis(self):
        s = screw_from_displacement(QUARTER_ABOUT_OFFSET_Z)
        assert s.kind is ScrewKind.GENERAL
        assert xyz(s.axis.point) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
        assert xyz(s.axis.dir) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)
        assert s.theta == pytest.approx(math.pi / 2, abs=1e-12)
        assert s.slide == pytest.approx(0.0, abs=1e-12)

    def test_pure_translation(self):
        s = screw_from_displacement(
            Displacement(GibbsVector(0, 0, 0), Vec3(3, 4, 0))
        )
        assert s.kind is ScrewKind.TRANSLATION
        assert xyz(s.translation) == (3.0, 4.0, 0.0)

    def test_identity(self):
        s = screw_from_displacement(
            Displacement(GibbsVector(0, 0, 0), Vec3(0, 0, 0))
        )
        assert s.kind is ScrewKind.IDENTITY

    def test_roundtrip_through_displacement(self):
        s = Screw.general(
            Vec3(0.5, -1.0, 2.0), make_unit(Vec3(1, 2, 2)), 1.1, -0.7
        )
        d = displacement_from_screw(s)
        back = screw_from_displacement(d)
        assert back.kind is ScrewKind.GENERAL
        assert lines_coincide(back.axis, s.axis, tol=1e-10)
        assert xyz(back.axis.dir) == pytest.approx(xyz(s.axis.dir), abs=1e-10)
        assert back.theta == pytest.approx(s.theta, abs=1e-10)
        assert back.slide == pytest.approx(s.slide, abs=1e-10)

    def test_axis_point_is_foot_of_perpendicular(self):
        # The reported axis point is the point of the axis nearest the
        # origin, so it is orthogonal to the axis direction.
        s = Screw.general(
            Vec3(2.0, 3.0, -1.0), make_unit(Vec3(0, 1, 1)), 0.9, 1.5
        )
        back = screw_from_displacement(displacement_from_screw(s))
        assert back.axis.point.dot(back.axis.dir) == pytest.approx(
            0.0, abs=1e-10
        )


class TestScrewMotionLaws:
    def test_projection_on_axis_is_the_slide(self):
        rng = random.Random(31)
        s = Screw.general(Vec3(1, 0, -1), make_unit(Vec3(2, -1, 2)), 1.3, 0.8)
        d = displacement_from_screw(s)
        for _ in range(20):
            r = Vec3(*(rng.uniform(-4, 4) for _ in range(3)))
            delta = apply_displacement(d, r) - r
            assert delta.dot(s.axis.dir) == pytest.approx(s.slide, abs=1e-10)

    def test_displacement_norm_law(self):
        # |move|^2 = slide^2 + (2 u tan(theta/2))^2, where u is the distance
        # from the chord midpoint to the axis.
        rng = random.Random(37)
        s = Screw.general(Vec3(0, 2, 1), make_unit(Vec3(1, 1, 0)), 0.9, -1.2)
        d = displacement_from_screw(s)
        for _ in range(20):
            r = Vec3(*(rng.uniform(-4, 4) for _ in range(3)))
            mid = (r + apply_displacement(d, r)) * 0.5
            offset = mid - s.axis.point
            u = (offset - s.axis.dir * offset.dot(s.axis.dir)).norm()
            moved = (apply_displacement(d, r) - r).norm()
            chord = 2.0 * u * math.tan(s.theta / 2)
            expected = math.sqrt(s.slide**2 + chord**2)
            assert moved == pytest.approx(expected, rel=1e-10)

    def test_axis_points_move_least(self):
        s = Screw.general(Vec3(1, 1, 1), make_unit(Vec3(0, 0, 1)), 1.0, 0.5)
        d = displacement_from_screw(s)
        on_axis = s.axis.point + s.axis.dir * 2.0
        assert (apply_displacement(d, on_axis) - on_axis).norm() == pytest.approx(
            abs(s.slide), abs=1e-12
        )
        off_axis = on_axis + Vec3(1.0, 0.0, 0.0)
        assert (apply_displacement(d, off_axis) - off_axis).norm() > abs(s.slide)


class TestAbsoluteTranslation:
    def test_general_motion_projects_on_axis(self):
        res = absolute_translation(
            Displacement(GibbsVector(0, 0, 2), Vec3(1, -1, 3))
        )
        assert res.value == pytest.approx(3.0, abs=1e-12)
        assert res.translation_only is False

    def test_pure_translation_uses_full_length(self):
        res = absolute_translation(
            Displacement(GibbsVector(0, 0, 0), Vec3(3, 4, 0))
        )
        assert res.value == pytest.approx(5.0, abs=1e-15)
        assert res.translation_only is True


    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_half_turn_slide_follows_the_screw(self, sign):
        # In half-turn form v and -v are one turn; the slide's sign follows
        # the axis direction Screw.general picks, not the sign of v.
        D = Displacement(w=0.0, v=Vec3(sign, 0.0, 0.0), delta=Vec3(3.0, 1.0, 0.0))
        res = absolute_translation(D)
        assert res.value == screw_from_displacement(D).slide == 3.0
        assert res.translation_only is False


class TestDisplacedLineAngle:
    def test_quarter_turn_thirty_degree_line(self):
        got = displaced_line_angle(math.pi / 2, math.pi / 6)
        assert got == pytest.approx(
            2.0 * math.asin(math.sin(math.pi / 4) * 0.5), abs=1e-15
        )

    def test_matches_measured_direction_change(self):
        rng = random.Random(41)
        for _ in range(100):
            axis = make_unit(Vec3(*(rng.gauss(0, 1) for _ in range(3))))
            theta = rng.uniform(-3.0, 3.0)
            phi = rng.uniform(0.05, math.pi - 0.05)
            seed = Vec3(*(rng.gauss(0, 1) for _ in range(3)))
            perp = seed - axis * seed.dot(axis)
            if perp.norm() < 1e-3:
                continue
            u = axis * math.cos(phi) + make_unit(perp) * math.sin(phi)
            turned = rodrigues_rotate(axis, theta, u)
            measured = math.atan2(u.cross(turned).norm(), u.dot(turned))
            # The closed form is signed like theta; the measured separation
            # of the two directions is not.
            assert abs(displaced_line_angle(theta, phi)) == pytest.approx(
                measured, abs=1e-10
            )

    def test_odd_in_the_turn_angle(self):
        assert displaced_line_angle(-0.8, 0.6) == -displaced_line_angle(0.8, 0.6)


class TestConjugatePair:
    SCREW = Screw.general(
        Vec3(0.0, 0.0, 0.0), make_unit(Vec3(0, 0, 1)), math.pi / 2, 2.0
    )

    def test_quarter_screw_splits_into_two_rotations(self):
        pair = conjugate_pair_decompose(self.SCREW, math.pi / 2, 0.0)
        assert not pair.degenerate
        assert xyz(pair.line_a.line.point) == pytest.approx(
            (0.0, 0.0, 0.0), abs=1e-12
        )
        assert xyz(pair.line_a.line.dir) == pytest.approx(
            (1 / ROOT3, -1 / ROOT3, 1 / ROOT3), abs=1e-12
        )
        assert pair.line_a.angle == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert xyz(pair.line_b.line.point) == pytest.approx(
            (0.0, 1.0, 1.0), abs=1e-12
        )
        assert xyz(pair.line_b.line.dir) == pytest.approx(
            (1.0, 0.0, 0.0), abs=1e-12
        )
        assert pair.line_b.angle == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_pair_recomposes_to_the_screw(self):
        pair = conjugate_pair_decompose(self.SCREW, math.pi / 2, 0.0)
        da = displacement_of_rotation(
            pair.line_a.line.point, pair.line_a.line.dir, pair.line_a.angle
        )
        db = displacement_of_rotation(
            pair.line_b.line.point, pair.line_b.line.dir, pair.line_b.angle
        )
        back = screw_from_displacement(compose_displacements(da, db))
        assert back.kind is ScrewKind.GENERAL
        assert lines_coincide(back.axis, self.SCREW.axis, tol=1e-10)
        assert back.theta == pytest.approx(self.SCREW.theta, abs=1e-10)
        assert back.slide == pytest.approx(self.SCREW.slide, abs=1e-10)

    def test_invariant_sides_agree(self):
        pair = conjugate_pair_decompose(self.SCREW, math.pi / 2, 0.0)
        sides = conjugate_invariant(pair.line_a, pair.line_b)
        assert sides.lhs == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)
        assert sides.rhs == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)

    def test_zero_slide_degenerates_to_single_rotation(self):
        flat = Screw.general(
            Vec3(0, 0, 0), make_unit(Vec3(0, 0, 1)), math.pi / 2, 0.0
        )
        pair = conjugate_pair_decompose(flat, math.pi / 2, 0.0)
        assert pair.degenerate
        assert pair.line_a.angle == pytest.approx(math.pi / 2, abs=1e-15)
        assert pair.line_b.angle == 0.0


class TestFixedAxisConstructions:
    def test_euler_axis_of_a_quarter_turn(self):
        line = euler_fixed_axis(
            Correspondence(Vec3(1, 0, 0), Vec3(0, 1, 0)),
            Correspondence(Vec3(0, 1, 0), Vec3(-1, 0, 0)),
        )
        assert xyz(line.point) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
        assert xyz(line.dir) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_euler_rejects_identity_data(self):
        with pytest.raises(DegenerateInput):
            euler_fixed_axis(
                Correspondence(Vec3(1, 0, 0), Vec3(1, 0, 0)),
                Correspondence(Vec3(0, 1, 0), Vec3(0, 1, 0)),
            )

    def test_levy_axis_of_planar_quarter_turn(self):
        line = levy_central_axis(
            Correspondence(Vec3(0, 0, 0), Vec3(1, -1, 0)),
            Correspondence(Vec3(2, 0, 0), Vec3(1, 1, 0)),
            make_unit(Vec3(0, 0, 1)),
        )
        assert xyz(line.point) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
        assert xyz(line.dir) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)


    def test_levy_axis_where_the_planes_coincide(self):
        # A and B sit in one plane with the axis, so both construction planes
        # are that plane: the axis is completed from the turn about dir.
        rng = random.Random(83)
        for _ in range(500):
            axis = make_unit(Vec3(*(rng.gauss(0, 1) for _ in range(3))))
            theta = rng.uniform(0.05, math.pi)
            point = Vec3(*(rng.uniform(-3, 3) for _ in range(3)))
            screw = Screw.general(point, axis, theta, rng.uniform(-2, 2))
            d = displacement_from_screw(screw)
            a = Vec3(*(rng.uniform(-3, 3) for _ in range(3)))
            off = a - point
            b = point + (off - axis * off.dot(axis)) * rng.uniform(-2, 2) + axis * rng.uniform(-3, 3)
            ap, bp = apply_displacement(d, a), apply_displacement(d, b)
            line = levy_central_axis(Correspondence(a, ap), Correspondence(b, bp), axis)
            foot = screw.axis.point
            assert (line.point - foot).norm() <= 1e-11 * max(1.0, foot.norm())
            assert line.dir == axis


    def test_levy_axis_of_a_turn_whose_cosine_rounds_to_one(self):
        # A 1e-10 rad turn about z, then a unit step along y: the planes
        # coincide, and the axis runs through (-cot(theta/2)/2, 1/2, 0).
        z, theta = make_unit(Vec3(0.0, 0.0, 1.0)), 1e-10
        a, b = Vec3(1.0, 0.0, 0.0), Vec3(3.0, 0.0, 0.0)
        step = Vec3(0.0, 1.0, 0.0)
        ap, bp = (rodrigues_rotate(z, theta, p) + step for p in (a, b))
        line = levy_central_axis(Correspondence(a, ap), Correspondence(b, bp), z)
        assert xyz(line.point) == pytest.approx((-0.5 / math.tan(theta / 2.0), 0.5, 0.0), rel=1e-6)


class TestLevyCramerRule:
    """The 3x3 plane-intersection solve in levy_central_axis, against numpy."""

    def test_matches_numpy_solve_on_skew_chord_pairs(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(61)
        compared = 0
        while compared < 200:
            axis = make_unit(Vec3(*(rng.gauss(0, 1) for _ in range(3))))
            theta = rng.uniform(0.2, 3.0)
            point = Vec3(*(rng.uniform(-3, 3) for _ in range(3)))
            screw = Screw.general(point, axis, theta, rng.uniform(-2, 2))
            d = displacement_from_screw(screw)
            a, b = (Vec3(*(rng.uniform(-3, 3) for _ in range(3))) for _ in range(2))
            ap, bp = apply_displacement(d, a), apply_displacement(d, b)
            n_a = (ap - a) - axis * (ap - a).dot(axis)
            n_b = (bp - b) - axis * (bp - b).dot(axis)
            # Well-separated planes only: the solve branch, away from its
            # parallel-plane cutoff.
            if make_unit(n_a).cross(make_unit(n_b)).norm() < 0.1:
                continue
            if screw.axis.point.norm() < 0.5:
                continue
            mat = np.array([n_a.as_tuple(), n_b.as_tuple(), axis.as_tuple()])
            rhs = np.array([n_a.dot((a + ap) * 0.5), n_b.dot((b + bp) * 0.5), 0.0])
            expected = np.linalg.solve(mat, rhs)
            got = levy_central_axis(Correspondence(a, ap), Correspondence(b, bp), axis)
            err = float(np.linalg.norm(np.array(xyz(got.point)) - expected))
            assert err <= 1e-12 * float(np.linalg.norm(expected)), (compared, err)
            compared += 1
