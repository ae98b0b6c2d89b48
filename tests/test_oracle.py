"""The homogeneous-matrix reference path used to cross-check everything."""

from __future__ import annotations

import math
import random

import pytest

from screwalgebra import (
    Displacement,
    GibbsVector,
    Screw,
    ScrewKind,
    TraceSingular,
    Vec3,
    displacement_from_hom,
    displacement_from_screw,
    hom_compose,
    hom_from_displacement,
    hom_from_rotation,
    hom_from_translation,
    make_unit,
    screw_from_displacement,
    screw_from_hom_bruteforce,
)
from _util import mnp, xyz


class TestHomTransforms:
    def test_rotation_moves_a_point(self):
        h = hom_from_rotation(Vec3(0, 0, 0), make_unit(Vec3(0, 0, 1)), math.pi / 2)
        assert xyz(h.apply(Vec3(1, 0, 0))) == pytest.approx(
            (0.0, 1.0, 0.0), abs=1e-15
        )

    def test_rotation_fixes_its_axis_point(self):
        h = hom_from_rotation(Vec3(2, 1, 0), make_unit(Vec3(0, 1, 0)), 1.234)
        assert xyz(h.apply(Vec3(2, 1, 0))) == pytest.approx(
            (2.0, 1.0, 0.0), abs=1e-14
        )

    def test_whole_turn_moves_no_point(self):
        # The angle is reduced before its cosine and sine are taken: sin(2 pi)
        # would otherwise move a point 1e283 from the axis by 2.4e267.
        h = hom_from_rotation(Vec3(1e283, 0, 0), make_unit(Vec3(0, 0, 1)), math.radians(360.0))
        assert h.R.rows == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        assert xyz(h.d) == (0.0, 0.0, 0.0)

    def test_translation(self):
        h = hom_from_translation(Vec3(1, -2, 3))
        assert xyz(h.apply(Vec3(10, 10, 10))) == (11.0, 8.0, 13.0)

    def test_compose_applies_first_argument_first(self):
        turn = hom_from_rotation(
            Vec3(0, 0, 0), make_unit(Vec3(0, 0, 1)), math.pi / 2
        )
        lift = hom_from_translation(Vec3(5, 0, 0))
        turn_then_lift = hom_compose(turn, lift)
        assert xyz(turn_then_lift.apply(Vec3(1, 0, 0))) == pytest.approx(
            (5.0, 1.0, 0.0), abs=1e-15
        )
        lift_then_turn = hom_compose(lift, turn)
        assert xyz(lift_then_turn.apply(Vec3(1, 0, 0))) == pytest.approx(
            (0.0, 6.0, 0.0), abs=1e-15
        )


class TestHomDisplacementRoundtrip:
    def test_roundtrip(self):
        rng = random.Random(61)
        for _ in range(100):
            q = GibbsVector(*(rng.uniform(-4, 4) for _ in range(3)))
            delta = Vec3(*(rng.uniform(-3, 3) for _ in range(3)))
            d = Displacement(q, delta)
            back = displacement_from_hom(hom_from_displacement(d))
            assert mnp(back.q) == pytest.approx(mnp(q), rel=1e-10, abs=1e-10)
            assert xyz(back.delta) == pytest.approx(
                xyz(delta), rel=1e-10, abs=1e-10
            )

    def test_half_turn_displacement(self):
        axis = make_unit(Vec3(2, -1, 2))
        h = hom_from_rotation(Vec3(1, 2, -1), axis, math.pi)
        got = hom_from_displacement(Displacement(w=0.0, v=axis, delta=h.d))
        assert got.d == h.d
        for row, expected in zip(got.R.rows, h.R.rows):
            assert row == pytest.approx(expected, abs=1e-15)

    def test_rotation_vector_matrix_keeps_its_bits(self):
        # At w = 1 the angle is 2 atan(|q|/2) and the axis q/|q|, bit for bit.
        rng = random.Random(71)
        for _ in range(200):
            q = GibbsVector(*(rng.uniform(-4, 4) for _ in range(3)))
            expected = hom_from_rotation(
                Vec3(0, 0, 0), make_unit(q.as_vec3()), 2.0 * math.atan(q.norm() / 2.0)
            )
            assert hom_from_displacement(Displacement(q, Vec3(0, 0, 0))).R == expected.R

    def test_half_turn_rejected(self):
        h = hom_from_rotation(Vec3(0, 0, 0), make_unit(Vec3(0, 0, 1)), math.pi)
        with pytest.raises(TraceSingular):
            displacement_from_hom(h)


class TestScrewFromHomBruteforce:
    def test_quarter_turn_about_offset_axis(self):
        d = Displacement(GibbsVector(0, 0, 2), Vec3(1, -1, 0))
        s = screw_from_hom_bruteforce(hom_from_displacement(d))
        assert s.kind is ScrewKind.GENERAL
        assert xyz(s.axis.point) == pytest.approx((1.0, 0.0, 0.0), abs=1e-9)
        assert xyz(s.axis.dir) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)
        assert s.theta == pytest.approx(math.pi / 2, abs=1e-12)
        assert s.slide == pytest.approx(0.0, abs=1e-12)

    def test_half_turn_is_not_a_blind_spot(self):
        # The matrix path has no half-tangent in it, so a half turn
        # comes straight through.
        h = hom_from_rotation(
            Vec3(1, 0, 0), make_unit(Vec3(0, 0, 1)), math.pi
        )
        s = screw_from_hom_bruteforce(h)
        assert s.kind is ScrewKind.GENERAL
        assert s.theta == pytest.approx(math.pi, abs=1e-12)
        assert xyz(s.axis.point) == pytest.approx((1.0, 0.0, 0.0), abs=1e-9)

    def test_pure_translation(self):
        s = screw_from_hom_bruteforce(hom_from_translation(Vec3(3, 4, 0)))
        assert s.kind is ScrewKind.TRANSLATION
        assert xyz(s.translation) == pytest.approx((3.0, 4.0, 0.0), abs=1e-12)
        # A slide whose squared length underflows is still a translation,
        # as it is to the library.
        tiny = Displacement(GibbsVector(0, 0, 0), Vec3(1e-170, 0, 0))
        s = screw_from_hom_bruteforce(hom_from_displacement(tiny))
        assert s.kind is screw_from_displacement(tiny).kind is ScrewKind.TRANSLATION
        assert xyz(s.translation) == (1e-170, 0.0, 0.0)

    def test_identity(self):
        s = screw_from_hom_bruteforce(hom_from_translation(Vec3(0, 0, 0)))
        assert s.kind is ScrewKind.IDENTITY

    def test_agrees_with_closed_form(self):
        rng = random.Random(67)
        for _ in range(200):
            axis = make_unit(Vec3(*(rng.gauss(0, 1) for _ in range(3))))
            theta = rng.uniform(0.01, math.pi - 0.01)
            point = Vec3(*(rng.uniform(-2, 2) for _ in range(3)))
            slide = rng.uniform(-2, 2)

            d = displacement_from_screw(
                Screw.general(point, axis, theta, slide)
            )
            closed = screw_from_displacement(d)
            brute = screw_from_hom_bruteforce(hom_from_displacement(d))
            assert brute.kind is closed.kind
            weight = 2.0 * math.sin(closed.theta / 2.0)
            assert (closed.axis.point - brute.axis.point).norm() * weight < 1e-8
            assert (closed.axis.dir - brute.axis.dir).norm() < 1e-8
            assert abs(closed.theta - brute.theta) < 1e-8
            assert abs(closed.slide - brute.slide) < 1e-8
