"""Composition of rotations: same-point, parallel, and skew axis pairs."""

from __future__ import annotations

import math
import random
from pathlib import Path

import pytest

from screwalgebra import (
    AxisLine,
    Couple,
    GibbsVector,
    ResultantHalfTurn,
    Rotation,
    ScrewKind,
    Vec3,
    compose_gibbs,
    couple_translation,
    hom_compose,
    hom_from_rotation,
    make_unit,
    matrix_from_gibbs,
    nonintersecting_pair,
    order_swap_axis,
    resultant_trig,
    sine_proportionality,
    three_axis_resultant,
    translation_as_couple,
)
from _util import ROOT3, mnp, xyz

HALF_PI = math.pi / 2
GIBBS_BITS = Path(__file__).parent / "data" / "compose_gibbs_bits.txt"


def _pinned_gibbs_pairs() -> list[tuple[GibbsVector, GibbsVector]]:
    """2000 seeded pairs with |q| from about 1e-6 to 1e6, then 200 pairs with
    q1.q2/4 within 5e-13 of 1, whose product is a half turn.

    Built from uniform draws, ldexp and correctly rounded arithmetic only, so
    the pairs are the same on every Python.
    """
    rng = random.Random(2000)

    def draw() -> list[float]:
        scale = math.ldexp(1.0, rng.randint(-20, 20))
        return [rng.uniform(-1.0, 1.0) * scale for _ in range(3)]

    pairs = [(draw(), draw()) for _ in range(2000)]
    for _ in range(200):
        a, c = draw(), draw()
        aa = a[0] * a[0] + a[1] * a[1] + a[2] * a[2]
        # q2 = (4 + e) q1 / |q1|^2 plus a part across q1: q1.q2 / 4 = 1 + e / 4.
        along = (4.0 + rng.uniform(-2e-12, 2e-12)) / aa
        across = [a[1] * c[2] - a[2] * c[1], a[2] * c[0] - a[0] * c[2], a[0] * c[1] - a[1] * c[0]]
        size = math.sqrt(across[0] * across[0] + across[1] * across[1] + across[2] * across[2])
        k = rng.uniform(0.0, 10.0) / (size * math.sqrt(aa))
        pairs.append((a, [along * ai + k * xi for ai, xi in zip(a, across)]))
    return [(GibbsVector(*a), GibbsVector(*b)) for a, b in pairs]


def _compose_gibbs_line(q1: GibbsVector, q2: GibbsVector) -> str:
    """compose_gibbs's answer as float.hex, or the name of what it raised."""
    try:
        q = compose_gibbs(q1, q2)
    except Exception as exc:
        return type(exc).__name__
    return " ".join(float.hex(c) for c in mnp(q))


class TestComposeGibbs:
    def test_two_quarter_turns(self):
        # Quarter turn about x followed by quarter turn about y.
        q = compose_gibbs(GibbsVector(2, 0, 0), GibbsVector(0, 2, 0))
        assert mnp(q) == (2.0, 2.0, -2.0)

    def test_matches_matrix_product(self):
        rng = random.Random(5)
        for _ in range(200):
            q1 = GibbsVector(*(rng.uniform(-4, 4) for _ in range(3)))
            q2 = GibbsVector(*(rng.uniform(-4, 4) for _ in range(3)))
            dot = q1.m * q2.m + q1.n * q2.n + q1.p * q2.p
            if abs(1.0 - dot / 4.0) < 1e-3:
                continue
            left = matrix_from_gibbs(compose_gibbs(q1, q2))
            # The first rotation acts first, so its matrix sits rightmost.
            right = matrix_from_gibbs(q2).matmul(matrix_from_gibbs(q1))
            dev = max(
                abs(left.rows[i][j] - right.rows[i][j])
                for i in range(3)
                for j in range(3)
            )
            assert dev < 1e-11

    def test_half_turn_resultant_rejected(self):
        # q1 . q2 = 4 makes the resultant a half turn, where the
        # half-tangent form blows up.
        with pytest.raises(ResultantHalfTurn):
            compose_gibbs(GibbsVector(2, 0, 0), GibbsVector(2, 0, 0))

    def test_pinned_bits(self):
        # Recorded from the composition formula written out in rotation
        # vectors, before compose_gibbs shared compose_displacements' kernel.
        lines = [_compose_gibbs_line(q1, q2) for q1, q2 in _pinned_gibbs_pairs()]
        assert lines == GIBBS_BITS.read_text().splitlines()
        assert lines[2000:] == ["ResultantHalfTurn"] * 200

    def test_overflowing_product_keeps_its_ratio(self):
        # Turns within 2e-155 rad of a half turn about x and about (1, 1, 0):
        # q1.q2 overflows, and the resultant is a quarter turn about z.
        q = compose_gibbs(GibbsVector(1e155, 0.0, 0.0), GibbsVector(1e155, 1e155, 0.0))
        assert mnp(q) == pytest.approx((0.0, 0.0, 2.0), abs=1e-15)

    @pytest.mark.parametrize(
        "q2, expected",
        [
            # (q1 + q2) / (1 - q1.q2 / 4) with q1.q2 = 1e8.
            ((1e-300, 0.0, 0.0), (1e308 / (1.0 - 2.5e7), 0.0, 0.0)),
            # q1.q2 = 0, so the y component is q2's own, 1e-300.
            ((0.0, 1e-300, 0.0), (1e308, 1e-300, -5e7)),
            # The same near the bottom of the normal range.
            ((0.0, 1.7e-307, 0.0), (1e308, 1.7e-307, -8.5)),
            ((0.0, 5e-324, 0.0), (1e308, 5e-324, -(5e-324 * 1e308) / 2.0)),
            ((1e-308, 0.0, 3e-154), (1e308 / 0.75, 1.5e154 / 0.75, 3e-154 / 0.75)),
        ],
    )
    def test_overflowing_product_keeps_a_tiny_factor(self, q2, expected):
        # 2 q1 overflows; scaling the product down must not flush q2's bits.
        q = compose_gibbs(GibbsVector(1e308, 0.0, 0.0), GibbsVector(*q2))
        assert mnp(q) == expected

    def test_overflowing_product_keeps_the_half_turn_cut(self):
        # q1.q2 = 4 - 6e-12: the denominator is 1.5e-12, past the cut, and
        # the rotation vector is too long to represent.
        q2 = GibbsVector((4.0 - 6e-12) / 1e308, 0.0, 0.0)
        with pytest.raises(ValueError):
            compose_gibbs(GibbsVector(1e308, 0.0, 0.0), q2)

    def test_half_turn_past_an_overflowing_dot(self):
        # q1.q2 = 2^1100 - 2^1100 + 4 = 4 exactly: a half turn, although the
        # unscaled dot product overflows on the way.
        big = 2.0**550
        with pytest.raises(ResultantHalfTurn):
            compose_gibbs(GibbsVector(big, big, 2.0), GibbsVector(big, -big, 2.0))

    def test_identity_is_neutral(self):
        q = GibbsVector(0.4, -1.1, 2.2)
        zero = GibbsVector(0, 0, 0)
        assert mnp(compose_gibbs(zero, q)) == pytest.approx(mnp(q), abs=1e-15)
        assert mnp(compose_gibbs(q, zero)) == pytest.approx(mnp(q), abs=1e-15)


class TestIntersectingAxes:
    def test_resultant_of_perpendicular_quarter_turns(self):
        frame = resultant_trig(HALF_PI, HALF_PI, HALF_PI)
        assert frame.theta == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert (frame.cos_x, frame.cos_y, frame.cos_z) == pytest.approx(
            (1 / ROOT3, 1 / ROOT3, -1 / ROOT3), abs=1e-12
        )

    def test_tiny_resultant_is_the_identity(self):
        # A 1e-13 turn folds to a rotation vector below the zero cut: the
        # documented identity convention, not an axis normalized from noise.
        assert resultant_trig(1e-13, 0.0, 0.5) == (0.0, 1.0, 0.0, 0.0)

    def test_order_swap_mirrors_the_axis(self):
        forward, swapped = order_swap_axis(HALF_PI, HALF_PI, HALF_PI)
        assert xyz(forward) == pytest.approx(
            (1 / ROOT3, 1 / ROOT3, -1 / ROOT3), abs=1e-12
        )
        # Reversing the order of the two rotations reflects the resultant
        # axis through the plane of the component axes.
        assert xyz(swapped) == pytest.approx(
            (1 / ROOT3, 1 / ROOT3, 1 / ROOT3), abs=1e-12
        )

    def test_sine_ratios_of_perpendicular_quarter_turns(self):
        ratios = sine_proportionality(HALF_PI, HALF_PI, HALF_PI)
        expected = math.sqrt(2.0 / 3.0)
        assert ratios.sin_to_first == pytest.approx(expected, abs=1e-12)
        assert ratios.sin_to_second == pytest.approx(expected, abs=1e-12)

    def test_sine_ratios_reduce_to_spherical_law(self):
        # The ratio pair against the opening angle nu obeys the sine law of
        # the spherical triangle with sides theta1/2, theta2/2:
        # ratio * sin(resultant half-angle) = sin(other half-angle) * sin(nu).
        theta1, theta2, nu = 0.8, 1.3, 1.1
        frame = resultant_trig(theta1, theta2, nu)
        ratios = sine_proportionality(theta1, theta2, nu)
        assert ratios.sin_to_first * math.sin(frame.theta / 2) == pytest.approx(
            math.sin(theta2 / 2) * math.sin(nu), rel=1e-12
        )
        assert ratios.sin_to_second * math.sin(frame.theta / 2) == pytest.approx(
            math.sin(theta1 / 2) * math.sin(nu), rel=1e-12
        )


class TestNonintersectingAxes:
    def test_skew_quarter_turns(self):
        line1 = Rotation(
            AxisLine(Vec3(0, 0, 0), make_unit(Vec3(1, 0, 0))), HALF_PI
        )
        line2 = Rotation(
            AxisLine(Vec3(0, 0, 1), make_unit(Vec3(0, 1, 0))), HALF_PI
        )
        screw, delta_world = nonintersecting_pair(line1, line2)
        assert screw.kind is ScrewKind.GENERAL
        assert screw.theta == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert xyz(screw.axis.dir) == pytest.approx(
            (1 / ROOT3, 1 / ROOT3, -1 / ROOT3), abs=1e-12
        )
        assert screw.slide == pytest.approx(-2.0 / ROOT3, abs=1e-12)
        assert xyz(screw.axis.point) == pytest.approx(
            (0.0, 1.0 / 3.0, 1.0 / 3.0), abs=1e-12
        )
        assert xyz(delta_world) == pytest.approx((-1.0, 0.0, 1.0), abs=1e-12)

    def test_agrees_with_displacement_composition(self):
        rng = random.Random(17)
        for _ in range(50):
            p1 = Vec3(*(rng.uniform(-2, 2) for _ in range(3)))
            p2 = Vec3(*(rng.uniform(-2, 2) for _ in range(3)))
            d1 = make_unit(Vec3(*(rng.gauss(0, 1) for _ in range(3))))
            d2 = make_unit(Vec3(*(rng.gauss(0, 1) for _ in range(3))))
            if d1.cross(d2).norm() < 1e-2:
                continue
            t1, t2 = rng.uniform(0.2, 2.8), rng.uniform(0.2, 2.8)
            screw, _ = nonintersecting_pair(
                Rotation(AxisLine(p1, d1), t1), Rotation(AxisLine(p2, d2), t2)
            )
            h_pair = hom_compose(hom_from_rotation(p1, d1, t1), hom_from_rotation(p2, d2, t2))
            # The screw and the matrix product must move probe points identically.
            probe = Vec3(*(rng.uniform(-2, 2) for _ in range(3)))
            h_screw = hom_from_rotation(screw.axis.point, screw.axis.dir, screw.theta)
            slid = h_screw.apply(probe) + screw.axis.dir * screw.slide
            assert xyz(slid) == pytest.approx(xyz(h_pair.apply(probe)), abs=1e-9)

    def test_opposite_turns_about_parallel_lines_are_a_translation(self):
        # The unit directions differ by 1.7e-16: rounding, not a resultant turn.
        d1 = make_unit(Vec3(0.3, -0.5, 0.8))
        d2 = make_unit(Vec3(0.9, -1.5, 2.4))
        assert d1 != d2
        screw, delta = nonintersecting_pair(
            Rotation(AxisLine(Vec3(0, 0, 0), d1), 0.7),
            Rotation(AxisLine(Vec3(1, 2, 0), d2), -0.7),
        )
        assert screw.kind is ScrewKind.TRANSLATION
        H = hom_compose(
            hom_from_rotation(Vec3(0, 0, 0), d1, 0.7), hom_from_rotation(Vec3(1, 2, 0), d2, -0.7)
        )
        assert xyz(screw.translation) == xyz(delta) == pytest.approx(xyz(H.d), abs=1e-12)


class TestCouples:
    def test_parallel_opposite_quarter_turns(self):
        c = Couple(
            make_unit(Vec3(0, 0, 1)), Vec3(0, 0, 0), Vec3(1, 0, 0), HALF_PI
        )
        assert xyz(couple_translation(c)) == pytest.approx(
            (1.0, 1.0, 0.0), abs=1e-12
        )

    def test_translation_length_law(self):
        # |t| = 2 d sin(theta/2) with d the distance between the axes.
        rng = random.Random(23)
        for _ in range(50):
            axis = make_unit(Vec3(*(rng.gauss(0, 1) for _ in range(3))))
            p1 = Vec3(*(rng.uniform(-2, 2) for _ in range(3)))
            offset = Vec3(*(rng.uniform(-2, 2) for _ in range(3)))
            perp = offset - axis * offset.dot(axis)
            if perp.norm() < 1e-2:
                continue
            p2 = p1 + perp
            theta = rng.uniform(0.1, 3.0)
            t = couple_translation(Couple(axis, p1, p2, theta))
            assert t.norm() == pytest.approx(
                2.0 * perp.norm() * math.sin(theta / 2), rel=1e-12
            )

    def test_translation_as_couple_roundtrip(self):
        c = translation_as_couple(Vec3(0, 0, 2), HALF_PI, 0.0)
        assert xyz(c.dir) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
        assert xyz(c.point1) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
        assert xyz(c.point2) == pytest.approx((0.0, 1.0, 1.0), abs=1e-12)
        assert (c.point2 - c.point1).norm() == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )
        assert xyz(couple_translation(c)) == pytest.approx(
            (0.0, 0.0, 2.0), abs=1e-12
        )


class TestThreeAxisResultant:
    def test_identity_corner(self):
        res = three_axis_resultant(0.0, 0.0, 0.0)
        assert res.theta == 0.0

    def test_three_perpendicular_quarter_turns(self):
        res = three_axis_resultant(HALF_PI, HALF_PI, HALF_PI)
        assert res.theta == pytest.approx(math.pi, abs=1e-12)
        assert res.sin2_x == pytest.approx(0.5, abs=1e-12)
        assert res.sin2_y == pytest.approx(1.0, abs=1e-12)
        assert res.sin2_z == pytest.approx(0.5, abs=1e-12)

    def test_direction_cosines_sum(self):
        # sin^2 terms are 1 - (direction cosine)^2, so they add to 2.
        res = three_axis_resultant(0.3, 1.1, 2.0)
        assert res.sin2_x + res.sin2_y + res.sin2_z == pytest.approx(
            2.0, abs=1e-12
        )

    def test_matches_matrix_fold(self):
        for angles in [(0.3, 1.1, 2.0), (1.0, 0.5, 0.25), (2.5, 0.1, 1.7)]:
            res = three_axis_resultant(*angles)
            gx = GibbsVector(2 * math.tan(angles[0] / 2), 0, 0)
            gy = GibbsVector(0, 2 * math.tan(angles[1] / 2), 0)
            gz = GibbsVector(0, 0, 2 * math.tan(angles[2] / 2))
            m = (
                matrix_from_gibbs(gx)
                .matmul(matrix_from_gibbs(gy))
                .matmul(matrix_from_gibbs(gz))
            )
            cos_theta = (m.trace() - 1.0) / 2.0
            assert res.theta == pytest.approx(
                math.acos(max(-1.0, min(1.0, cos_theta))), abs=1e-10
            )
