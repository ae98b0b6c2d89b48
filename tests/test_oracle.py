"""The homogeneous-matrix reference path used to cross-check everything."""

from __future__ import annotations

import math
import random
from pathlib import Path

import pytest

from screwalgebra import (
    Displacement,
    GibbsVector,
    HomTransform,
    RotationMatrix,
    Screw,
    ScrewKind,
    Vec3,
    displacement_from_screw,
    hom_compose,
    hom_from_displacement,
    hom_from_rotation,
    hom_from_translation,
    make_unit,
    screw_from_displacement,
    screw_from_hom_bruteforce,
    screws_from_homs,
)
from screwalgebra.oracle import stacked_matmul
from _util import xyz

DATA = Path(__file__).parent / "data"


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


# Half turns with a symmetric matrix: the skew part is exactly 0, so the
# angle is exactly pi and the axis sign comes from Screw.general's tie-break alone.
HALF_TURN_FLIPPED = HomTransform(
    RotationMatrix(((-1.0, 0.0, 0.0), (0.0, -0.28, 0.96), (0.0, 0.96, 0.28))),
    Vec3(1.0, 2.0, 3.0),
)
HALF_TURN_KEPT = HomTransform(
    RotationMatrix(((-1.0, 0.0, 0.0), (0.0, -0.28, -0.96), (0.0, -0.96, 0.28))),
    Vec3(1.0, 2.0, 3.0),
)
SPECIAL_HOMS = {
    "identity": hom_from_translation(Vec3(0.0, 0.0, 0.0)),
    "translation": hom_from_translation(Vec3(3.0, 4.0, 0.0)),
    "tiny-translation": hom_from_translation(Vec3(1e-170, 0.0, 0.0)),
    "theta-1e-6": hom_from_rotation(
        Vec3(1.0, -2.0, 0.5), make_unit(Vec3(1.0, 2.0, 2.0)), 1e-6
    ),
    "theta-pi-minus-1e-6": hom_from_rotation(
        Vec3(0.5, 1.0, -1.5), make_unit(Vec3(-2.0, 1.0, 2.0)), math.pi - 1e-6
    ),
    "half-turn-flipped": HALF_TURN_FLIPPED,
    "half-turn-kept": HALF_TURN_KEPT,
    # Its axis point sums to -0.0 unless the sum starts at +0.0.
    "screw-through-origin": hom_compose(
        hom_from_rotation(Vec3(0.0, 0.0, 0.0), make_unit(Vec3(0.0, 0.0, 1.0)), 1.0),
        hom_from_translation(Vec3(0.0, 0.0, 2.0)),
    ),
}

# screw_from_hom_bruteforce's outputs before the oracle was stacked:
# (axis point, axis direction, theta, slide).
PINNED_SCREWS = {
    "theta-1e-6": (
        (1.2222222222726487, -1.5555555555525733, 0.9444444443545695),
        (0.3333333333333335, 0.6666666666502189, 0.6666666666831145),
        1e-06,
        3.0154040143333186e-17,
    ),
    "theta-pi-minus-1e-6": (
        (-0.16666666666666685, 1.3333333333333333, -0.8333333333333336),
        (-0.6666666666666669, 0.3333333333333333, 0.6666666666666666),
        3.141591653589793,
        1.7270123602795991e-16,
    ),
    "half-turn-flipped": (
        (0.5, -0.07999999999999989, 0.0599999999999999),
        (0.0, 0.6, 0.8000000000000002),
        math.pi,
        3.6000000000000005,
    ),
    "half-turn-kept": (
        (0.5, 1.3600000000000003, 1.02),
        (0.0, 0.6, -0.8000000000000002),
        math.pi,
        -1.2000000000000006,
    ),
}


def _seeded_homs(seed: int, count: int) -> list[HomTransform]:
    rng = random.Random(seed)
    homs = []
    for _ in range(count):
        h = hom_from_rotation(
            Vec3(*(rng.uniform(-3, 3) for _ in range(3))),
            make_unit(Vec3(*(rng.gauss(0, 1) for _ in range(3)))),
            rng.uniform(-math.pi, math.pi),
        )
        homs.append(hom_compose(h, hom_from_translation(Vec3(*(rng.uniform(-2, 2) for _ in range(3))))))
    return homs


def _stack() -> list[HomTransform]:
    """The special maps spread among 200 seeded screw motions."""
    homs = _seeded_homs(83, 200)
    for i, h in enumerate(SPECIAL_HOMS.values()):
        homs.insert(5 * i, h)
    return homs


def _screw_line(s: Screw) -> str:
    """Every field of a screw at full precision, signed zeros included."""
    if s.kind is not ScrewKind.GENERAL:
        return f"{s.kind.name} {s.translation!r}"
    fields = (*s.axis.point.as_tuple(), *s.axis.dir.as_tuple(), s.theta, s.slide)
    return " ".join(map(repr, fields))


class TestScrewsFromHoms:
    def test_stack_matches_one_map_at_a_time(self):
        homs = _stack()
        stacked = screws_from_homs(homs)
        assert len(stacked) == len(homs)
        for h, s in zip(homs, stacked):
            assert s == screw_from_hom_bruteforce(h)

    def test_stack_keeps_the_one_map_bits(self):
        # Recorded from screw_from_hom_bruteforce when it took one map at a
        # time, with numpy's single-vector norm, dot product and matmul.
        lines = [_screw_line(s) for s in screws_from_homs(_stack())]
        assert lines == (DATA / "oracle_screws.txt").read_text().splitlines()

    def test_special_maps(self):
        identity, translation, tiny = screws_from_homs(
            [SPECIAL_HOMS[name] for name in ("identity", "translation", "tiny-translation")]
        )
        assert identity == Screw.identity()
        assert translation == Screw.pure_translation(Vec3(3.0, 4.0, 0.0))
        # An exact test of the slide: its squared length underflows.
        assert tiny == Screw.pure_translation(Vec3(1e-170, 0.0, 0.0))
        assert screws_from_homs([]) == []

    def test_flipped_half_turn_exercises_the_tie_break(self):
        import numpy as np

        R = np.array(HALF_TURN_FLIPPED.R.rows)
        raw_axis = np.linalg.svd(R - np.eye(3))[2][-1]
        first = next(c for c in raw_axis if abs(c) > 1e-12)
        assert first < 0.0  # so the tie-break has to turn it round

    @pytest.mark.parametrize("name", sorted(PINNED_SCREWS))
    def test_pinned_screws(self, name):
        point, direction, theta, slide = PINNED_SCREWS[name]
        [s] = screws_from_homs([SPECIAL_HOMS[name]])
        assert s.kind is ScrewKind.GENERAL
        assert s.axis.point.as_tuple() == point
        assert s.axis.dir.as_tuple() == direction
        assert (s.theta, s.slide) == (theta, slide)


def test_stacked_matmul_keeps_matmul_bits():
    homs = _seeded_homs(89, 100)
    pairs = [(a.R, b.R) for a, b in zip(homs[::2], homs[1::2])]
    products = stacked_matmul(pairs)
    assert [tuple(map(tuple, rows)) for rows in products] == [a.matmul(b).rows for a, b in pairs]
    assert stacked_matmul([]) == []
