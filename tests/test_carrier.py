"""The rotation carrier: Rodrigues' parameters (w, v) inside Displacement."""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from screwalgebra import (
    DegenerateInput,
    Displacement,
    GibbsOverflow,
    GibbsVector,
    ResultantHalfTurn,
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
from screwalgebra.compose import _product
from screwalgebra.core import AT_PI_CUT, ZERO_CUT, ZERO
from screwalgebra.oracle import hom_compose, hom_from_displacement, screw_from_hom_bruteforce
from _util import mnp, xyz

DISPLACEMENT_BITS = Path(__file__).parent / "data" / "compose_displacements_bits.txt"


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


def _pinned_displacement_pairs() -> list[tuple[Displacement, Displacement]]:
    """2000 seeded pairs with |v| and |delta| from about 1e-6 to 1e6, a fifth
    of the factors in half-turn form; 200 pairs with |v| from about 1e-150
    to 1e150; then 200 pairs with v1.v2 within 1.25e-13 of 1, whose product
    is a half turn.

    Built from uniform draws, ldexp, sqrt and correctly rounded arithmetic
    only, so the pairs are the same on every Python.
    """
    rng = random.Random(2001)

    def draw(low: int = -20, high: int = 20) -> Vec3:
        scale = math.ldexp(1.0, rng.randint(low, high))
        return Vec3(*(rng.uniform(-1.0, 1.0) * scale for _ in range(3)))

    def factor() -> Displacement:
        v, delta = draw(), draw()
        if rng.random() < 0.2:
            # |w| < 0.5e-12 |v|: Displacement scales (w, v) to half-turn form.
            big = max(abs(v.x), abs(v.y), abs(v.z))
            return Displacement(w=rng.choice((0.0, rng.uniform(-0.5e-12, 0.5e-12) * big)), v=v, delta=delta)
        return Displacement(w=1.0, v=v, delta=delta)

    pairs = [(factor(), factor()) for _ in range(2000)]
    pairs += [
        (Displacement(w=1.0, v=draw(-500, 500), delta=draw()), Displacement(w=1.0, v=draw(-500, 500), delta=draw()))
        for _ in range(200)
    ]
    for _ in range(200):
        a, c = draw(), draw()
        aa = a.dot(a)
        # v2 = (1 + e) v1 / |v1|^2 plus a part across v1: v1.v2 = 1 + e.
        across = a.cross(c)
        k = rng.uniform(0.0, 10.0) / (math.sqrt(across.dot(across)) * math.sqrt(aa))
        b = a * ((1.0 + rng.uniform(-1.25e-13, 1.25e-13)) / aa) + across * k
        pairs.append((Displacement(w=1.0, v=a, delta=draw()), Displacement(w=1.0, v=b, delta=draw())))
    return pairs


def _compose_displacements_line(D1: Displacement, D2: Displacement) -> str:
    """compose_displacements's w, v and delta as float.hex, or the name of
    what it raised."""
    try:
        C = compose_displacements(D1, D2)
    except Exception as exc:
        return type(exc).__name__
    return " ".join(float.hex(c) for c in (C.w, *xyz(C.v), *xyz(C.delta)))


def test_compose_displacements_keeps_its_pinned_bits():
    # Recorded before compose_displacements shared compose_gibbs's scaling
    # of an overflowing product; none of these products overflows.
    lines = [_compose_displacements_line(D1, D2) for D1, D2 in _pinned_displacement_pairs()]
    assert lines == DISPLACEMENT_BITS.read_text().splitlines()
    assert all(float.fromhex(line.split()[0]) < AT_PI_CUT for line in lines[2200:])


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


@pytest.mark.parametrize("w, v", [(0.0, ZERO), (0.0, Vec3(1.5e308, 1.5e308, 0.0))])
def test_parameters_without_a_scale_are_rejected(w, v):
    # The length of (w, v) is 0, or past the largest float: neither has a
    # half-turn form.
    with pytest.raises(DegenerateInput, match="no scale"):
        Displacement(w=w, v=v)


def test_half_turn_parameters_too_long_to_square_are_scaled():
    # w^2 + |v|^2 overflows, but the length 1e200 is a float: a half turn about +x.
    D = Displacement(w=0.0, v=Vec3(1e200, 0.0, 0.0))
    assert (D.w, xyz(D.v)) == (0.0, (1.0, 0.0, 0.0))
    D = Displacement(w=-1e-13, v=Vec3(0.0, -3e200, 4e200))
    assert D.w == pytest.approx(2e-214, rel=1e-15)
    assert xyz(D.v) == pytest.approx((0.0, 0.6, -0.8), rel=1e-15)


@pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan])
def test_non_finite_w_is_out_of_range(w):
    with pytest.raises(ValueError, match="non-finite"):
        Displacement(w=w, v=Vec3(1.0, 0.0, 0.0))


def test_product_whose_w_overflows_is_scaled():
    # v1.v2 = 4e307 overflows w to -inf while the vector part stays finite.
    # The product scales its factors, as compose_gibbs does: an 11.4 degree turn.
    D1 = Displacement(GibbsVector(4e154, 0.0, 0.0), Vec3(1.0, 2.0, 3.0))
    D2 = Displacement(GibbsVector(4e154, 4e153, 0.0), Vec3(-2.0, 0.5, 1.0))
    C = compose_displacements(D1, D2)
    assert mnp(C.q) == mnp(compose_gibbs(D1.q, D2.q))
    assert mnp(C.q) == pytest.approx((-2e-154, -1e-155, 0.2), rel=1e-12)
    got = screw_from_displacement(C)
    want = screw_from_hom_bruteforce(hom_compose(hom_from_displacement(D1), hom_from_displacement(D2)))
    assert got.theta == pytest.approx(want.theta, abs=1e-12)
    assert xyz(got.axis.dir) == pytest.approx(xyz(want.axis.dir), abs=1e-12)
    assert xyz(got.axis.point) == pytest.approx(xyz(want.axis.point), abs=1e-9)
    assert got.slide == pytest.approx(want.slide, abs=1e-9)


def _overflow_pairs(seed: int, count: int) -> list[tuple[GibbsVector, GibbsVector]]:
    """count seeded pairs with |q| log-uniform in [1e-20, 1e300]. In a third
    of them q1.q2 is within 1e-11 of 4, so the product is near a half turn;
    half of those have q1 in the xy-plane and the rest of q2 along z, so that
    q1.q2 rounds no further than its first two terms, however long q2 is.
    No component is subnormal: Displacement(q) halves q, which can round one.
    """
    rng = random.Random(seed)

    def size() -> float:
        return 10.0 ** rng.uniform(-20.0, 300.0)

    def direction(z: float = 1.0) -> Vec3:
        return make_unit(Vec3(rng.gauss(0, 1), rng.gauss(0, 1), z * rng.gauss(0, 1)))

    pairs = []
    while len(pairs) < count:
        if rng.random() < 2.0 / 3.0:
            q1, q2 = direction() * size(), direction() * size()
        else:
            flat = rng.random() < 0.5
            u = direction(0.0 if flat else 1.0)
            q1 = u * size()
            across = Vec3(0.0, 0.0, 1.0) if flat else make_unit(u.cross(direction()))
            along = (4.0 + rng.uniform(-1e-11, 1e-11)) / q1.norm() / q1.norm()
            q2 = q1 * along + across * size()
        if all(c == 0.0 or abs(c) >= sys.float_info.min for c in (*xyz(q1), *xyz(q2))):
            pairs.append((GibbsVector.from_vec3(q1), GibbsVector.from_vec3(q2)))
    return pairs


def _gibbs_outcome(q1: GibbsVector, q2: GibbsVector):
    try:
        return mnp(compose_gibbs(q1, q2))
    except ResultantHalfTurn:
        return "half turn"
    except ValueError:
        return "out of range"


def _displacement_outcome(q1: GibbsVector, q2: GibbsVector):
    try:
        C = compose_displacements(Displacement(q1), Displacement(q2))
        if C.w != 1.0:
            assert 0.0 <= C.w < AT_PI_CUT
            return "half turn"
        return mnp(C.q)
    except ValueError:
        return "out of range"
    except DegenerateInput:
        return "no scale"


def test_one_overflow_rule_for_both_composers():
    # Exactly one holds for each pair: compose_displacements gives
    # compose_gibbs's bits; or the product is in half-turn form where
    # compose_gibbs raises ResultantHalfTurn; or both are out of range.
    pairs = _overflow_pairs(14, 20000)
    outcomes = [_gibbs_outcome(q1, q2) for q1, q2 in pairs]
    disagree = [(q1, q2) for (q1, q2), want in zip(pairs, outcomes) if _displacement_outcome(q1, q2) != want]
    assert len(disagree) == 0, disagree[:3]
    # Each outcome is drawn, with the product scaled and without.
    drawn = Counter(
        (want if isinstance(want, str) else "answer", _product(2.0, *mnp(q1), 2.0, *mnp(q2))[4] > 0)
        for (q1, q2), want in zip(pairs, outcomes)
    )
    assert len(drawn) == 6 and min(drawn.values()) >= 30, drawn


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
