"""Recovering a displacement from tracked point correspondences."""

from __future__ import annotations

import math
import random

import pytest

from screwalgebra import (
    CollinearPoints,
    CoplanarPoints,
    Correspondence,
    Displacement,
    GibbsVector,
    NonRigidData,
    RigidityReport,
    TooFewPoints,
    TraceSingular,
    Vec3,
    apply_displacement,
    check_rigidity,
    fit_displacement,
    gibbs_by_midpoint_elimination,
    make_unit,
    rodrigues_rotate,
    screw_from_displacement,
)
from _util import mnp, xyz

# A quarter turn about the z-axis followed by a unit lift along it.
LIFT_TURN = [
    Correspondence(Vec3(0, 0, 0), Vec3(0, 0, 1)),
    Correspondence(Vec3(1, 0, 0), Vec3(0, 1, 1)),
    Correspondence(Vec3(0, 1, 0), Vec3(-1, 0, 1)),
]


class TestFitDisplacement:
    def test_recovers_quarter_turn_with_lift(self):
        d = fit_displacement(*LIFT_TURN)
        assert mnp(d.q) == pytest.approx((0.0, 0.0, 2.0), abs=1e-12)
        assert xyz(d.delta) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_predicts_a_fourth_point(self):
        d = fit_displacement(*LIFT_TURN)
        assert xyz(apply_displacement(d, Vec3(2, 2, 0))) == pytest.approx(
            (-2.0, 2.0, 1.0), abs=1e-12
        )

    def test_identity_data(self):
        d = fit_displacement(
            Correspondence(Vec3(1, 2, 3), Vec3(1, 2, 3)),
            Correspondence(Vec3(4, 5, 6), Vec3(4, 5, 6)),
            Correspondence(Vec3(7, 8, 10), Vec3(7, 8, 10)),
        )
        assert mnp(d.q) == (0.0, 0.0, 0.0)
        assert xyz(d.delta) == (0.0, 0.0, 0.0)

    def test_random_roundtrip(self):
        rng = random.Random(47)
        for _ in range(100):
            axis = make_unit(Vec3(*(rng.gauss(0, 1) for _ in range(3))))
            theta = rng.uniform(-2.8, 2.8)
            q = GibbsVector.from_vec3(axis * (2.0 * math.tan(theta / 2)))
            delta = Vec3(*(rng.uniform(-2, 2) for _ in range(3)))
            truth = Displacement(q, delta)
            base = [
                Vec3(*(rng.uniform(-3, 3) for _ in range(3))) for _ in range(3)
            ]
            area = (base[1] - base[0]).cross(base[2] - base[0]).norm()
            if area < 0.5:
                continue
            corrs = [
                Correspondence(b, apply_displacement(truth, b)) for b in base
            ]
            fitted = fit_displacement(*corrs)
            assert mnp(fitted.q) == pytest.approx(mnp(q), rel=1e-8, abs=1e-8)
            assert xyz(fitted.delta) == pytest.approx(
                xyz(delta), rel=1e-8, abs=1e-8
            )

    def test_collinear_base_points_rejected(self):
        with pytest.raises(CollinearPoints):
            fit_displacement(
                Correspondence(Vec3(0, 0, 0), Vec3(0, 0, 0)),
                Correspondence(Vec3(1, 0, 0), Vec3(1, 0, 0)),
                Correspondence(Vec3(2, 0, 0), Vec3(2, 0, 0)),
            )

    def test_non_rigid_data_rejected(self):
        with pytest.raises(NonRigidData):
            fit_displacement(
                Correspondence(Vec3(0, 0, 0), Vec3(0, 0, 0)),
                Correspondence(Vec3(1, 0, 0), Vec3(2, 0, 0)),
                Correspondence(Vec3(0, 1, 0), Vec3(0, 1, 0)),
            )


class TestMidpointElimination:
    def test_agrees_with_frame_fit(self):
        alt = gibbs_by_midpoint_elimination(*LIFT_TURN)
        assert mnp(alt.q) == pytest.approx((0.0, 0.0, 2.0), abs=1e-10)
        assert xyz(alt.delta) == pytest.approx((0.0, 0.0, 1.0), abs=1e-10)

    def test_agrees_on_random_motions(self):
        rng = random.Random(53)
        for _ in range(50):
            axis = make_unit(Vec3(*(rng.gauss(0, 1) for _ in range(3))))
            theta = rng.uniform(-2.5, 2.5)
            point = Vec3(*(rng.uniform(-2, 2) for _ in range(3)))
            delta = point - rodrigues_rotate(axis, theta, point)
            q = GibbsVector.from_vec3(axis * (2.0 * math.tan(theta / 2)))
            truth = Displacement(q, delta)
            base = [
                Vec3(*(rng.uniform(-3, 3) for _ in range(3))) for _ in range(3)
            ]
            if (base[1] - base[0]).cross(base[2] - base[0]).norm() < 0.5:
                continue
            corrs = [
                Correspondence(b, apply_displacement(truth, b)) for b in base
            ]
            a = fit_displacement(*corrs)
            b = gibbs_by_midpoint_elimination(*corrs)
            assert mnp(a.q) == pytest.approx(mnp(b.q), rel=1e-9, abs=1e-9)
            assert xyz(a.delta) == pytest.approx(
                xyz(b.delta), rel=1e-9, abs=1e-9
            )


class TestCheckRigidity:
    TET = [
        Correspondence(Vec3(0, 0, 0), Vec3(0, 0, 0)),
        Correspondence(Vec3(1, 0, 0), Vec3(1, 0, 0)),
        Correspondence(Vec3(0, 1, 0), Vec3(0, 1, 0)),
        Correspondence(Vec3(0, 0, 1), Vec3(0, 0, 1)),
    ]

    def test_rigid_tetrahedron(self):
        report = check_rigidity(self.TET)
        assert report.rigid and report.proper

    def test_mirrored_tetrahedron_is_improper(self):
        mirrored = self.TET[:3] + [
            Correspondence(Vec3(0, 0, 1), Vec3(0, 0, -1))
        ]
        report = check_rigidity(mirrored)
        assert report.rigid
        assert not report.proper

    def test_stretched_data_is_not_rigid(self):
        stretched = [
            Correspondence(Vec3(0, 0, 0), Vec3(0, 0, 0)),
            Correspondence(Vec3(1, 0, 0), Vec3(2, 0, 0)),
            Correspondence(Vec3(0, 1, 0), Vec3(0, 1, 0)),
            Correspondence(Vec3(0, 0, 1), Vec3(0, 0, 1)),
        ]
        assert not check_rigidity(stretched).rigid

    def test_too_few_points_rejected(self):
        with pytest.raises(TooFewPoints):
            check_rigidity(self.TET[:3])

    def test_coplanar_points_rejected(self):
        flat = self.TET[:3] + [Correspondence(Vec3(1, 1, 0), Vec3(1, 1, 0))]
        with pytest.raises(CoplanarPoints):
            check_rigidity(flat)


# ---------------------------------------------------------------------------
# Edge inputs: which exception each kernel raises.
#
# Each case lists four tracked points; fit_displacement sees the first three
# and check_rigidity all of them. The expected outcome is an exception type,
# or the type of the value returned. Overflowing and underflowing coordinates
# are where a kernel on bare floats can drift from one on Vec3, whose
# constructor rejects a non-finite component.


def _corrs(pairs):
    return [Correspondence(Vec3(*b), Vec3(*a)) for b, a in pairs]


def _same(points):
    return _corrs([(p, p) for p in points])


def _half_turn_z(points):
    return _corrs([(p, (-p[0], -p[1], p[2])) for p in points])


BIG, TINY = 1e200, 1e-200
TET = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]


def _tetrahedron(size):
    return [(size, -size, size), (-size, size, size), (size, size, -size), (-size, -size, -size)]


def _mirrored(points):
    return _corrs([(p, (p[0], p[1], -p[2])) for p in points])


# name -> (points, what fit_displacement does, what check_rigidity does)
CASES = {
    # Differences of 2e308 overflow.
    "huge": (_same(_tetrahedron(1e308)), ValueError, ValueError),
    "huge-mirrored": (_mirrored(_tetrahedron(1e308)), ValueError, ValueError),
    # Squared differences overflow; the distances, taken by hypot, do not.
    "large": (_same(_tetrahedron(BIG)), Displacement, RigidityReport),
    "large-mirrored": (_mirrored(_tetrahedron(BIG)), Displacement, RigidityReport),
    # Squared differences underflow; the distances are taken by hypot, and
    # the fit measures its edges in units of the spread.
    "tiny": (_same(_tetrahedron(TINY)), Displacement, RigidityReport),
    # A subnormal spread: its edge unit 2^1029 would overflow, so it is capped.
    "subnormal": (
        _same([tuple(c * 1e-310 for c in p) for p in TET]), Displacement, RigidityReport
    ),
    "coincident": (_same([(1.0, 2.0, 3.0)] * 4), CollinearPoints, CoplanarPoints),
    "collinear": (
        _same([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (3.0, 3.0, 3.0)]),
        CollinearPoints,
        CoplanarPoints,
    ),
    "coplanar": (
        _same([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)]),
        Displacement,
        CoplanarPoints,
    ),
    # A base edge of 1e-13 on a 1e-6 triangle: the frame's short-edge cut
    # is measured in units of the spread, so the edge is long enough.
    "short-edge": (
        _same([(0.0, 0.0, 0.0), (1e-13, 0.0, 0.0), (0.0, 1e-6, 0.0), (0.0, 0.0, 1e-6)]),
        Displacement,
        RigidityReport,
    ),
    "half-turn": (_half_turn_z(TET), TraceSingular, RigidityReport),
    # The volume, 1e330, overflows; measured in units of the spread it does not.
    "wide": (
        _same([tuple(c * 1e110 for c in p) for p in TET]), Displacement, RigidityReport
    ),
    # Only the difference of two base points overflows.
    "overflowing-before": (
        _corrs(zip([TET[0], (1e308, 0.0, 0.0), (-1e308, 1.0, 0.0), TET[3]], TET)),
        ValueError,
        ValueError,
    ),
    # The first after-difference overflows; every before-distance is finite.
    "overflowing-after": (
        _corrs(
            [
                ((0.0, 0.0, 0.0), (1e308, 0.0, 0.0)),
                ((1.0, 0.0, 0.0), (-1e308, 0.0, 0.0)),
                ((0.0, 1.0, 0.0), (0.0, 1.0, 0.0)),
                ((0.0, 0.0, BIG), (0.0, 0.0, 1e308)),
                ((0.0, 0.0, -BIG), (0.0, 0.0, -1e308)),
            ]
        ),
        ValueError,
        ValueError,
    ),
}


def _outcome(call):
    try:
        return type(call())
    except Exception as exc:  # the type is what is compared
        return type(exc)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fit_displacement_outcome(name):
    corrs, expected, _ = CASES[name]
    assert _outcome(lambda: fit_displacement(*corrs[:3])) is expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_rigidity_outcome(name):
    corrs, _, expected = CASES[name]
    assert _outcome(lambda: check_rigidity(corrs)) is expected


def test_overflow_reports_the_non_finite_component():
    corrs = CASES["huge"][0]
    with pytest.raises(ValueError, match="non-finite component"):
        fit_displacement(*corrs[:3])
    with pytest.raises(ValueError, match="non-finite component"):
        check_rigidity(corrs)


@pytest.mark.parametrize(
    "name, rigid",
    [("coincident", False), ("collinear", True), ("coplanar", True)],
)
def test_coplanar_carries_the_rigid_verdict(name, rigid):
    with pytest.raises(CoplanarPoints) as info:
        check_rigidity(CASES[name][0])
    assert info.value.rigid is rigid


def test_rigidity_verdicts_of_the_regular_cases():
    assert check_rigidity(CASES["short-edge"][0]) == RigidityReport(rigid=True, proper=True)
    assert check_rigidity(CASES["half-turn"][0]) == RigidityReport(rigid=True, proper=True)
    assert check_rigidity(CASES["wide"][0]) == RigidityReport(rigid=True, proper=True)
    assert check_rigidity(CASES["large"][0]) == RigidityReport(rigid=True, proper=True)
    assert check_rigidity(CASES["large-mirrored"][0]) == RigidityReport(rigid=True, proper=False)


def test_tiny_tetrahedron_is_rigid_not_coplanar():
    # Every pairwise distance of the 1e-200 tetrahedron underflows when squared;
    # taken by hypot, it keeps its volume and its verdict.
    assert check_rigidity(CASES["tiny"][0]) == RigidityReport(rigid=True, proper=True)


@pytest.mark.parametrize("size", [1e-200, 1e-310])
def test_tiny_quarter_turn_is_recovered(size):
    # A quarter turn about z and a lift on a triangle of the given size: every
    # square of a coordinate difference underflows, and 1e-310 is subnormal.
    base = [(0.0, 0.0, 0.0), (size, 0.0, 0.0), (0.0, 2.0 * size, 0.0)]
    corrs = _corrs(((x, y, z), (-y, x, z + 3.0 * size)) for x, y, z in base)
    fit = fit_displacement(*corrs)
    assert mnp(fit.q) == pytest.approx((0.0, 0.0, 2.0), abs=1e-12)
    assert xyz(fit.delta) == pytest.approx((0.0, 0.0, 3.0 * size), abs=1e-12 * size)


def test_half_turn_message():
    with pytest.raises(TraceSingular, match=r"1 \+ trace = .*half turn"):
        fit_displacement(*CASES["half-turn"][0][:3])


def test_overflowing_midpoint_sum_raises():
    # Rigid (identity) data near the top of the float range: the frames, the
    # rotation and delta are finite, but a chord-check midpoint sum is not.
    corrs = _same([(1e308, 0.0, 0.0), (1e308, 1e150, 0.0), (1e308, 0.0, 1e150)])
    with pytest.raises(ValueError, match="non-finite component"):
        fit_displacement(*corrs)


# ---------------------------------------------------------------------------
# Pinned results: fit_displacement and screw_from_displacement on fixed
# inputs, compared with == to the values the Vec3-based implementation
# (before the kernels were written on bare floats) returned. Any change in
# the order or grouping of the float operations shows up here.

# name -> (before/after pairs, q, delta, (axis point, axis direction, theta, slide))
PINNED = {
    "generic": (
        [
            ((0.0, 0.0, 0.0), (0.5, -0.25, 2.0)),
            ((1.0, 0.0, 0.0), (0.992624969895179, 0.5426132544937405, 1.64071617370578)),
            ((0.0, 1.0, 0.0), (-0.13649786061533398, 0.3597115153039838, 2.472358276669122)),
        ],
        (0.327718521452738, 0.655437042905476, 0.9831555643582139),
        (0.5, -0.25, 2.0),
        (
            (1.0710104074644398, -0.6625499677030238, 0.08469650931386918),
            (0.2672612419124244, 0.5345224838248488, 0.8017837257372732),
            1.1,
            1.6035674514745464,
        ),
    ),
    "offset-large": (
        [
            ((1000.0, -200.0, 50.0), (678.233003025149, 178.43232762659136, -709.500157762998)),
            ((1250.0, -180.0, 75.0), (804.3919996312454, 188.95031428497197, -927.4411578799956)),
            ((990.0, 30.0, -40.0), (566.8316114680259, -29.505937212317114, -783.3338084577898)),
        ],
        (-3.900857679169198, 0.9752144197922992, 1.950428839584599),
        (-29.999999999999773, 12.5, 6.999999999999886),
        (
            (-1.9265466349750824, 1.1993668288274026, -4.452776684363856),
            (-0.8728715609439694, 0.21821789023599228, 0.4364357804719847),
            2.3000000000000003,
            31.968920919572632,
        ),
    ),
    "small-angle": (
        [
            ((0.1, 0.2, 0.3), (0.1007999500333375, 0.20009989998334166, 0.298)),
            ((1.3, -0.4, 0.2), (1.3013993499333874, -0.39869980021668333, 0.198)),
            ((-0.5, 0.9, 1.1), (-0.49989974985002084, 0.8994995500833708, 1.098)),
        ],
        (-1.6653349532714385e-16, 6.938895638630993e-17, 0.001000000083333487),
        (0.0010000000000000009, -8.326672684688674e-17, -0.0019999999999999463),
        (
            (0.0004999999999443228, 0.9999999166661879, -6.93056723122254e-14),
            (-1.6653348144932812e-13, 6.938895060388671e-14, 1.0),
            0.0010000000000001453,
            -0.002000000000000113,
        ),
    ),
    "near-half-turn": (
        [
            ((2.0, 1.0, 0.0), (-1.111443666611176, 2.1117784998888287, 0.4464443330000093)),
            ((-1.0, 3.0, 0.5), (-2.3346663331111386, 4.332667333444388, -2.165332666888944)),
            ((0.5, -2.0, 1.5), (2.388555083388928, 3.1102775001389125, -0.05655516650003278)),
        ],
        (2666.666444486078, -2666.666444486078, 1333.3332222433721),
        (0.0, 4.0, 1.1102230246251565e-16),
        (
            (0.8885555555277337, 1.1111111111111605, 0.4451111111667427),
            (0.6666666666666482, -0.6666666666666482, 0.33333333333340737),
            3.1405926535898088,
            -2.666666666666593,
        ),
    ),
    # The third after-point is moved by 1e-8, so the rigidity defect enters
    # the chord-equation bound.
    "noisy": (
        [
            ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
            ((3.0, 0.0, 0.0), (3.345320649400016, -0.6608919991033437, 0.13923939517866724)),
            ((0.0, 4.0, 0.0), (3.3951238756366378, 4.179769559248296, 1.3904449893903095)),
        ],
        (0.19589484897799367, 0.2611931283236057, -0.6529828228894273),
        (1.0, 1.0, 1.0),
        (
            (2.2512059119755072, -1.044691209772373, 0.25748529829346056),
            (0.2683281600929751, 0.35777087512839445, -0.8944271906706446),
            0.7000000005895844,
            -0.268328155449275,
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_fit_and_screw(name):
    pairs, q, delta, (point, direction, theta, slide) = PINNED[name]
    D = fit_displacement(*_corrs(pairs))
    assert (D.q.m, D.q.n, D.q.p) == q
    assert D.delta.as_tuple() == delta
    S = screw_from_displacement(D)
    assert S.axis.point.as_tuple() == point
    assert S.axis.dir.as_tuple() == direction
    assert (S.theta, S.slide) == (theta, slide)
