"""Each exported exception type is raised by its documented trigger."""

from __future__ import annotations

import math

import pytest

from screwalgebra import (
    AxisLine,
    Correspondence,
    CoupleDegenerate,
    DegenerateResultant,
    GibbsOverflow,
    IntersectingAxes,
    ParallelPlanes,
    Rotation,
    Screw,
    Vec3,
    ZeroTranslation,
    conjugate_invariant,
    displacement_from_screw,
    levy_central_axis,
    make_unit,
    nonintersecting_pair,
    parallel_rotation_center,
    sine_proportionality,
    translation_as_couple,
)
from screwalgebra.core import ZERO

Z = make_unit(Vec3(0.0, 0.0, 1.0))
X = make_unit(Vec3(1.0, 0.0, 0.0))
Z_AXIS = AxisLine(ZERO, Z)

TRIGGERS = {
    # Two axes through the origin meet there.
    "meeting-axes": (
        IntersectingAxes,
        lambda: nonintersecting_pair(Rotation(Z_AXIS, 0.5), Rotation(AxisLine(ZERO, X), 0.7)),
    ),
    "zero-translation": (ZeroTranslation, lambda: translation_as_couple(ZERO, 0.5, 0.0)),
    # A turn and its inverse about one axis fold to the identity.
    "identity-resultant": (DegenerateResultant, lambda: sine_proportionality(1.0, -1.0, 0.0)),
    "cancelling-pair": (
        DegenerateResultant,
        lambda: conjugate_invariant(Rotation(Z_AXIS, 0.5), Rotation(Z_AXIS, -0.5)),
    ),
    # Both chords run along the axis direction, so neither defines a plane.
    "chords-along-axis": (
        ParallelPlanes,
        lambda: levy_central_axis(
            Correspondence(Vec3(1.0, 0.0, 0.0), Vec3(1.0, 0.0, 2.0)),
            Correspondence(Vec3(0.0, 1.0, 0.0), Vec3(0.0, 1.0, 2.0)),
            Z,
        ),
    ),
    # The planes coincide, but A and B differ only along the axis direction.
    "one-projected-point": (
        ParallelPlanes,
        lambda: levy_central_axis(
            Correspondence(Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0)),
            Correspondence(Vec3(1.0, 0.0, 5.0), Vec3(0.0, 1.0, 5.0)),
            Z,
        ),
    ),
    # The planes coincide, and B - A keeps its direction: a translation.
    "no-in-plane-turn": (
        ParallelPlanes,
        lambda: levy_central_axis(
            Correspondence(Vec3(0.0, 0.0, 0.0), Vec3(1.0, 0.0, 0.0)),
            Correspondence(Vec3(0.0, 1.0, 0.0), Vec3(1.0, 1.0, 0.0)),
            Z,
        ),
    ),
    "cancelling-angles": (
        CoupleDegenerate,
        lambda: parallel_rotation_center(
            [Z_AXIS, AxisLine(Vec3(1.0, 0.0, 0.0), Z)], [1.0, -1.0]
        ),
    ),
    # A half-turn displacement is kept, but it has no rotation vector.
    "half-turn-screw": (
        GibbsOverflow,
        lambda: displacement_from_screw(Screw.general(ZERO, Z, math.pi, 1.0)).q,
    ),
}


@pytest.mark.parametrize("name", TRIGGERS)
def test_documented_trigger_raises(name):
    expected, trigger = TRIGGERS[name]
    with pytest.raises(expected):
        trigger()
