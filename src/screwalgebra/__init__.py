"""Exact algebra of finite and infinitesimal rigid-body displacements.

Rotations compose through the rational half-tangent vector q = 2 tan(theta/2)
* axis. A general displacement carries Rodrigues' four parameters
(w, v) = (cos(theta/2), sin(theta/2) * axis), with w = 1 and v = q/2
wherever q exists, and the origin displacement; a half turn is kept too.
Every displacement reduces to a screw: a rotation about a central axis plus
a slide along it. The oracle module provides an independent matrix-based
verification path, and the checks module a seeded property suite.
"""

import importlib

from .core import (
    AxisLine,
    Rotation,
    UnitVec3,
    Vec3,
    angle_between,
    canonicalize_rotation,
    distance_between_lines,
    make_unit,
)
from .errors import (
    AngleAtPi,
    CollinearPoints,
    CoplanarPoints,
    CoupleDegenerate,
    DegenerateInput,
    DegenerateResultant,
    GibbsOverflow,
    IntersectingAxes,
    NonRigidData,
    ParallelPlanes,
    ParseError,
    ResultantHalfTurn,
    ScrewAlgebraError,
    TooFewPoints,
    TraceSingular,
    ZeroTranslation,
    ZeroVector,
)
from .rotation import (
    Displacement,
    GibbsVector,
    RotationMatrix,
    Twist,
    apply_displacement,
    axis_angle_from_gibbs,
    displacement_of_rotation,
    gibbs_from_axis_angle,
    gibbs_from_matrix,
    matrix_from_gibbs,
    midpoint_of,
    rodrigues_rotate,
)
from .compose import (
    Couple,
    ResultantFrame,
    SineRatios,
    ThreeAxisResult,
    compose_displacements,
    compose_gibbs,
    couple_translation,
    nonintersecting_pair,
    order_swap_axis,
    resultant_trig,
    sine_proportionality,
    three_axis_resultant,
    translation_as_couple,
)
from .screw import (
    AbsoluteTranslation,
    ConjugatePair,
    InvariantSides,
    Screw,
    ScrewKind,
    absolute_translation,
    conjugate_invariant,
    conjugate_pair_decompose,
    displaced_line_angle,
    displacement_from_screw,
    euler_fixed_axis,
    levy_central_axis,
    screw_from_displacement,
)
from .pointfit import (
    Correspondence,
    RigidityReport,
    check_rigidity,
    fit_displacement,
)

# The twist layer, the oracle and the checks run in none of compose,
# decompose and fit; their exports load with the module on first use.
_LAZY = {
    **dict.fromkeys(
        (
            "PointForce",
            "compose_twists",
            "force_equilibrium",
            "parallel_rotation_center",
            "rotation_moment",
            "twist_equilibrium",
            "twist_field",
            "twist_of_rotation",
            "virtual_work",
        ),
        "infinitesimal",
    ),
    **dict.fromkeys(
        (
            "HomTransform",
            "gibbs_by_midpoint_elimination",
            "hom_compose",
            "hom_from_displacement",
            "hom_from_rotation",
            "hom_from_translation",
            "screw_from_hom_bruteforce",
            "screws_from_homs",
        ),
        "oracle",
    ),
    **dict.fromkeys(("CheckResult", "run_all"), "checks"),
}


def __getattr__(name: str):
    module_name = _LAZY.get(name, name)
    if module_name not in _LAZY.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{module_name}")
    return getattr(module, name) if name in _LAZY else module


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})


__version__ = "0.1.0"

__all__ = [
    "AbsoluteTranslation",
    "AngleAtPi",
    "AxisLine",
    "CheckResult",
    "CollinearPoints",
    "ConjugatePair",
    "CoplanarPoints",
    "Correspondence",
    "Couple",
    "CoupleDegenerate",
    "DegenerateInput",
    "DegenerateResultant",
    "Displacement",
    "GibbsOverflow",
    "GibbsVector",
    "HomTransform",
    "IntersectingAxes",
    "InvariantSides",
    "NonRigidData",
    "ParallelPlanes",
    "ParseError",
    "PointForce",
    "ResultantFrame",
    "ResultantHalfTurn",
    "RigidityReport",
    "Rotation",
    "RotationMatrix",
    "Screw",
    "ScrewAlgebraError",
    "ScrewKind",
    "SineRatios",
    "ThreeAxisResult",
    "TooFewPoints",
    "TraceSingular",
    "Twist",
    "UnitVec3",
    "Vec3",
    "ZeroTranslation",
    "ZeroVector",
    "absolute_translation",
    "angle_between",
    "apply_displacement",
    "axis_angle_from_gibbs",
    "canonicalize_rotation",
    "check_rigidity",
    "compose_displacements",
    "compose_gibbs",
    "compose_twists",
    "conjugate_invariant",
    "conjugate_pair_decompose",
    "couple_translation",
    "displaced_line_angle",
    "displacement_from_screw",
    "displacement_of_rotation",
    "distance_between_lines",
    "euler_fixed_axis",
    "fit_displacement",
    "force_equilibrium",
    "gibbs_by_midpoint_elimination",
    "gibbs_from_axis_angle",
    "gibbs_from_matrix",
    "hom_compose",
    "hom_from_displacement",
    "hom_from_rotation",
    "hom_from_translation",
    "levy_central_axis",
    "make_unit",
    "matrix_from_gibbs",
    "midpoint_of",
    "nonintersecting_pair",
    "order_swap_axis",
    "parallel_rotation_center",
    "resultant_trig",
    "rodrigues_rotate",
    "rotation_moment",
    "run_all",
    "screw_from_displacement",
    "screw_from_hom_bruteforce",
    "screws_from_homs",
    "sine_proportionality",
    "three_axis_resultant",
    "translation_as_couple",
    "twist_equilibrium",
    "twist_field",
    "twist_of_rotation",
    "virtual_work",
]
