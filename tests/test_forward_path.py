"""The forward path, motion file -> fold -> screw -> rotation pair: its pinned
bits and the exact text of its range errors."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from screwalgebra import GibbsVector, UnitVec3, Vec3, rodrigues_rotate, translation_as_couple
from screwalgebra.cli import main
from _motion_bits import BITS, motion_lines

# compose answers this file, but the first line of its rotation pair passes
# near 1.8e308, so conjugate_invariant overflows turning a point about it.
FAR_PAIR = "rot 2 2 1  0 0 0  30\ntrans -1e308 0 0\n"


def test_motion_fold_keeps_its_pinned_bits():
    assert motion_lines() == BITS.read_text().splitlines()


@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_vectors_refuse_non_finite_components(bad, slot):
    comps = [1.0, -2.0, 0.5]
    comps[slot] = bad
    with pytest.raises(ValueError) as info:
        Vec3(*comps)
    assert str(info.value) == f"non-finite component in {tuple(comps)}"
    unit = [0.0, 0.0, 1.0]
    unit[slot] = bad
    with pytest.raises(ValueError) as info:
        UnitVec3(*unit)
    assert str(info.value) == f"non-finite component in {tuple(unit)}"
    with pytest.raises(ValueError) as info:
        GibbsVector(*comps)
    assert str(info.value) == "non-finite component in rotation vector"


def test_vectors_take_int_and_fraction_components():
    assert Vec3(1, Fraction(1, 3), 2).y == Fraction(1, 3)
    assert UnitVec3(0, Fraction(3, 5), Fraction(4, 5)).z == Fraction(4, 5)
    assert GibbsVector(1, Fraction(1, 2), 0).n == Fraction(1, 2)


def test_rodrigues_rotate_reports_the_overflowing_sum():
    with pytest.raises(ValueError) as info:
        rodrigues_rotate(UnitVec3(0.0, 0.0, 1.0), math.pi / 4.0, Vec3(1.5e308, 1.5e308, 0.0))
    assert str(info.value) == "non-finite component in (1.99584030953472e+292, inf, 0.0)"


def test_translation_as_couple_reports_the_overflowing_arm():
    # |t| / tan(thetaB/2) overflows; m has a zero component, so inf * 0 is NaN.
    with pytest.raises(ValueError) as info:
        translation_as_couple(Vec3(1e308, 0.0, 0.0), 1e-6, 0.3)
    assert str(info.value) == "non-finite component in (nan, inf, -inf)"


def test_compose_reports_the_overflowing_fold(tmp_path, capsys):
    src = tmp_path / "m.txt"
    src.write_text("trans 1e308 0 0\ntrans 1e308 0 0\n")
    assert main(["compose", str(src)]) == 2
    assert capsys.readouterr().out == (
        "error=range\nerror.message=non-finite component in (inf, 0.0, 0.0)\n"
    )


def test_decompose_reports_an_overflowing_invariant_as_range(tmp_path, capsys):
    src = tmp_path / "m.txt"
    src.write_text(FAR_PAIR)
    assert main(["compose", str(src)]) == 0
    capsys.readouterr()
    assert main(["decompose", str(src)]) == 2
    assert capsys.readouterr().out == (
        "error=range\nerror.message=non-finite component in "
        "(3.7167992235633303e+307, 7.496714544281871e+307, inf)\n"
    )
