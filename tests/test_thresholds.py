"""The threshold table in core, the one half-turn tie-break, and the arithmetic
rules that keep results bit-identical: one length rule, no builtin sum()."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest

import screwalgebra
from screwalgebra import (
    AxisLine,
    Displacement,
    Rotation,
    Vec3,
    canonicalize_rotation,
    make_unit,
    screw_from_displacement,
)
from screwalgebra.core import ZERO

PACKAGE = Path(screwalgebra.__file__).parent

# Every threshold these modules apply is a name from core's table. oracle keeps
# its own, so that it stays independent, and checks keeps its per-check bounds.
TABLE_READERS = ("compose", "screw", "rotation", "pointfit", "infinitesimal", "cli")


def _small_floats(node: ast.AST) -> list[ast.Constant]:
    return [
        n
        for n in ast.walk(node)
        if isinstance(n, ast.Constant)
        and type(n.value) is float
        and 0.0 < abs(n.value) < 1e-5
    ]


@pytest.mark.parametrize("module", TABLE_READERS)
def test_no_threshold_literal_outside_the_table(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = [(n.lineno, n.value) for n in _small_floats(tree)]
    assert found == []


def test_core_holds_threshold_literals_only_in_its_table():
    source = (PACKAGE / "core.py").read_text()
    tree = ast.parse(source)
    table = [
        stmt
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant)
    ]
    in_table = {id(stmt.value) for stmt in table}
    stray = [(n.lineno, n.value) for n in _small_floats(tree) if id(n) not in in_table]
    assert stray == []
    lines = source.splitlines()
    # Each entry states on its own line why it has its value.
    for stmt in table:
        if _small_floats(stmt):
            assert "#" in lines[stmt.lineno - 1], stmt.targets[0].id


def _underflow_cut_reads(node: ast.AST) -> list[ast.AST]:
    return [
        n
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and n.id == "UNDERFLOW_CUT" and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute) and n.attr == "UNDERFLOW_CUT"
        or isinstance(n, ast.alias) and n.name == "UNDERFLOW_CUT"
    ]


def test_only_vec3_norm_reads_the_underflow_cut():
    # One length rule: no module takes a length its own way around Vec3.norm.
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        expected = []
        if path.stem == "core":
            (vec3,) = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Vec3")
            (norm,) = (n for n in vec3.body if isinstance(n, ast.FunctionDef) and n.name == "norm")
            expected = _underflow_cut_reads(norm)
            assert expected
        assert _underflow_cut_reads(tree) == expected, path.stem


def test_no_builtin_sum_in_the_package():
    # Since Python 3.12 sum() of floats is compensated: its bits depend on the
    # interpreter. Sums are written out left to right; math.fsum is exact.
    for path in PACKAGE.glob("*.py"):
        calls = [
            n.lineno
            for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "sum"
        ]
        assert calls == [], path.stem


# (axis direction, whether the half turn keeps it) for the shared rule: the first
# component larger than 1e-12 in size is positive.
HALF_TURN_AXES = [
    ((1.0, 0.0, 0.0), True),
    ((-1.0, 0.0, 0.0), False),
    ((0.0, -1.0, 0.0), False),
    ((0.0, 0.0, -1.0), False),
    ((-0.6, 0.8, 0.0), False),
    ((0.0, -0.6, 0.8), False),
    ((2.0, -1.0, 2.0), True),
    ((-1e-13, 1.0, 0.0), True),
    ((1e-13, -1.0, 0.0), False),
    ((-1e-13, -1e-13, -1.0), False),
    ((1e-13, 1e-13, 1.0), True),
]


@pytest.mark.parametrize("direction, kept", HALF_TURN_AXES, ids=str)
def test_half_turn_callers_pick_one_direction(direction, kept):
    axis = make_unit(Vec3(*direction))
    expected = axis if kept else -axis
    canon = canonicalize_rotation(Rotation(AxisLine(ZERO, axis), math.pi))
    screw = screw_from_displacement(Displacement(w=0.0, v=axis))
    assert canon.angle == screw.theta == math.pi
    for picked in (canon.line.dir, screw.axis.dir):
        assert picked.dot(expected) > 0.0
