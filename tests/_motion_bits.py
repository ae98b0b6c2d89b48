"""The forward path's answers on seeded motion files, as float.hex.

``motion_lines()`` gives one line per file: the folded displacement
(``cli.build_displacement``), its screw, the rotation pair of
``conjugate_pair_decompose`` and both sides of ``conjugate_invariant``. A
stage that raises ends its line with the exception's type and message.
``tests/data/motion_fold_bits.txt`` holds these lines as recorded; rewrite it
with ``PYTHONPATH=src python tests/_motion_bits.py > tests/data/motion_fold_bits.txt``
only where a change of bits is intended.

The 400 files are 260 ordinary chains of 2-16 records, 80 that mix in exact
half turns and whole turns (180, -180, 360, 540 degrees or their radian
spellings), and 60 with numbers up to 1e300, the last 20 of them up to
1.7e308, where sums and products overflow. Every fifth file is read in
radians. Only random() of a seeded random.Random draws, so every Python
from 3.10 on writes the same text. FIXED files follow: edge cases written
out, each raising at a different stage or landing on a degenerate screw.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from screwalgebra import cli
from screwalgebra.screw import (
    ScrewKind,
    conjugate_invariant,
    conjugate_pair_decompose,
    screw_from_displacement,
)

BITS = Path(__file__).parent / "data" / "motion_fold_bits.txt"
SEEDED = 400
SHARED = 50  # the files _interpreter_bits prints too
FIXED = (
    "rot 2 2 1  0 0 0  30\ntrans -1e308 0 0\n",  # the invariant's rotations overflow
    "trans 1e308 0 0\ntrans 1e308 0 0\n",
    "rot 0 0 1  1e308 1e308 0  90\n",
    "rot 0 0 1  1e308 0 0  180\n",
    "rot 0 0 1  1e307 0 0  180\ntrans 0 0 1e308\n",
    "rot 1 0 0  0 1e300 0  179.9999999\ntrans 0 0 1e300\n",
    "rot 1 1 1  0 0 0  120\nrot 1 1 1  0 0 0  -120\n",
    "rot 0 0 1  0 0 0  180\nrot 0 0 1  1 0 0  180\n",
    "rot 0 1 0  1e-300 0 2e-300  30\ntrans 1e-300 0 0\nrot 1e-11 0 0  0 0 0  45\n",
    "rot 0 0 1  0 0 0  90\ntrans 0 0 1e-13\n",
    "rot 0 0 0  0 0 0  30\n",
    "rot 1e200 1e200 1e200  0 0 0  30\ntrans 1 2 3\n",
)
COUNT = SEEDED + len(FIXED)
WHOLE_TURNS_DEG = ("180", "-180", "360", "-360", "540", "0", "720", "-540")
WHOLE_TURNS_RAD = ("3.141592653589793", "-3.141592653589793", "6.283185307179586", "0", "9.42477796076938")


def _u(rng: random.Random, a: float, b: float) -> float:
    return a + (b - a) * rng.random()


def _axis(rng: random.Random, top: float) -> list[str]:
    """Three components up to 10^top in size, not all small."""
    while True:
        d = [_u(rng, -1.0, 1.0) * 10.0 ** _u(rng, 0.0, top) for _ in range(3)]
        if max(map(abs, d)) > 1e-3:
            return [f"{c:.4g}" for c in d]


def _coord(rng: random.Random, span: tuple[float, float] | None) -> str:
    if span is None:
        return f"{_u(rng, -5.0, 5.0):.3f}"
    return f"{_u(rng, -1.0, 1.0) * 10.0 ** _u(rng, *span):.6g}"


def motion_file(index: int) -> tuple[str, bool, float, float]:
    """(text, radians, thetaB, psi) of the index-th file."""
    if index >= SEEDED:
        return FIXED[index - SEEDED], False, math.pi / 2.0, 0.0
    rng = random.Random(index)
    radians = index % 5 == 4
    if index < 260:
        span, whole_share = None, 0.0
    elif index < 340:
        span, whole_share = None, 0.4
    elif index < 380:
        span, whole_share = (0.0, 300.0), 0.2
    else:
        span, whole_share = (300.0, 308.2), 0.2
    lines = []
    for _ in range(2 + int(15 * rng.random())):
        if rng.random() < 0.75:
            if rng.random() < whole_share:
                turns = WHOLE_TURNS_RAD if radians else WHOLE_TURNS_DEG
                angle = turns[int(len(turns) * rng.random())]
            elif radians:
                angle = f"{_u(rng, -math.pi, math.pi):.6f}"
            else:
                angle = f"{_u(rng, -180.0, 180.0):.3f}"
            point = [_coord(rng, span) for _ in range(3)]
            lines.append(" ".join(["rot", *_axis(rng, 1.0 if span is None else 300.0), *point, angle]))
        else:
            lines.append(" ".join(["trans", *(_coord(rng, span) for _ in range(3))]))
    if index % 3 == 0:
        theta_b, psi = math.pi / 2.0, 0.0  # cmd_decompose's defaults
    else:
        theta_b, psi = _u(rng, 0.1, 3.0), _u(rng, -math.pi, math.pi)
    return "\n".join(lines) + "\n", radians, theta_b, psi


def _hex(*xs: float) -> str:
    return " ".join(float.hex(x) for x in xs)


def _rotation(r) -> str:
    return _hex(*r.line.point.as_tuple(), *r.line.dir.as_tuple(), r.angle)


def _stages(text: str, radians: bool, theta_b: float, psi: float):
    """Yield one field per stage of the forward path, in order."""
    records = cli.parse_motion_file(text)
    D = cli.build_displacement(records, radians)
    yield "fold " + _hex(D.w, *D.v.as_tuple(), *D.delta.as_tuple())
    S = screw_from_displacement(D)
    if S.kind is ScrewKind.IDENTITY:
        yield "screw identity"
        return
    if S.kind is ScrewKind.TRANSLATION:
        yield "screw translation " + _hex(*S.translation.as_tuple())
        return
    yield "screw general " + _hex(*S.axis.point.as_tuple(), *S.axis.dir.as_tuple(), S.theta, S.slide)
    pair = conjugate_pair_decompose(S, theta_b, psi)
    yield f"pair {pair.degenerate} {_rotation(pair.line_a)} {_rotation(pair.line_b)}"
    if not pair.degenerate:
        inv = conjugate_invariant(pair.line_a, pair.line_b)
        yield "inv " + _hex(inv.lhs, inv.rhs)


def motion_line(index: int) -> str:
    fields = []
    try:
        for field in _stages(*motion_file(index)):
            fields.append(field)
    except Exception as exc:  # the raise is the recorded answer
        fields.append(f"raise {type(exc).__name__} {str(exc)!r}")
    return " | ".join(fields)


def motion_lines(count: int = COUNT) -> list[str]:
    return [motion_line(i) for i in range(count)]


if __name__ == "__main__":
    print("\n".join(motion_lines()))
