"""Print, as float.hex, the numbers whose bits must not depend on the Python.

Run as ``PYTHONPATH=src python tests/_interpreter_bits.py``. numpy is kept
out, so any interpreter from 3.10 on can run it. The output is every
(error, bound) of each registry check at ``--samples 50``, seed 0 (a check
that needs numpy prints only its name and "numpy"), then the rows of
RotationMatrix.matmul for 200 seeded pairs of matrices, then the forward
path's answers on the first 50 motion files of _motion_bits.
"""

from __future__ import annotations

import random
import sys

sys.modules["numpy"] = None  # importing numpy raises ImportError

from screwalgebra import GibbsVector, matrix_from_gibbs  # noqa: E402
from screwalgebra.checks import REGISTRY, _rng  # noqa: E402
from screwalgebra.errors import ScrewAlgebraError  # noqa: E402
from _motion_bits import SHARED, motion_lines  # noqa: E402

SAMPLES, SEED = 50, 0


def check_lines() -> list[str]:
    lines, scale = [], SAMPLES / 10000.0
    for name, base, fn in REGISTRY:
        count = max(1, round(base * scale))  # run_all's count
        try:
            for error, bound, _ in fn(_rng(SEED, name), count, 1.0):
                lines.append(f"{name} {float(error).hex()} {float(bound).hex()}")
        except ImportError:
            lines.append(f"{name} numpy")
        except ScrewAlgebraError as exc:
            lines.append(f"{name} raised {type(exc).__name__}")
    return lines


def matmul_lines() -> list[str]:
    rng = random.Random(200)
    lines = []
    for _ in range(200):
        a, b = (
            matrix_from_gibbs(GibbsVector(*(rng.uniform(-6.0, 6.0) for _ in range(3))))
            for _ in range(2)
        )
        lines.append(" ".join(c.hex() for row in a.matmul(b).rows for c in row))
    return lines


if __name__ == "__main__":
    print("\n".join(check_lines() + matmul_lines() + motion_lines(SHARED)))
