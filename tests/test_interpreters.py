"""The same bits on every supported Python: each other interpreter from 3.10 on
that is installed runs the numpy-free checks and matmul as this one does."""

from __future__ import annotations

import glob
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import screwalgebra
from _motion_bits import BITS as MOTION_BITS, SHARED

BITS = Path(__file__).parent / "_interpreter_bits.py"
SRC = Path(screwalgebra.__file__).parents[1]
PROBE = "import os, sys; print(sys.version_info >= (3, 10), os.path.realpath(sys.executable))"


def _other_interpreters() -> list[str]:
    """Every python3.1x on PATH and every pyenv 3.1x, once each, this one left out.

    A name that does not start (a pyenv shim of an inactive version) is not one.
    """
    root = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    names = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    names += sorted(glob.glob(os.path.join(root, "versions", "3.1*", "bin", "python3")))
    seen = {os.path.realpath(sys.executable)}
    found = []
    for name in filter(None, names):
        try:
            probe = subprocess.run(
                [name, "-c", PROBE], capture_output=True, text=True, timeout=60
            )
        except OSError:
            continue
        supported, real = probe.stdout.split(" ", 1) if probe.returncode == 0 else ("", "")
        if supported == "True" and real.strip() not in seen:
            seen.add(real.strip())
            found.append(name)
    return found


def _bits(python: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [python, str(BITS)], capture_output=True, text=True, env=env, timeout=300, check=True
    )
    return out.stdout.splitlines()


def test_every_interpreter_gives_the_same_bits():
    others = _other_interpreters()
    if not others:
        pytest.skip("no other Python 3.10 or later is installed")
    expected = _bits(sys.executable)
    # 22 checks run without numpy, then every matmul and motion-file line is printed.
    assert len({line.split()[0] for line in expected[:-200 - SHARED] if not line.endswith(" numpy")}) == 22
    assert expected[-SHARED:] == MOTION_BITS.read_text().splitlines()[:SHARED]
    for python in others:
        assert _bits(python) == expected, python
