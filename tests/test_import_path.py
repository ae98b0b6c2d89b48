"""The library imports without numpy; numpy loads only on first use."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_numpy_stays_off_the_import_path():
    probe = _run(
        "-c",
        "import sys\n"
        "import screwalgebra, screwalgebra.cli, screwalgebra.oracle, screwalgebra.checks\n"
        "print('numpy' in sys.modules)",
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"

    # The check suite calls the oracle's and the checks' numpy paths.
    check = _run("-m", "screwalgebra.cli", "check", "--samples", "5")
    assert check.returncode == 0, check.stdout + check.stderr
    assert "checks.failed=0" in check.stdout
