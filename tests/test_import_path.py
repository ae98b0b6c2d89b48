"""The library imports without numpy; numpy loads only on first use."""

from __future__ import annotations

import ast
import importlib
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


def test_half_turn_reports_do_not_load_numpy(tmp_path):
    # A half turn has no rotation vector; its screw comes from Rodrigues'
    # parameters, not from the numpy oracle.
    src = tmp_path / "half-turn.txt"
    src.write_text("rot 0 0 1  1 2 0  180\ntrans 0 0 3\n")
    plain = tmp_path / "quarter-turn.txt"
    plain.write_text("rot 0 0 1  1 2 0  90\ntrans 0 0 3\n")
    points = tmp_path / "points.csv"
    points.write_text("0,0,0,1,0,0\n1,0,0,1,1,0\n0,1,0,0,0,0\n0,0,1,1,0,1\n")
    runs = [
        (command, str(path))
        for path in (src, plain)
        for command in ("compose", "decompose")
    ] + [("fit", str(points))]
    probe = _run(
        "-c",
        "import contextlib, io, sys\n"
        "from screwalgebra.cli import main\n"
        f"codes = [main(list(run)) for run in {runs!r}]\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'screwalgebra')\n"
        "print(*codes, 'numpy' in sys.modules, 'hashlib' in sys.modules, *loaded)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['check', '--samples', '5'])\n"
        "print('screwalgebra.checks' in sys.modules)",
    )
    assert probe.returncode == 0, probe.stderr
    first, checked = probe.stdout.splitlines()[-2:]
    # The three rational subcommands load neither the oracle, nor the checks
    # and their hashlib, nor the twist layer.
    assert first.split() == [
        "3", "3", "0", "0", "0", "False", "False",
        "screwalgebra",
        "screwalgebra.cli",
        "screwalgebra.compose",
        "screwalgebra.core",
        "screwalgebra.errors",
        "screwalgebra.pointfit",
        "screwalgebra.rotation",
        "screwalgebra.screw",
    ]
    assert checked == "True"


LAZY_EXPORTS = """
import importlib, sys
import screwalgebra

lazy = {"screwalgebra.infinitesimal", "screwalgebra.oracle", "screwalgebra.checks"}
assert not lazy & set(sys.modules)
# dir() lists every export without loading its module.
assert {*screwalgebra.__all__, "infinitesimal", "oracle", "checks"} <= set(dir(screwalgebra))
assert not lazy & set(sys.modules)

for name in screwalgebra.__all__:
    value = getattr(screwalgebra, name)
    assert getattr(importlib.import_module(value.__module__), name) is value, name
assert lazy <= set(sys.modules)

namespace = {}
exec("from screwalgebra import *", namespace)
assert {name: namespace[name] for name in screwalgebra.__all__} == {
    name: getattr(screwalgebra, name) for name in screwalgebra.__all__
}

from screwalgebra import checks, oracle
assert checks is sys.modules["screwalgebra.checks"]
assert oracle is sys.modules["screwalgebra.oracle"]

try:
    screwalgebra.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown attribute resolved")
print("ok")
"""


def test_lazy_exports_resolve_to_their_modules():
    # The twist layer, the oracle and the checks load on first use; every
    # export still resolves to the object its module defines.
    probe = _run("-c", LAZY_EXPORTS)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "ok"


def test_numpy_is_imported_only_by_the_oracle_and_the_checks():
    package = SRC / "screwalgebra"
    importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"oracle.py", "checks.py"}


def _package_imports(path: Path) -> dict[str, set[str]]:
    """The package modules a source file imports, each with the names taken
    from it (an empty set for the module itself)."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            for alias in node.names:
                found.setdefault(alias.name, set())
        elif isinstance(node, ast.ImportFrom) and (node.level == 1 or node.module.startswith("screwalgebra.")):
            found.setdefault(node.module.rpartition(".")[2], set()).update(
                alias.name for alias in node.names
            )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("screwalgebra."):
                    found.setdefault(alias.name.rpartition(".")[2], set())
    return found


def test_the_oracle_stays_independent():
    package = SRC / "screwalgebra"
    imports = {path.stem: _package_imports(path) for path in package.glob("*.py")}
    # No library answer is computed by the oracle.
    for module in set(imports) - {"__init__", "oracle", "checks", "cli"}:
        assert "oracle" not in imports[module], module
    # The CLI takes from it only what build_hom needs.
    assert imports["cli"]["oracle"] == {
        "HomTransform",
        "IDENTITY_HOM",
        "hom_compose",
        "hom_from_rotation",
        "hom_from_translation",
    }
    # The oracle takes from the library only value and error types, no formula.
    for module, names in imports["oracle"].items():
        source = importlib.import_module(f"screwalgebra.{module}")
        for name in names:
            assert isinstance(getattr(source, name), type), f"{module}.{name}"
