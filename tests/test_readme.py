"""The README's examples print what the README says they print."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from screwalgebra.cli import main

README = Path(__file__).parent.parent / "README.md"


def _blocks() -> list[tuple[str, str, str]]:
    """Each fenced block of the README as (language, body, the prose before it)."""
    blocks, prose, body, lang = [], [], None, ""
    for line in README.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("```"):
            if body is None:
                lang, body = line[3:].strip(), []
            else:
                blocks.append((lang, "".join(body), "".join(prose)))
                prose, body = [], None
        elif body is None:
            prose.append(line)
        else:
            body.append(line)
    return blocks


def _examples() -> list[tuple[str, str, str]]:
    """Each block whose next block is introduced by "prints:", as (language,
    body, that next block)."""
    blocks = _blocks()
    return [
        (lang, body, after[1])
        for (lang, body, _), after in zip(blocks, blocks[1:])
        if after[2].strip().endswith("prints:")
    ]


def test_python_examples_print_what_the_readme_says():
    examples = [(body, out) for lang, body, out in _examples() if lang == "python"]
    assert len(examples) == 2
    namespace: dict = {}
    for body, want in examples:
        got = io.StringIO()
        with contextlib.redirect_stdout(got):
            exec(compile(body, str(README), "exec"), namespace)
        assert got.getvalue() == want


def test_compose_example_prints_what_the_readme_says(tmp_path, capsys):
    [(motion, want)] = [(body, out) for lang, body, out in _examples() if body.startswith("# axis")]
    path = tmp_path / "motion.txt"
    path.write_text(motion, encoding="utf-8")
    assert main(["compose", str(path)]) == 0
    assert capsys.readouterr().out == want
