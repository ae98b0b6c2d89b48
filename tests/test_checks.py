"""The invariant suite's runner: one pass/fail rule for every check."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from screwalgebra import checks
from screwalgebra.cli import main

DATA = Path(__file__).parent / "data"


def test_failure_echoes_match_the_pinned_report(capsys):
    # Under an absurd tolerance most checks fail, so the report pins which
    # sample each check stops at and the text it echoes.
    assert main(["check", "--samples", "10", "--seed", "0", "--tol", "1e-30"]) == 1
    assert capsys.readouterr().out == (DATA / "check_samples10_seed0_tol1e-30.txt").read_text()


def _skips_every_sample(rng, n, k):
    return iter(())  # every sample drawn was out of range: nothing compared


def _meets_a_nan(rng, n, k):
    for _ in range(n):
        yield 0.0, 1e-9 * k, lambda: "never echoed"
    yield math.nan, 1e-9 * k, lambda: "error is nan"


@pytest.mark.parametrize(
    "check, detail",
    [(_skips_every_sample, "no sample evaluated"), (_meets_a_nan, "error is nan")],
    ids=["skips-every-sample", "nan-error"],
)
def test_check_fails(monkeypatch, check, detail):
    monkeypatch.setattr(checks, "REGISTRY", [("stub.check", 100, check)])
    [result] = checks.run_all(seed=0, samples=10000)
    assert result == checks.CheckResult("stub.check", False, 100, detail)
