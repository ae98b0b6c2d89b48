"""The invariant suite's runner: one pass/fail rule for every check."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from screwalgebra import checks
from screwalgebra.cli import main
from screwalgebra.errors import ScrewAlgebraError

DATA = Path(__file__).parent / "data"


def test_failure_echoes_match_the_pinned_report(capsys):
    # Under an absurd tolerance most checks fail, so the report pins which
    # sample each check stops at and the text it echoes.
    assert main(["check", "--samples", "10", "--seed", "0", "--tol", "1e-30"]) == 1
    assert capsys.readouterr().out == (DATA / "check_samples10_seed0_tol1e-30.txt").read_text()


@pytest.mark.parametrize("seed", [0, 1])
def test_benchmark_budget_report_is_pinned(capsys, seed):
    # The report at the benchmark's budget, recorded before the oracle
    # checks were chunked.
    assert main(["check", "--samples", "50", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == (DATA / f"check_samples50_seed{seed}.txt").read_text()


# Each oracle check and the comparisons it yields per sample.
ORACLE_CHECKS = {
    "compose.gibbs_vs_matrix_oracle": 1,
    "compose.nonintersecting_slide_vs_oracle": 1,
    "oracle.bruteforce_vs_closed_form": 2,
}


@pytest.mark.parametrize("name", ORACLE_CHECKS)
def test_oracle_chunk_size_changes_no_comparison(monkeypatch, name):
    fn = {n: f for n, _base, f in checks.REGISTRY}[name]

    def comparisons(chunk, count):
        monkeypatch.setattr(checks, "ORACLE_CHUNK", chunk)
        return [(e, b, echo()) for e, b, echo in fn(checks._rng(5, name), count, 1.0)]

    default = checks.ORACLE_CHUNK
    for count in (3, 2 * default + 9):
        expected = comparisons(default, count)
        assert len(expected) == ORACLE_CHECKS[name] * count
        assert comparisons(1, count) == expected
        assert comparisons(7, count) == expected


# (check, library call made once per sample, the first failing echo at
# tol 1e-30, recorded when the checks called the oracle sample by sample).
RAISING = [
    (
        "compose.gibbs_vs_matrix_oracle",
        "compose_gibbs",
        "q1=(-6.741174722866053,-5.255595574058919,-0.992362530579627) "
        "q2=(-4.074082111789433,5.617259961907626,7.114409927741082) "
        "matrix deviation 2.220e-16",
    ),
    (
        "compose.nonintersecting_slide_vs_oracle",
        "nonintersecting_pair",
        "lines AxisLine(point=Vec3(x=1.4433411754161, y=1.006483554802073, "
        "z=-1.2362691618538952), dir=UnitVec3(x=-0.20646241345481436, "
        "y=-0.5660912516041208, z=0.7980688984590824))/1.0599795835502783, "
        "AxisLine(point=Vec3(x=-1.9066313597452842, y=-0.6730884856464483, "
        "z=1.3421401599684595), dir=UnitVec3(x=-0.3681289220123306, "
        "y=0.03997168193672943, z=-0.9289151529721045))/2.999609402347394: "
        "slide 1.544083101395177 vs oracle 1.5440831013951766",
    ),
    (
        "oracle.bruteforce_vs_closed_form",
        "screw_from_displacement",
        "screw #0 (theta=1e-06): oracle deviation 6.962e-12",
    ),
    (
        "oracle.bruteforce_vs_closed_form",
        "hom_from_displacement",
        "screw #0 (theta=1e-06): oracle deviation 6.962e-12",
    ),
]


@pytest.mark.parametrize("sample", [5, 130])
@pytest.mark.parametrize("name, call, echo", RAISING, ids=[call for _, call, _ in RAISING])
def test_raise_waits_for_the_earlier_samples(monkeypatch, name, call, echo, sample):
    original = getattr(checks, call)
    calls = []

    def raising(*args):
        calls.append(None)
        if len(calls) == sample + 1:
            raise ScrewAlgebraError(f"stub raised at call {len(calls)}")
        return original(*args)

    monkeypatch.setattr(checks, call, raising)
    monkeypatch.setattr(checks, "REGISTRY", [r for r in checks.REGISTRY if r[0] == name])
    [result] = checks.run_all(seed=3, samples=200)
    assert result.detail == f"unexpected error: ScrewAlgebraError: stub raised at call {sample + 1}"
    # Under an absurd tolerance an earlier sample fails first and wins.
    calls.clear()
    [result] = checks.run_all(seed=3, samples=200, tol=1e-30)
    assert result.detail == echo


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
