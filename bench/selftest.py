"""Quick self-test of the benchmark itself (about two minutes).

Usage (from the root of a source checkout): python3 bench/selftest.py

Checks that
1. every metric named in BENCHMARK.json is emitted, with its unit, by a short
   run of every workload with tracing off and on, and that the benchmark
   refuses to run without the library source;
2. the correctness check flags a deliberately corrupted answer on every
   workload, no timed input of a workload fails, and the fixed near-pi set
   shows the known defect while it stands;
3. in a traced run of each in-process workload the layer self times add up
   to the spans' own total exactly, and to the workload's wall time within
   trace.overhead_frac (or 1%, where tracing costs less than machine noise).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_emitted_metrics() -> None:
    for wl in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, "bench/run.py", "--workload", wl["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, (cmd, proc.stderr[-2000:])
            res = last_json(proc.stdout)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True and res["attempted"] >= 1, res
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, (wl["name"], trace, set(got) ^ set(want))
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            if key == "end_to_end":
                for name, m in res["metrics"].items():
                    assert m["value"] > 0, (wl["name"], name, m)
            print(f"ok  metrics  {wl['name']} trace={trace}")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  refuses to run without the library source")


def corrupt(wl, inp, out):
    """The same answer with one number moved by far more than the tolerance."""
    name = wl.name
    if name == "motion-chain":
        route, s, pair = out
        if s.kind.name == "GENERAL":
            return route, dataclasses.replace(s, slide=s.slide + 1e-6), pair
        return route, dataclasses.replace(s, translation=s.translation * 1.000001), pair
    if name == "point-tracking":
        outcome, fit, report, s = out
        if outcome == "rejected":
            from screwalgebra.errors import NonRigidData, TraceSingular

            swapped = TraceSingular if isinstance(fit, NonRigidData) else NonRigidData
            return outcome, swapped("corrupted"), None, None
        moved = dataclasses.replace(fit.delta, x=fit.delta.x + 1e-6)
        report = report._replace(rigid=True, proper=True)
        return outcome, dataclasses.replace(fit, delta=moved), report, s
    if name == "check-suite":
        code, lines = out
        return code, [line.replace("=pass", "=FAIL", 1) for line in lines]
    code, stdout, stderr = out
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        key, _, value = line.partition("=")
        if key in ("delta", "lineB.point"):
            first, rest = value.split(",", 1)
            lines[i] = f"{key}={float(first) + 1e-6!r},{rest}"
        elif line == "error=improper":
            lines[i] = "error=non-rigid"
    return code, "\n".join(lines) + "\n", stderr


def check_gate() -> None:
    for wl_spec in SPEC["workloads"]:
        name = wl_spec["name"]
        wl = run.load(name, 7)
        flagged = 0
        for _ in range(5 if name == "cli-oneshot" else 1 if name == "check-suite" else 20):
            inp = wl.make()
            out = wl.run(inp)
            assert wl.verify(inp, out), (name, inp)
            assert not wl.verify(inp, corrupt(wl, inp, out)), (name, inp)
            flagged += 1
        print(f"ok  gate flags {flagged} corrupted answers  {name}")

    from workloads import near_pi_fail_frac  # importable once run.load has found the library

    frac = near_pi_fail_frac(7)
    assert frac > 0.9, frac  # fit_displacement raises TraceSingular there today
    print(f"ok  near-pi set fails {frac:.3f} of its fits (the known defect)")


def check_self_times() -> None:
    for name in ("motion-chain", "point-tracking", "check-suite"):
        res, details = run.traced_run(run.load(name, 3), 1.0)
        overhead = res["metrics"]["trace.overhead_frac"]["value"]
        wall, self_s, root_s = details["wall_s"], details["self_s"], details["root_s"]
        assert abs(self_s - root_s) <= 1e-9 * root_s, (name, self_s, root_s)
        # On check-suite tracing costs about as little as the machine's own
        # noise, so the measured overhead can come out near zero; hence the floor.
        assert self_s <= wall and (wall - self_s) / wall <= max(overhead, 0.01), (
            name, wall, self_s, overhead,
        )
        print(f"ok  self times {self_s:.3f}s of wall {wall:.3f}s, overhead {overhead:.3f}  {name}")


if __name__ == "__main__":
    check_emitted_metrics()
    check_gate()
    check_self_times()
    print("selftest passed")
