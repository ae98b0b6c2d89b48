"""Benchmark of the screwalgebra library and command line.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): ``motion-chain`` (motion file -> screw ->
rotation pair), ``point-tracking`` (six tracked points -> fit -> rigidity ->
screw), ``check-suite`` (``screwalgebra check`` in-process at a fixed budget) and
``cli-oneshot`` (one ``python -m screwalgebra.cli`` child per operation).
Every workload is a closed loop: one caller, one operation outstanding, in
one process with no extra threads. Inputs come from the seed alone.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off:

- ``ops_per_s``: operations completed per second of operation time;
- ``op_p50_ms``: median operation latency;
- ``op_tail_ms``: p99 (motion-chain, point-tracking) or p85 (check-suite,
  cli-oneshot), a percentile that keeps ten or more samples beyond it in a
  run;
- ``setup_s``: median time for a fresh interpreter to import what the
  workload uses, over seven starts spread through the run;
- ``peak_rss_mb``: peak resident memory of the process doing the work.

Times are scaled to a nominal machine speed. The CPU speed of a shared host
drifts, here by up to 1.6x for seconds at a time, which no run length
averages out. So a probe is timed at every batch boundary and every time is
reported as ``raw * nominal / probe``, with the probe averaged over the two
boundaries of its batch. In-process work is scaled by ``speed_probe``, a
fixed pure-Python computation in benchmark code run under the interpreter's
default garbage-collector settings; work that starts interpreters (set-up,
cli-oneshot) by ``start_probe``, a bare ``python3 -c pass``, which tracks
process start-up costs that the first probe misses. The nominal values, 0.8
ms and 50 ms, are rounded from the median probe times on a 2-core x86_64
host with Python 3.11.7 (the in-process probe's median there is 0.65 to 1.0
ms depending on the workload around it), so a scaled figure reads about as
that host's time at its usual speed; bench/baseline.json keeps the unscaled
figures and probe medians beside the scaled ones. The process is pinned to one CPU, which its children
inherit, so probe and work run on the same core.

The line just before the result holds diagnostics as JSON: the timing
metrics unscaled, the probe's nominal and median times, and for each route
an operation can take (motion-chain: rational fold or oracle; point-tracking:
the kind of point set) its share of operations, its failures and its own
p50 and tail; and ``near_pi_fail_frac`` (see below).

With ``--trace 1`` a separate run wraps the library's public functions
(tracer.py) and reports the per-layer metrics instead.

Every answer is checked outside the timed region (workloads.py). The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when any operation failed,
and 2 when the library source is not beside the benchmark.

The timed workloads draw no fit input that turns within 3.2e-5 rad of a
half turn: ``fit_displacement`` raises TraceSingular there although every
proper rigid motion has a fit, a known defect. It is measured apart, on a
fixed set of 200 such inputs drawn from the seed (a fifth exactly pi), run
once untimed and untraced: ``near_pi_fail_frac`` is the share of them not
answered correctly. It is in the diagnostics line and, as
``pointfit.near_pi_fail_frac``, among the per-layer metrics of every
workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 7
PROBE_STEPS = 150
SPEED_NOMINAL_S = 0.8e-3
START_NOMINAL_S = 0.05
CALIB_SECONDS = 3.0  # spent pairing untraced and traced passes
# The interpreter's garbage-collector settings before the library is
# imported; the speed probe always runs under these.
GC_STATE = gc.get_threshold()

# Per-call inclusive times reported by the traced run, as "<layer>.<function>".
TIMED_FUNCTIONS = (
    "rotation.apply_displacement",
    "rotation.matrix_from_gibbs",
    "rotation.gibbs_from_matrix",
    "rotation.displacement_of_rotation",
    "core.make_unit",
    "compose.compose_gibbs",
    "compose.compose_displacements",
    "screw.screw_from_displacement",
    "screw.conjugate_pair_decompose",
    "pointfit.fit_displacement",
    "pointfit.check_rigidity",
    "oracle.screw_from_hom_bruteforce",
    "oracle.hom_compose",
    "cli.parse_motion_file",
)


def speed_probe() -> float:
    """Seconds a fixed piece of pure-Python work takes now (no library code)."""
    import reference

    step = reference.turn_about((1.0, 2.0, 3.0), reference.unit((1.0, -2.0, 0.5)), 0.7)
    # Interpreter state the library could change must not reach the probe,
    # or the change would be divided out of every time.
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(*GC_STATE)
    try:
        t0 = time.perf_counter()
        acc = reference.IDENTITY
        for _ in range(PROBE_STEPS):
            acc = reference.compose(acc, step)
        return time.perf_counter() - t0
    finally:
        gc.set_threshold(*thresholds)
        if not enabled:
            gc.disable()


def start_probe() -> float:
    """Seconds a bare interpreter takes to start and exit now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, capture_output=True,
                   check=True, timeout=60)
    return time.perf_counter() - t0


@dataclass
class Outcome:
    """What ``drive`` measured: operation seconds, counts, and times in seconds."""

    busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    raw: array = field(default_factory=lambda: array("d"))
    scaled: array = field(default_factory=lambda: array("d"))
    probes: array = field(default_factory=lambda: array("d"))
    routes: dict = field(default_factory=dict)  # route -> scaled times
    failed_routes: Counter = field(default_factory=Counter)


def drive(wl, seconds: float, after_batch=None) -> Outcome:
    """Run operations one at a time until about ``seconds`` of operation time.

    Inputs are made a batch at a time and answers verified after each batch,
    both outside the timed region; then ``after_batch(busy)`` is called, if
    given. No operation starts once the previous one's duration would carry
    the total past ``seconds``. A probe at each batch boundary scales the
    operation times (see the module docstring).
    """
    probe, nominal = (start_probe, START_NOMINAL_S) if wl.children else (speed_probe, SPEED_NOMINAL_S)
    clock = time.perf_counter
    res = Outcome()
    last = 0.0
    previous = probe()
    res.probes.append(previous)
    while res.busy + last < seconds:
        done = []
        for inp in [wl.make() for _ in range(wl.batch)]:
            if res.busy + last >= seconds:
                break
            t0 = clock()
            out = wl.run(inp)
            last = clock() - t0
            res.busy += last
            done.append((inp, out, last))
        current = probe()
        res.probes.append(current)
        factor = nominal / ((previous + current) / 2.0)
        previous = current
        for inp, out, dt in done:
            route = wl.route(inp, out)
            res.raw.append(dt)
            res.scaled.append(dt * factor)
            res.routes.setdefault(route, array("d")).append(dt * factor)
            res.attempted += 1
            if not wl.verify(inp, out):
                res.failed += 1
                res.failed_routes[route] += 1
        if after_batch is not None:
            after_batch(res.busy)
    return res


class SetupSampler:
    """Times fresh interpreters that import what the workload uses.

    The SETUP_REPS timed starts are spread over the run, between batches, so
    that their median does not rest on one stretch of machine speed; each is
    scaled by the start probes around it. One untimed start first fills the
    bytecode cache, a cost users pay once.
    """

    def __init__(self, imports: str, seconds: float, importtime: bool = False):
        from workloads import child_env

        self.cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
                    "-c", f"import {imports}"]
        self.env = child_env(ROOT)
        self.seconds = seconds
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.stderrs: list[str] = []
        self._start()
        for kept in (self.raw, self.scaled, self.stderrs):
            kept.clear()

    def _start(self) -> None:
        before = start_probe()
        t0 = time.perf_counter()
        proc = subprocess.run(
            self.cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        dt = time.perf_counter() - t0
        self.raw.append(dt)
        self.scaled.append(dt * START_NOMINAL_S / ((before + start_probe()) / 2.0))
        self.stderrs.append(proc.stderr)

    def __call__(self, busy: float) -> None:
        """Catch up to the share of starts due after ``busy`` seconds of work."""
        while len(self.raw) < min(SETUP_REPS, 1 + int(SETUP_REPS * busy / self.seconds)):
            self._start()

    def finish(self) -> None:
        while len(self.raw) < SETUP_REPS:
            self._start()


def self_import_ms(stderr: str, package: str) -> float:
    """Summed self import time of ``package`` and its submodules, from -X importtime."""
    total = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == package or name.startswith(package + "."):
            total += int(self_us)
    return total / 1000.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(round(q * len(ordered), 9)) - 1)]


def timed_run(wl, seconds: float) -> tuple[dict, dict]:
    """The end-to-end run; returns (result, diagnostics).

    The diagnostics hold the timing metrics unscaled, the probe's nominal
    and median times, and per route (see Workload.route) the share of
    operations and their scaled p50 and tail, so that no figure rests on
    the input mix alone.
    """
    from workloads import near_pi_fail_frac

    setup = SetupSampler(wl.setup_imports, seconds)
    run = drive(wl, seconds, setup)
    setup.finish()
    attempted = run.attempted
    who = resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF
    common = {
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }

    def timings(times, setup_times):
        return {
            "ops_per_s": (attempted / sum(times), "1/s"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "op_tail_ms": (percentile(times, wl.tail_q) * 1e3, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
        }

    res = result(run, {**timings(run.scaled, setup.scaled), **common})
    nominal = START_NOMINAL_S if wl.children else SPEED_NOMINAL_S
    diagnostics = {
        "unscaled": {k: v for k, (v, _unit) in timings(run.raw, setup.raw).items()},
        "probe_ms": {"nominal": nominal * 1e3, "median": statistics.median(run.probes) * 1e3},
        "routes": {
            name: {
                "share": len(times) / attempted,
                "failed": run.failed_routes[name],
                "p50_ms": statistics.median(times) * 1e3,
                "tail_ms": percentile(times, wl.tail_q) * 1e3,
            }
            for name, times in sorted(run.routes.items())
        },
        "near_pi_fail_frac": near_pi_fail_frac(wl.seed),
    }
    return res, diagnostics


def result(run: Outcome, metrics: dict) -> dict:
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(wl, seconds: float) -> tuple[dict, dict]:
    """The per-layer run; returns (result, details for the self-test)."""
    import tracer as tracing
    from screwalgebra.checks import REGISTRY
    from workloads import near_pi_fail_frac

    setup = SetupSampler(wl.setup_imports, seconds, importtime=True)
    calib = [wl.make() for _ in range(wl.calib)]

    def timed_pass(tracer=None):
        if tracer is not None:
            tracer.install()
            wl.tracer = tracer
        try:
            t0 = time.perf_counter()
            for inp in calib:
                wl.run(inp)
            return time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
                wl.tracer = None

    # The overhead is the median ratio of a traced pass over the same inputs
    # (throwaway tracer) to the untraced pass just before it: the machine's
    # speed drifts over seconds, so only adjacent passes compare.
    ratios = []
    t0 = time.perf_counter()
    while len(ratios) < 3 or time.perf_counter() - t0 < CALIB_SECONDS:
        untraced = timed_pass()
        ratios.append(timed_pass(tracing.Tracer()) / untraced)
    overhead = statistics.median(ratios) - 1.0

    with tracing.Tracer(OUT / f"trace-{wl.name}") as tracer:
        tracer.install()
        wl.tracer = tracer

        def after_batch(busy):
            tracer.flush()
            setup(busy)

        try:
            run = drive(wl, seconds, after_batch)
        finally:
            tracer.uninstall()
            wl.tracer = None
    setup.finish()

    summary = tracer.summary()
    metrics = {}
    for layer in tracing.LAYERS:
        rows = [row for label, row in summary.items() if label.split(".", 1)[0] == layer]
        metrics[f"{layer}.calls"] = (sum(r["calls"] for r in rows), "count")
        metrics[f"{layer}.self_s"] = (sum(r["self_s"] for r in rows), "s")
        metrics[f"{layer}.raised"] = (sum(r["raised"] for r in rows), "count")

    def per_call(label):
        row = summary.get(label)
        return row["total_s"] / row["calls"] if row and row["calls"] else 0.0

    for label in TIMED_FUNCTIONS:
        metrics[f"{label}.us"] = (per_call(label) * 1e6, "us")
    folds = summary.get("cli.build_displacement", {"calls": 0, "raised": 0})
    attempted = run.attempted
    metrics["pointfit.reject_frac"] = (wl.reject_frac(attempted), "frac")
    metrics["pointfit.near_pi_fail_frac"] = (near_pi_fail_frac(wl.seed), "frac")
    # An oracle screw extraction is an answer when the operation itself or a
    # command-line subcommand called it, not a check.
    answers = tracer.calls_from("oracle.screw_from_hom_bruteforce", ("cli.",))
    metrics["oracle.answer_frac"] = (answers / attempted, "frac")
    metrics["cli.fold_abandoned_frac"] = (folds["raised"] / max(1, folds["calls"]), "frac")
    for name, _base, _fn in REGISTRY:
        metrics[f"checks.{name}.s"] = (per_call(f"checks.{name}"), "s")
    for package in ("numpy", "screwalgebra"):
        ms = statistics.median(self_import_ms(err, package) for err in setup.stderrs)
        metrics[f"setup.{package}_ms"] = (ms, "ms")
    metrics["trace.overhead_frac"] = (overhead, "frac")

    details = {
        "wall_s": run.busy,
        "self_s": sum(row["self_s"] for row in summary.values()),
        "root_s": tracer.root_s,
        "spans": tracer.spans,
    }
    return result(run, metrics), details


def load(workload: str, seed: int):
    """Import the library from this checkout and build the workload.

    Returns None when the library source is missing.
    """
    if not (SRC / "screwalgebra" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import screwalgebra

    if Path(screwalgebra.__file__).resolve().parent != (SRC / "screwalgebra").resolve():
        return None
    from workloads import WORKLOADS

    return WORKLOADS[workload](ROOT, seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("motion-chain", "point-tracking", "check-suite", "cli-oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = load(args.workload, args.seed)
    if wl is None:
        print(f"error: no screwalgebra source under {SRC}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        res, _ = traced_run(wl, args.seconds)
    else:
        res, diagnostics = timed_run(wl, args.seconds)
        print(json.dumps(diagnostics))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
