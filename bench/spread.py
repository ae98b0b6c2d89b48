"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a source checkout):

    python3 bench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0] [--out FILE]

For every workload and metric it prints the median over the seeds and the
distance between the first and third quartile as a share of that median,
beside the metric's bound from BENCHMARK.json, and the median of the
unscaled figures. With --out it also writes all of it, with every run's
values and diagnostics line (unscaled figures, probe times, per-route
times), as JSON (the committed baseline is such a file).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seconds": spec["run_seconds"],
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_from(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            run = {"seed": seed, **res}
            if not args.trace:
                run["diagnostics"] = json.loads(lines[-2])
            runs.append(run)
            print(f"{workload} seed {seed}: attempted {res['attempted']} failed {res['failed']}",
                  file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"median": median, "iqr_frac": spread, "unit": runs[0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + ("  WIDE" if spread > bound / 3 else "")
            if not args.trace and name in runs[0]["diagnostics"]["unscaled"]:
                raw = statistics.median(r["diagnostics"]["unscaled"][name] for r in runs)
                summary[name]["unscaled_median"] = raw
                flag += f"  unscaled {raw:.6g}"
            print(f"{workload:15s} {name:45s} median {median:14.6g}  iqr/median {spread:7.4f}{flag}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
