"""Measure this commit and append it to the bench trajectory.

Run from the root of a checkout (about 25 minutes)::

    python3 perfbench/trajectory.py --label "what this commit changed"

For every workload in ``BENCHMARK.json`` it runs the end-to-end
benchmark ten times, each with another seed, and the traced run
twice on one seed.  It records the median and quartiles of every
end-to-end metric, each metric's spread (quartile distance over median)
against its bound, and the traced run's per-layer metrics; it fails if
any run is incorrect or if a deterministic count differs between the two
traced runs.  The point is appended to ``perfbench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import MOVES  # noqa: E402

TRAJECTORY = HERE / "trajectory.json"
#: End-to-end runs per workload, each on another seed.
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit "
                         f"{proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"incorrect\n{proc.stderr}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seeds first-seed .. first-seed+9")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    point = {"label": args.label, "run_seconds": seconds,
             "host": f"{platform.machine()}, {platform.python_version()}",
             "seeds": [args.first_seed, args.first_seed + RUNS - 1],
             "workloads": {}}
    steady = True
    for workload in names:
        results = [run(workload, args.first_seed + k, seconds, 0)
                   for k in range(RUNS)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        end_to_end = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            end_to_end[name] = summarize(values)
            stat = end_to_end[name]
            ok = name == "setup_s" or stat["spread"] <= bounds[name]
            steady &= ok
            print(f"{workload:<14} {name:<20} median {stat['median']:<12.6g}"
                  f" spread {stat['spread']:.4f} (bound {bounds[name]})"
                  f"{'' if ok else '  OVER BOUND'}")
        traced = [run(workload, args.first_seed, seconds, 1)
                  for _ in range(2)]
        layers = {name: [t["metrics"][name]["value"] for t in traced]
                  for name in MOVES}
        for name, (a, b) in layers.items():
            if MOVES[name][2] and a != b:
                raise SystemExit(f"{workload}: det metric {name} differs "
                                 f"between traced runs: {a} != {b}")
        print(f"{workload:<14} det counts identical across 2 traced runs")
        point["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": {name: statistics.median(v)
                          for name, v in layers.items()}}
    history = (json.loads(TRAJECTORY.read_text())
               if TRAJECTORY.exists() else [])
    history.append(point)
    TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    print(f"appended to {TRAJECTORY.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
