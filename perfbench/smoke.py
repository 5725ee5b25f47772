"""Smoke test of the benchmark: every workload briefly, in both modes.

Run from the root of a checkout (about a minute)::

    python3 perfbench/smoke.py

For each workload in ``BENCHMARK.json`` it runs ``--trace 0`` and
``--trace 1`` with a one-second timed phase and asserts that every
named metric prints with its unit, in the human-readable lines and in
the final JSON object, and that every output check passed.  It also
asserts that the benchmark fails, without printing a result, in a
directory holding only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_run(workload: str, trace: int, metrics: list[dict]) -> None:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n" \
        f"{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{where}: keys {sorted(result)}"
    assert result["correct"] is True, f"{where}: checks failed\n" \
        f"{proc.stderr}"
    assert result["failed"] == 0 and result["attempted"] >= 1, where
    assert set(result["metrics"]) == {m["name"] for m in metrics}, \
        f"{where}: metrics {sorted(result['metrics'])}"
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        printed = result["metrics"][name]
        assert printed["unit"] == unit, f"{where}: {name} unit"
        assert isinstance(printed["value"], (int, float)), where
        if trace == 0:
            assert printed["value"] > 0, f"{where}: {name} is not positive"
        pattern = re.compile(rf"^\s+{re.escape(name)}\s+\S+\s+"
                             rf"{re.escape(unit)}(\s|$)")
        assert any(pattern.match(line) for line in lines[:-1]), \
            f"{where}: no line prints {name} in {unit}"
    assert any(line.startswith(f"digest {workload} ") for line in lines), \
        f"{where}: no statistics digest"
    assert any("failed_frac" in line for line in lines), where
    print(f"ok  {where}: {result['attempted']} ops")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(bare, "scimark", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without the program"
    assert not proc.stdout.strip(), "printed a result without the program"
    print("ok  fails without the program")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        check_run(workload["name"], 0, spec["end_to_end"])
        check_run(workload["name"], 1, spec["per_layer"])
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
