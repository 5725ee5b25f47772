"""The repository benchmark: one command, every metric, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet-audit --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics: it sets up three times
(two set-up-only processes, then the measuring one) and reports the
median set-up time, then runs ops in a closed loop (one client, one op
at a time) for ``--seconds``.  ``--trace 1`` prints the per-layer
metrics: it runs the same ops untraced for half the time and traced for
the other half, compares every deterministic count across the two
processes and across a re-run of the traced ops, and reports the
tracing overhead.  Either way the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program under test is built from ``src/`` of the
checkout this script sits in; nothing is read or written outside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import MOVES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Whole-run budget, seconds: a run must exit within 180 s.
BUDGET_S = 170.0
#: Set-up is measured this many times per run; the median is reported.
SETUPS = 3
#: Tail percentiles tried, highest first; the first with at least
#: ``TAIL_BEYOND`` samples above it is reported.
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "sim_minstr_per_s": "Minstr/s",
    "host_s_per_session": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(args, seconds: float, trace: bool, setup_only: bool,
            deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds)]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker ran past the {BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError("worker printed no result") from None
    out["setup_raw_s"] = out["ready"] - spawned
    out["setup_s"] = out["setup_raw_s"] * out["setup_speed"]
    return out


def _tail(times: list[float]) -> tuple[float, str]:
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = int(n * pct / 100)
        if n - rank - 1 >= TAIL_BEYOND:
            return ordered[rank], f"p{pct}, {n - rank - 1} of {n} beyond"
    return ordered[-1], f"max of {n}: fewer than {TAIL_BEYOND} beyond p50"


def _digest(det: list[dict]) -> str:
    return hashlib.sha256(
        json.dumps(det, sort_keys=True).encode()).hexdigest()[:16]


def _wrong(out: dict) -> list[str]:
    """Wrong outputs: failed checks on warm-ups and on ops that returned.

    An op that raised instead counts only as failed.
    """
    return out["warmup_errors"] + [
        op["error"] for op in out["ops"] if op["error"] and not op["raised"]]


def end_to_end(args) -> tuple[dict, dict, list[str], list]:
    deadline = time.monotonic() + BUDGET_S
    setups = [_worker(args, 0, False, True, deadline)
              for _ in range(SETUPS - 1)]
    main = _worker(args, args.seconds, False, False, deadline)
    setups.append(main)
    problems = [err for out in setups[:-1] for err in out["warmup_errors"]]
    problems += _wrong(main)

    ops = main["ops"]
    times = [op["s"] for op in ops]
    timed_s = sum(times)
    raw_s = sum(op["raw_s"] for op in ops)
    sessions = sum(op["sessions"] for op in ops if op["error"] is None)
    tail, tail_note = _tail(times)
    metrics = {
        "setup_s": statistics.median(out["setup_s"] for out in setups),
        "ops_per_s": len(ops) / timed_s,
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail,
        "sim_minstr_per_s":
            sum(op["instructions"] for op in ops) / timed_s / 1e6,
        "host_s_per_session": timed_s / max(1, sessions),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {
        "setup_s": "median of " + ", ".join(
            f"{out['setup_s']:.3f}" for out in setups) + "; raw " + ", ".join(
            f"{out['setup_raw_s']:.3f}" for out in setups),
        "op_s_p50": "raw {:.6g}".format(
            statistics.median(op["raw_s"] for op in ops)),
        "op_s_tail": tail_note,
        "ops_per_s": f"raw {len(ops) / raw_s:.6g}",
        "ops": f"{len(ops)} ops in {main['timed_raw_s']:.2f} s; the host "
               f"ran at {timed_s / raw_s:.3f}x the calibration speed",
        "digest": _digest(main["det"]),
    }
    return metrics, notes, problems, ops


def per_layer(args) -> tuple[dict, dict, list[str], list]:
    deadline = time.monotonic() + BUDGET_S
    plain = _worker(args, args.seconds / 2, False, False, deadline)
    traced = _worker(args, args.seconds / 2, True, False, deadline)
    problems = _wrong(plain) + _wrong(traced)
    if plain["det"] != traced["det"]:
        problems.append("deterministic counts differ between the untraced "
                        "and the traced process")
    for mismatch in traced["recheck_mismatches"]:
        problems.append(f"op {mismatch['op']} {mismatch['what']} changed "
                        f"on re-run: {mismatch['first']} -> "
                        f"{mismatch['again']}")
    # Same inputs in the same order: compare the ops both processes ran.
    common = min(len(plain["ops"]), len(traced["ops"]))
    overhead = (sum(op["s"] for op in traced["ops"][:common])
                / sum(op["s"] for op in plain["ops"][:common]))
    metrics = dict(traced["layers"])
    metrics["obs.trace_overhead"] = overhead
    notes = {name: ("det; " if MOVES[name][2] else "") + MOVES[name][3]
             for name in metrics}
    notes.update({
        "ops": f"{len(plain['ops'])} untraced + {len(traced['ops'])} "
               f"traced ops; overhead over the first {common}",
        "spans": f"{traced['spans']} spans in {traced['spans_file']}",
        "digest": _digest(traced["det"]),
    })
    return metrics, notes, problems, plain["ops"] + traced["ops"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: the same seed, the same inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics, notes, problems, ops = per_layer(args)
            units = {name: spec[0] for name, spec in MOVES.items()}
        else:
            metrics, notes, problems, ops = end_to_end(args)
            units = END_TO_END
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted = len(ops)
    failed = sum(1 for op in ops if op["error"])
    print(f"workload {args.workload} seed={args.seed} "
          f"trace={args.trace}: {notes['ops']}")
    for name, value in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<30} {value:>14.6g} {units[name]}{extra}")
    print(f"  {'failed_frac':<30} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} ops failed)")
    if "spans" in notes:
        print(f"  {notes['spans']}")
    print(f"digest {args.workload} seed={args.seed} "
          f"sha256={notes['digest']}")
    for problem in problems[:20]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    for op in ops:
        if op["raised"]:
            print(f"FAILED OP: raised {op['error']}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
