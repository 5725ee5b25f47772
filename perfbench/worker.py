"""One benchmark process: set up, warm up, then run ops in a closed loop.

``run.py`` starts this script and reads the JSON object it prints last.
One client runs one op at a time (``jobs=1`` everywhere), so the numbers
measure the program, not the OS scheduler.  Usage::

    python3 perfbench/worker.py --workload scimark --seed 1 --seconds 5 \
        [--trace] [--setup-only]
"""

from __future__ import annotations

from calibration import CALIBRATION_S, calibration_loop

#: Taken before anything else, for scaling this process's set-up time.
_START_CALIBRATION = calibration_loop()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import (Recorder, install_result_hook,  # noqa: E402
                     install_tracing)
from workloads import WORKLOADS  # noqa: E402

#: The timed phase stops early past this multiple of ``--seconds``, and
#: past ``MAX_TIMED_S`` whatever ``--seconds`` is.
MAX_SLOWDOWN = 3.0
MAX_TIMED_S = 100.0

#: ``ExecutionResult`` fields summed per op: simulated instructions,
#: cycles, trace-JIT activity, and the modelled hardware's statistics.
_JIT_KEYS = {"jit_instructions": "jit_instructions",
             "entries": "jit_entries", "side_exits": "jit_side_exits"}
_HW_KEYS = ("l1_hits", "l1_misses", "dram_accesses", "irq_firings",
            "branch_mispredicts")


class ResultSums:
    """Sums the results of every simulated execution of the current op."""

    def __init__(self) -> None:
        self.current = Counter()

    def __call__(self, result) -> None:
        current = self.current
        current["instructions"] += result.instructions
        current["cycles"] += result.total_cycles
        if result.jit is not None:
            for key, name in _JIT_KEYS.items():
                current[name] += result.jit[key]
        for key in _HW_KEYS:
            current[key] += result.stats[key]

    def take(self) -> Counter:
        taken, self.current = self.current, Counter()
        return taken


def _trace_counts(trace) -> dict:
    sources = trace.cycles_by_source
    return {"clock_advances": trace.counts["clock_advances"],
            "flush_charges": trace.counts["flush_charges"],
            "encoded_log_bytes": trace.counts["log_bytes"],
            "service_world_calls":
                trace.agg["machine.service_world"][0],
            "replays_executed": trace.agg["service.replay_task"][0],
            "idle_cycles": sources["idle-poll"],
            "sched_ipc_cycles": sources["sched"] + sources["ipc"]}


class Runner:
    """Runs ops of one workload, timing, checking and describing each."""

    def __init__(self, workload, recorder: Recorder | None) -> None:
        self.workload = workload
        self.recorder = recorder
        self.sums = ResultSums()
        install_result_hook(self.sums)
        #: The calibration taken right after the previous op, which is
        #: also the one right before the next.
        self._calibration = None

    def run(self, op, op_id) -> dict:
        from repro.errors import ReproError

        recorder = self.recorder
        before = self._calibration or calibration_loop()
        self.sums.take()
        if recorder is not None:
            recorder.begin_op(op_id)
        start = time.perf_counter()
        try:
            outcome, error = self.workload.run_op(op), None
        except ReproError as exc:
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        trace = recorder.end_op() if recorder is not None else None
        self._calibration = calibration_loop()
        speed = 2 * CALIBRATION_S / (before + self._calibration)
        if error is None:
            error = self.workload.check(op, outcome)
        record = {"s": seconds * speed, "raw_s": seconds, "speed": speed,
                  "error": error, "raised": outcome is None, "sessions": 0,
                  "sim": dict(self.sums.take()), "det": {}}
        if outcome is not None:
            record["sessions"] = self.workload.sessions(outcome)
            record["det"] = {**self.workload.describe(outcome),
                             **record["sim"]}
        if trace is not None:
            record["trace_det"] = _trace_counts(trace)
        return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        recorder = Recorder()
        install_tracing(recorder)
        recorder.begin_op("setup")
    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(workload, recorder)
    workload.setup()
    if recorder is not None:
        recorder.end_op()
    warmup_errors = []
    for k, op in enumerate(workload.warmup_inputs()):
        record = runner.run(op, f"warmup-{k}")
        if record["error"]:
            warmup_errors.append(f"{op.label}: {record['error']}")
    ready = time.monotonic()
    out = {"ready": ready, "warmup_errors": warmup_errors,
           "setup_speed": 2 * CALIBRATION_S
           / (_START_CALIBRATION + calibration_loop())}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    records = []
    timed_start = time.perf_counter()
    target = workload.ops_for(args.seconds)
    cap_s = min(MAX_SLOWDOWN * args.seconds, MAX_TIMED_S)
    while len(records) < target:
        for _ in range(workload.round_len):
            index = len(records)
            records.append(runner.run(workload.op_input(index), index))
        # A host far slower than the calibration host ends the run early,
        # at a round boundary, rather than past the time budget.
        if (len(records) >= workload.det_ops
                and time.perf_counter() - timed_start > cap_s):
            break
    out.update({
        "timed_raw_s": time.perf_counter() - timed_start,
        "ops": [{"s": r["s"], "raw_s": r["raw_s"], "error": r["error"],
                 "raised": r["raised"], "sessions": r["sessions"],
                 "instructions": r["sim"].get("instructions", 0)}
                for r in records],
        "det": [r["det"] for r in records[:workload.det_ops]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    })
    if recorder is not None:
        from layers import layer_metrics

        # Re-run the det ops in this warm process: every count, the
        # traced ones included, must repeat exactly.
        mismatches = []
        for index, first in enumerate(records[:workload.det_ops]):
            again = runner.run(workload.op_input(index), f"recheck-{index}")
            for key in ("det", "trace_det"):
                if again[key] != first[key]:
                    mismatches.append(
                        {"op": index, "what": key, "first": first[key],
                         "again": again[key]})
        out["recheck_mismatches"] = mismatches
        out["layers"] = layer_metrics(recorder, records, workload.det_ops)
        spans_dir = ROOT / "perfbench" / "out"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"spans-{workload.name}-{args.seed}.ndjson"
        recorder.write_ndjson(spans_path)
        out["spans_file"] = str(spans_path.relative_to(ROOT))
        out["spans"] = len(recorder.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
