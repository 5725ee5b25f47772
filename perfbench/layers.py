"""Per-layer metrics of the traced run, and what each should move.

Times are host seconds per timed op (``s/op``) unless the unit says
otherwise, scaled by each op's host-speed calibration like every host
time of the benchmark (see ``calibration.py``); they are means
over every timed op, so they do not depend on how many ops fit in a
run.  Counts marked *det* are totals over the workload's first
``det_ops`` ops; the simulation is deterministic, so
they must repeat exactly for a seed, and the traced run fails if they
do not.  Cycle shares are simulated (virtual) cycles.

``MOVES`` is the layer -> end-to-end mapping: the end-to-end metric
each layer metric should move, and on which workload.  A change that
claims a gain names the layer metric it moves and shows the mapped
end-to-end metric moving on that workload, and no other workload
slowing.
"""

from __future__ import annotations

#: Layer of each span name (the prefix before the first dot); the root
#: span of each op belongs to the benchmark harness.
LAYERS = ("bench", "lang", "vm", "machine", "core", "service", "exec")

#: name -> (unit, better, det, note).  ``det`` marks a count that must
#: repeat exactly; ``note`` is the end-to-end metric and workload the
#: layer metric should move (the layer -> end-to-end mapping).
MOVES = {
    "lang.compile_s": (
        "s", "lower", False, "moves setup_s, most on scimark and exec-ipc"),
    "vm.instructions": (
        "count", "lower", True, "the base of every per-instruction ratio"),
    "vm.jit_coverage": (
        "ratio", "higher", True,
        "moves sim_minstr_per_s on scimark and op_s_p50 on nfs-roundtrip, "
        "not fleet-audit"),
    "vm.jit_side_exit_ratio": (
        "ratio", "lower", True,
        "moves sim_minstr_per_s on scimark and op_s_p50 on nfs-roundtrip, "
        "not fleet-audit"),
    "vm.jit_compile_s": (
        "s/op", "lower", False, "moves setup_s and op_s_tail"),
    "vm.run_self_s": (
        "s/op", "lower", False, "moves sim_minstr_per_s on scimark"),
    "machine.play_s": (
        "s/op", "lower", False, "moves op_s_p50 on nfs-roundtrip"),
    "machine.replay_s": (
        "s/op", "lower", False, "moves op_s_p50 on nfs-roundtrip"),
    "machine.wait_packet_s": (
        "s/op", "lower", False,
        "moves host_s_per_session on fleet-audit and op_s_p50 on "
        "nfs-roundtrip; zero on scimark"),
    "machine.native_self_s": (
        "s/op", "lower", False, "moves op_s_p50 on exec-ipc"),
    "machine.service_world_calls": (
        "count", "lower", True,
        "idle fast-forward work; moves host_s_per_session on fleet-audit"),
    "machine.service_world_s": (
        "s/op", "lower", False, "moves host_s_per_session on fleet-audit"),
    "machine.flush_charges_calls": (
        "count", "lower", True, "moves sim_minstr_per_s"),
    "machine.idle_cycle_share": (
        "ratio", "lower", True, "caps what an idle change can save"),
    "hw.clock_advances": ("count", "lower", True, "moves sim_minstr_per_s"),
    "hw.l1_hit_ratio": (
        "ratio", "higher", True,
        "modelled design: a simulator-only change leaves it identical"),
    "hw.dram_accesses": (
        "count", "lower", True, "modelled design: must not change"),
    "hw.irq_firings": (
        "count", "lower", True, "modelled design: must not change"),
    "hw.branch_mispredicts": (
        "count", "lower", True, "modelled design: must not change"),
    "core.log_encode_s": (
        "s/op", "lower", False,
        "moves host_s_per_session on fleet-audit and op_s_p50 on exec-ipc"),
    "core.log_decode_s": (
        "s/op", "lower", False,
        "moves host_s_per_session on fleet-audit and op_s_p50 on exec-ipc"),
    "core.log_bytes": (
        "bytes", "lower", True,
        "moves host_s_per_session on fleet-audit and op_s_p50 on exec-ipc"),
    "core.compare_s": (
        "s/op", "lower", False, "moves op_s_p50 on nfs-roundtrip"),
    "core.prefix_replay_s": (
        "s/op", "lower", False, "moves host_s_per_session on fleet-audit"),
    "core.replay_cache_hit_ratio": (
        "ratio", "higher", True, "moves host_s_per_session on fleet-audit"),
    "service.play_ship_s": (
        "s/op", "lower", False, "moves host_s_per_session on fleet-audit"),
    "service.resolve_replays_s": (
        "s/op", "lower", False, "moves host_s_per_session on fleet-audit"),
    "service.loop_self_s": (
        "s/op", "lower", False, "moves host_s_per_session on fleet-audit"),
    "service.replays_executed": (
        "count", "lower", True, "moves host_s_per_session on fleet-audit"),
    "service.audits_spot": (
        "count", "lower", True, "audit policy: must not change"),
    "service.audits_full": (
        "count", "lower", True, "audit policy: must not change"),
    "service.audits_escalated": (
        "count", "lower", True, "audit policy: must not change"),
    "exec.play_s": ("s/op", "lower", False, "moves op_s_p50 on exec-ipc"),
    "exec.replay_s": ("s/op", "lower", False, "moves op_s_p50 on exec-ipc"),
    "exec.switches": ("count", "lower", True, "moves op_s_p50 on exec-ipc"),
    "exec.messages": ("count", "lower", True, "moves op_s_p50 on exec-ipc"),
    "exec.sched_entries": (
        "count", "lower", True, "moves op_s_p50 on exec-ipc"),
    "exec.sched_ipc_cycle_share": (
        "ratio", "lower", True,
        "caps what a scheduler or IPC change can save"),
    "obs.trace_overhead": (
        "ratio", "lower", False,
        "traced / untraced host time over the same ops"),
}
for _layer in LAYERS:
    MOVES[f"self_s.{_layer}"] = (
        "s/op", "lower", False, f"self time of the {_layer} layer's spans")


def layer_metrics(recorder, records: list[dict], det_ops: int) -> dict:
    """Every per-layer metric but ``obs.trace_overhead``.

    ``records`` are the timed ops in order (their op ids are their
    indices); ``recorder`` holds their traces.
    """
    timed = [(recorder.ops[i], r["speed"]) for i, r in enumerate(records)]

    def per_op(name: str, field: int = 1) -> float:
        return sum(t.agg[name][field] * speed for t, speed in timed
                   if name in t.agg) / len(timed)

    det = records[:det_ops]

    def det_sum(key: str) -> int:
        return sum(r["det"].get(key, 0) for r in det)

    def trace_sum(key: str) -> int:
        return sum(r["trace_det"][key] for r in det)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fleet_run = per_op("service.fleet_run")
    play_ship = per_op("service.play_ship")
    resolve = per_op("service.resolve_replays")
    cycles = det_sum("cycles")
    l1 = det_sum("l1_hits")
    values = {
        # Compilation happens in set-up, before any op is calibrated:
        # raw seconds.
        "lang.compile_s": sum(t.agg["lang.compile"][1]
                              for t in recorder.ops.values()
                              if "lang.compile" in t.agg),
        "vm.instructions": det_sum("instructions"),
        "vm.jit_coverage": ratio(det_sum("jit_instructions"),
                                 det_sum("instructions")),
        "vm.jit_side_exit_ratio": ratio(det_sum("jit_side_exits"),
                                        det_sum("jit_entries")),
        "vm.jit_compile_s": per_op("vm.jit_compile"),
        "vm.run_self_s": per_op("vm.run", 2),
        "machine.play_s": per_op("machine.play"),
        "machine.replay_s": per_op("machine.replay"),
        "machine.wait_packet_s": per_op("machine.native.wait_packet"),
        "machine.native_self_s": per_op("machine.native"),
        "machine.service_world_calls": trace_sum("service_world_calls"),
        "machine.service_world_s": per_op("machine.service_world"),
        "machine.flush_charges_calls": trace_sum("flush_charges"),
        "machine.idle_cycle_share": ratio(trace_sum("idle_cycles"), cycles),
        "hw.clock_advances": trace_sum("clock_advances"),
        "hw.l1_hit_ratio": ratio(l1, l1 + det_sum("l1_misses")),
        "hw.dram_accesses": det_sum("dram_accesses"),
        "hw.irq_firings": det_sum("irq_firings"),
        "hw.branch_mispredicts": det_sum("branch_mispredicts"),
        "core.log_encode_s": per_op("core.log_encode"),
        "core.log_decode_s": per_op("core.log_decode"),
        "core.log_bytes": trace_sum("encoded_log_bytes"),
        "core.compare_s": per_op("core.compare"),
        "core.prefix_replay_s": per_op("core.prefix_replay"),
        "core.replay_cache_hit_ratio": ratio(
            det_sum("cache_hits"),
            det_sum("cache_hits") + det_sum("cache_misses")),
        "service.play_ship_s": play_ship,
        "service.resolve_replays_s": resolve,
        "service.loop_self_s": fleet_run - play_ship - resolve,
        "service.replays_executed": trace_sum("replays_executed"),
        "service.audits_spot": det_sum("audits_spot"),
        "service.audits_full": det_sum("audits_full"),
        "service.audits_escalated": det_sum("audits_escalated"),
        "exec.play_s": per_op("exec.play"),
        "exec.replay_s": per_op("exec.replay"),
        "exec.switches": det_sum("switches"),
        "exec.messages": det_sum("messages"),
        "exec.sched_entries": det_sum("sched_entries"),
        "exec.sched_ipc_cycle_share": ratio(trace_sum("sched_ipc_cycles"),
                                            cycles),
    }
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for trace, speed in timed:
        for name, (_, _, self_s) in trace.agg.items():
            self_by_layer[name.split(".", 1)[0]] += self_s * speed
    for layer, total in self_by_layer.items():
        values[f"self_s.{layer}"] = total / len(timed)
    return values
