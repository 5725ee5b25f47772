"""Idle fast-forward: batched runs vs the per-poll oracle.

With batching on, ``wait_packet`` charges the polls up to the next
observable event in one exact step instead of simulating each one
(DESIGN.md §4.5).  ``REPRO_NO_BATCH=1`` keeps the per-poll loop, so it is
the differential oracle: every observable — cycles, instructions,
transmissions and their times, hardware stats, the per-source and
per-process ledgers, the cycle profile and the log bytes — must match
it bit for bit, on every noise preset and on the paths (covert, exec,
fleet under chaos, checkpointed play) that reach the idle loop.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.apps import build_nfs_program, build_nfs_workload, compile_app
from repro.core.log import EventKind
from repro.core.segments import play_with_checkpoint
from repro.core.tdr import play, round_trip
from repro.determinism import SplitMix64
from repro.exec.scenarios import exec_round_trip, exec_scenario
from repro.faults.plans import NodeChaosPlan
from repro.machine import MachineConfig, ScriptedArrivals
from repro.machine.machine import Machine
from repro.machine.noise import NoiseScenario, scenario_config
from repro.machine.platform import TimedCorePlatform
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.service import FleetService, FleetTopology, default_tenants

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

REQUESTS = 3

#: Echoes every packet back until the input ends.
ECHO_SOURCE = """
void main() {
    int[] buf = new int[16];
    int n = wait_packet(buf);
    while (n >= 0) {
        send_packet(buf, 2);
        n = wait_packet(buf);
    }
    exit();
}
"""


@pytest.fixture(autouse=True)
def _batched(monkeypatch):
    """Start from the batched path whatever the ambient environment
    (CI also runs the suite under ``REPRO_NO_BATCH=1``)."""
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)


@pytest.fixture(scope="module")
def nfs_program():
    return build_nfs_program()


@pytest.fixture(scope="module")
def echo_program():
    return compile_app(ECHO_SOURCE)


def _obs():
    return Observability(ledger=True, profile=True)


def _observables(result) -> tuple:
    """Everything a run exposes that the fast-forward must not move."""
    return (result.total_cycles, result.instructions, result.tx,
            result.tx_times_ms(), result.console, result.stats,
            result.ledger, result.process_ledger,
            json.dumps(result.profile, sort_keys=True),
            result.log.to_bytes() if result.log is not None else None)


def _against_oracle(monkeypatch, run):
    """``run()`` batched and under ``REPRO_NO_BATCH=1``; both results."""
    fast = run()
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    try:
        reference = run()
    finally:
        monkeypatch.delenv("REPRO_NO_BATCH")
    return fast, reference


def _assert_trips_match(fast, reference):
    assert _observables(fast.play) == _observables(reference.play)
    assert _observables(fast.replay) == _observables(reference.replay)
    assert fast.audit.deviation_score() == reference.audit.deviation_score()


def _nfs_trip(program, config, schedule=None):
    workload = build_nfs_workload(SplitMix64(7042), num_requests=REQUESTS)
    return round_trip(program, config, workload=workload, play_seed=3,
                      replay_seed=9, covert_schedule=schedule, obs=_obs())


@pytest.mark.parametrize("scenario", list(NoiseScenario),
                         ids=lambda scenario: scenario.value)
def test_noise_presets_match_oracle(nfs_program, monkeypatch, scenario):
    config = scenario_config(scenario)
    fast, reference = _against_oracle(
        monkeypatch, lambda: _nfs_trip(nfs_program, config))
    _assert_trips_match(fast, reference)
    assert fast.play.ledger["idle-poll"] > 0


def test_co_tenant_matches_oracle(nfs_program, monkeypatch):
    config = dataclasses.replace(MachineConfig(), co_tenant_intensity=0.6)
    fast, reference = _against_oracle(
        monkeypatch, lambda: _nfs_trip(nfs_program, config))
    _assert_trips_match(fast, reference)
    assert fast.play.ledger["co-tenant"] > 0


def test_supporting_irqs_under_cpu_noise_match_oracle(nfs_program,
                                                     monkeypatch):
    """No preset routes IRQs to the supporting core while preemption and
    frequency scaling run: the skip then crosses IRQ services and
    redraws that draw a new frequency factor, and stops at preemptions."""
    config = dataclasses.replace(
        MachineConfig(), irqs_to_supporting_core=True,
        preemption_enabled=True, freq_scaling=True, turbo=True)
    fast, reference = _against_oracle(
        monkeypatch, lambda: _nfs_trip(nfs_program, config))
    _assert_trips_match(fast, reference)
    assert fast.play.ledger["preempt"] > 0
    assert fast.play.stats["irq_firings"] > 0
    assert "interrupt" not in fast.play.ledger


def test_covert_schedule_matches_oracle(nfs_program, monkeypatch):
    schedule = [1_500_000, 0, 4_000_000]
    fast, reference = _against_oracle(
        monkeypatch,
        lambda: _nfs_trip(nfs_program, MachineConfig(), list(schedule)))
    _assert_trips_match(fast, reference)
    assert fast.play.ledger["covert"] == sum(schedule)


def test_exec_scenario_matches_oracle(monkeypatch):
    fast, reference = _against_oracle(
        monkeypatch, lambda: exec_round_trip(exec_scenario("sched"),
                                             covert=True, obs=_obs()))
    _assert_trips_match(fast, reference)
    assert fast.play.process_ledger


def test_lossy_chaos_fleet_matches_oracle(monkeypatch):
    """The standard roster has a covert and a lossy tenant; node chaos
    adds a crash and a stall on top."""
    def fleet():
        service = FleetService(
            default_tenants(3, requests=4),
            topology=FleetTopology(num_nodes=4), epochs=2, seed=7,
            chaos=NodeChaosPlan.parse("crash:1@180,stall:2@90+500"),
            registry=MetricsRegistry())
        report = service.run(jobs=1)
        return json.dumps(report.verdicts_dict(), sort_keys=True)

    fast, reference = _against_oracle(monkeypatch, fleet)
    assert fast == reference


def test_checkpoint_inside_idle_wait(nfs_program, monkeypatch):
    """Natives are atomic: a checkpoint requested at an instruction
    inside an idle wait is taken when the wait returns, and fast-forward
    must not move that point or anything the checkpoint records."""
    workload = build_nfs_workload(SplitMix64(7042), num_requests=REQUESTS)
    config = MachineConfig()
    first = play(nfs_program, config, workload=workload, seed=3)
    # The first PACKET's instruction count lies inside the first wait:
    # the guest polled up to it.
    packet = next(entry for entry in first.log.entries
                  if entry.kind == EventKind.PACKET)
    at_instr = packet.instr_count - 5

    def checkpointed():
        workload = build_nfs_workload(SplitMix64(7042),
                                      num_requests=REQUESTS)
        result, checkpoint = play_with_checkpoint(
            nfs_program, config, workload, at_instr, seed=3, obs=_obs())
        return (_observables(result), checkpoint.clock_cycles,
                checkpoint.log_position, checkpoint.tx_count,
                checkpoint.vm_state.instr_count)

    fast, reference = _against_oracle(monkeypatch, checkpointed)
    assert fast == reference
    assert fast[-1] > at_instr


# -- horizon boundaries --------------------------------------------------------


def _echo_play(program, arrivals, config, seed):
    return play(program, config, workload=ScriptedArrivals(list(arrivals)),
                seed=seed, obs=_obs())


def _poll_grid(program, config, seed):
    """Service cycles of every poll in an oracle run with one late
    arrival, and which of them were noise-redraw polls and which fired
    a (supporting-core) IRQ."""
    cycles, redraws, irqs = [], [], []
    original = Machine.service_world

    def record(machine):
        cycles.append(machine.clock.cycles)
        redraws.append(machine.cpu.blocks_before_redraw
                       == machine.cpu.config.speculation_period - 1)
        firings = machine.irq_controller.firings
        result = original(machine)
        irqs.append(machine.irq_controller.firings > firings)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NO_BATCH", "1")
        patch.setattr(Machine, "service_world", record)
        _echo_play(program, [(60_000_000, b"x")], config, seed)
    return cycles, redraws, irqs


_GRID_CONFIG = dataclasses.replace(MachineConfig(), poll_stride_cycles=9_000)
_GRID = {}


def _grid(program, seed):
    if seed not in _GRID:
        _GRID[seed] = _poll_grid(program, _GRID_CONFIG, seed)
    return _GRID[seed]


@st.composite
def _boundary_schedules(draw):
    """Arrival schedules placed on the poll grid: each arrival becomes
    visible exactly at, one cycle before, or one cycle after a poll
    (optionally a redraw poll, an IRQ poll, or a poll that is both), in
    bursts of same-cycle arrivals."""
    seed = draw(st.integers(min_value=0, max_value=3))
    picks = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=10_000),     # poll index
        st.sampled_from((-1, 0, 1)),                    # offset
        st.integers(min_value=1, max_value=3),          # burst size
        st.sampled_from(_POLL_KINDS)),                  # poll kind
        min_size=1, max_size=4))
    return seed, picks


_POLL_KINDS = ("any", "redraw", "irq", "redraw+irq")


def _schedule(grid, picks, sc_cycles):
    cycles, redraws, irqs = grid
    pools = {"any": range(len(cycles)),
             "redraw": [i for i, flag in enumerate(redraws) if flag],
             "irq": [i for i, flag in enumerate(irqs) if flag],
             "redraw+irq": [i for i, (redraw, irq)
                            in enumerate(zip(redraws, irqs))
                            if redraw and irq]}
    arrivals = []
    for index, offset, burst, kind in picks:
        pool = pools[kind] or pools["any"]
        poll = cycles[pool[index % len(pool)]]
        visible = max(0, poll + offset - sc_cycles)
        arrivals += [(visible, bytes([len(arrivals) % 256, burst]))
                     for _ in range(burst)]
    return arrivals


def test_grid_has_redraw_irq_polls(echo_program):
    """The explicit examples below need seed 0's grid to hold a poll
    that is both a redraw poll and an IRQ poll."""
    _, redraws, irqs = _grid(echo_program, 0)
    assert any(redraw and irq for redraw, irq in zip(redraws, irqs))


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_boundary_schedules())
@example((0, [(0, -1, 1, "redraw+irq")]))
@example((0, [(0, 0, 2, "redraw+irq")]))
@example((0, [(0, 1, 1, "redraw+irq"), (1, 0, 1, "irq")]))
def test_arrivals_at_horizon_boundaries(echo_program, monkeypatch, case):
    seed, picks = case
    config = _GRID_CONFIG
    arrivals = _schedule(_grid(echo_program, seed), picks,
                         config.sc_processing_cycles)

    def trip():
        played = _echo_play(echo_program, arrivals, config, seed)
        replayed = round_trip(echo_program, config,
                              workload=ScriptedArrivals(list(arrivals)),
                              play_seed=seed, replay_seed=seed + 11,
                              obs=_obs())
        return played, replayed

    (fast_play, fast_trip), (ref_play, ref_trip) = _against_oracle(
        monkeypatch, trip)
    assert _observables(fast_play) == _observables(ref_play)
    _assert_trips_match(fast_trip, ref_trip)
    assert len(fast_play.tx) == len(arrivals)


# -- deterministic work counter ---------------------------------------------------


def test_service_world_calls_drop_with_batching(nfs_program, monkeypatch):
    """One world service per simulated poll pins the idle loop's cost:
    the fast-forward makes it O(events), not O(idle cycles)."""
    calls = []
    original = Machine.service_world

    def counted(machine):
        calls.append(1)
        return original(machine)

    monkeypatch.setattr(Machine, "service_world", counted)

    def count():
        calls.clear()
        workload = build_nfs_workload(SplitMix64(7042),
                                      num_requests=REQUESTS)
        play(nfs_program, MachineConfig(), workload=workload, seed=3)
        return len(calls)

    batched, per_poll = _against_oracle(monkeypatch, count)
    assert batched * 5 <= per_poll


def test_full_polls_per_wait_do_not_grow(echo_program, monkeypatch):
    """Full polls (``_try_recv`` calls) are O(timed-core events): a wait
    for one packet simulates the same few polls however far out the
    packet is, because the skip crosses every CPU-noise redraw and every
    supporting-core IRQ on the way."""
    calls = []
    original = TimedCorePlatform._try_recv

    def counted(platform, vm, buf_handle):
        calls.append(1)
        return original(platform, vm, buf_handle)

    monkeypatch.setattr(TimedCorePlatform, "_try_recv", counted)
    config = MachineConfig()
    full_polls = []
    for arrival in (40_000_000, 160_000_000):
        def run():
            calls.clear()
            result = _echo_play(echo_program, [(arrival, b"x")], config,
                                seed=5)
            return len(calls), result

        (batched, fast), (per_poll, reference) = _against_oracle(
            monkeypatch, run)
        assert _observables(fast) == _observables(reference)
        # The wait crossed many redraws and IRQs (one redraw per 64
        # polls).
        assert per_poll > arrival // config.poll_stride_cycles
        assert fast.stats["irq_firings"] >= 10
        full_polls.append(batched)
    assert full_polls[0] == full_polls[1] <= 4


def test_world_services_see_the_oracle_bus(echo_program, monkeypatch):
    """Every world service the skip runs for real sees the clock and the
    bus traffic level that the per-poll loop gives that poll.  With
    1M-cycle strides IRQs fire a few polls apart, so the bus never
    settles at its fixed point between them and a quiet decay applied
    after an IRQ's traffic instead of before it would show."""
    config = dataclasses.replace(MachineConfig(),
                                 poll_stride_cycles=1_000_000)
    seen = []
    original = Machine.service_world

    def record(machine):
        seen.append((machine.clock.cycles, machine.bus.traffic_level))
        return original(machine)

    monkeypatch.setattr(Machine, "service_world", record)

    def run():
        seen.clear()
        result = _echo_play(echo_program, [(300_000_000, b"x")], config,
                            seed=5)
        return list(seen), result

    (batched, fast), (per_poll, reference) = _against_oracle(monkeypatch,
                                                             run)
    assert _observables(fast) == _observables(reference)
    assert set(batched) <= set(per_poll)
    assert len(batched) * 2 < len(per_poll)
    assert sum(level > 0.0 for _, level in batched) > 20
