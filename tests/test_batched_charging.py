"""Differential tests: batched cycle charging vs the unbatched reference.

The batched fast path accumulates integer cycle costs between poll/event
boundaries and flushes them as one ``VirtualClock.advance`` per source.
Integer addition is associative, so everything observable — total
cycles, per-source ledger sums, transmission times, audit verdicts —
must be bit-identical to the unbatched implementation, which stays
available behind ``REPRO_NO_BATCH=1`` as the reference.

The batched memory path is compiled from the same source template the
trace JIT inlines, so the L1 replacement-policy sweep below diffs that
one template against both oracles (``REPRO_NO_BATCH=1`` and
``REPRO_NO_JIT=1``) for every policy it renders.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps import build_nfs_program, build_nfs_workload
from repro.core.resilience import audit_resilient
from repro.core.tdr import round_trip
from repro.determinism import SplitMix64
from repro.hw.cache import ReplacementPolicy
from repro.hw.cpu import CostClass
from repro.machine import MachineConfig
from repro.machine.machine import Machine
from repro.machine.platform import _ACC_INSTR, _ACC_SOURCES, batching_enabled
from repro.obs import Observability

REQUESTS = 5


@pytest.fixture(scope="module")
def nfs_program():
    return build_nfs_program()


def _config(policy=ReplacementPolicy.LRU):
    config = MachineConfig()
    return dataclasses.replace(config, l1_config=dataclasses.replace(
        config.l1_config, policy=policy))


def _round_trip(nfs_program, obs=None, schedule=None,
                policy=ReplacementPolicy.LRU):
    workload = build_nfs_workload(SplitMix64(7042), num_requests=REQUESTS)
    return round_trip(nfs_program, _config(policy), workload=workload,
                      play_seed=3, replay_seed=9,
                      covert_schedule=schedule, obs=obs)


def _snapshot(result):
    return (result.total_cycles, result.instructions, result.tx,
            result.tx_times_ms(), result.ledger)


@pytest.mark.parametrize("oracle", ["REPRO_NO_BATCH", "REPRO_NO_JIT"])
@pytest.mark.parametrize("ledger", [False, True],
                         ids=["no-ledger", "ledger"])
@pytest.mark.parametrize("policy", list(ReplacementPolicy),
                         ids=lambda policy: policy.value)
def test_l1_policy_matches_oracle(nfs_program, monkeypatch, policy, ledger,
                                  oracle):
    """Every L1 policy renders its own template (only LRU moves a hit
    line); batched and compiled runs must match each oracle exactly,
    hit/miss counters included."""
    def trip():
        return _round_trip(nfs_program, policy=policy,
                           obs=Observability() if ledger else None)

    fast = trip()
    monkeypatch.setenv(oracle, "1")
    reference = trip()
    for ours, theirs in ((fast.play, reference.play),
                         (fast.replay, reference.replay)):
        assert _snapshot(ours) == _snapshot(theirs)
        assert ours.stats == theirs.stats
    assert (fast.play.ledger is not None) == ledger


def test_batched_matches_unbatched_with_ledger(nfs_program, monkeypatch):
    batched = _round_trip(nfs_program, obs=Observability())
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    unbatched = _round_trip(nfs_program, obs=Observability())

    assert _snapshot(batched.play) == _snapshot(unbatched.play)
    assert _snapshot(batched.replay) == _snapshot(unbatched.replay)
    # The ledger's per-source sums survive batching exactly (only the
    # number of charge *events* changes, never the cycles they carry).
    assert batched.play.ledger == unbatched.play.ledger
    assert batched.play.ledger is not None


def test_batched_matches_unbatched_no_obs(nfs_program, monkeypatch):
    batched = _round_trip(nfs_program)
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    unbatched = _round_trip(nfs_program)
    assert _snapshot(batched.play) == _snapshot(unbatched.play)
    assert _snapshot(batched.replay) == _snapshot(unbatched.replay)


def test_covert_schedule_matches_unbatched(nfs_program, monkeypatch):
    schedule = [1_500, 4_000, 2_500, 6_000]
    batched = _round_trip(nfs_program, schedule=list(schedule))
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    unbatched = _round_trip(nfs_program, schedule=list(schedule))
    assert _snapshot(batched.play) == _snapshot(unbatched.play)


def test_audit_verdicts_match_unbatched(nfs_program, monkeypatch):
    def verdicts():
        trip = _round_trip(nfs_program)
        report = trip.audit
        outcome = audit_resilient(nfs_program, trip.play,
                                  trip.play.log.to_bytes(),
                                  config=MachineConfig(), replay_seed=9)
        return (report.payloads_match, report.deviation_score(),
                report.total_time_error, report.is_consistent(),
                outcome.classification, outcome.consistent,
                outcome.coverage)

    batched = verdicts()
    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    assert verdicts() == batched


def test_no_batch_escape_hatch(monkeypatch):
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    for policy in (ReplacementPolicy.LRU, ReplacementPolicy.FIFO):
        machine = Machine(_config(policy), seed=0, mode="play")
        # Batched: the fast paths are bound as instance attributes, and
        # the memory template is offered to the trace JIT for every
        # policy.
        assert batching_enabled()
        assert "charge" in machine.platform.__dict__
        assert "mem_access" in machine.platform.__dict__
        assert machine.platform.mem_inline() is not None

    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    for policy in (ReplacementPolicy.LRU, ReplacementPolicy.FIFO):
        reference = Machine(_config(policy), seed=0, mode="play")
        assert not batching_enabled()
        assert "charge" not in reference.platform.__dict__
        assert "mem_access" not in reference.platform.__dict__
        assert reference.platform.mem_inline() is None


def test_no_ledger_charge_is_plain_accumulation(monkeypatch):
    """Without observability the charge path does no Source tagging:
    every cost lands in the single instruction slot of the accumulator,
    and flushing advances the clock by exactly that amount."""
    monkeypatch.delenv("REPRO_NO_BATCH", raising=False)
    machine = Machine(MachineConfig(), seed=0, mode="play")
    platform = machine.platform
    assert platform._ledger is None

    before = machine.clock.cycles
    for _ in range(64):
        platform.charge(CostClass(0))
    accumulated = platform._acc[_ACC_INSTR]
    assert accumulated > 0
    # No other accumulator slot (TLB/cache/bus/branch) was touched.
    assert all(platform._acc[i] == 0
               for i in range(len(_ACC_SOURCES)) if i != _ACC_INSTR)
    # The clock itself only moves at the flush boundary.
    assert machine.clock.cycles == before
    platform.flush_charges()
    assert machine.clock.cycles == before + accumulated
    assert platform._acc[_ACC_INSTR] == 0
