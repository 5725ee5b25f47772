"""Differential tests: trace-compiling tier-up vs the pure interpreter.

The tier-up compiles hot bytecode regions into fused Python closures
that charge a pre-summed block cost through the batched platform.  The
charging replay is exact and block entry/exit protocols mirror the
interpreter byte-for-byte, so everything observable — total cycles,
per-source ledger sums, transmission times, serialized log bytes, audit
verdicts — must be bit-identical to the pure interpreter, which stays
available behind ``REPRO_NO_JIT=1`` as the differential reference
(mirroring ``REPRO_NO_BATCH`` for batched charging).
"""

from __future__ import annotations

import pytest

from repro.analysis.parallel import MachineSpec, run_fleet
from repro.apps import build_nfs_program, build_nfs_workload, compile_app
from repro.core.resilience import audit_resilient
from repro.core.tdr import play, round_trip
from repro.determinism import SplitMix64
from repro.faults import standard_fault_kinds
from repro.machine import MachineConfig
from repro.machine.machine import Machine
from repro.obs import Observability
from repro.vm.tracejit import _MIN_BLOCK, compile_region, jit_enabled

REQUESTS = 5
CHAOS_SEED = 20141006


@pytest.fixture(autouse=True)
def _jit_on_by_default(monkeypatch):
    """These are differential tests: each one flips the switch itself,
    so an ambient ``REPRO_NO_JIT`` (e.g. CI's no-JIT tier-1 leg) must
    not pre-disable the tier-up side of the comparison."""
    monkeypatch.delenv("REPRO_NO_JIT", raising=False)


@pytest.fixture(scope="module")
def nfs_program():
    return build_nfs_program()


def _round_trip(nfs_program, obs=None, schedule=None):
    workload = build_nfs_workload(SplitMix64(7042), num_requests=REQUESTS)
    return round_trip(nfs_program, MachineConfig(), workload=workload,
                      play_seed=3, replay_seed=9,
                      covert_schedule=schedule, obs=obs)


def _snapshot(result):
    return (result.total_cycles, result.instructions, result.tx,
            result.tx_times_ms(), result.ledger)


class TestBitIdentity:
    """JIT on vs ``REPRO_NO_JIT=1``: every observable must match."""

    def test_round_trip_with_ledger(self, nfs_program, monkeypatch):
        jit = _round_trip(nfs_program, obs=Observability())
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        interp = _round_trip(nfs_program, obs=Observability())

        assert _snapshot(jit.play) == _snapshot(interp.play)
        assert _snapshot(jit.replay) == _snapshot(interp.replay)
        assert jit.play.ledger == interp.play.ledger
        assert jit.play.ledger is not None
        # The reference run really was the pure interpreter.
        assert jit.play.jit is not None and jit.play.jit["enabled"]
        assert interp.play.jit is None

    def test_round_trip_no_obs(self, nfs_program, monkeypatch):
        jit = _round_trip(nfs_program)
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        interp = _round_trip(nfs_program)
        assert _snapshot(jit.play) == _snapshot(interp.play)
        assert _snapshot(jit.replay) == _snapshot(interp.replay)

    def test_covert_schedule_and_log_bytes(self, nfs_program, monkeypatch):
        schedule = [1_500, 4_000, 2_500, 6_000]
        jit = _round_trip(nfs_program, schedule=list(schedule))
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        interp = _round_trip(nfs_program, schedule=list(schedule))
        assert _snapshot(jit.play) == _snapshot(interp.play)
        # The serialized event log — the auditor's wire artifact — is
        # byte-identical, so attestation chains hash identically too.
        assert jit.play.log.to_bytes() == interp.play.log.to_bytes()

    def test_audit_verdicts_match(self, nfs_program, monkeypatch):
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

        jit = verdicts()
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        assert verdicts() == jit

    @pytest.mark.parametrize("severity", (1, 2))
    def test_chaos_verdicts_match(self, nfs_program, monkeypatch, severity):
        """Damaged-log audits classify identically with and without the
        tier-up: salvage replays go through the same VM."""
        def sweep():
            result = play(nfs_program, MachineConfig(),
                          workload=build_nfs_workload(SplitMix64(7042),
                                                      num_requests=REQUESTS),
                          seed=3)
            data = result.log.to_bytes()
            outcomes = []
            for plan in standard_fault_kinds(severity):
                rng = SplitMix64(CHAOS_SEED).fork(f"{plan.name}:{severity}")
                outcome = audit_resilient(nfs_program, result,
                                          plan.apply(data, rng),
                                          config=MachineConfig())
                outcomes.append((plan.name, outcome.classification,
                                 outcome.consistent, outcome.coverage,
                                 outcome.degradation))
            return outcomes

        jit = sweep()
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        assert sweep() == jit


class TestFleetDeterminism:
    """The tier-up is invisible to the parallel fleet, and the
    ``REPRO_*`` switches reach worker processes."""

    @staticmethod
    def _specs():
        return [MachineSpec(program="kernel:sor", config=MachineConfig(),
                            seed=seed) for seed in range(4)]

    @staticmethod
    def _facts(results):
        return [(r.total_cycles, r.instructions, r.tx) for r in results]

    def test_parallel_matches_serial(self):
        serial = self._facts(run_fleet(self._specs(), jobs=1))
        parallel = self._facts(run_fleet(self._specs(), jobs=4))
        assert parallel == serial

    def test_no_jit_propagates_to_workers(self, monkeypatch):
        jit_on = self._facts(run_fleet(self._specs(), jobs=4))
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        jit_off = self._facts(run_fleet(self._specs(), jobs=4))
        assert jit_off == jit_on


RAZOR_SRC = """
// Hot loop that tiers up, then faults mid-block: data[idx] walks
// 0..63 for the first 5000 iterations and jumps to 70 (out of bounds)
// at iteration 5000, forcing a side exit from a compiled region while
// a covert transmission is in flight.
void main() {
    int[] data = new int[64];
    covert_delay(500);
    int acc = 0;
    int i = 0;
    try {
        while (i < 20000) {
            int gate = i / 5000;
            int idx = gate * 70 + (1 - gate) * (i % 64);
            acc = acc + data[idx];
            i = i + 1;
        }
    } catch (e) {
        print_int(e);
    }
    send_packet(data, 4);
    print_int(acc);
    exit();
}
"""


class TestRazorSideExit:
    """A guest fault inside a compiled block mid-covert-transmission:
    the side exit must charge the exact instruction prefix, land the
    handler on the right pc, and leave every timing fact identical."""

    def test_side_exit_is_taken_and_bit_identical(self, monkeypatch):
        program = compile_app(RAZOR_SRC)
        jit = play(program, MachineConfig(), seed=0)
        assert jit.jit is not None
        assert jit.jit["entries"] > 0
        assert jit.jit["side_exits"] > 0          # the razor: faulted mid-block
        assert jit.console[0] == -2               # EXC_INDEX_OUT_OF_BOUNDS

        monkeypatch.setenv("REPRO_NO_JIT", "1")
        interp = play(program, MachineConfig(), seed=0)
        assert interp.jit is None
        assert jit.console == interp.console
        assert _snapshot(jit) == _snapshot(interp)
        assert jit.log.to_bytes() == interp.log.to_bytes()


class TestUnits:
    def test_escape_hatch(self, monkeypatch):
        assert jit_enabled()
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        assert not jit_enabled()

    def test_charge_block_matches_per_instruction_charges(self):
        """The batched block charge replays the noise stream exactly:
        same classes through ``charge_block`` and per-``charge`` on
        identically seeded machines leave identical clocks."""
        from repro.hw.cpu import CostClass

        one = Machine(MachineConfig(), seed=5, mode="play")
        two = Machine(MachineConfig(), seed=5, mode="play")
        base = one.platform.instruction_base_costs()
        assert base is not None
        # Long enough to cross several speculation-noise redraw periods.
        classes = tuple(CostClass(i % len(base)) for i in range(1000))
        bases = tuple(base[c] for c in classes)

        for cls in classes:
            one.platform.charge(cls)
        two.platform.charge_block(classes, bases, sum(bases))
        one.platform.flush_charges()
        two.platform.flush_charges()
        assert one.clock.cycles == two.clock.cycles
        assert one.clock.cycles > 0

    def test_compile_region_skips_tiny_regions(self):
        from repro.asm import assemble
        from repro.vm import NullPlatform

        platform = NullPlatform()
        program = assemble("""
        .func main 0 1
            iconst 1
            ret
        """, natives=platform)
        function = program.function("main")
        assert compile_region(function, 0, platform) is None

    def test_artifact_cache_shares_code_across_runs(self):
        """compile_region memoizes the compiled artifact on the
        Function: two runs (two platforms) share one code object but get
        independent counter blocks."""
        from repro.apps import build_kernel_program

        program = build_kernel_program("sor")
        one = Machine(MachineConfig(), seed=0, mode="play").platform
        two = Machine(MachineConfig(), seed=1, mode="play").platform
        for function in program.functions:
            for head in function.region_heads():
                first = compile_region(function, head, one)
                second = compile_region(function, head, two)
                if first is None:
                    assert second is None
                    continue
                assert second.run.__code__ is first.run.__code__
                assert second is not first
                assert first.n == second.n > 0

    def test_region_summary_shape(self):
        from repro.apps import build_kernel_program

        result = play(build_kernel_program("sor"), MachineConfig(), seed=0)
        summary = result.jit
        assert summary["enabled"]
        assert summary["compiled_regions"] > 0
        assert summary["entries"] > 0
        assert summary["jit_instructions"] > 0
        assert summary["jit_cycles"] > 0
        # Per-region stats are sorted busiest-first for reporting.
        regions = summary["regions"]
        assert regions == sorted(
            regions, key=lambda r: (-r["instructions"], r["function"],
                                    r["head_pc"]))
        assert all(r["length"] > _MIN_BLOCK - 1 for r in regions)

    def test_sampler_v2_export_and_hot_sites(self):
        from repro.obs.sampling import OpcodeSampler
        from repro.vm.isa import Op

        sampler = OpcodeSampler(stride=256)
        for _ in range(3):
            sampler.record(int(Op.IADD), 0, 17)
        sampler.record(int(Op.LOAD), 1, 4)
        sampler.record(int(Op.IMUL))          # v1 call shape: no site

        export = sampler.export()
        assert export["version"] == 2
        # v1 fields keep their exact meaning and shape.
        assert export["stride"] == 256
        assert export["samples"] == 5
        assert export["histogram"]["IADD"] == 3
        assert {(s["function"], s["pc"]) for s in export["sites"]} == \
            {(0, 17), (1, 4)}
        assert sampler.hot_sites(1) == [(0, 17, 3)]

    def test_sampler_sites_round_trip_through_fallback_window(self):
        """Regression: a window whose final entries ran through the
        tier-up's short-variant fallback chain must serialize and reload
        exactly.  The hot loop's sampler keeps recording through those
        tail-of-window entries, so its export carries their sites; the
        reload used to be impossible (no loader) and the histogram used
        a different unknown-opcode spelling (``op#N``) than ``sites``
        (``OP_N``), so the two halves of one export could not be parsed
        by one consumer."""
        import json

        from repro.apps import compile_app
        from repro.machine.machine import Machine
        from repro.obs.sampling import OpcodeSampler
        from repro.vm.interpreter import Interpreter

        program = compile_app(RAZOR_SRC)
        machine = Machine(MachineConfig(), seed=0, mode="play",
                          obs=Observability(trace=False))
        vm = Interpreter(program, machine.platform, machine.vm_config())
        machine.attach_observers(vm)
        vm.run(200_000_000)
        machine.platform.flush_charges()
        assert vm.jit is not None
        # The run really drove the fallback chain: some entries ran a
        # short variant hanging off a superblock.
        fallback_entries = sum(
            block.fallback.entries
            for fn_blocks in vm.jit.blocks if fn_blocks is not None
            for block in fn_blocks
            if block is not None and block.fallback is not None)
        assert fallback_entries > 0

        export = vm.sampler.export()
        assert export["sites"]
        # Serialize -> reload -> re-export: exact, through real JSON.
        reloaded = OpcodeSampler.from_export(
            json.loads(json.dumps(export)))
        assert reloaded.export() == export
        assert reloaded.hot_sites(5) == vm.sampler.hot_sites(5)

    def test_sampler_from_export_parses_fallback_mnemonics(self):
        """``OP_<code>`` names (unknown opcodes) and real mnemonics
        round-trip through one parser; junk raises."""
        import pytest as _pytest

        from repro.errors import ObservabilityError
        from repro.obs.sampling import OpcodeSampler
        from repro.vm.isa import Op

        sampler = OpcodeSampler(stride=64)
        sampler.record(int(Op.IADD), 2, 9)
        sampler.record(250, 2, 10)            # no such opcode
        export = sampler.export()
        assert export["histogram"]["OP_250"] == 1
        assert {s["op"] for s in export["sites"]} == {"IADD", "OP_250"}
        assert OpcodeSampler.from_export(export).export() == export
        with _pytest.raises(ObservabilityError):
            OpcodeSampler.from_export(
                {"stride": 64, "histogram": {"NOT_AN_OP": 1},
                 "sites": []})

    def test_region_stats_merge_fallback_chain(self):
        """Regression: ``region_stats()`` (and so ``summary()``) used to
        iterate only the superblocks, silently dropping every counter
        the short-variant fallbacks accumulated on tail-of-window
        entries.  The per-region rows must equal a raw walk over the
        whole chain."""
        from repro.apps import build_kernel_program
        from repro.machine.machine import Machine
        from repro.vm.interpreter import Interpreter

        program = build_kernel_program("sor")
        machine = Machine(MachineConfig(), seed=0, mode="play")
        vm = Interpreter(program, machine.platform, machine.vm_config())
        vm.run(200_000_000)
        machine.platform.flush_charges()

        raw = {"entries": 0, "side_exits": 0, "instructions": 0,
               "cycles": 0}
        fallback_entries = 0
        for fn_blocks in vm.jit.blocks:
            if fn_blocks is None:
                continue
            for head_block in fn_blocks:
                block = head_block
                while block is not None:
                    raw["entries"] += block.entries
                    raw["side_exits"] += block.side_exits
                    raw["instructions"] += block.instructions
                    raw["cycles"] += block.cycles
                    if block is not head_block:
                        fallback_entries += block.entries
                    block = block.fallback
        assert fallback_entries > 0        # the bug had something to drop
        summary = vm.jit.summary()
        assert summary["entries"] == raw["entries"]
        assert summary["side_exits"] == raw["side_exits"]
        assert summary["jit_instructions"] == raw["instructions"]
        assert summary["jit_cycles"] == raw["cycles"]
