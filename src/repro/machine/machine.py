"""The machine: hardware assembly, mode handling, and the run loop.

A :class:`Machine` is single-shot: construct it with a config, a seed, and
a mode (``play`` / ``replay`` / ``naive-replay``), then :meth:`Machine.run`
one program on it.  The seed drives only the machine's *noise* — the
sources of time variability that the record/replay machinery deliberately
does not capture.  Running the same program with the same inputs and a
different seed is the paper's definition of a repeated execution on real
hardware; with the same seed it is the simulator's determinism check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.log import EventLog
from repro.core.session import (NaiveReplaySession, PlaySession,
                                ReplaySession, Session)
from repro.determinism import SplitMix64, ZeroNoise
from repro.errors import HardwareConfigError, ReplayError
from repro.hw.branch import BranchPredictor, BranchPredictorConfig
from repro.hw.bus import BusConfig, MemoryBus
from repro.hw.cache import Cache, CacheHierarchy
from repro.hw.clock import VirtualClock
from repro.hw.cpu import CpuModel, CpuTimingConfig
from repro.hw.interrupts import InterruptController, standard_sources
from repro.hw.memory import AddressSpace, FrameAllocator
from repro.hw.nic import Nic
from repro.hw.storage import Hdd, PaddedStorage, Ssd
from repro.hw.tlb import Tlb, TlbConfig
from repro.machine.config import MachineConfig, StorageKind
from repro.machine.natives import MACHINE_REGISTRY
from repro.machine.platform import TimedCorePlatform
from repro.obs.ledger import CycleLedger, Source
from repro.obs.sampling import OpcodeSampler
from repro.machine.ringbuf import STBuffer, TSBuffer
from repro.machine.workload import Workload
from repro.vm.interpreter import Interpreter, VmConfig
from repro.vm.program import Program

MODES = ("play", "replay", "naive-replay")

#: Factor by which the SC's bus traffic decays per world service.
_BUS_DECAY = 0.6


@dataclass
class ExecutionResult:
    """Everything one execution produced."""

    mode: str
    config_name: str
    seed: int
    tx: list[tuple[int, bytes]]           # (cycle, payload) transmissions
    console: list
    total_cycles: int
    total_ns: float
    instructions: int
    log: EventLog | None                  # present after a play run
    stats: dict[str, float] = field(default_factory=dict)
    #: Per-source cycle attribution (largest first); None without obs.
    ledger: dict[str, int] | None = None
    #: Per-process per-source attribution (``cycles{process=...}``);
    #: None except for executive (multi-process) runs with obs, where the
    #: per-process sums add up exactly to ``total_cycles``.
    process_ledger: dict[str, dict[str, int]] | None = None
    #: Sampled opcode-name histogram; None without obs.
    opcodes: dict[str, int] | None = None
    #: Trace-JIT tier-up summary (compile events, per-region entry /
    #: side-exit / cycle counts); None when the run was pure-interpreter
    #: (``REPRO_NO_JIT=1``).  Purely observational: cycles, ledger sums,
    #: transmissions and verdicts are bit-identical with the JIT on/off.
    jit: dict | None = None
    #: Cycle-exact stack profile (``CycleProfiler.export()``); None
    #: unless obs enabled profiling.  Per-source totals inside it sum
    #: exactly to ``ledger``, and — like every collector — profiling
    #: on/off leaves every other field bit-identical.
    profile: dict | None = None
    #: Exact ns-per-cycle rational of the producing clock (numerator /
    #: denominator).  A zero numerator marks a legacy result that must
    #: fall back to the float ratio.
    ns_num: int = 0
    ns_den: int = 1

    def tx_times_ms(self) -> list[float]:
        """Transmission times in milliseconds.

        Uses the clock's exact integer/Fraction ns conversion (integer
        product, one correctly rounded division) rather than a float
        ``total_ns / total_cycles`` scale, so long runs do not
        reintroduce the drift the VirtualClock rewrite removed.
        """
        if self.ns_num:
            num = self.ns_num
            den = self.ns_den * 1_000_000
            return [cycle * num / den for cycle, _ in self.tx]
        scale = self.total_ns / self.total_cycles if self.total_cycles else 0.0
        return [cycle * scale * 1e-6 for cycle, _ in self.tx]

    def ipds_ms(self) -> list[float]:
        """Inter-packet delays of the transmitted trace, in ms."""
        times = self.tx_times_ms()
        return [b - a for a, b in zip(times, times[1:])]


class Machine:
    """One simulated machine, assembled per the TC/SC design of §3.3."""

    def __init__(self, config: MachineConfig, seed: int = 0,
                 mode: str = "play", log: EventLog | None = None,
                 workload: Workload | None = None,
                 covert_enabled: bool = False,
                 covert_schedule: list[int] | None = None,
                 obs=None) -> None:
        if mode not in MODES:
            raise HardwareConfigError(f"unknown mode '{mode}'; "
                                      f"expected one of {MODES}")
        if mode != "play" and log is None:
            raise ReplayError(f"mode '{mode}' needs an event log")
        if mode != "play" and workload is not None:
            raise ReplayError("replay modes take inputs from the log, "
                              "not from a workload")
        self.config = config
        self.seed = seed
        self.mode = mode
        self.workload = workload
        # A non-empty schedule implies the channel primitive is active.
        self.covert_schedule = list(covert_schedule or [])
        self.covert_enabled = covert_enabled or bool(self.covert_schedule)
        self._covert_cursor = 0
        self.registry = MACHINE_REGISTRY

        root = SplitMix64(seed)
        # Residual sources: always stochastic (§6.9 — they bound accuracy).
        bus_rng = root.fork("bus")
        cpu_rng = root.fork("cpu")
        irq_rng = root.fork("irq")
        preempt_rng = root.fork("preempt")
        storage_rng = root.fork("storage")
        frames_rng = root.fork("frames")
        cache_init_rng = root.fork("cache-init")

        self.clock = VirtualClock(config.frequency_hz)
        # Observability (a repro.obs.Observability bundle, or None): the
        # ledger is per-run so play and replay never conflate totals; the
        # tracer and registry are shared across the bundle's machines.
        self.obs = obs
        self.ledger: CycleLedger | None = None
        if obs is not None and obs.ledger_enabled:
            self.ledger = CycleLedger()
            self.clock.attach_ledger(self.ledger)
        self.bus = MemoryBus(
            BusConfig(contention_probability=config.bus_contention_probability,
                      max_stall_cycles=config.bus_max_stall_cycles),
            bus_rng)
        self.cpu = CpuModel(
            CpuTimingConfig(costs=config.cost_table,
                            freq_scaling_enabled=config.freq_scaling,
                            turbo_enabled=config.turbo,
                            speculation_sigma=config.speculation_sigma),
            cpu_rng)
        self.l1 = Cache(config.l1_config)
        l2_config = config.l2_config
        if config.cache_partitioning:
            # Page-coloring-style partitioning: the timed core keeps a
            # private half of the L2 (half the sets), and the co-tenant
            # can no longer touch it.
            from dataclasses import replace as _replace

            l2_config = _replace(l2_config,
                                 size_bytes=l2_config.size_bytes // 2)
        self.l2 = Cache(l2_config)
        self.hierarchy = CacheHierarchy(self.l1, self.l2, self.bus,
                                        dram_cycles=config.dram_cycles)
        self.tlb = Tlb(TlbConfig(entries=config.tlb_entries,
                                 miss_cycles=config.tlb_miss_cycles))
        self.predictor = BranchPredictor(BranchPredictorConfig(
            table_entries=config.btb_entries,
            mispredict_cycles=config.mispredict_cycles))
        frame_allocator = FrameAllocator(
            config.num_frames, deterministic=config.deterministic_frames,
            noise_rng=frames_rng)
        self.address_space = AddressSpace(frame_allocator)
        self._irq_rng = irq_rng
        self.irq_controller = InterruptController(
            standard_sources(),
            irq_rng if config.irqs_enabled else ZeroNoise(),
            routed_to_timed_core=(config.irqs_enabled
                                  and not config.irqs_to_supporting_core))
        self._co_tenant_rng = root.fork("co-tenant")
        # The neighbor VM alternates bursty busy/idle phases; while busy
        # it contends for memory bandwidth and slows the timed core.
        self._co_tenant_busy = False
        self._co_tenant_phase_end = 0
        self._last_world_cycle = 0
        self._preempt_rng = preempt_rng
        self._next_preempt = (
            int(preempt_rng.exponential(config.preempt_mean_interval_cycles))
            if config.preemption_enabled else None)
        if config.storage == StorageKind.HDD:
            device = Hdd(storage_rng)
        else:
            device = Ssd(storage_rng)
        self.storage = PaddedStorage(device) if config.pad_storage else device
        self.nic = Nic()
        self.st_buffer = STBuffer()
        self.ts_buffer = TSBuffer()

        # Initialization and quiescence (§3.6): flush the caches, TLB, and
        # predictor, or start them in a pseudo-random "dirty" state.
        if config.flush_caches_at_start:
            self.hierarchy.flush()
            self.tlb.flush()
            self.predictor.flush()
        elif config.random_initial_cache:
            self.l1.randomize(cache_init_rng)
            self.l2.randomize(cache_init_rng)

        self.session: Session = self._build_session(log)
        if obs is not None and obs.tracer is not None:
            self.session.tracer = obs.tracer
        self.platform = TimedCorePlatform(self)
        self._ran = False

    def _build_session(self, log: EventLog | None) -> Session:
        if self.mode == "play":
            return PlaySession()
        if self.mode == "replay":
            return ReplaySession(log)
        return NaiveReplaySession(log)

    @property
    def is_play(self) -> bool:
        return self.mode == "play"

    def next_covert_delay(self) -> int:
        """Pop the next covert-delay schedule entry (0 when exhausted or
        on a clean machine)."""
        if self._covert_cursor >= len(self.covert_schedule):
            return 0
        value = self.covert_schedule[self._covert_cursor]
        self._covert_cursor += 1
        return max(0, int(value))

    # -- world interface (SC side) -----------------------------------------------

    def schedule_arrival(self, cycle: int, payload: bytes) -> None:
        """Workload hook: a packet reaches the NIC at ``cycle``."""
        self.nic.schedule_rx(cycle, payload)

    def input_queued(self) -> bool:
        """Whether a packet is staged or on its way (play mode).

        Arrivals are scheduled only by ``Workload.start`` and
        ``Workload.on_transmit``, so for a guest blocked in a packet
        wait — which cannot transmit — False means nothing will ever
        arrive, whether or not the workload considers itself finished.
        """
        return bool(self.st_buffer.pending or self.nic.pending_rx)

    def idle_horizon(self) -> int | None:
        """The first cycle at which :meth:`service_world` touches the
        timed core; None if no such cycle is scheduled.

        The terms are the next packet staging (play: arrival plus the
        SC's processing time), IRQ firing when IRQs are routed to the
        timed core, and preemption.  A co-tenant interferes on every
        call, so with one the horizon is now.
        """
        config = self.config
        if config.co_tenant_intensity > 0.0:
            return self.clock.cycles
        horizons = []
        if self.is_play:
            arrival = self.nic.next_arrival_cycle()
            if arrival is not None:
                horizons.append(arrival + config.sc_processing_cycles)
        if self.irq_controller.routed_to_timed_core:
            fire = self.irq_controller.next_fire_cycle()
            if fire is not None:
                horizons.append(fire)
        if self._next_preempt is not None:
            horizons.append(self._next_preempt)
        return min(horizons, default=None)

    def supporting_irq_cycle(self) -> int | None:
        """The first cycle at which :meth:`service_world` fires an IRQ
        handled on the supporting core; None if none is scheduled.

        Such a firing only adds bus traffic, so it bounds a run of
        quiet services without touching the timed core.
        """
        if self.irq_controller.routed_to_timed_core:
            return None
        return self.irq_controller.next_fire_cycle()

    def skip_quiet_services(self, count: int) -> None:
        """Apply ``count`` :meth:`service_world` calls that all fall short
        of :meth:`idle_horizon` and :meth:`supporting_irq_cycle`.

        Such a call only decays the bus traffic toward its floor, a pure
        function of the level that the bus replays decay by decay.
        """
        self.bus.decay_traffic(_BUS_DECAY, self.config.background_bus_traffic,
                               count)

    def service_world(self) -> None:
        """Advance the supporting core's world to the current time.

        Called from the interpreter's quantum hook and from every idle
        poll iteration: stages arrived packets, applies IRQ and preemption
        interference, and decays bus traffic.
        """
        now = self.clock.cycles
        config = self.config
        if self.is_play:
            ready = self.nic.poll_rx(now - config.sc_processing_cycles)
            for payload in ready:
                self.st_buffer.stage(payload)
                self.bus.add_traffic(Nic.DMA_TRAFFIC)
        if config.irqs_enabled:
            direct, lines, traffic = \
                self.irq_controller.pending_interference(now)
            if direct:
                self.clock.advance(direct, Source.INTERRUPT)
                self.hierarchy.pollute(self._irq_rng, lines,
                                       lines * 2)
            if traffic:
                self.bus.add_traffic(traffic)
        if self._next_preempt is not None:
            while self._next_preempt <= now:
                duration = int(self._preempt_rng.exponential(
                    config.preempt_mean_duration_cycles))
                self.clock.advance(duration, Source.PREEMPT)
                self.hierarchy.pollute(self._preempt_rng, 96, 384)
                self._next_preempt += max(1, int(self._preempt_rng.exponential(
                    config.preempt_mean_interval_cycles)))
        if config.co_tenant_intensity > 0.0:
            self._co_tenant_interference(now)
        self.bus.decay_traffic(_BUS_DECAY, config.background_bus_traffic)

    def _co_tenant_interference(self, now: int) -> None:
        """Cross-VM interference (§7 "Multi-tenancy").

        The neighbor alternates busy/idle phases (exponential durations).
        While busy it saturates the shared memory bus, stretching the
        timed core's progress; without partitioning it also pollutes the
        shared L2.  Cache/memory partitioning [33] confines the damage to
        a small bandwidth residual — "we speculate that recent work in
        the real-time domain could mitigate the cross-talk".
        """
        config = self.config
        rng = self._co_tenant_rng
        elapsed = now - self._last_world_cycle
        self._last_world_cycle = now
        while self._co_tenant_phase_end <= now:
            self._co_tenant_busy = not self._co_tenant_busy
            mean = 4e6 if self._co_tenant_busy else \
                4e6 * (1.0 / max(config.co_tenant_intensity, 1e-3) - 1.0 + 0.2)
            self._co_tenant_phase_end = now + max(
                1, int(rng.exponential(mean)))
        if not self._co_tenant_busy or elapsed <= 0:
            return
        slowdown = 0.05 if not config.cache_partitioning else 0.005
        self.clock.advance(int(elapsed * config.co_tenant_intensity
                               * slowdown), Source.CO_TENANT)
        self.bus.add_traffic(config.co_tenant_intensity * 0.3)
        if not config.cache_partitioning:
            self.l2.pollute(rng, 16)

    # -- execution --------------------------------------------------------------------

    def vm_config(self) -> VmConfig:
        """The interpreter configuration this machine's runs use."""
        return VmConfig(thread_quantum=self.config.thread_quantum,
                        poll_interval=self.config.vm_poll_interval)

    def attach_observers(self, vm: Interpreter) -> None:
        """Give ``vm`` this machine's obs collectors (sampler, profiler)."""
        if self.obs is None:
            return
        if self.obs.sample_opcodes:
            vm.sampler = OpcodeSampler(stride=self.config.vm_poll_interval)
        if getattr(self.obs, "profile_enabled", False) \
                and self.ledger is not None:
            from repro.obs.profiler import CycleProfiler

            vm.profiler = CycleProfiler(
                self.ledger, vm.program,
                flush=getattr(self.platform, "flush_charges", None),
                stride=self.obs.profile_stride,
                jit_stride=self.obs.profile_jit_stride)

    def run(self, program: Program,
            max_instructions: int | None = 200_000_000) -> ExecutionResult:
        """Execute ``program`` to completion; returns the result."""
        if self._ran:
            raise HardwareConfigError(
                "a Machine is single-shot; build a new one per execution")
        self._ran = True
        vm = Interpreter(program, self.platform, self.vm_config())
        self.attach_observers(vm)
        tracer = self.obs.tracer if self.obs is not None else None
        if tracer is not None:
            tracer.bind(self.clock.now_ns,
                        track=f"{self.mode}:{self.config.name}")
            tracer.begin("machine.run", mode=self.mode,
                         config=self.config.name, seed=self.seed)
        if self.workload is not None:
            if tracer is not None:
                with tracer.span("workload.start"):
                    self.workload.start(self)
            else:
                self.workload.start(self)
        if tracer is not None:
            tracer.begin("vm.execute")
        vm.run(max_instructions)
        self.platform.flush_charges()
        if tracer is not None:
            tracer.end("vm.execute", instructions=vm.instruction_count)
            tracer.end("machine.run", total_cycles=self.clock.cycles)
        result = self.make_result(vm)
        if self.obs is not None and self.obs.registry.enabled:
            registry = self.obs.registry
            registry.counter(
                "tdr_runs_total", "Machine executions completed").inc()
            registry.counter(
                f"tdr_runs_{self.mode.replace('-', '_')}_total",
                f"Executions in {self.mode} mode").inc()
            registry.histogram(
                "tdr_run_cycles", "Virtual cycles per run").observe(
                result.total_cycles)
            registry.histogram(
                "tdr_run_instructions", "Instructions per run").observe(
                result.instructions)
            registry.counter(
                "tdr_tx_packets_total", "Packets transmitted").inc(
                len(result.tx))
            if result.jit is not None:
                registry.counter(
                    "tdr_jit_compile_events_total",
                    "Functions tiered up to compiled blocks").inc(
                    result.jit["compile_events"])
                registry.counter(
                    "tdr_jit_compiled_regions_total",
                    "Bytecode regions compiled to superinstructions").inc(
                    result.jit["compiled_regions"])
                registry.counter(
                    "tdr_jit_block_entries_total",
                    "Compiled-block executions").inc(result.jit["entries"])
                registry.counter(
                    "tdr_jit_side_exits_total",
                    "Mid-block falls back to the interpreter").inc(
                    result.jit["side_exits"])
        return result

    def make_result(self, vm: Interpreter) -> ExecutionResult:
        """Assemble the :class:`ExecutionResult` of the machine's state.

        Split out of :meth:`run` so checkpoint/segment replay (which
        drives the interpreter itself) produces identical results.
        """
        self.platform.flush_charges()
        profile = None
        if vm.profiler is not None:
            # Post-flush: the residual sweep closes the accounting, so
            # the exported per-source totals equal the ledger exactly.
            vm.profiler.finish()
            profile = vm.profiler.export()
        log = self.session.log if isinstance(self.session, PlaySession) \
            else None
        ns_num, ns_den = self.clock.ns_ratio
        return ExecutionResult(
            mode=self.mode,
            config_name=self.config.name,
            seed=self.seed,
            tx=list(self.platform.tx_trace),
            console=list(self.platform.console),
            total_cycles=self.clock.cycles,
            total_ns=self.clock.now_ns(),
            instructions=vm.instruction_count,
            log=log,
            stats=self._collect_stats(vm),
            ledger=self.ledger.totals() if self.ledger is not None else None,
            process_ledger=(self.ledger.process_totals() or None
                            if self.ledger is not None else None),
            opcodes=(vm.sampler.histogram() if vm.sampler is not None
                     else None),
            jit=(vm.jit.summary() if vm.jit is not None else None),
            profile=profile,
            ns_num=ns_num, ns_den=ns_den)

    def _collect_stats(self, vm: Interpreter) -> dict[str, float]:
        l1, l2 = self.l1, self.l2
        stats = {
            "l1_hits": l1.hits, "l1_misses": l1.misses,
            "l2_hits": l2.hits, "l2_misses": l2.misses,
            "dram_accesses": self.hierarchy.dram_accesses,
            "tlb_misses": self.tlb.misses,
            "branch_mispredicts": self.predictor.mispredictions,
            "bus_collisions": self.bus.collisions,
            "bus_stall_cycles": self.bus.total_stall_cycles,
            "irq_firings": self.irq_controller.firings,
            "gc_runs": vm.heap.gc_runs,
            "storage_reads": self.storage.reads,
            "events_handled": self.session.events_handled,
        }
        if isinstance(self.session, ReplaySession):
            stats["injection_slack"] = self.session.max_injection_slack
        return stats
