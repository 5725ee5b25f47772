"""The timed core: the :class:`~repro.vm.platform.Platform` implementation
backed by the simulated hardware.

Everything the paper's §3 describes comes together here:

* per-instruction cycle charging through the CPU model (with its residual
  speculation noise and optional frequency scaling);
* data/instruction accesses through TLB → virt-phys translation →
  physically-indexed L1/L2 → DRAM over the contended bus;
* conditional branches through the 2-bit predictor;
* the S-T / T-S ring-buffer protocol with symmetric costs in play and
  replay (§3.4-3.5);
* the blocking-receive idle loop, which advances the instruction counter
  once per poll stride so arrivals are identifiable points (§3.2) and
  which the *naive* replayer skips (§2.5).  With batching on, the quiet
  polls between events that can touch the timed core are charged in
  exact steps, one per CPU-noise redraw or supporting-core IRQ, instead
  of simulated one by one (idle fast-forward, DESIGN.md §4.5);
* the native interface (I/O, ``nano_time``, ``covert_delay``).

Batched cycle charging
----------------------

At interpreter-in-an-interpreter depth, one host-level
``VirtualClock.advance`` per guest instruction is the dominant simulation
overhead.  The virtual clock, however, is only ever *read* at controlled
boundaries — platform polls, event injections (``nano_time`` / packet
delivery), transmissions, covert delays, and I/O — so between boundaries
the platform accumulates cycles in plain integer slots (one per ledger
source) and flushes them as a single ``advance`` per source at the next
boundary.  Per-source sums, the clock total, transmission cycles, and
audit verdicts are bit-identical to the unbatched path, because integer
addition is associative and nothing observes the clock mid-batch; only
the *number* of ledger charge events changes (one per flush instead of
one per instruction).  Set ``REPRO_NO_BATCH=1`` to fall back to the
immediate-advance path for differential testing.

The batched memory path exists once, as a source template
(``render_mem``): the interpreter's ``mem_access``/``fetch_access`` is the
function compiled from it, and the trace JIT inlines the same lines into
compiled blocks, so both tiers execute the same rendered source.  The
unbatched ``TimedCorePlatform.mem_access`` is the only other copy — the
hand-written oracle the template is tested against.
"""

from __future__ import annotations

import functools
import math
import os
from typing import TYPE_CHECKING

from repro.hw.cache import ReplacementPolicy
from repro.hw.cpu import CostClass
from repro.obs.ledger import Source
from repro.vm.heap import GuestThrow
from repro.vm.isa import EXC_INDEX_OUT_OF_BOUNDS, EXC_NULL_REFERENCE
from repro.vm.platform import Platform

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine
    from repro.vm.interpreter import Interpreter

_WORD = 8
_PAGE_SHIFT = 12

#: Accumulator slots, flushed in this (fixed, deterministic) order.
_ACC_INSTR, _ACC_CACHE, _ACC_TLB, _ACC_BUS, _ACC_BRANCH = range(5)
_ACC_SOURCES = (Source.INSTRUCTION, Source.CACHE, Source.TLB, Source.BUS,
                Source.BRANCH)


def batching_enabled() -> bool:
    """Whether new platforms use the batched charging fast path."""
    return os.environ.get("REPRO_NO_BATCH", "") != "1"


@functools.lru_cache(maxsize=None)
def _compile_mem(source: str):
    """Code object of a rendered batched ``mem_access``.

    The source is a pure function of the machine's constants, so every
    machine of a configuration shares one compile.
    """
    return compile(source, "<mem_access>", "exec")


class TimedCorePlatform(Platform):
    """Timed-core execution environment for one machine run."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        config = machine.config
        self.config = config
        # Hot-path aliases.
        self.clock = machine.clock
        self.cpu = machine.cpu
        self.tlb = machine.tlb
        self.space = machine.address_space
        self.hierarchy = machine.hierarchy
        self.predictor = machine.predictor
        self.bus = machine.bus
        self.session = machine.session
        self.st_buffer = machine.st_buffer
        self.ts_buffer = machine.ts_buffer
        # Attribution ledger, if the machine was built with observability.
        # ``mem_access`` keeps a combined-advance fast path when absent.
        self._ledger = machine.clock.ledger
        self.console: list = []
        self.tx_trace: list[tuple[int, bytes]] = []
        #: Set by :class:`repro.exec.Executive` when this machine hosts
        #: multiple guest processes; the exec_* natives dispatch into it.
        self.executive = None
        # A JIT register-allocates locals: LOAD/STORE of stack slots do
        # not touch the memory hierarchy (Table 2's Oracle-JIT model).
        from repro.machine.config import RuntimeKind
        from repro.vm.heap import HEAP_BASE
        from repro.vm.interpreter import STACK_BASE

        self._registerized_base = ((STACK_BASE, HEAP_BASE)
                                   if config.runtime == RuntimeKind.ORACLE_JIT
                                   else None)
        registry = machine.registry
        self._specs = [registry.spec(i) for i in range(len(registry))]
        self._handlers = [getattr(self, f"_native_{spec.name}")
                          for spec in self._specs]
        # Batched-charging state.  ``_acc`` holds per-source pending
        # cycles; ``_acc_misc`` the rare sources (gc, ...).  The class
        # bodies below are the unbatched (immediate-advance) reference
        # implementations; the batched fast paths are installed as
        # instance attributes so the interpreter's hot-loop aliases pick
        # them up transparently.
        self.batching = batching_enabled()
        self._acc = [0, 0, 0, 0, 0]
        self._acc_misc: dict[str, int] = {}
        self._mem_inline = None
        if self.batching:
            self._install_batched_paths()

    # -- Platform interface ---------------------------------------------------

    def charge(self, cost_class: CostClass) -> None:
        self.clock.advance(self.cpu.instruction_cost(cost_class),
                           Source.INSTRUCTION)

    def mem_access(self, vaddr: int) -> None:
        if self._registerized_base is not None and \
                self._registerized_base[0] <= vaddr < \
                self._registerized_base[1]:
            return
        if self._ledger is None:
            cost = self.tlb.access(vaddr >> _PAGE_SHIFT)
            paddr = self.space.translate(vaddr)
            cost += self.hierarchy.access(paddr)
            if cost:
                self.clock.advance(cost)
            return
        # Attributed path: TLB walk, cache/DRAM latency, and the bus-stall
        # share of DRAM fills land in their own buckets.  The split changes
        # only bookkeeping — the summed advance is identical to the fast
        # path, so cycle counts stay bit-identical either way.
        tlb_cost = self.tlb.access(vaddr >> _PAGE_SHIFT)
        if tlb_cost:
            self.clock.advance(tlb_cost, Source.TLB)
        paddr = self.space.translate(vaddr)
        stall_before = self.bus.total_stall_cycles
        cost = self.hierarchy.access(paddr)
        stall = self.bus.total_stall_cycles - stall_before
        if stall:
            self.clock.advance(cost - stall, Source.CACHE)
            self.clock.advance(stall, Source.BUS)
        elif cost:
            self.clock.advance(cost, Source.CACHE)

    def fetch_access(self, code_vaddr: int) -> None:
        self.mem_access(code_vaddr)

    def branch(self, branch_site: int, taken: bool) -> None:
        penalty = self.predictor.record(branch_site, taken)
        if penalty:
            self.clock.advance(penalty, Source.BRANCH)

    def charge_cycles(self, cycles: int, source: str = "other") -> None:
        if self.batching:
            misc = self._acc_misc
            misc[source] = misc.get(source, 0) + cycles
            return
        self.clock.advance(cycles, source)

    def instruction_base_costs(self) -> list[int]:
        """Noise-free base costs per :class:`CostClass` (dense list)."""
        return list(self.cpu._cost_list)

    def mem_inline(self):
        """The batched memory-path template, for inlining into trace blocks.

        The same ``render_mem`` that generated the batched ``mem_access``
        and ``fetch_access``, so interpreted and compiled accesses run the
        same source.  Available for every L1 replacement policy whenever
        batching is on; ``None`` under ``REPRO_NO_BATCH=1``, which keeps
        the unbatched oracle in the plain method-call form.
        """
        return self._mem_inline

    def flush_charges(self) -> None:
        """Drain pending batched cycles into the clock, one advance per
        source, in a fixed order.

        Called at every boundary where the virtual clock becomes
        observable.  Cheap when nothing is pending; a no-op on the
        unbatched (``REPRO_NO_BATCH=1``) path, whose accumulators never
        fill.
        """
        acc = self._acc
        advance = self.clock.advance
        for slot, source in enumerate(_ACC_SOURCES):
            pending = acc[slot]
            if pending:
                acc[slot] = 0
                advance(pending, source)
        misc = self._acc_misc
        if misc:
            for source, pending in misc.items():
                if pending:
                    advance(pending, source)
            misc.clear()

    def _install_batched_paths(self) -> None:
        """Bind fast paths for the per-instruction hot calls.

        Closures over local aliases beat bound methods here: the
        interpreter calls ``charge``/``mem_access``/``fetch_access``
        once or more per guest instruction, so every attribute lookup
        removed is measurable.  ``mem_access`` is compiled from the
        ``render_mem`` template the trace JIT inlines.  The no-ledger
        variants do no ``Source`` tagging at all — one plain integer add
        per charge — which keeps the obs-off configuration inside its <5%
        overhead bound.
        """
        acc = self._acc

        # The per-instruction cost computation is inlined from
        # CpuModel.instruction_cost: at one call per guest instruction,
        # the method-call overhead alone is a measurable share of the
        # simulation.  The state updates are identical (shared counters,
        # same redraw points, same Bresenham fractional carry) so
        # instruction_cost() callers interleave transparently.
        cpu = self.cpu
        cost_list = cpu._cost_list
        speculation_period = cpu.config.speculation_period
        recompute_noise = cpu._recompute_noise

        def charge(cost_class: CostClass) -> None:
            cpu._instructions += 1
            left = cpu._until_redraw - 1
            if left:
                cpu._until_redraw = left
            else:
                cpu._until_redraw = speculation_period
                recompute_noise()
            combined = cpu._combined
            frac = cpu._frac
            base = cost_list[cost_class]
            if combined == 1.0 and frac == 0.0:
                acc[_ACC_INSTR] += base
                return
            exact = base * combined + frac
            cost = int(exact)
            cpu._frac = exact - cost
            acc[_ACC_INSTR] += cost

        # Block-level charging for the trace-compiling tier-up.  The
        # fast path is provably exact: with no pending fractional carry,
        # a unit combined factor, and no redraw point inside the block
        # (``_until_redraw > n`` — the redraw fires when the countdown
        # *reaches* zero, before the cost is read), every one of the n
        # per-instruction charges would have returned its base cost
        # unchanged.  Otherwise the loop replays the per-instruction
        # computation exactly — same counter updates, same redraw
        # points, same Bresenham carry — so cycle totals are
        # bit-identical to n individual charge() calls either way.
        def charge_block(cost_classes, base_costs=(),
                         base_total: int = 0) -> None:
            n = len(cost_classes)
            if cpu._combined == 1.0 and cpu._frac == 0.0 \
                    and cpu._until_redraw > n:
                cpu._instructions += n
                cpu._until_redraw -= n
                acc[_ACC_INSTR] += base_total
                return
            if len(base_costs) != n:
                base_costs = [cost_list[c] for c in cost_classes]
            # Replay loop on locals; _recompute_noise only touches the
            # factor fields, so the countdown and fractional carry can
            # live in registers and be written back once.  With no
            # redraw point inside the block the noise factor is constant
            # and the countdown moves in one step, leaving only the
            # Bresenham carry to replay per instruction.
            total = 0
            until = cpu._until_redraw
            combined = cpu._combined
            frac = cpu._frac
            if until > n:
                for base in base_costs:
                    exact = base * combined + frac
                    cost = int(exact)
                    frac = exact - cost
                    total += cost
                until -= n
            else:
                for base in base_costs:
                    until -= 1
                    if until == 0:
                        until = speculation_period
                        recompute_noise()
                        combined = cpu._combined
                    if combined == 1.0 and frac == 0.0:
                        total += base
                        continue
                    exact = base * combined + frac
                    cost = int(exact)
                    frac = exact - cost
                    total += cost
            cpu._instructions += n
            cpu._until_redraw = until
            cpu._frac = frac
            acc[_ACC_INSTR] += total

        # The memory-path template (see the module docstring): it inlines
        # the TLB hit, the page-table lookup, and the L1 hit, and
        # delegates the miss sides to ``Tlb.miss``/``access_after_l1_miss``
        # — the component code the unbatched oracle calls.  The page
        # geometry is ``Machine``'s fixed 4 KiB ``PAGE_SIZE``.
        l1 = self.hierarchy.l1
        ledger = self._ledger is not None
        lru = l1.config.policy is ReplacementPolicy.LRU
        l1_shift = l1._line_shift
        l1_nsets = l1._num_sets
        l1_hit_cycles = l1.config.hit_cycles
        registerized = self._registerized_base
        inline_ns = {
            "_tlbO": self.tlb, "_tlbE": self.tlb._entries,
            "_tlbM": self.tlb.miss,
            "_ptg": self.space._page_table.get, "_xl": self.space.translate,
            "_l1S": l1._sets, "_l1O": l1,
            "_l1M": self.hierarchy.access_after_l1_miss,
            "_l1wb": l1.take_writeback_cost,
            "_acc": acc, "_busO": self.bus,
        }

        def render_mem(expr: str) -> list[str]:
            lines = [f"_am = {expr}"]
            body = [f"_avp = _am >> {_PAGE_SHIFT}",
                    "if _avp in _tlbE:",
                    "    _tlbO.hits += 1",
                    "    del _tlbE[_avp]",
                    "    _tlbE[_avp] = True"]
            if ledger:
                body += ["else:",
                         f"    _acc[{_ACC_TLB}] += _tlbM(_avp)"]
            else:
                body += ["    _amc = 0",
                         "else:",
                         "    _amc = _tlbM(_avp)"]
            body += ["_apf = _ptg(_avp)",
                     "if _apf is None:",
                     "    _apa = _xl(_am)",
                     "else:",
                     f"    _apa = (_apf << {_PAGE_SHIFT})"
                     f" | (_am & {(1 << _PAGE_SHIFT) - 1})",
                     f"_ali = _apa >> {l1_shift}",
                     f"_awy = _l1S[_ali % {l1_nsets}]",
                     f"_atg = _ali // {l1_nsets}",
                     "if _atg in _awy:",
                     "    _l1O.hits += 1"]
            if lru:
                # Cache.access moves a hit line to MRU only under LRU.
                body += ["    del _awy[_atg]",
                         "    _awy[_atg] = True"]
            if ledger:
                body += [f"    _amc = {l1_hit_cycles}",
                         "    if _l1O._pending_writeback:",
                         "        _amc += _l1wb()",
                         f"    _acc[{_ACC_CACHE}] += _amc",
                         "else:",
                         # L1 misses can reach DRAM, whose fills traverse
                         # the contended bus: split the stall share out
                         # exactly as the unbatched path does.
                         "    _asb = _busO.total_stall_cycles",
                         f"    _amc = _l1M(_apa, _ali % {l1_nsets}, _atg)",
                         "    _ast = _busO.total_stall_cycles - _asb",
                         "    if _ast:",
                         f"        _acc[{_ACC_CACHE}] += _amc - _ast",
                         f"        _acc[{_ACC_BUS}] += _ast",
                         "    else:",
                         f"        _acc[{_ACC_CACHE}] += _amc"]
            else:
                # No attribution wanted: everything lands in one slot
                # (the flush tag is ignored without a ledger).
                body += [f"    _amc += {l1_hit_cycles}",
                         "    if _l1O._pending_writeback:",
                         "        _amc += _l1wb()",
                         "else:",
                         f"    _amc += _l1M(_apa, _ali % {l1_nsets}, _atg)",
                         f"_acc[{_ACC_INSTR}] += _amc"]
            if registerized is not None:
                lines.append(f"if not ({registerized[0]} <= _am"
                             f" < {registerized[1]}):")
                lines += ["    " + b for b in body]
            else:
                lines += body
            return lines

        self._mem_inline = (render_mem, inline_ns)
        source = "\n".join(["def mem_access(vaddr):"]
                           + ["    " + line for line in render_mem("vaddr")])
        mem_ns = dict(inline_ns)
        exec(_compile_mem(source), mem_ns)  # noqa: S102 - fixed template
        mem_access = mem_ns["mem_access"]

        record_branch = self.predictor.record
        branch_slot = _ACC_BRANCH if ledger else _ACC_INSTR

        def branch(branch_site: int, taken: bool) -> None:
            penalty = record_branch(branch_site, taken)
            if penalty:
                acc[branch_slot] += penalty

        self.charge = charge
        self.charge_block = charge_block
        self.mem_access = mem_access
        self.fetch_access = mem_access
        self.branch = branch

    def on_quantum(self, interpreter: "Interpreter") -> None:
        self.flush_charges()
        self.machine.service_world()

    def native_call(self, index: int, interpreter: "Interpreter") -> None:
        spec = self._specs[index]
        args = interpreter.pop_args(spec.num_args)
        result = self._handlers[index](interpreter, args)
        if spec.returns_value:
            interpreter.push_result(result)

    # -- shared helpers -----------------------------------------------------------

    def _guest_array(self, vm: "Interpreter", handle: int):
        if handle == 0:
            raise GuestThrow(EXC_NULL_REFERENCE)
        return vm.heap.get(handle)

    def _charge_st_check(self) -> None:
        """The read-compare-write next-entry check of §3.5 (both modes)."""
        for vaddr in self.st_buffer.check_addresses():
            self.mem_access(vaddr)

    def _try_recv(self, vm: "Interpreter", buf_handle: int) -> int:
        """One non-blocking receive attempt; returns byte count or -1."""
        self._charge_st_check()
        # Event-injection boundary: the session (and its tracer) must see
        # the clock exactly as the unbatched path would.
        self.flush_charges()
        staged = self.st_buffer.head() if self.machine.is_play else None
        payload = self.session.packet_due(vm.instruction_count, staged)
        if payload is None:
            return -1
        if self.machine.is_play:
            self.st_buffer.consume()
        else:
            # Keep the ring indices (and hence the charged addresses)
            # aligned with play: replay stages the logged packet into the
            # same slot before consuming it (the SC's job during replay).
            self.st_buffer.stage(payload)
            self.st_buffer.consume()
        if self.session.injection_overhead_cycles:
            self.clock.advance(self.session.injection_overhead_cycles,
                               Source.INJECTION)
        obj = self._guest_array(vm, buf_handle)
        count = min(len(payload), len(obj.data))
        for vaddr in self.st_buffer.copy_addresses(count):
            self.mem_access(vaddr)
        data = obj.data
        base = obj.vaddr + 16
        for i in range(count):
            data[i] = payload[i]
            self.mem_access(base + i * _WORD)
        return count

    # -- natives ----------------------------------------------------------------------

    def _native_print_int(self, vm: "Interpreter", args: list) -> None:
        self.console.append(int(args[0]))

    def _native_print_float(self, vm: "Interpreter", args: list) -> None:
        self.console.append(float(args[0]))

    def _native_nano_time(self, vm: "Interpreter", args: list) -> int:
        self.flush_charges()    # the guest is about to read the clock
        live = int(self.clock.now_ns())
        # Figure 4: identical memory accesses in play and replay.
        cell_vaddr = self.session.time_cell.vaddr
        self.mem_access(cell_vaddr)
        self.mem_access(cell_vaddr)
        self.flush_charges()    # event-injection boundary
        value = self.session.observe_time(vm.instruction_count, live)
        if self.session.injection_overhead_cycles:
            self.clock.advance(self.session.injection_overhead_cycles,
                               Source.INJECTION)
        return value

    def _native_send_packet(self, vm: "Interpreter", args: list) -> None:
        buf_handle, length = args
        obj = self._guest_array(vm, buf_handle)
        if length < 0 or length > len(obj.data):
            raise GuestThrow(EXC_INDEX_OUT_OF_BOUNDS)
        data = obj.data
        base = obj.vaddr + 16
        payload = bytearray(length)
        for i in range(length):
            payload[i] = int(data[i]) & 0xFF
            self.mem_access(base + i * _WORD)
        for vaddr in self.ts_buffer.write_addresses(length):
            self.mem_access(vaddr)
        self.ts_buffer.advance()
        packet = bytes(payload)
        # Transmission boundary: the tx timestamp is a clock read.
        self.flush_charges()
        cycle = self.clock.cycles
        self.tx_trace.append((cycle, packet))
        # The SC reads the entry off the T-S buffer in both modes (it
        # forwards during play, discards during replay) — bus traffic is
        # the same either way.
        self.bus.add_traffic(0.15)
        if self.machine.is_play:
            self.machine.nic.transmit(cycle, packet)
            if self.machine.workload is not None:
                self.machine.workload.on_transmit(self.machine, cycle,
                                                  packet)

    def _native_recv_packet(self, vm: "Interpreter", args: list) -> int:
        return self._try_recv(vm, args[0])

    def _native_wait_packet(self, vm: "Interpreter", args: list) -> int:
        stride = self.config.poll_stride_cycles
        session = self.session
        machine = self.machine
        tlb, l1 = self.tlb, self.hierarchy.l1
        while True:
            tlb_hits, tlb_misses = tlb.hits, tlb.misses
            l1_hits, l1_misses = l1.hits, l1.misses
            count = self._try_recv(vm, args[0])
            if count >= 0:
                return count
            # A hopeless wait returns end-of-input rather than spin
            # forever.  In play, a guest blocked here cannot transmit,
            # so with nothing staged or queued nothing will ever
            # arrive; in replay, a damaged log can leave a non-PACKET
            # entry at the cursor that nothing can ever consume.
            if machine.is_play:
                if not machine.input_queued():
                    return -1
                packet_instr = None
            else:
                packet_instr = session.pending_packet_instr()
                if packet_instr is None:
                    return -1
            if session.skips_waits:
                target = session.wait_target(vm.instruction_count)
                if target is None:
                    return -1
                # A conventional replayer fast-forwards through the idle
                # phase: the instruction counter jumps, wall time barely
                # moves (Fig 3's "replay faster than play" segments).
                vm.instruction_count = max(vm.instruction_count, target)
                self.clock.advance(2_000, Source.INJECTION)
                continue
            # One poll iteration = one counted point in the execution.
            vm.instruction_count += 1
            scaled = self.cpu.scale_block(stride)
            self.clock.advance(scaled, Source.IDLE)
            if not self.batching:
                machine.service_world()
                continue
            now = self.clock.cycles
            horizon = machine.idle_horizon()
            machine.service_world()
            if tlb.misses == tlb_misses and l1.misses == l1_misses \
                    and (horizon is None or now < horizon):
                self._skip_quiet_polls(
                    vm, tlb.hits - tlb_hits, l1.hits - l1_hits, scaled,
                    stride, horizon, packet_instr)

    def _skip_quiet_polls(self, vm: "Interpreter", tlb_hits: int,
                          l1_hits: int, scaled: int, stride: int,
                          horizon: int | None,
                          packet_instr: int | None) -> None:
        """Charge the quiet polls that follow a quiet poll of a wait.

        Called after a *quiet* poll: its S-T check hit the TLB and L1
        and its world service fell short of the timed-core horizon, so
        the next poll repeats exactly the same work.  Each run of polls
        at one noise factor, short of the horizon, the next
        supporting-core IRQ and, in replay, the logged packet, is
        charged in one exact step.  The poll that ends a run is charged
        on its own: ``scale_block`` draws a redraw poll's new factor,
        and a poll that reaches a supporting-core IRQ gets the real
        world service, which only adds bus traffic.  Either way the
        next poll is still quiet, so the skip goes on until the horizon
        or the logged packet (DESIGN.md §4.5).
        """
        cpu, clock, machine = self.cpu, self.clock, self.machine
        tlb, l1 = self.tlb, self.hierarchy.l1
        st_cycles = l1_hits * l1.config.hit_cycles
        # The tag the batched flush would give the S-T hits.
        st_source = (Source.CACHE if self._ledger is not None
                     else Source.INSTRUCTION)

        def charge(polls: int, idle: int, quiet_services: int) -> None:
            # Nothing reads the clock, the hit counters or the bus
            # between world services, so polls are put on them at once.
            tlb.hits += polls * tlb_hits
            l1.hits += polls * l1_hits
            if st_cycles:
                clock.advance(polls * st_cycles, st_source)
            clock.advance(idle, Source.IDLE)
            machine.skip_quiet_services(quiet_services)

        # Only an arrival or the logged packet ends a run of IRQ-only
        # services; without either, the per-poll loop decides whether
        # the wait is hopeless.
        bounded = horizon is not None or packet_instr is not None
        if horizon is None:
            horizon = math.inf
        now = clock.cycles
        polls = idle = 0    # polls charged since the clock last moved
        while True:
            irq = machine.supporting_irq_cycle()
            bound = horizon if irq is None else min(horizon, irq)
            while True:
                k = min(cpu.blocks_before_redraw,
                        (bound - 1 - now) // (st_cycles + scaled))
                if packet_instr is not None:
                    k = min(k, packet_instr - vm.instruction_count)
                if k > 0:
                    vm.instruction_count += k
                    polls += k
                    idle += cpu.scale_blocks(stride, k)
                    now += k * (st_cycles + scaled)
                if not bounded or vm.instruction_count == packet_instr:
                    if polls:
                        charge(polls, idle, polls)
                    return
                # The next poll redraws the noise factor or reaches the
                # bound.
                vm.instruction_count += 1
                polls += 1
                scaled = cpu.scale_block(stride)
                idle += scaled
                now += st_cycles + scaled
                if now >= bound:
                    break
            charge(polls, idle, polls - 1)
            polls = idle = 0
            machine.service_world()
            if now >= horizon:
                return

    def _native_storage_read(self, vm: "Interpreter", args: list) -> int:
        from repro.determinism import mix64
        from repro.machine.natives import STORAGE_BLOCK_WORDS

        block, buf_handle = args
        if block < 0:
            raise GuestThrow(EXC_INDEX_OUT_OF_BOUNDS)
        self.flush_charges()    # I/O boundary
        obj = self._guest_array(vm, buf_handle)
        # The SC performs the I/O (§3.7); the TC waits for the (possibly
        # padded) device latency and the DMA raises bus traffic.
        latency = self.machine.storage.read(block)
        self.clock.advance(latency, Source.STORAGE)
        self.bus.add_traffic(0.25)
        count = min(STORAGE_BLOCK_WORDS, len(obj.data))
        data = obj.data
        base = obj.vaddr + 16
        for i in range(count):
            # Deterministic block contents: a pure function of the block
            # number, so storage needs no log entries.
            data[i] = mix64(block * STORAGE_BLOCK_WORDS + i) & 0x7FFFFFFF
            self.mem_access(base + i * _WORD)
        return count

    def _native_covert_delay(self, vm: "Interpreter", args: list) -> None:
        (cycles,) = args
        if cycles < 0:
            raise GuestThrow(EXC_INDEX_OUT_OF_BOUNDS)
        if self.machine.covert_enabled:
            self.flush_charges()    # covert boundary
            self.clock.advance(cycles, Source.COVERT)

    def _native_covert_next_delay(self, vm: "Interpreter",
                                  args: list) -> int:
        """Next entry of the channel encoder's delay schedule (§6.6).

        On the compromised machine (play with a schedule installed) this
        hands the guest its next covert delay; on a clean machine — and in
        particular during an audit replay — it returns 0, so the replayed
        timing is what the timing "ought to have been".  The returned
        value flows only into ``covert_delay``, never into control flow or
        outputs, so it needs no log entry.
        """
        return self.machine.next_covert_delay()

    def _native_busy_cycles(self, vm: "Interpreter", args: list) -> None:
        """A deterministic compute block abstracted to its cycle cost.

        Models a tight data-independent kernel (checksum/compression/...)
        whose duration is a pure function of its argument: the same noise
        sources apply as to interpreted code (via ``scale_block``), and
        replay reproduces it exactly because the argument is part of the
        deterministic data flow.
        """
        (cycles,) = args
        if cycles < 0:
            raise GuestThrow(EXC_INDEX_OUT_OF_BOUNDS)
        if cycles:
            self.clock.advance(self.cpu.scale_block(cycles), Source.COMPUTE)

    def _native_spawn(self, vm: "Interpreter", args: list) -> None:
        func_idx, arg = args
        if not 0 <= func_idx < len(vm.program.functions):
            raise GuestThrow(EXC_INDEX_OUT_OF_BOUNDS)
        vm.spawn_thread(vm.program.functions[func_idx], [arg])

    def _native_exit(self, vm: "Interpreter", args: list) -> None:
        vm.halted = True

    # -- executive syscalls -------------------------------------------------
    #
    # These natives are only meaningful on a machine driven by the guest
    # executive (:mod:`repro.exec`); the executive installs itself as
    # ``self.executive`` before the first slice.  The handlers delegate
    # immediately: all scheduling, mailbox, and charging policy lives in
    # one place.

    def _exec(self):
        executive = self.executive
        if executive is None:
            from repro.errors import VMRuntimeError
            raise VMRuntimeError(
                "executive syscall outside a multi-process (exec) run")
        return executive

    def _native_exec_yield(self, vm: "Interpreter", args: list) -> None:
        self._exec().sys_yield(vm)

    def _native_msg_send(self, vm: "Interpreter", args: list) -> None:
        mbox, buf_handle, length = args
        self._exec().sys_send(vm, mbox, buf_handle, length)

    def _native_msg_recv(self, vm: "Interpreter", args: list) -> int:
        mbox, buf_handle = args
        return self._exec().sys_recv(vm, mbox, buf_handle)

    def _native_proc_spawn(self, vm: "Interpreter", args: list) -> int:
        return self._exec().sys_spawn(vm, args[0])

    def _native_mbox_len(self, vm: "Interpreter", args: list) -> int:
        return self._exec().sys_mbox_len(vm, args[0])

    def _native_proc_id(self, vm: "Interpreter", args: list) -> int:
        return self._exec().sys_proc_id(vm)
