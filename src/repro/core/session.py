"""Record/replay sessions driven by the timed core.

A :class:`Session` is the mode-dependent half of the record/replay
machinery: the timed core's natives call into it whenever a
nondeterministic event happens (a ``nano_time`` read, an incoming packet
check).  Three implementations exist:

* :class:`PlaySession` — records events into an :class:`EventLog`;
* :class:`ReplaySession` — TDR replay: injects logged events at the same
  instruction counts, through the same symmetric access paths, with zero
  extra cost relative to play;
* :class:`NaiveReplaySession` — the functional-replay baseline of Fig 3
  (an XenTT-like system): functionally correct, but it *skips* idle waits
  and pays an asymmetric per-event injection overhead, so its timing
  diverges from play in both directions.

The session interface is deliberately identical across modes so the timed
core executes the same code path regardless of mode — that code path's
*cost symmetry* is what §3.5 is about.
"""

from __future__ import annotations

import abc

from repro.core.log import EventKind, EventLog
from repro.core.symmetric import (PLAY_MASK, REPLAY_MASK, SymmetricCell,
                                  symmetric_access)
from repro.errors import ReplayDivergenceError

#: Virtual address of the T-S buffer cell used for time events.
TS_TIME_CELL_VADDR = 0x0030_0000


class Session(abc.ABC):
    """Mode-dependent event handling with a mode-independent interface."""

    #: playMask (§3.5): all-ones during play, zero during replay.
    play_mask: int

    def __init__(self) -> None:
        self.time_cell = SymmetricCell(TS_TIME_CELL_VADDR)
        self.events_handled = 0
        #: Optional :class:`repro.obs.tracer.SpanTracer`; when set (by the
        #: machine, from its obs bundle) each handled event emits an
        #: instant on the current run's track.  Purely observational.
        self.tracer = None

    @abc.abstractmethod
    def observe_time(self, instr_count: int, live_value_ns: int) -> int:
        """Handle a ``nano_time`` event; returns the value to hand the guest."""

    @abc.abstractmethod
    def packet_due(self, instr_count: int,
                   staged_packet: bytes | None) -> bytes | None:
        """Check for an input packet at this point of the execution.

        ``staged_packet`` is what the supporting core has staged in the S-T
        buffer (play mode); replay modes ignore it and consult the log.
        Returns the packet to deliver, or None.
        """

    @abc.abstractmethod
    def exhausted(self) -> bool:
        """True when no further input events can arrive."""

    def observe_sched(self, instr_count: int, pid: int) -> None:
        """Handle an executive context-switch decision.

        Play records the chosen pid; replay verifies it against the log
        (the scheduler is deterministic, so the entry is a tamper check,
        not an input — see DESIGN.md §5).  Sessions that never host an
        executive simply never see this call.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support executive runs")

    #: Extra cycles charged per injected event (0 for symmetric designs).
    injection_overhead_cycles: int = 0

    #: Whether idle waits are skipped rather than re-executed (Fig 3).
    skips_waits: bool = False

    def wait_target(self, instr_count: int) -> int | None:
        """For wait-skipping replayers: the instruction count to jump to."""
        return None


class PlaySession(Session):
    """The original execution: record every nondeterministic event."""

    play_mask = PLAY_MASK

    def __init__(self, log: EventLog | None = None) -> None:
        super().__init__()
        self.log = log if log is not None else EventLog()

    def observe_time(self, instr_count: int, live_value_ns: int) -> int:
        value, _ = symmetric_access(live_value_ns, self.time_cell,
                                    self.play_mask)
        self.log.record_time(instr_count, value)
        self.events_handled += 1
        if self.tracer is not None:
            self.tracer.instant("event.time", category="session",
                                instr=instr_count)
        return value

    def packet_due(self, instr_count: int,
                   staged_packet: bytes | None) -> bytes | None:
        if staged_packet is None:
            return None
        self.log.record_packet(instr_count, staged_packet)
        self.events_handled += 1
        if self.tracer is not None:
            self.tracer.instant("event.packet", category="session",
                                instr=instr_count,
                                size=len(staged_packet))
        return staged_packet

    def observe_sched(self, instr_count: int, pid: int) -> None:
        self.log.record_sched(instr_count, pid)
        self.events_handled += 1
        if self.tracer is not None:
            self.tracer.instant("event.sched", category="session",
                                instr=instr_count, pid=pid)

    def exhausted(self) -> bool:
        return False  # the outside world decides when input ends


class ReplaySession(Session):
    """Time-deterministic replay: same events, same points, same costs."""

    play_mask = REPLAY_MASK

    def __init__(self, log: EventLog) -> None:
        super().__init__()
        self.log = log
        self._cursor = 0
        #: Largest observed (current - recorded) instruction-count slack for
        #: packet injections; nonzero values indicate imperfect alignment.
        self.max_injection_slack = 0

    def _peek(self):
        if self._cursor < len(self.log.entries):
            return self.log.entries[self._cursor]
        return None

    def observe_time(self, instr_count: int, live_value_ns: int) -> int:
        entry = self._peek()
        if entry is None or entry.kind != EventKind.TIME:
            raise ReplayDivergenceError(
                f"replay asked for a TIME event at instr {instr_count}, "
                f"log has {entry.kind.name if entry else 'nothing'}")
        if entry.instr_count != instr_count:
            raise ReplayDivergenceError(
                f"TIME event recorded at instr {entry.instr_count}, "
                f"replayed at {instr_count}")
        self._cursor += 1
        self.events_handled += 1
        if self.tracer is not None:
            self.tracer.instant("event.time", category="session",
                                instr=instr_count)
        # Pre-stage the logged value in the T-S cell (the supporting core's
        # job during replay, §3.4), then run the same symmetric access.
        self.time_cell.stored = entry.value
        value, _ = symmetric_access(live_value_ns, self.time_cell,
                                    self.play_mask)
        return value

    def packet_due(self, instr_count: int,
                   staged_packet: bytes | None) -> bytes | None:
        entry = self._peek()
        if entry is None or entry.kind != EventKind.PACKET:
            return None
        if entry.instr_count > instr_count:
            return None
        self.max_injection_slack = max(
            self.max_injection_slack, instr_count - entry.instr_count)
        self._cursor += 1
        self.events_handled += 1
        if self.tracer is not None:
            self.tracer.instant("event.packet", category="session",
                                instr=instr_count,
                                slack=instr_count - entry.instr_count,
                                size=len(entry.payload))
        return entry.payload

    def observe_sched(self, instr_count: int, pid: int) -> None:
        entry = self._peek()
        if entry is None or entry.kind != EventKind.SCHED:
            raise ReplayDivergenceError(
                f"replay reached a schedule decision at instr "
                f"{instr_count}, log has "
                f"{entry.kind.name if entry else 'nothing'}")
        if entry.instr_count != instr_count:
            raise ReplayDivergenceError(
                f"SCHED decision recorded at instr {entry.instr_count}, "
                f"replayed at {instr_count}")
        if entry.value != pid:
            raise ReplayDivergenceError(
                f"SCHED decision at instr {instr_count} chose pid "
                f"{entry.value} during play but pid {pid} during replay")
        self._cursor += 1
        self.events_handled += 1
        if self.tracer is not None:
            self.tracer.instant("event.sched", category="session",
                                instr=instr_count, pid=pid)

    def exhausted(self) -> bool:
        return self._cursor >= len(self.log.entries)

    def pending_packet_instr(self) -> int | None:
        """Instruction count of the logged PACKET a packet-wait will
        receive, or None if the wait can never be satisfied.

        While the guest blocks inside a packet wait, nothing else can
        consume log entries — so if the next entry is not a PACKET, the
        wait is hopeless.  An honest log never ends up in that state (a
        wait that was satisfied during play is fronted by its packet
        entry); a damaged or tampered one can, and the replayed guest
        must see "input ended" instead of polling forever.  Otherwise
        the count is the replay-side horizon of the idle loop: no poll
        before it can deliver.
        """
        entry = self._peek()
        if entry is None or entry.kind != EventKind.PACKET:
            return None
        return entry.instr_count

    def remaining_events(self) -> int:
        return len(self.log.entries) - self._cursor


class NaiveReplaySession(ReplaySession):
    """Functional-only replay, as in conventional replay systems (Fig 3).

    Two asymmetries relative to play:

    * **Wait skipping** — "There are some phases in which replay is faster
      than play ... in which the VMM was waiting for inputs; XenTT simply
      skips this phase during replay."  :meth:`wait_target` lets the
      blocking-receive native jump the instruction counter straight to the
      next logged event instead of re-executing the poll loop.
    * **Injection overhead** — record and replay "involve different code,
      different I/O operations, and different memory accesses"; each
      injected event costs extra cycles (reading the log from storage,
      branchy flag checks), making busy phases *slower* than play.
    """

    skips_waits = True
    #: Per-event replay-side overhead: log read + asymmetric code path.
    injection_overhead_cycles = 220_000

    def wait_target(self, instr_count: int) -> int | None:
        entry = self._peek()
        if entry is None:
            return None
        if entry.kind != EventKind.PACKET:
            return None
        if entry.instr_count <= instr_count:
            return instr_count
        return entry.instr_count
