"""The platform interface between the VM and the (simulated) hardware.

The interpreter itself is hardware-agnostic: all timing flows through a
:class:`Platform`.  The production implementation is the timed core of
:mod:`repro.machine`; :class:`NullPlatform` is a flat-cost stand-in used by
the VM unit tests and by quick functional runs where timing is irrelevant.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.hw.cpu import CostClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.interpreter import Interpreter


class Platform(abc.ABC):
    """Everything the interpreter needs from the world.

    Methods are called on the interpreter's hot path; implementations
    should be cheap and must be deterministic given their configuration
    and noise seed.
    """

    @abc.abstractmethod
    def charge(self, cost_class: CostClass) -> None:
        """Charge the cycle cost of one instruction of ``cost_class``."""

    @abc.abstractmethod
    def mem_access(self, vaddr: int) -> None:
        """Charge a data memory access at virtual address ``vaddr``."""

    @abc.abstractmethod
    def fetch_access(self, code_vaddr: int) -> None:
        """Charge an instruction fetch (on control transfers)."""

    @abc.abstractmethod
    def branch(self, branch_site: int, taken: bool) -> None:
        """Record a conditional branch outcome (charges mispredicts)."""

    @abc.abstractmethod
    def charge_cycles(self, cycles: int, source: str = "other") -> None:
        """Charge a raw cycle amount (GC, natives, padding).

        ``source`` tags the charge for the cycle-attribution ledger
        (see :mod:`repro.obs.ledger`); platforms without a ledger may
        ignore it.
        """

    def charge_block(self, cost_classes, base_costs=(),
                     base_total: int = 0) -> None:
        """Charge a compiled block's instruction stream in one call.

        The reference implementation simply replays :meth:`charge` per
        instruction, so any platform is automatically correct under the
        trace-compiling tier-up; timed platforms may install a batched
        override that charges ``base_total`` (the pre-summed noise-free
        base cost of ``cost_classes``; ``base_costs`` is the per-
        instruction base-cost tuple) in one add when no noise applies.
        """
        charge = self.charge
        for cost_class in cost_classes:
            charge(cost_class)

    def instruction_base_costs(self):
        """Dense base-cost table indexed by :class:`CostClass`, or None.

        The trace compiler uses this to pre-sum a block's cycle cost at
        compile time; ``None`` (the default) means the platform has no
        meaningful base table and block totals are charged by replaying
        ``charge`` per instruction.
        """
        return None

    def mem_inline(self):
        """Source template for inlining ``mem_access`` into trace blocks.

        Returns ``(render, namespace)`` where ``render(expr)`` yields
        source lines charging a memory access at address ``expr`` with
        state updates identical to :meth:`mem_access`, and ``namespace``
        holds the objects those lines reference.  A platform may compile
        its own ``mem_access`` from the same template (the timed core
        does), so interpreter and compiled blocks run the same source.
        ``None`` (the default) makes compiled blocks call
        :meth:`mem_access` per access.
        """
        return None

    @abc.abstractmethod
    def on_quantum(self, interpreter: "Interpreter") -> None:
        """Periodic hook: interrupts, preemption, bus decay, input polling."""

    @abc.abstractmethod
    def native_call(self, index: int, interpreter: "Interpreter") -> None:
        """Execute native #``index``; operands on the interpreter stack."""


class NullPlatform(Platform):
    """Flat-cost platform for functional testing.

    Counts cycles as one per instruction and ignores the memory system.
    Provides a tiny native set: ``print_int``, ``print_float``,
    ``nano_time`` (returns the cycle counter), and ``halt_check`` hooks are
    not needed here.
    """

    NATIVE_NAMES = ["print_int", "print_float", "nano_time", "abort"]

    def __init__(self) -> None:
        self.cycles = 0
        self.quantum_calls = 0
        self.printed: list = []

    def charge(self, cost_class: CostClass) -> None:
        self.cycles += 1

    def mem_access(self, vaddr: int) -> None:
        self.cycles += 1

    def fetch_access(self, code_vaddr: int) -> None:
        self.cycles += 1

    def branch(self, branch_site: int, taken: bool) -> None:
        pass

    def charge_cycles(self, cycles: int, source: str = "other") -> None:
        self.cycles += cycles

    def on_quantum(self, interpreter: "Interpreter") -> None:
        self.quantum_calls += 1

    def native_call(self, index: int, interpreter: "Interpreter") -> None:
        name = self.NATIVE_NAMES[index]
        stack = interpreter.current_thread.frames[-1].stack
        if name == "print_int":
            self.printed.append(int(stack.pop()))
        elif name == "print_float":
            self.printed.append(float(stack.pop()))
        elif name == "nano_time":
            stack.append(self.cycles)
        elif name == "abort":
            raise RuntimeError("guest abort")

    def native_index(self, name: str) -> int:
        """Resolve a native name (assembler hook)."""
        return self.NATIVE_NAMES.index(name)
