"""The Sanity VM interpreter.

Design notes
------------

* **Global instruction counter.**  "A simple global instruction counter is
  sufficient to identify any point in the execution" (§3.2).  Every
  executed bytecode increments :attr:`Interpreter.instruction_count`; the
  record/replay layer keys all nondeterministic events on it.

* **Deterministic multithreading.**  Threads are scheduled round-robin and
  each runnable thread is given a fixed budget of instructions before it is
  forced to yield (§3.2), so context switches need no log entries.

* **Timing.**  Every instruction charges its cost class to the platform;
  memory-touching instructions additionally charge a data access at a
  stable virtual address, and control transfers charge an instruction
  fetch.  Operand-stack slots are modelled as registers (a real interpreter
  keeps the hot end of the stack in registers), so only locals, globals,
  arrays, and fields generate data traffic.

* **The dispatch loop is one long function.**  This is deliberate: a
  per-opcode method table costs an extra call per executed instruction,
  which at interpreter-in-an-interpreter depth dominates the simulation's
  host runtime.  The ladder is ordered by measured opcode frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import GuestError, VMRuntimeError
from repro.hw.cpu import CostClass
from repro.vm.heap import (GuestThrow, Heap, HeapConfig, KIND_FLOAT_ARRAY,
                           KIND_INT_ARRAY)
from repro.vm.isa import (EXC_DIV_BY_ZERO, EXC_INDEX_OUT_OF_BOUNDS,
                          EXC_STACK_OVERFLOW, EXCEPTION_NAMES,
                          OPCODE_COST_CLASS, OPCODE_COST_LIST, Op,
                          wrap_i64)
from repro.vm.platform import Platform
from repro.vm.program import Function, Program

#: Virtual memory map (stable across executions — §3.6 needs the same
#: virtual layout during play and replay; the *physical* backing is the
#: FrameAllocator's concern).
CODE_BASE = 0x0010_0000
CODE_STRIDE = 0x4000          # per-function code window
GLOBALS_BASE = 0x0020_0000
STACK_BASE = 0x0100_0000
THREAD_STACK_STRIDE = 0x10_0000
FRAME_STRIDE_SLOTS = 64       # max locals per frame, for address layout
_WORD = 8

MAX_CALL_DEPTH = 256

#: Opcode values as plain ints in enum order, unpacked into run()'s
#: locals in one assignment: an ``op == Op.X`` comparison in the ladder
#: costs an enum attribute load (two dict lookups) per test, a local int
#: is immediate.
_OP_VALUES = tuple(int(op) for op in Op)


@dataclass
class VmConfig:
    """Interpreter scheduling parameters."""

    thread_quantum: int = 4096      # instructions per scheduling slice
    poll_interval: int = 256        # instructions between platform polls
    context_switch_cost: CostClass = CostClass.SYNC
    heap: HeapConfig | None = None
    #: Trace-compiling tier-up (:mod:`repro.vm.tracejit`).  ``None``
    #: defers to the ``REPRO_NO_JIT`` environment knob; the compiled
    #: path is bit-identical to the reference interpreter either way.
    jit: bool | None = None
    jit_hot_samples: int = 4        # poll samples before a function tiers up
    jit_max_block: int = 64         # instructions per compiled region


class Frame:
    """One activation record."""

    __slots__ = ("function", "pc", "locals", "stack", "base_vaddr")

    def __init__(self, function: Function, base_vaddr: int) -> None:
        self.function = function
        self.pc = 0
        self.locals = [0] * function.num_locals
        self.stack: list = []
        self.base_vaddr = base_vaddr


class ThreadState:
    """One guest thread: a stack of frames."""

    __slots__ = ("thread_id", "frames", "alive", "executed")

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self.frames: list[Frame] = []
        self.alive = True
        self.executed = 0

    def frame_base(self, depth: int) -> int:
        return (STACK_BASE + self.thread_id * THREAD_STACK_STRIDE
                + depth * FRAME_STRIDE_SLOTS * _WORD)


class Interpreter:
    """Executes a :class:`Program` against a :class:`Platform`."""

    def __init__(self, program: Program, platform: Platform,
                 config: VmConfig | None = None) -> None:
        self.program = program
        self.platform = platform
        self.config = config or VmConfig()
        self.heap = Heap(self.config.heap)
        self.globals: list = [0] * program.num_globals
        self.instruction_count = 0
        self.halted = False
        #: Optional :class:`repro.obs.sampling.OpcodeSampler`; when set,
        #: the run loop records the opcode at every platform-poll point.
        self.sampler = None
        #: Optional :class:`repro.obs.profiler.CycleProfiler`; when set,
        #: the run loop reconstructs the guest stack on the poll branch
        #: and at compiled-block boundaries (both strided).
        self.profiler = None
        #: Trace-compiling tier-up state (None = pure interpreter).
        #: Strictly per-run: compiled blocks capture this run's platform
        #: fast paths, and Program objects are shared across runs.
        self.jit = None
        jit_on = self.config.jit
        if jit_on is None:
            from repro.vm.tracejit import jit_enabled
            jit_on = jit_enabled()
        if jit_on:
            from repro.vm.tracejit import TraceJit
            self.jit = TraceJit(program, self.platform, self.config)
        self.threads: list[ThreadState] = []
        self._next_thread_id = 0
        self._current_index = 0
        self.spawn_thread(program.entry_function, [])

    # -- thread management ---------------------------------------------------

    def spawn_thread(self, function: Function, args: list) -> int:
        """Start a new guest thread running ``function(*args)``."""
        if len(args) != function.num_params:
            raise VMRuntimeError(
                f"thread entry '{function.name}' expects "
                f"{function.num_params} args, got {len(args)}")
        thread = ThreadState(self._next_thread_id)
        self._next_thread_id += 1
        frame = Frame(function, thread.frame_base(0))
        frame.locals[:len(args)] = args
        thread.frames.append(frame)
        self.threads.append(thread)
        return thread.thread_id

    @property
    def current_thread(self) -> ThreadState:
        return self.threads[self._current_index]

    @property
    def live_threads(self) -> int:
        return sum(1 for t in self.threads if t.alive)

    def _rotate(self) -> bool:
        """Advance to the next runnable thread; False if none remain."""
        for _ in range(len(self.threads)):
            self._current_index = (self._current_index + 1) % len(self.threads)
            if self.threads[self._current_index].alive:
                return True
        return False

    # -- GC -------------------------------------------------------------------

    def _gc_roots(self) -> list[int]:
        roots = [v for v in self.globals if isinstance(v, int)]
        for thread in self.threads:
            if not thread.alive:
                continue
            for frame in thread.frames:
                roots.extend(v for v in frame.locals if isinstance(v, int))
                roots.extend(v for v in frame.stack if isinstance(v, int))
        return roots

    def _maybe_gc(self, gc_wanted: bool) -> None:
        if gc_wanted:
            cost = self.heap.collect(self._gc_roots())
            self.platform.charge_cycles(cost, "gc")

    # -- exception dispatch ----------------------------------------------------

    def _dispatch_exception(self, thread: ThreadState, code: int) -> None:
        """Unwind ``thread`` until a handler accepts ``code``."""
        while thread.frames:
            frame = thread.frames[-1]
            # frame.pc was already advanced past the faulting instruction
            # (or past the CALL, for outer frames), so the handler lookup
            # uses pc - 1: the pc of the instruction that raised.
            handler = frame.function.find_handler(max(0, frame.pc - 1))
            if handler is not None:
                frame.stack.clear()
                frame.stack.append(code)
                frame.pc = handler.handler_pc
                self.platform.fetch_access(
                    CODE_BASE + frame.function.index * CODE_STRIDE
                    + handler.handler_pc * 4)
                return
            thread.frames.pop()
        thread.alive = False
        name = EXCEPTION_NAMES.get(code, str(code))
        raise GuestError(name, f"in thread {thread.thread_id}")

    # -- main loop --------------------------------------------------------------

    def run(self, max_instructions: int | None = None) -> int:
        """Run until the program halts; returns instructions executed.

        Raises :class:`GuestError` on an uncaught guest exception and
        :class:`VMRuntimeError` on host-level faults (call-depth overflow
        is converted into a guest StackOverflow first).
        """
        # Local aliases shave attribute lookups off the hot path: the
        # platform fast paths, the program tables, the instruction
        # counter (mirrored in ``icount``, synced back at every boundary
        # a native or observer could read it), and every opcode constant
        # the ladder compares against (one tuple unpack beats an enum
        # attribute load per comparison).
        platform = self.platform
        charge = platform.charge
        mem = platform.mem_access
        fetch = platform.fetch_access
        cost_of = OPCODE_COST_LIST
        sampler = self.sampler
        profiler = self.profiler
        jit = self.jit
        jit_blocks = jit.blocks if jit is not None else None
        poll_interval = self.config.poll_interval
        quantum = self.config.thread_quantum
        switch_cost = self.config.context_switch_cost
        heap = self.heap
        globals_ = self.globals
        functions = self.program.functions
        classes = self.program.classes
        wrap = wrap_i64
        limit = max_instructions
        executed_at_entry = self.instruction_count
        icount = self.instruction_count

        (OP_NOP, OP_ICONST, OP_FCONST, OP_POP, OP_DUP, OP_SWAP, OP_LOAD,
         OP_STORE, OP_GLOAD, OP_GSTORE, OP_IADD, OP_ISUB, OP_IMUL, OP_IDIV,
         OP_IREM, OP_INEG, OP_ISHL, OP_ISHR, OP_IAND, OP_IOR, OP_IXOR,
         OP_FADD, OP_FSUB, OP_FMUL, OP_FDIV, OP_FNEG, OP_I2F, OP_F2I,
         OP_FSQRT, OP_FSIN, OP_FCOS, OP_CMP, OP_IFEQ, OP_IFNE, OP_IFLT,
         OP_IFLE, OP_IFGT, OP_IFGE, OP_GOTO, OP_NEWARRAY, OP_ALOAD,
         OP_ASTORE, OP_ARRAYLEN, OP_NEWOBJ, OP_GETFIELD, OP_PUTFIELD,
         OP_CALL, OP_RET, OP_RETV, OP_THROW, OP_NATIVE, OP_HALT) = _OP_VALUES

        if not any(t.alive for t in self.threads):
            return 0
        if not self.threads[self._current_index].alive:
            if not self._rotate():
                return 0

        thread = self.threads[self._current_index]
        slice_left = quantum
        # Instructions until the next platform poll: a countdown beats a
        # modulo on every instruction.  Poll points stay exactly at
        # instruction_count % poll_interval == 0; the countdown is
        # resynced whenever a native mutates the counter (idle polls,
        # naive-replay wait skipping).
        until_poll = poll_interval - (icount % poll_interval)

        try:
            while not self.halted:
                if not thread.frames:
                    thread.alive = False
                if not thread.alive:
                    if not self._rotate():
                        break
                    thread = self.threads[self._current_index]
                    slice_left = quantum
                    continue
                if slice_left <= 0:
                    charge(switch_cost)
                    if not self._rotate():
                        break
                    thread = self.threads[self._current_index]
                    slice_left = quantum
                    continue

                frame = thread.frames[-1]
                function = frame.function
                ops = function.ops
                args = function.args
                pc = frame.pc
                if pc >= len(ops):
                    # Fell off the end of a void function: implicit return.
                    thread.frames.pop()
                    if thread.frames:
                        continue
                    thread.alive = False
                    continue

                if jit_blocks is not None:
                    fn_blocks = jit_blocks[function.index]
                    if fn_blocks is not None:
                        block = fn_blocks[pc]
                        # Entry guards: the block must fit strictly before
                        # the next poll, within the scheduling slice and
                        # the instruction budget, and the operand stack
                        # must cover its worst-case pops — so no poll,
                        # context switch, budget stop, or stack underflow
                        # can occur mid-block.  Anything else runs on the
                        # reference interpreter path below.
                        while block is not None:
                            if block.n < until_poll \
                                    and block.n <= slice_left \
                                    and len(frame.stack) >= block.min_stack \
                                    and (limit is None
                                         or icount + block.n
                                         - executed_at_entry <= limit):
                                break
                            # Late in the poll window the superblock no
                            # longer fits; a shorter variant might.
                            block = block.fallback
                        if block is not None:
                            self.instruction_count = icount
                            try:
                                if block.loops:
                                    # Self-loop blocks iterate in-function;
                                    # the budget is how many whole blocks
                                    # fit before the next poll/slice/limit
                                    # boundary (>= 1 by the entry guards).
                                    avail = until_poll - 1
                                    if slice_left < avail:
                                        avail = slice_left
                                    if limit is not None:
                                        rem = (limit - icount
                                               + executed_at_entry)
                                        if rem < avail:
                                            avail = rem
                                    block.run(self, thread, frame,
                                              avail // block.n)
                                else:
                                    block.run(self, thread, frame)
                            except GuestThrow as exc:
                                done = self.instruction_count - icount
                                icount = self.instruction_count
                                slice_left -= done
                                until_poll -= done
                                # Side exit: profile before the unwind
                                # rewrites the stack the block ran on.
                                if profiler is not None:
                                    profiler.block_boundary(thread,
                                                            function, block)
                                self._dispatch_exception(thread, exc.code)
                            else:
                                done = self.instruction_count - icount
                                icount = self.instruction_count
                                slice_left -= done
                                until_poll -= done
                                if profiler is not None:
                                    profiler.block_boundary(thread,
                                                            function, block)
                            if limit is not None and \
                                    icount - executed_at_entry >= limit:
                                break
                            continue

                op = ops[pc]
                arg = args[pc]

                icount += 1
                thread.executed += 1
                slice_left -= 1
                until_poll -= 1
                if until_poll == 0:
                    until_poll = poll_interval
                    # The opcode sampler piggybacks on the poll stride so
                    # its disabled cost stays off the per-instruction
                    # path; the tier-up's hotness counter rides the same
                    # branch.
                    if sampler is not None:
                        sampler.record(op, function.index, pc)
                    if jit is not None:
                        jit.observe(function)
                    self.instruction_count = icount
                    platform.on_quantum(self)
                    icount = self.instruction_count
                    # After on_quantum the batched charges are flushed,
                    # so the ledger the profiler reads here is current;
                    # frame.pc still names the instruction being polled.
                    if profiler is not None:
                        profiler.poll(thread)
                    if self.halted:
                        break
                charge(cost_of[op])
                frame.pc = pc + 1

                try:
                    stack = frame.stack
                    if op == OP_LOAD:
                        mem(frame.base_vaddr + arg * _WORD)
                        stack.append(frame.locals[arg])
                    elif op == OP_STORE:
                        mem(frame.base_vaddr + arg * _WORD)
                        frame.locals[arg] = stack.pop()
                    elif op == OP_ICONST or op == OP_FCONST:
                        stack.append(arg)
                    elif op == OP_IADD:
                        b = stack.pop()
                        stack[-1] = wrap(stack[-1] + b)
                    elif op == OP_ISUB:
                        b = stack.pop()
                        stack[-1] = wrap(stack[-1] - b)
                    elif op == OP_IMUL:
                        b = stack.pop()
                        stack[-1] = wrap(stack[-1] * b)
                    elif op == OP_CMP:
                        b = stack.pop()
                        a = stack.pop()
                        stack.append((a > b) - (a < b))
                    elif OP_IFEQ <= op <= OP_IFGE:
                        v = stack.pop()
                        if op == OP_IFEQ:
                            taken = v == 0
                        elif op == OP_IFNE:
                            taken = v != 0
                        elif op == OP_IFLT:
                            taken = v < 0
                        elif op == OP_IFLE:
                            taken = v <= 0
                        elif op == OP_IFGT:
                            taken = v > 0
                        else:
                            taken = v >= 0
                        site = function.index * CODE_STRIDE + pc
                        platform.branch(site, taken)
                        if taken:
                            frame.pc = arg
                            fetch(CODE_BASE + function.index * CODE_STRIDE
                                  + arg * 4)
                    elif op == OP_GOTO:
                        frame.pc = arg
                        fetch(CODE_BASE + function.index * CODE_STRIDE
                              + arg * 4)
                    elif op == OP_ALOAD:
                        idx = stack.pop()
                        obj = heap.get(stack.pop())
                        data = obj.data
                        if idx < 0 or idx >= len(data):
                            raise GuestThrow(EXC_INDEX_OUT_OF_BOUNDS)
                        mem(obj.vaddr + 16 + idx * _WORD)
                        stack.append(data[idx])
                    elif op == OP_ASTORE:
                        value = stack.pop()
                        idx = stack.pop()
                        obj = heap.get(stack.pop())
                        data = obj.data
                        if idx < 0 or idx >= len(data):
                            raise GuestThrow(EXC_INDEX_OUT_OF_BOUNDS)
                        mem(obj.vaddr + 16 + idx * _WORD)
                        data[idx] = value
                    elif op == OP_ARRAYLEN:
                        stack.append(len(heap.get(stack.pop()).data))
                    elif op == OP_FADD:
                        b = stack.pop()
                        stack[-1] = stack[-1] + b
                    elif op == OP_FSUB:
                        b = stack.pop()
                        stack[-1] = stack[-1] - b
                    elif op == OP_FMUL:
                        b = stack.pop()
                        stack[-1] = stack[-1] * b
                    elif op == OP_FDIV:
                        b = stack.pop()
                        if b == 0.0:
                            raise GuestThrow(EXC_DIV_BY_ZERO)
                        stack[-1] = stack[-1] / b
                    elif op == OP_IDIV:
                        b = stack.pop()
                        a = stack.pop()
                        if b == 0:
                            raise GuestThrow(EXC_DIV_BY_ZERO)
                        q = abs(a) // abs(b)
                        if (a < 0) != (b < 0):
                            q = -q
                        stack.append(wrap(q))
                    elif op == OP_IREM:
                        b = stack.pop()
                        a = stack.pop()
                        if b == 0:
                            raise GuestThrow(EXC_DIV_BY_ZERO)
                        q = abs(a) // abs(b)
                        if (a < 0) != (b < 0):
                            q = -q
                        stack.append(wrap(a - q * b))
                    elif op == OP_INEG:
                        stack[-1] = wrap(-stack[-1])
                    elif op == OP_ISHL:
                        b = stack.pop() & 63
                        stack[-1] = wrap(stack[-1] << b)
                    elif op == OP_ISHR:
                        b = stack.pop() & 63
                        stack[-1] = stack[-1] >> b
                    elif op == OP_IAND:
                        b = stack.pop()
                        stack[-1] = wrap(stack[-1] & b)
                    elif op == OP_IOR:
                        b = stack.pop()
                        stack[-1] = wrap(stack[-1] | b)
                    elif op == OP_IXOR:
                        b = stack.pop()
                        stack[-1] = wrap(stack[-1] ^ b)
                    elif op == OP_FNEG:
                        stack[-1] = -stack[-1]
                    elif op == OP_I2F:
                        stack[-1] = float(stack[-1])
                    elif op == OP_F2I:
                        stack[-1] = wrap(int(stack[-1]))
                    elif op == OP_FSQRT:
                        v = stack[-1]
                        if v < 0.0:
                            raise GuestThrow(EXC_DIV_BY_ZERO)
                        stack[-1] = math.sqrt(v)
                    elif op == OP_FSIN:
                        stack[-1] = math.sin(stack[-1])
                    elif op == OP_FCOS:
                        stack[-1] = math.cos(stack[-1])
                    elif op == OP_GLOAD:
                        mem(GLOBALS_BASE + arg * _WORD)
                        stack.append(globals_[arg])
                    elif op == OP_GSTORE:
                        mem(GLOBALS_BASE + arg * _WORD)
                        globals_[arg] = stack.pop()
                    elif op == OP_POP:
                        stack.pop()
                    elif op == OP_DUP:
                        stack.append(stack[-1])
                    elif op == OP_SWAP:
                        stack[-1], stack[-2] = stack[-2], stack[-1]
                    elif op == OP_NEWARRAY:
                        length = stack.pop()
                        kind = KIND_INT_ARRAY if arg == 0 \
                            else KIND_FLOAT_ARRAY
                        if length < 0:
                            raise GuestThrow(EXC_INDEX_OUT_OF_BOUNDS)
                        handle, gc_wanted = heap.new_array(kind, length)
                        stack.append(handle)
                        self._maybe_gc(gc_wanted)
                    elif op == OP_NEWOBJ:
                        class_def = classes[arg]
                        handle, gc_wanted = heap.new_object(
                            arg, class_def.size_slots)
                        stack.append(handle)
                        self._maybe_gc(gc_wanted)
                    elif op == OP_GETFIELD:
                        obj = heap.get(stack.pop())
                        mem(obj.vaddr + 16 + arg * _WORD)
                        stack.append(obj.data[arg])
                    elif op == OP_PUTFIELD:
                        value = stack.pop()
                        obj = heap.get(stack.pop())
                        mem(obj.vaddr + 16 + arg * _WORD)
                        obj.data[arg] = value
                    elif op == OP_CALL:
                        callee = functions[arg]
                        if len(thread.frames) >= MAX_CALL_DEPTH:
                            raise GuestThrow(EXC_STACK_OVERFLOW)
                        new_frame = Frame(
                            callee, thread.frame_base(len(thread.frames)))
                        for i in range(callee.num_params - 1, -1, -1):
                            new_frame.locals[i] = stack.pop()
                        thread.frames.append(new_frame)
                        fetch(CODE_BASE + callee.index * CODE_STRIDE)
                    elif op == OP_RET:
                        thread.frames.pop()
                        if thread.frames:
                            caller = thread.frames[-1]
                            fetch(CODE_BASE
                                  + caller.function.index * CODE_STRIDE
                                  + caller.pc * 4)
                        else:
                            thread.alive = False
                    elif op == OP_RETV:
                        result = stack.pop()
                        thread.frames.pop()
                        if thread.frames:
                            caller = thread.frames[-1]
                            caller.stack.append(result)
                            fetch(CODE_BASE
                                  + caller.function.index * CODE_STRIDE
                                  + caller.pc * 4)
                        else:
                            thread.alive = False
                    elif op == OP_THROW:
                        raise GuestThrow(stack.pop())
                    elif op == OP_NATIVE:
                        # Natives observe (and may advance) the counter:
                        # idle poll iterations, wait skipping.  Publish it
                        # around the call and resync the poll countdown to
                        # the modulo invariant.
                        self.instruction_count = icount
                        try:
                            platform.native_call(arg, self)
                        finally:
                            icount = self.instruction_count
                        until_poll = poll_interval - (icount % poll_interval)
                    elif op == OP_HALT:
                        self.halted = True
                    elif op == OP_NOP:
                        pass
                    else:  # pragma: no cover - exhaustive above
                        raise VMRuntimeError(f"unknown opcode {op}",
                                             pc=pc, function=function.name)
                except GuestThrow as exc:
                    self._dispatch_exception(thread, exc.code)
                    # A native may have advanced the counter before
                    # throwing.
                    until_poll = poll_interval - (icount % poll_interval)
                except IndexError:
                    raise VMRuntimeError(
                        "operand stack underflow",
                        pc=pc, function=function.name) from None

                if limit is not None and \
                        icount - executed_at_entry >= limit:
                    break
        finally:
            self.instruction_count = icount

        return self.instruction_count - executed_at_entry

    # -- helpers for natives ----------------------------------------------------

    def pop_args(self, count: int) -> list:
        """Pop ``count`` operands for a native call (in declaration order)."""
        stack = self.current_thread.frames[-1].stack
        if len(stack) < count:
            raise VMRuntimeError("native call: operand stack underflow")
        if count == 0:
            return []
        taken = stack[-count:]
        del stack[-count:]
        return taken

    def push_result(self, value) -> None:
        """Push a native call's result."""
        self.current_thread.frames[-1].stack.append(value)
