"""Trace-compiling tier-up for the Sanity VM.

The interpreter's dispatch loop costs tens of host operations per guest
bytecode.  For hot code — detected by per-function sample counts taken
on the platform-poll branch — this module compiles
straight-line bytecode regions into fused Python closures
("superinstructions"): one generated function executes the whole region,
pre-sums the region's per-instruction cycle costs, and charges the
platform once per block entry (:meth:`Platform.charge_block`) instead of
once per instruction.

Time determinism is the design constraint, not an afterthought:

* **Entry guards.**  A block runs only when it provably cannot cross an
  observable boundary: the whole region must fit before the next
  platform poll (``block.n < until_poll``), within the scheduling slice
  (``block.n <= slice_left``), within an instruction budget, and the
  operand stack must be deep enough for the region's worst-case pops.
  Anything else falls back to the reference interpreter for that entry.

* **Exact charge replay.**  ``charge_block`` either takes a noise-free
  fast path (provably equal to per-instruction charging) or replays the
  per-instruction cost computation exactly — same redraw points, same
  Bresenham fractional carry — so cycles are bit-identical either way.

* **Side exits.**  Every fault-capable instruction records its offset
  before executing; on a guest throw the generated code charges the
  exact prefix, advances the counters by the instructions actually
  retired, restores ``frame.pc`` to the interpreter's convention (one
  past the faulting instruction) and re-raises for the interpreter's
  exception dispatch.

* **Excluded opcodes.**  Calls/returns, allocation (GC), ``THROW``,
  ``NATIVE`` (I/O, time reads, covert-channel hooks) and ``HALT`` never
  appear inside a block — regions stop before them — so every observable
  interaction still happens on the interpreter's reference path.

``REPRO_NO_JIT=1`` disables the tier-up entirely; the differential
harness (``tests/test_tracejit.py``) proves cycles, ledger sums,
transmissions, log bytes and audit verdicts bit-identical with the JIT
on and off, mirroring the ``REPRO_NO_BATCH`` harness of PR 3.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING

from repro.vm.heap import GuestThrow
from repro.vm.isa import OPCODE_COST_LIST, Op

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.platform import Platform
    from repro.vm.program import Function, Program

#: Keep in sync with the interpreter's virtual memory map (imported
#: lazily below to avoid a hard import cycle at module load).
_WORD = 8


def jit_enabled() -> bool:
    """Whether new interpreters tier up hot regions (``REPRO_NO_JIT``)."""
    return os.environ.get("REPRO_NO_JIT", "") != "1"


#: Conditional branches and their Python condition on the popped value.
_COND_EXPR = {
    Op.IFEQ: "== 0", Op.IFNE: "!= 0", Op.IFLT: "< 0",
    Op.IFLE: "<= 0", Op.IFGT: "> 0", Op.IFGE: ">= 0",
}

#: Opcodes that end a region and are *included* in the compiled block.
_TERMINATORS = frozenset(_COND_EXPR) | {Op.GOTO}

#: Opcodes a block must never contain: observable boundaries (natives do
#: I/O / clock reads / covert hooks, HALT ends the run), frame-shape
#: changes (calls/returns), allocation (may trigger GC), and explicit
#: throws.  Regions stop *before* these; the interpreter runs them.
_UNCOMPILABLE = frozenset({
    Op.NEWARRAY, Op.NEWOBJ, Op.CALL, Op.RET, Op.RETV, Op.THROW,
    Op.NATIVE, Op.HALT,
})

#: (pops, pushes) per compilable opcode, for the static stack-depth
#: analysis that makes operand-stack underflow inside a block impossible.
_STACK_EFFECT = {
    Op.NOP: (0, 0), Op.ICONST: (0, 1), Op.FCONST: (0, 1), Op.POP: (1, 0),
    Op.DUP: (1, 2), Op.SWAP: (2, 2),
    Op.LOAD: (0, 1), Op.STORE: (1, 0), Op.GLOAD: (0, 1), Op.GSTORE: (1, 0),
    Op.IADD: (2, 1), Op.ISUB: (2, 1), Op.IMUL: (2, 1), Op.IDIV: (2, 1),
    Op.IREM: (2, 1), Op.INEG: (1, 1), Op.ISHL: (2, 1), Op.ISHR: (2, 1),
    Op.IAND: (2, 1), Op.IOR: (2, 1), Op.IXOR: (2, 1),
    Op.FADD: (2, 1), Op.FSUB: (2, 1), Op.FMUL: (2, 1), Op.FDIV: (2, 1),
    Op.FNEG: (1, 1),
    Op.I2F: (1, 1), Op.F2I: (1, 1), Op.FSQRT: (1, 1), Op.FSIN: (1, 1),
    Op.FCOS: (1, 1),
    Op.CMP: (2, 1),
    Op.IFEQ: (1, 0), Op.IFNE: (1, 0), Op.IFLT: (1, 0), Op.IFLE: (1, 0),
    Op.IFGT: (1, 0), Op.IFGE: (1, 0), Op.GOTO: (0, 0),
    Op.ALOAD: (2, 1), Op.ASTORE: (3, 0), Op.ARRAYLEN: (1, 1),
    Op.GETFIELD: (1, 1), Op.PUTFIELD: (2, 0),
}

#: In-place wrapping binary integer ops (pop b, wrap(stack[-1] OP b)).
_INT_BINOPS = {Op.IADD: "+", Op.ISUB: "-", Op.IMUL: "*",
               Op.IAND: "&", Op.IOR: "|", Op.IXOR: "^"}
#: In-place float binary ops (no wrap, no fault).
_FLOAT_BINOPS = {Op.FADD: "+", Op.FSUB: "-", Op.FMUL: "*"}

#: Minimum instructions (terminator included) worth fusing: below this
#: the entry guards cost as much as the dispatch they replace.
_MIN_BLOCK = 3


class CompiledBlock:
    """One compiled straight-line region and its tier-up counters."""

    __slots__ = ("function_index", "function_name", "head", "n",
                 "min_stack", "loops", "run", "fallback", "entries",
                 "side_exits", "instructions", "cycles")

    def __init__(self, function_index: int, function_name: str,
                 head: int, n: int, min_stack: int) -> None:
        self.function_index = function_index
        self.function_name = function_name
        self.head = head            # first pc covered
        self.n = n                  # instructions covered
        self.min_stack = min_stack  # operand-stack depth required at entry
        self.loops = False          # self-loop block (takes a budget arg)
        self.run = None             # generated closure, bound after exec
        self.fallback = None        # shorter variant for tight budgets
        self.entries = 0            # completed full-block executions
        self.side_exits = 0         # guest throws that fell back mid-block
        self.instructions = 0       # guest instructions retired in here
        self.cycles = 0             # base (noise-free) cycles charged


def compile_region(function: "Function", head: int, platform: "Platform",
                   max_len: int = 64,
                   extend_guards: bool = True) -> CompiledBlock | None:
    """Compile the region starting at ``head``, or None if not worth it.

    The expensive part — region scan, codegen, ``compile()`` — is a pure
    function of the bytecode and the platform's *constants* (base cost
    table, memory-template shape), so its artifact is cached on the
    Function and shared across runs; TDR replays the same program many
    times, and only this thin wrapper runs again: it builds a fresh
    namespace around the run's platform closures and ``exec``s the
    cached code object, so no run-local state survives in the cache.
    """
    base_list = platform.instruction_base_costs()
    inline = platform.mem_inline()
    # The probe render captures every constant the template bakes into
    # the source (page geometry, set counts, ledger slots, registerized
    # windows), making the cache key self-validating across configs.
    inline_sig = None if inline is None else tuple(inline[0]("_sig"))
    key = (head, max_len, extend_guards,
           None if base_list is None else tuple(base_list), inline_sig)
    cache = getattr(function, "_tracejit_cache", None)
    if cache is None:
        cache = {}
        function._tracejit_cache = cache
    if key in cache:
        art = cache[key]
    else:
        art = _build_region(function, head, platform, max_len,
                            extend_guards)
        cache[key] = art
    if art is None:
        return None
    block = CompiledBlock(function.index, function.name, head,
                          art["n"], art["need"])
    block.loops = art["loops"]
    ns = dict(art["consts"])
    ns["_B"] = block
    ns["_mem"] = platform.mem_access
    ns["_fetch"] = platform.fetch_access
    ns["_branch"] = platform.branch
    ns["_charge_block"] = platform.charge_block
    if inline is not None:
        ns.update(inline[1])
    exec(art["code"], ns)  # noqa: S102 - generated from a fixed template
    block.run = ns["_block"]
    return block


def _build_region(function: "Function", head: int, platform: "Platform",
                  max_len: int, extend_guards: bool) -> dict | None:
    """Scan, analyse and compile one region to a cacheable artifact.

    The region extends until (and including) the first branch, until the
    first uncompilable opcode (excluded), or until ``max_len``; regions
    shorter than ``_MIN_BLOCK`` are not worth the entry guards.

    The operand stack is *registerized*: the region's stack effect is
    known statically, so stack slots become single-assignment Python
    locals and ``frame.stack`` is only touched at block entry (popping
    the worst-case depth) and at the exits.  This is invisible to the
    guest: nothing can observe ``frame.stack`` mid-block (no polls, GC,
    natives, or checkpoints inside a block), and on a guest throw the
    exception dispatch either clears the frame's stack or discards the
    frame, so the mid-block stack contents were never live.
    """
    from repro.vm.interpreter import CODE_BASE, CODE_STRIDE, GLOBALS_BASE

    ops = function.ops
    args = function.args
    length = len(ops)

    # Superblock scan: the region is the contiguous pc range from
    # ``head`` extended *through* forward conditional branches (each
    # becomes an in-block guard with an early exit) until a GOTO, a
    # backward conditional (a loop back edge), an uncompilable opcode
    # (excluded) or ``max_len``.  Contiguity is what keeps the side-exit
    # pc arithmetic (``head + offset + 1``) valid.
    goto_value = int(Op.GOTO)
    picked: list[int] = []          # pcs included in the region
    terminator_pc: int | None = None
    pc = head
    while pc < length and len(picked) < max_len:
        op = ops[pc]
        if op in _UNCOMPILABLE:
            break
        picked.append(pc)
        if op == goto_value:
            terminator_pc = pc
            break
        if op in _COND_EXPR:
            if not extend_guards or args[pc] <= pc:
                terminator_pc = pc
                break
            pc += 1           # forward conditional: in-block guard
            continue
        pc += 1
    n = len(picked)
    if n < _MIN_BLOCK:
        return None

    # Static stack analysis: the depth required at entry so no pop can
    # ever underflow, mirroring each op's pops/pushes.
    depth = 0
    need = 0
    for pc in picked:
        pops, pushes = _STACK_EFFECT[Op(ops[pc])]
        need = max(need, pops - depth)
        depth += pushes - pops

    # Pre-summed charging data.  ``classes`` drive the generic per-
    # instruction replay, ``bases`` the batched exact loop; ``total`` is
    # the noise-free base sum the fast path charges in one add.  Base
    # costs come from the platform so the block's numbers match whatever
    # cost table the run uses.
    classes = tuple(OPCODE_COST_LIST[ops[pc]] for pc in picked)
    base_list = platform.instruction_base_costs()
    if base_list is not None:
        bases = tuple(base_list[c] for c in classes)
    else:
        bases = (0,) * n
    total = sum(bases)
    #: fault offset -> (class prefix, base prefix, base prefix sum)
    prefix: dict[int, tuple] = {}

    # Everything the generated code needs that is *not* per-run state:
    # run-local closures (_mem/_fetch/_branch/_charge_block), the
    # memory-template objects and the _B counter block are bound by
    # compile_region when it instantiates the cached artifact.
    consts = {
        "_GT": GuestThrow,
        "_sqrt": math.sqrt, "_sin": math.sin, "_cos": math.cos,
        "_CLS": classes, "_BAS": bases, "_TOT": total,
        "_PFX": prefix,
        "_M": (1 << 64) - 1, "_S": 1 << 63, "_W": 1 << 64,
    }

    # Platforms may provide a source template for the memory path, in
    # which case every data access and fetch is expanded inline instead
    # of calling the mem_access closure once per access.
    inline = platform.mem_inline()
    if inline is not None:
        render_mem = inline[0]

    body: list[str] = []
    #: Compile-time model of the operand stack: entry slots ``_e*`` then
    #: single-assignment temporaries ``_t*``.  Aliasing (DUP) and
    #: reordering (SWAP) are free — they only shuffle names.
    vstack = [f"_e{i}" for i in range(need)]
    temp_count = 0
    uses_locals = uses_globals = uses_heap = False
    has_faults = False
    cond_value: str | None = None
    code_window = CODE_BASE + function.index * CODE_STRIDE

    def emit_mem(expr) -> None:
        if inline is not None:
            body.extend(render_mem(str(expr)))
        else:
            body.append(f"_mem({expr})")

    def fetch_lines(addr: int, ind: str = "") -> list[str]:
        if inline is not None:
            return [ind + line for line in render_mem(str(addr))]
        return [f"{ind}_fetch({addr})"]

    def vpop() -> str:
        return vstack.pop()

    def vpush() -> str:
        nonlocal temp_count
        name = f"_t{temp_count}"
        temp_count += 1
        vstack.append(name)
        return name

    def wrap_push(expr: str) -> None:
        body.append(f"_v = ({expr}) & _M")
        body.append(f"{vpush()} = _v - _W if _v & _S else _v")

    for k, pc in enumerate(picked):
        op = Op(ops[pc])
        arg = args[pc]

        def fault_site() -> None:
            nonlocal has_faults
            has_faults = True
            prefix[k] = (classes[:k + 1], bases[:k + 1],
                         sum(bases[:k + 1]))
            body.append(f"_i = {k}")

        if pc == terminator_pc:
            if op is not Op.GOTO:
                cond_value = vpop()
            break  # terminator semantics live in the epilogue
        if op in _COND_EXPR:
            # Mid-region guard: the taken path leaves the block early
            # with the operand stack written back, the instruction-
            # prefix charged, the counters advanced over the k+1
            # retired instructions, and the branch target fetched —
            # byte-for-byte what the interpreter would have done.
            cond = vpop()
            gsite = function.index * CODE_STRIDE + pc
            gtarget = arg
            pfx_total = sum(bases[:k + 1])
            consts[f"_GC{k}"] = classes[:k + 1]
            consts[f"_GB{k}"] = bases[:k + 1]
            body.append(f"_tk = {cond} {_COND_EXPR[op]}")
            body.append(f"_branch({gsite}, _tk)")
            body.append("if _tk:")
            if len(vstack) == 1:
                body.append(f"    _s.append({vstack[0]})")
            elif vstack:
                body.append(f"    _s.extend(({', '.join(vstack)}))")
            body.append(f"    _charge_block(_GC{k}, _GB{k}, {pfx_total})")
            body.append(f"    vm.instruction_count += {k + 1}")
            body.append(f"    thread.executed += {k + 1}")
            body.append("    _B.side_exits += 1")
            body.append(f"    _B.instructions += {k + 1}")
            body.append(f"    _B.cycles += {pfx_total}")
            body.append(f"    frame.pc = {gtarget}")
            body += fetch_lines(code_window + gtarget * 4, "    ")
            body.append("    return")
            continue
        if op is Op.LOAD:
            uses_locals = True
            emit_mem(f"_base + {arg * _WORD}")
            body.append(f"{vpush()} = _L[{arg}]")
        elif op is Op.STORE:
            uses_locals = True
            emit_mem(f"_base + {arg * _WORD}")
            body.append(f"_L[{arg}] = {vpop()}")
        elif op is Op.ICONST or op is Op.FCONST:
            # The constant itself becomes the stack slot: every vstack
            # name is single-assignment, so aliasing it is safe and the
            # value needs no repr round-trip (it rides the namespace).
            name = f"_K{k}"
            consts[name] = arg
            vstack.append(name)
        elif op in _INT_BINOPS:
            b = vpop()
            a = vpop()
            wrap_push(f"{a} {_INT_BINOPS[op]} {b}")
        elif op is Op.CMP:
            b = vpop()
            a = vpop()
            body.append(f"{vpush()} = ({a} > {b}) - ({a} < {b})")
        elif op is Op.ALOAD:
            uses_heap = True
            fault_site()
            idx = vpop()
            ref = vpop()
            body.append(f"_o = _hget({ref})")
            body.append("_d = _o.data")
            body.append(f"if {idx} < 0 or {idx} >= len(_d):")
            body.append("    raise _GT(-2)")
            emit_mem(f"_o.vaddr + 16 + {idx} * {_WORD}")
            body.append(f"{vpush()} = _d[{idx}]")
        elif op is Op.ASTORE:
            uses_heap = True
            fault_site()
            value = vpop()
            idx = vpop()
            ref = vpop()
            body.append(f"_o = _hget({ref})")
            body.append("_d = _o.data")
            body.append(f"if {idx} < 0 or {idx} >= len(_d):")
            body.append("    raise _GT(-2)")
            emit_mem(f"_o.vaddr + 16 + {idx} * {_WORD}")
            body.append(f"_d[{idx}] = {value}")
        elif op is Op.ARRAYLEN:
            uses_heap = True
            fault_site()
            ref = vpop()
            body.append(f"{vpush()} = len(_hget({ref}).data)")
        elif op in _FLOAT_BINOPS:
            b = vpop()
            a = vpop()
            body.append(f"{vpush()} = {a} {_FLOAT_BINOPS[op]} {b}")
        elif op is Op.FDIV:
            fault_site()
            b = vpop()
            a = vpop()
            body.append(f"if {b} == 0.0:")
            body.append("    raise _GT(-1)")
            body.append(f"{vpush()} = {a} / {b}")
        elif op is Op.IDIV or op is Op.IREM:
            fault_site()
            b = vpop()
            a = vpop()
            body.append(f"if {b} == 0:")
            body.append("    raise _GT(-1)")
            body.append(f"_q = abs({a}) // abs({b})")
            body.append(f"if ({a} < 0) != ({b} < 0):")
            body.append("    _q = -_q")
            wrap_push("_q" if op is Op.IDIV else f"{a} - _q * {b}")
        elif op is Op.INEG:
            wrap_push(f"-{vpop()}")
        elif op is Op.ISHL:
            b = vpop()
            a = vpop()
            wrap_push(f"{a} << ({b} & 63)")
        elif op is Op.ISHR:
            b = vpop()
            a = vpop()
            body.append(f"{vpush()} = {a} >> ({b} & 63)")
        elif op is Op.FNEG:
            a = vpop()
            body.append(f"{vpush()} = -{a}")
        elif op is Op.I2F:
            a = vpop()
            body.append(f"{vpush()} = float({a})")
        elif op is Op.F2I:
            wrap_push(f"int({vpop()})")
        elif op is Op.FSQRT:
            fault_site()
            a = vpop()
            body.append(f"if {a} < 0.0:")
            body.append("    raise _GT(-1)")
            body.append(f"{vpush()} = _sqrt({a})")
        elif op is Op.FSIN:
            a = vpop()
            body.append(f"{vpush()} = _sin({a})")
        elif op is Op.FCOS:
            a = vpop()
            body.append(f"{vpush()} = _cos({a})")
        elif op is Op.GLOAD:
            uses_globals = True
            emit_mem(GLOBALS_BASE + arg * _WORD)
            body.append(f"{vpush()} = _G[{arg}]")
        elif op is Op.GSTORE:
            uses_globals = True
            emit_mem(GLOBALS_BASE + arg * _WORD)
            body.append(f"_G[{arg}] = {vpop()}")
        elif op is Op.POP:
            vpop()  # the value was already computed; discarding is free
        elif op is Op.DUP:
            vstack.append(vstack[-1])
        elif op is Op.SWAP:
            vstack[-1], vstack[-2] = vstack[-2], vstack[-1]
        elif op is Op.GETFIELD:
            uses_heap = True
            fault_site()
            ref = vpop()
            body.append(f"_o = _hget({ref})")
            emit_mem(f"_o.vaddr + {16 + arg * _WORD}")
            body.append(f"{vpush()} = _o.data[{arg}]")
        elif op is Op.PUTFIELD:
            uses_heap = True
            fault_site()
            value = vpop()
            ref = vpop()
            body.append(f"_o = _hget({ref})")
            emit_mem(f"_o.vaddr + {16 + arg * _WORD}")
            body.append(f"_o.data[{arg}] = {value}")
        elif op is Op.NOP:
            pass
        else:  # pragma: no cover - every compilable op handled above
            return None

    # Self-loop blocks: a terminator that branches back to this block's
    # own head with a balanced stack (exactly as many surviving slots as
    # entry slots) iterates *inside* the generated function — the entry
    # registers are rebound register-to-register on the back edge, so
    # the hot path pays no stack traffic and no dispatch per iteration.
    # The caller passes the iteration budget ``_r`` (how many whole
    # blocks fit before the next poll/slice/limit boundary), and every
    # iteration charges and counts exactly like a separate entry would.
    loops = (terminator_pc is not None
             and args[terminator_pc] == head
             and len(vstack) == need)

    charge_lines = ["_charge_block(_CLS, _BAS, _TOT)",
                    f"vm.instruction_count += {n}",
                    f"thread.executed += {n}",
                    "_B.entries += 1",
                    f"_B.instructions += {n}",
                    "_B.cycles += _TOT"]
    pushback = []
    if len(vstack) == 1:
        pushback.append(f"_s.append({vstack[0]})")
    elif vstack:
        pushback.append(f"_s.extend(({', '.join(vstack)}))")

    entry_names = [f"_e{i}" for i in range(need)]
    rebind = []
    if need and vstack != entry_names:
        rebind.append(f"{', '.join(entry_names)} = {', '.join(vstack)}")

    if terminator_pc is not None:
        top = Op(ops[terminator_pc])
        target = args[terminator_pc]
        fetch_addr = code_window + target * 4
        site = function.index * CODE_STRIDE + terminator_pc

    if loops:
        # while-True epilogue: charge this iteration, then either take
        # the back edge in-function (budget permitting) or break out
        # with frame.pc set for the interpreter.
        epilogue = list(charge_lines)
        if top is Op.GOTO:
            epilogue += fetch_lines(fetch_addr)
            epilogue.append("_r -= 1")
            epilogue.append("if _r > 0:")
            epilogue += [f"    {line}" for line in rebind]
            epilogue.append("    continue")
            epilogue.append(f"frame.pc = {target}")
            epilogue.append("break")
        else:
            epilogue.append(f"_tk = {cond_value} {_COND_EXPR[top]}")
            epilogue.append(f"_branch({site}, _tk)")
            epilogue.append("if _tk:")
            epilogue += fetch_lines(fetch_addr, "    ")
            epilogue.append("    _r -= 1")
            epilogue.append("    if _r > 0:")
            epilogue += [f"        {line}" for line in rebind]
            epilogue.append("        continue")
            epilogue.append(f"    frame.pc = {target}")
            epilogue.append("else:")
            epilogue.append(f"    frame.pc = {terminator_pc + 1}")
            epilogue.append("break")
    else:
        epilogue = list(pushback) + charge_lines
        if terminator_pc is None:
            end_pc = picked[-1] + 1
            epilogue.append(f"frame.pc = {end_pc}")
        elif top is Op.GOTO:
            epilogue.append(f"frame.pc = {target}")
            epilogue += fetch_lines(fetch_addr)
        else:
            epilogue.append(f"_tk = {cond_value} {_COND_EXPR[top]}")
            epilogue.append(f"_branch({site}, _tk)")
            epilogue.append("if _tk:")
            epilogue.append(f"    frame.pc = {target}")
            epilogue += fetch_lines(fetch_addr, "    ")
            epilogue.append("else:")
            epilogue.append(f"    frame.pc = {terminator_pc + 1}")

    prologue = ["_s = frame.stack"]
    if need == 1:
        prologue.append("_e0 = _s.pop()")
    elif need:
        names = ", ".join(entry_names)
        prologue.append(f"{names} = _s[-{need}:]")
        prologue.append(f"del _s[-{need}:]")
    if uses_locals:
        prologue.append("_L = frame.locals")
        prologue.append("_base = frame.base_vaddr")
    if uses_globals:
        # Fetched per entry, never captured: checkpoint restore swaps
        # vm.globals/vm.heap wholesale between runs.
        prologue.append("_G = vm.globals")
    if uses_heap:
        prologue.append("_hget = vm.heap.get")

    params = "vm, thread, frame, _r" if loops else "vm, thread, frame"
    lines = [f"def _block({params}):"]
    lines += [f"    {line}" for line in prologue]
    inner = body + epilogue if loops else body
    if has_faults:
        lines.append("    _i = 0")
        lines.append("    try:")
        if loops:
            lines.append("        while True:")
            lines += [f"            {line}" for line in inner]
        else:
            lines += [f"        {line}" for line in inner]
        lines.append("    except _GT:")
        lines.append("        _xc, _xb, _xt = _PFX[_i]")
        lines.append("        _n = _i + 1")
        lines.append("        _charge_block(_xc, _xb, _xt)")
        lines.append("        vm.instruction_count += _n")
        lines.append("        thread.executed += _n")
        lines.append("        _B.side_exits += 1")
        lines.append("        _B.instructions += _n")
        lines.append("        _B.cycles += _xt")
        lines.append(f"        frame.pc = {head} + _n")
        lines.append("        raise")
    elif loops:
        lines.append("    while True:")
        lines += [f"        {line}" for line in inner]
    else:
        lines += [f"    {line}" for line in inner]
    if loops:
        lines += [f"    {line}" for line in pushback]
    else:
        lines += [f"    {line}" for line in epilogue]
    source = "\n".join(lines)
    code = compile(source, f"<tracejit {function.name}+{head}>", "exec")
    return {"code": code, "source": source, "n": n, "need": need,
            "loops": loops, "consts": consts}


class TraceJit:
    """Per-run tier-up controller: hotness tracking + compiled blocks.

    State is strictly per ``Interpreter`` (per run): compiled closures
    capture the run's platform fast paths, and :class:`Program` objects
    are shared across runs by the analysis layer's compile cache, so
    nothing may be stashed on the program itself.
    """

    def __init__(self, program: "Program", platform: "Platform",
                 config) -> None:
        self.program = program
        self.platform = platform
        self.hot_samples = max(1, getattr(config, "jit_hot_samples", 4))
        self.max_block = max(_MIN_BLOCK, getattr(config, "jit_max_block", 64))
        #: function index -> (pc -> CompiledBlock | None) | None.  The
        #: outer list's identity is stable: the interpreter aliases it
        #: once per run() call.
        self.blocks: list[list | None] = [None] * len(program.functions)
        self._func_samples = [0] * len(program.functions)
        self._compiled = [False] * len(program.functions)
        self.compile_events = 0
        self.compiled_regions = 0

    def observe(self, function: "Function") -> None:
        """One poll-branch sample; tiers the function up when it gets hot.

        Sampling is deterministic (poll points are fixed instruction
        counts), so compilation triggers at identical points across runs.
        """
        idx = function.index
        count = self._func_samples[idx] + 1
        self._func_samples[idx] = count
        if count >= self.hot_samples and not self._compiled[idx]:
            self._compile_function(function)

    def _compile_function(self, function: "Function") -> None:
        idx = function.index
        self._compiled[idx] = True
        fn_blocks: list = [None] * len(function.ops)
        compiled = 0
        for head in function.region_heads():
            block = compile_region(function, head, self.platform,
                                   self.max_block)
            if block is not None:
                # A short (single-basic-block) variant rides along as the
                # fallback for entries late in a poll window, where the
                # full superblock no longer fits before the boundary.
                if block.n > _MIN_BLOCK:
                    short = compile_region(function, head, self.platform,
                                           self.max_block,
                                           extend_guards=False)
                    if short is not None and short.n < block.n:
                        block.fallback = short
                fn_blocks[head] = block
                compiled += 1
        if compiled:
            self.compile_events += 1
            self.compiled_regions += compiled
            self.blocks[idx] = fn_blocks

    # -- reporting ----------------------------------------------------------

    def region_stats(self) -> list[dict]:
        """Per-region tier-up stats, busiest first (deterministic order).

        A region's numbers merge its whole fallback chain: entries late
        in a poll window run the short variant, and those counters used
        to be dropped here — making ``summary()`` undercount exactly the
        tail-of-window executions.
        """
        regions = []
        for fn_blocks in self.blocks:
            if fn_blocks is None:
                continue
            for head_block in fn_blocks:
                if head_block is None:
                    continue
                entries = side_exits = instructions = cycles = 0
                block = head_block
                while block is not None:
                    entries += block.entries
                    side_exits += block.side_exits
                    instructions += block.instructions
                    cycles += block.cycles
                    block = block.fallback
                regions.append({
                    "function": head_block.function_name,
                    "head_pc": head_block.head,
                    "length": head_block.n,
                    "entries": entries,
                    "side_exits": side_exits,
                    "instructions": instructions,
                    "cycles": cycles,
                })
        regions.sort(key=lambda r: (-r["instructions"], r["function"],
                                    r["head_pc"]))
        return regions

    def summary(self) -> dict:
        """Aggregate tier-up stats for :class:`ExecutionResult`."""
        regions = self.region_stats()
        return {
            "enabled": True,
            "compile_events": self.compile_events,
            "compiled_regions": self.compiled_regions,
            "entries": sum(r["entries"] for r in regions),
            "side_exits": sum(r["side_exits"] for r in regions),
            "jit_instructions": sum(r["instructions"] for r in regions),
            "jit_cycles": sum(r["cycles"] for r in regions),
            "samples": sum(self._func_samples),
            "regions": regions,
        }
