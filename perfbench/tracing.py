"""Spans and counters recorded from outside the program.

The benchmark does not change ``src/``: it wraps the public functions at
each layer boundary, at the name each caller looks up (a module global
is replaced in every ``repro`` module that holds it; a method is
replaced on its class).  Wrappers are installed before the first
machine is built, so closures that capture a bound method capture the
wrapper.

Three kinds of boundary:

* *spans* (low frequency) keep a record ``(name, start, end, parent,
  op)`` in memory, written out when the run ends;
* *timed* boundaries (``Machine.service_world``, about 10^5 calls per
  fleet op) only accumulate count and time, to keep tracing cheap;
* *counted* boundaries (``VirtualClock.advance``,
  ``flush_charges``) only count, plus the cycles each clock source was
  charged.

Self time is computed online: a closing span adds its duration to its
parent's child time, and its own self time is its duration minus its
children's.  Every span opened while an op runs belongs to that op.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

_now = time.perf_counter

#: Where the layer boundaries live.  Importing them here (not at module
#: import) keeps ``python3 perfbench/run.py`` free of repro until the
#: worker has put the checkout's ``src`` on the path.
_MODULES = ("repro", "repro.lang", "repro.lang.compiler", "repro.apps",
            "repro.vm.tracejit", "repro.vm.interpreter", "repro.core",
            "repro.core.audit", "repro.core.log", "repro.core.segments",
            "repro.core.tdr", "repro.machine.machine",
            "repro.machine.platform", "repro.hw.clock", "repro.service",
            "repro.service.daemon", "repro.service.fleet",
            "repro.service.scheduler", "repro.exec",
            "repro.exec.scenarios")


def _load() -> None:
    import importlib

    for name in _MODULES:
        importlib.import_module(name)


def _replace_global(module_name: str, attr: str, make) -> None:
    """Replace ``module.attr`` wherever a repro module holds it."""
    original = getattr(sys.modules[module_name], attr)
    wrapper = make(original)
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def _replace_method(cls, attr: str, make) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


class OpTrace:
    """What one op did at the wrapped boundaries."""

    __slots__ = ("agg", "counts", "cycles_by_source")

    def __init__(self) -> None:
        #: span name -> [calls, inclusive seconds, self seconds]
        self.agg: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.cycles_by_source: Counter = Counter()


class Recorder:
    """In-memory span store with online self-time accounting."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ops: dict[object, OpTrace] = {}
        self._stack: list[list] = []
        self._op = None
        self._trace = OpTrace()

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self._op = op_id
        self._trace = OpTrace()
        self.push("bench.op", True)

    def end_op(self) -> OpTrace:
        self.pop()
        trace = self.ops[self._op] = self._trace
        self._op = None
        self._trace = OpTrace()
        return trace

    # -- spans -------------------------------------------------------------

    def push(self, name: str, spanned: bool) -> None:
        index = None
        if spanned:
            parent = next((frame[3] for frame in reversed(self._stack)
                           if frame[3] is not None), None)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self._op])
        frame = [name, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = _now()
        if index is not None:
            self.spans[index][1] = frame[1]

    def pop(self) -> None:
        end = _now()
        name, start, child, index = self._stack.pop()
        duration = end - start
        entry = self._trace.agg[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            self.spans[index][2] = end

    def write_ndjson(self, path) -> None:
        import json

        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "op": op}) + "\n")

    # -- wrapper factories ----------------------------------------------------

    def span(self, name: str, spanned: bool = True):
        def make(fn):
            push, pop = self.push, self.pop

            def wrapper(*args, **kwargs):
                push(name, spanned)
                try:
                    return fn(*args, **kwargs)
                finally:
                    pop()
            return wrapper
        return make

    def count(self, key: str):
        def make(fn):
            recorder = self

            def wrapper(*args, **kwargs):
                recorder._trace.counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make


def install_result_hook(sink) -> None:
    """Pass every ``ExecutionResult`` the machines assemble to ``sink``.

    ``Machine.make_result`` runs once per simulated execution, including
    the salvaged-prefix replays that drive the interpreter directly, so
    replay-cache hits (no simulation) are not counted.  It is the only
    wrapper the untraced run installs: one call per execution.
    """
    from repro.machine.machine import Machine

    def make(fn):
        def wrapper(self, vm):
            result = fn(self, vm)
            sink(result)
            return result
        return wrapper
    _replace_method(Machine, "make_result", make)


def install_tracing(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    _load()
    from repro.core.log import EventLog
    from repro.hw.clock import VirtualClock
    from repro.machine.machine import Machine
    from repro.machine.platform import TimedCorePlatform
    from repro.service.fleet import FleetService
    from repro.vm.interpreter import Interpreter

    span = recorder.span
    for module, attr, name in (
            ("repro.lang.compiler", "compile_minij", "lang.compile"),
            ("repro.vm.tracejit", "compile_region", "vm.jit_compile"),
            ("repro.core.audit", "compare_traces", "core.compare"),
            ("repro.core.segments", "replay_salvaged_prefix",
             "core.prefix_replay"),
            ("repro.service.daemon", "play_and_ship", "service.play_ship"),
            ("repro.service.scheduler", "resolve_replays",
             "service.resolve_replays"),
            ("repro.service.scheduler", "execute_replay_task",
             "service.replay_task"),
            ("repro.exec.scenarios", "exec_play", "exec.play"),
            ("repro.exec.scenarios", "exec_replay", "exec.replay")):
        _replace_global(module, attr, span(name))
    _replace_method(Interpreter, "run", span("vm.run"))
    _replace_method(FleetService, "run", span("service.fleet_run"))
    _replace_method(EventLog, "from_bytes", span("core.log_decode"))
    _replace_method(Machine, "service_world",
                    span("machine.service_world", spanned=False))
    _replace_method(TimedCorePlatform, "flush_charges",
                    recorder.count("flush_charges"))

    push, pop = recorder.push, recorder.pop

    def machine_run(fn):
        def wrapper(self, *args, **kwargs):
            push(f"machine.{self.mode}", True)
            try:
                return fn(self, *args, **kwargs)
            finally:
                pop()
        return wrapper
    _replace_method(Machine, "run", machine_run)

    def native_call(fn):
        def wrapper(self, index, interpreter):
            name = ("machine.native.wait_packet"
                    if self._specs[index].name == "wait_packet"
                    else "machine.native")
            push(name, True)
            try:
                return fn(self, index, interpreter)
            finally:
                pop()
        return wrapper
    _replace_method(TimedCorePlatform, "native_call", native_call)

    def to_bytes(fn):
        def wrapper(self, *args, **kwargs):
            push("core.log_encode", True)
            try:
                data = fn(self, *args, **kwargs)
            finally:
                pop()
            recorder._trace.counts["log_bytes"] += len(data)
            return data
        return wrapper
    _replace_method(EventLog, "to_bytes", to_bytes)

    def advance(fn):
        def wrapper(self, cycles, source="other"):
            trace = recorder._trace
            trace.counts["clock_advances"] += 1
            trace.cycles_by_source[source] += cycles
            return fn(self, cycles, source)
        return wrapper
    _replace_method(VirtualClock, "advance", advance)
