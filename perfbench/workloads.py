"""The benchmark's workloads: how each op is built, run, and checked.

Every workload turns ``--seed`` into an endless sequence of op inputs
(op ``i`` depends only on the seed and ``i``), runs one op at a time, and
checks each op's output.  Ops are grouped in *rounds*: a round is the
smallest run of ops whose mix is the same for every seed (for example
one play of each SciMark kernel).  A run of ``--seconds`` does the
number of whole rounds the calibration host completes in that time
(``ops_for``), so every run of a seed does the same ops, whatever the
host's speed, and the tail percentile is the same in every run.

``run_op`` is the timed part.  ``check`` and ``describe`` run after the
clock stops: ``check`` returns an error string (or ``None``), and
``describe`` returns the op's deterministic counts, which the benchmark
compares across processes to prove the simulation repeated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.determinism import SplitMix64


@dataclass(frozen=True)
class OpInput:
    """One op's inputs; ``label`` names it in error reports."""

    index: int
    label: str
    args: tuple


class Workload:
    """Base class: subclasses fill in the hooks below."""

    name = ""
    #: Ops per round (see the module docstring).
    round_len = 1
    #: The first ``det_ops`` ops carry the deterministic counts and the
    #: statistics digest; the traced run always completes them.
    det_ops = 1
    #: Untimed warm-up ops: enough to run every distinct guest program.
    warmup_ops = 1
    #: Ops per second on the calibration host (see ``calibration.py``).
    nominal_ops_per_s = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def ops_for(self, seconds: float) -> int:
        """Timed ops in a run of ``seconds``: whole rounds, and at least
        the det ops."""
        rounds = math.ceil(seconds * self.nominal_ops_per_s / self.round_len)
        return max(self.det_ops, rounds * self.round_len)

    def _rng(self, index: int) -> SplitMix64:
        from repro.determinism import SplitMix64

        return SplitMix64(self.seed).fork(f"{self.name}/{index}")

    def setup(self) -> None:
        """Compile guests and build everything ops share."""

    def warmup_inputs(self) -> list[OpInput]:
        """Untimed ops that fill the trace-JIT artifact cache, on inputs
        no timed op uses (negative indices)."""
        return [self.op_input(-1 - k) for k in range(self.warmup_ops)]

    def op_input(self, index: int) -> OpInput:
        raise NotImplementedError

    def run_op(self, op: OpInput):
        raise NotImplementedError

    def check(self, op: OpInput, outcome) -> str | None:
        raise NotImplementedError

    def sessions(self, outcome) -> int:
        """Executions recorded and verdicted by this op."""
        return 1

    def describe(self, outcome) -> dict:
        """Deterministic counts and the digest fields of one op."""
        raise NotImplementedError


def _round_trip_counts(tdr) -> dict:
    return {"play_cycles": tdr.play.total_cycles,
            "replay_cycles": tdr.replay.total_cycles,
            "tx": len(tdr.play.tx),
            "tx_sha": _sha(repr(tdr.play.tx)),
            "log_bytes": tdr.play.log.size_bytes(),
            "console": repr(tdr.play.console)}


def _sha(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()[:16]


class FleetAudit(Workload):
    """``FleetService.run`` over the standard roster on 4 nodes."""

    name = "fleet-audit"
    nominal_ops_per_s = 1.3
    TENANTS = 4
    NODES = 4
    #: FleetService's own default.
    EPOCHS = 2

    def setup(self) -> None:
        from repro.service import FleetTopology, default_tenants

        self.roster = default_tenants(self.TENANTS)
        self.topology = FleetTopology(num_nodes=self.NODES)

    def op_input(self, index: int) -> OpInput:
        service_seed = self._rng(index).randint(0, 2**31 - 1)
        return OpInput(index, f"service-seed={service_seed}",
                       (service_seed,))

    def run_op(self, op: OpInput):
        from repro.obs.metrics import MetricsRegistry
        from repro.service import FleetService

        registry = MetricsRegistry()
        service = FleetService(self.roster, topology=self.topology,
                               epochs=self.EPOCHS, seed=op.args[0],
                               registry=registry)
        return service.run(jobs=1), registry, service

    def check(self, op: OpInput, outcome) -> str | None:
        report, _, service = outcome
        # The covert tenant's payload is random per epoch; when every
        # delay it encodes is zero it sends nothing covert, and "clean"
        # is the right verdict.
        covert = [tid for tid, session in sorted(service.sessions.items())
                  if any(any(session.covert_schedule(epoch) or ())
                         for epoch in range(self.EPOCHS))]
        expected = self.TENANTS * self.EPOCHS
        if report.flagged_tenants != covert:
            return (f"flagged {report.flagged_tenants}, but {covert} sent "
                    f"covert delays")
        if report.unaudited:
            return f"{len(report.unaudited)} sessions unaudited"
        if report.sessions_verdicted != expected:
            return (f"{report.sessions_verdicted} of {expected} sessions "
                    f"verdicted")
        return None

    def sessions(self, outcome) -> int:
        return outcome[0].sessions_verdicted

    def describe(self, outcome) -> dict:
        import json

        report, registry, _ = outcome
        snapshot = registry.snapshot()
        ledgers = report.ledgers.values()
        return {"sessions": report.sessions_verdicted,
                "audits_spot": sum(l.spot_checks for l in ledgers),
                "audits_full": sum(l.full_audits for l in ledgers),
                "audits_escalated": sum(l.escalations for l in ledgers),
                "cache_hits": _counter(snapshot,
                                       "tdr_replay_cache_hits_total"),
                "cache_misses": _counter(snapshot,
                                         "tdr_replay_cache_misses_total"),
                "segments_shipped": report.segments_shipped,
                "verdicts_sha": _sha(json.dumps(report.verdicts_dict(),
                                                sort_keys=True))}


def _counter(snapshot: dict, name: str) -> int:
    entry = snapshot.get(name)
    return int(entry["value"]) if entry is not None else 0


class _FileOrder:
    """The random source ``build_nfs_workload`` draws from, with its file
    choices taken from a given sequence instead of drawn independently.
    Everything else (the client's think times and jitter) forks from
    ``rng``."""

    def __init__(self, files, rng: SplitMix64) -> None:
        self._files = iter(files)
        self._rng = rng

    def randint(self, low: int, high: int) -> int:
        return next(self._files)

    def fork(self, label: str = "") -> SplitMix64:
        return self._rng.fork(label)


class NfsRoundTrip(Workload):
    """Play, replay and audit of the mini-NFS guest on a seeded trace.

    Request cost grows with the file's size, and a 6-request trace reads
    only one or two files, so independent file draws would make a run's
    cost depend on its seed.  The files are therefore stratified: the
    run reads them in seeded permutations of the whole working set, back
    to back, so every run reads each file about equally often.
    """

    name = "nfs-roundtrip"
    det_ops = 2
    nominal_ops_per_s = 2.4
    REQUESTS = 6

    def setup(self) -> None:
        from repro.apps.nfs import build_nfs_program
        from repro.machine.config import MachineConfig

        self.program = build_nfs_program()
        self.config = MachineConfig()
        #: Index of each op's first file in the run's file sequence.
        self._starts = [0]
        self._blocks: dict[int, list[int]] = {}

    def _file(self, position: int) -> int:
        from repro.apps.nfs import NUM_FILES
        from repro.determinism import SplitMix64

        block = position // NUM_FILES
        if block not in self._blocks:
            rng = SplitMix64(self.seed).fork(f"{self.name}/files/{block}")
            order = list(range(1, NUM_FILES + 1))
            for i in range(NUM_FILES - 1, 0, -1):
                j = rng.randint(0, i)
                order[i], order[j] = order[j], order[i]
            self._blocks[block] = order
        return self._blocks[block][position % NUM_FILES]

    def _start(self, index: int) -> int:
        from repro.apps.nfs import chunks_for_file

        while len(self._starts) <= index:
            position, requests = self._starts[-1], 0
            while requests < self.REQUESTS:
                requests += chunks_for_file(self._file(position))
                position += 1
            self._starts.append(position)
        return self._starts[index]

    def op_input(self, index: int) -> OpInput:
        from repro.apps.nfs import build_nfs_workload

        rng = self._rng(index)
        play_seed = rng.randint(0, 2**31 - 1)
        trace_rng = rng.fork("trace")
        if index >= 0:
            start = self._start(index)
            trace_rng = _FileOrder(
                (self._file(start + k) for k in range(self.REQUESTS)),
                trace_rng)
        client = build_nfs_workload(trace_rng, num_requests=self.REQUESTS)
        return OpInput(index, f"play-seed={play_seed}", (client, play_seed))

    def run_op(self, op: OpInput):
        from repro.core.tdr import round_trip

        client, play_seed = op.args
        return round_trip(self.program, self.config, client,
                          play_seed=play_seed, replay_seed=play_seed + 1)

    def check(self, op: OpInput, outcome) -> str | None:
        if not outcome.audit.payloads_match:
            return "replayed payloads differ"
        if not outcome.audit.is_consistent():
            return "clean round trip flagged"
        return None

    def describe(self, outcome) -> dict:
        return _round_trip_counts(outcome)


class SciMark(Workload):
    """One ``play`` of a SciMark kernel under the sanity configuration."""

    name = "scimark"
    KERNELS = ("fft", "sor", "mc", "smm", "lu")
    round_len = len(KERNELS)
    det_ops = len(KERNELS)
    warmup_ops = len(KERNELS)
    nominal_ops_per_s = 7.0

    def setup(self) -> None:
        from repro.apps.scimark import build_kernel_program
        from repro.machine.noise import scenario_config

        self.programs = {k: build_kernel_program(k) for k in self.KERNELS}
        self.config = scenario_config("sanity")
        #: Console output per kernel, from the warm-up plays; every
        #: timed play of that kernel must print exactly the same.
        self.expected: dict[str, list] = {}

    def op_input(self, index: int) -> OpInput:
        kernel = self.KERNELS[index % len(self.KERNELS)]
        play_seed = self._rng(index).randint(0, 2**31 - 1)
        return OpInput(index, f"{kernel} play-seed={play_seed}",
                       (kernel, play_seed))

    def run_op(self, op: OpInput):
        from repro.core.tdr import play

        kernel, play_seed = op.args
        return play(self.programs[kernel], self.config, seed=play_seed)

    def check(self, op: OpInput, outcome) -> str | None:
        kernel = op.args[0]
        expected = self.expected.setdefault(kernel, list(outcome.console))
        if list(outcome.console) != expected:
            return f"{kernel} printed {outcome.console}, not {expected}"
        return None

    def describe(self, outcome) -> dict:
        return {"cycles": outcome.total_cycles,
                "log_bytes": outcome.log.size_bytes(),
                "console": repr(outcome.console)}


class ExecIpc(Workload):
    """An executive round trip of one ``EXEC_SCENARIOS`` variant."""

    name = "exec-ipc"
    #: (scenario, covert): the pipeline has no covert sender.
    VARIANTS = (("pipeline", False), ("sched", False), ("sched", True),
                ("mbox", False), ("mbox", True))
    #: Scheduler quanta in instructions; None is the executive default,
    #: 257 and 61 are short, hostile ones that force many preemptions.
    QUANTA = (None, 1009, 257, 61)
    round_len = len(VARIANTS) * len(QUANTA)
    det_ops = round_len
    warmup_ops = len(VARIANTS)
    nominal_ops_per_s = 17.0

    def setup(self) -> None:
        from repro.exec.scenarios import EXEC_SCENARIOS

        self.scenarios = EXEC_SCENARIOS
        for scenario in EXEC_SCENARIOS.values():
            scenario.program()

    def op_input(self, index: int) -> OpInput:
        name, covert = self.VARIANTS[index % len(self.VARIANTS)]
        quantum = self.QUANTA[(index // len(self.VARIANTS))
                              % len(self.QUANTA)]
        play_seed = self._rng(index).randint(0, 2**31 - 1)
        return OpInput(index,
                       f"{name}{'-covert' if covert else ''} "
                       f"quantum={quantum} play-seed={play_seed}",
                       (name, covert, quantum, play_seed))

    def run_op(self, op: OpInput):
        from repro.exec.scenarios import exec_round_trip

        name, covert, quantum, play_seed = op.args
        return exec_round_trip(self.scenarios[name], play_seed=play_seed,
                               replay_seed=play_seed + 1, covert=covert,
                               quantum=quantum)

    def check(self, op: OpInput, outcome) -> str | None:
        covert = op.args[1]
        for side in (outcome.play, outcome.replay):
            stats = side.stats
            if stats["exec_exited"] != stats["exec_processes"]:
                return (f"{side.mode}: {stats['exec_exited']} of "
                        f"{stats['exec_processes']} processes exited")
        if not outcome.audit.payloads_match:
            return "replayed payloads differ"
        if outcome.audit.is_consistent() == covert:
            return ("covert channel not flagged" if covert
                    else "clean scenario flagged")
        return None

    def describe(self, outcome) -> dict:
        from repro.core.log import EventKind

        counts = _round_trip_counts(outcome)
        counts["sched_entries"] = sum(
            1 for entry in outcome.play.log if entry.kind == EventKind.SCHED)
        counts["switches"] = outcome.play.stats["exec_switches"]
        counts["messages"] = outcome.play.stats["exec_messages"]
        return counts


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    cls.name: cls for cls in (FleetAudit, NfsRoundTrip, SciMark, ExecIpc)}
