"""Prover-side sessions: executions become hash-chained segment streams.

A tenant of the verifier service is a *prover session*: a long-running
machine whose event log must reach the auditor continuously, not as one
monolithic blob at shutdown.  Per epoch the session

1. runs one machine execution (described as a picklable
   :class:`~repro.analysis.parallel.MachineSpec`, so the service can fan
   epochs out over the experiment fleet),
2. splits the recorded log into contiguous *segments*, folding every
   entry into a PeerReview-style hash chain
   (:class:`~repro.core.attestation.LogAttestor`) and stamping each
   segment with a signed authenticator over the cumulative prefix, and
3. ships each segment over the lossy
   :class:`~repro.faults.channel.LogTransferChannel` with retry/backoff —
   a degraded link delivers a contiguous prefix of the chunk, exactly
   what the salvage replay knows how to audit.

The covert tenant follows the §5 threat model: it injects a channel
schedule (IPCTC/TRCTC delays via the ``covert_delay`` primitive) during
play but ships an *honest* log — the log records inputs, not the delays,
which is precisely why time-deterministic replay exposes the channel.
A tampering tenant instead rewrites a shipped entry after attesting it,
which the admission chain check catches before any replay is spent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.experiment import NfsTrafficModel, vm_covert_schedule
from repro.analysis.parallel import MachineSpec
from repro.channels import channel_by_name
from repro.channels.codec import random_bits
from repro.core.attestation import Authenticator, LogAttestor
from repro.core.log import EventKind, EventLog, LogEntry
from repro.determinism import SplitMix64, hash_string, mix64
from repro.faults.channel import LogTransferChannel, TransferOutcome
from repro.machine.config import MachineConfig
from repro.machine.machine import ExecutionResult
from repro.service.simclock import ServiceError

#: Adversary's calibration-sample size (profiled legitimate IPDs).
_ADVERSARY_SAMPLE = 240


@dataclass(frozen=True)
class TenantSpec:
    """Static description of one tenant admitted to the service."""

    tenant_id: str
    program: str = "kvstore"          #: MachineSpec symbolic program ref
    workload: str = "kvstore"         #: workload kind ("nfs"/"kvstore")
    requests: int = 6
    seed: int = 0
    #: Covert-channel name ("ipctc"/"trctc"/...) — None for honest tenants.
    covert_channel: str | None = None
    covert_bits: int = 4
    #: Loss probability of this tenant's uplink to the verifier.
    drop_rate: float = 0.0
    #: Rewrite a shipped log entry after attesting it (tamper scenario).
    tamper: bool = False
    #: Log segments shipped per epoch.
    segments: int = 3

    def __post_init__(self) -> None:
        if self.segments < 1:
            raise ServiceError(
                f"tenant '{self.tenant_id}': needs >= 1 segment per "
                f"epoch, got {self.segments}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ServiceError(
                f"tenant '{self.tenant_id}': drop rate must be in "
                f"[0, 1), got {self.drop_rate}")

    @property
    def signing_key(self) -> bytes:
        """Per-tenant attestation key (simulation stand-in for a real
        per-machine signing key)."""
        return f"svc-attest-{self.tenant_id}".encode()


@dataclass(frozen=True)
class WireObservation:
    """What the verifier itself saw on the wire (its trusted vantage).

    Duck-types the slice of :class:`ExecutionResult` the audit comparison
    needs (``tx`` + ``tx_times_ms``) while staying small and picklable.
    """

    tx: tuple[tuple[int, bytes], ...]
    times_ms: tuple[float, ...]
    instructions: int
    total_cycles: int

    @classmethod
    def from_result(cls, result: ExecutionResult) -> "WireObservation":
        return cls(tx=tuple(result.tx),
                   times_ms=tuple(result.tx_times_ms()),
                   instructions=result.instructions,
                   total_cycles=result.total_cycles)

    def tx_times_ms(self) -> list[float]:
        return list(self.times_ms)


@dataclass(frozen=True)
class SegmentShipment:
    """One log segment as it arrives at the verifier's front door."""

    tenant_id: str
    epoch: int
    seq: int                      #: segment index within the epoch
    total_segments: int
    chunk_bytes: bytes            #: serialized entries of this segment
    #: Signed commitment to the *cumulative* log prefix ending with this
    #: segment (chain state carries across segments within an epoch).
    auth: Authenticator
    sent_ms: float
    arrival_ms: float
    transfer: TransferOutcome

    @property
    def degraded(self) -> bool:
        return self.transfer.degraded


@dataclass
class EpochShipment:
    """Everything one tenant-epoch puts on the verifier's doorstep."""

    tenant_id: str
    epoch: int
    wire: WireObservation
    shipments: list[SegmentShipment] = field(default_factory=list)
    log_entries: int = 0          #: entries the prover's log really held


def _chunk_bounds(n_entries: int, segments: int) -> list[tuple[int, int]]:
    """Split ``n_entries`` into ``segments`` contiguous chunks.

    Early chunks take the remainder, so every chunk is non-empty whenever
    ``n_entries >= segments``; with fewer entries than segments the tail
    chunks are empty (they still ship, carrying the chain commitment).
    """
    base, extra = divmod(n_entries, segments)
    bounds = []
    start = 0
    for i in range(segments):
        size = base + (1 if i < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _entries_to_bytes(entries: list[LogEntry]) -> bytes:
    chunk_log = EventLog()
    chunk_log.entries = list(entries)
    return chunk_log.to_bytes()


class ProverSession:
    """One tenant's machine, log chain, and uplink."""

    def __init__(self, spec: TenantSpec, config: MachineConfig | None = None,
                 service_seed: int = 0,
                 segment_interval_ms: float = 40.0,
                 mtu_bytes: int = 256, max_retries: int = 4) -> None:
        self.spec = spec
        self.config = config or MachineConfig()
        self.service_seed = service_seed
        self.segment_interval_ms = segment_interval_ms
        self.channel = LogTransferChannel(drop_rate=spec.drop_rate,
                                          mtu_bytes=mtu_bytes,
                                          max_retries=max_retries)
        self._covert_schedules: dict[int, tuple[int, ...]] = {}

    # -- deterministic seed derivations -----------------------------------

    def _rng(self, label: str) -> SplitMix64:
        return SplitMix64(mix64(self.service_seed)
                          ^ hash_string(f"{self.spec.tenant_id}:{label}"))

    def play_seed(self, epoch: int) -> int:
        return (mix64(self.spec.seed ^ hash_string(
            f"play:{self.spec.tenant_id}:{epoch}"))) % (1 << 31)

    def workload_seed(self, epoch: int) -> int:
        return (mix64(self.spec.seed ^ hash_string(
            f"workload:{self.spec.tenant_id}:{epoch}"))) % (1 << 31)

    # -- covert schedule ---------------------------------------------------

    def covert_schedule(self, epoch: int) -> tuple[int, ...] | None:
        """The epoch's ``covert_delay`` schedule (cycles), or None.

        The adversary profiles legitimate traffic once (the calibrated
        synthetic model), then encodes a fresh payload per epoch.  Delays
        are clamped non-negative by the channel encoder; the schedule is
        cached so repeated spec builds stay cheap and identical.
        """
        if self.spec.covert_channel is None:
            return None
        cached = self._covert_schedules.get(epoch)
        if cached is not None:
            return cached
        rng = self._rng(f"covert:{epoch}")
        channel = channel_by_name(self.spec.covert_channel)
        model = NfsTrafficModel()
        channel.fit(model.ipds(_ADVERSARY_SAMPLE, rng.fork("adversary")),
                    rng.fork("fit"))
        natural = model.ipds(self.spec.requests, rng.fork("natural"))
        bits = random_bits(max(1, self.spec.covert_bits), rng.fork("bits"))
        schedule = tuple(vm_covert_schedule(
            channel, natural, bits, rng.fork("encode"),
            frequency_hz=self.config.frequency_hz))
        self._covert_schedules[epoch] = schedule
        return schedule

    # -- play --------------------------------------------------------------

    def play_spec(self, epoch: int) -> MachineSpec:
        """The epoch's execution, as a fleet-dispatchable spec."""
        return MachineSpec(
            program=self.spec.program,
            config=self.config,
            seed=self.play_seed(epoch),
            workload=(f"{self.spec.workload}:{self.workload_seed(epoch)}"
                      f":{self.spec.requests}"),
            covert_schedule=self.covert_schedule(epoch))

    # -- segmentation + attestation + shipping -----------------------------

    def ship(self, epoch: int, result: ExecutionResult,
             epoch_start_ms: float) -> EpochShipment:
        """Attest and transfer the epoch's log as a segment stream."""
        if result.log is None:
            raise ServiceError(
                f"tenant '{self.spec.tenant_id}' epoch {epoch}: play "
                f"produced no log to ship")
        entries = result.log.entries
        bounds = _chunk_bounds(len(entries), self.spec.segments)

        attestor = LogAttestor(self.spec.signing_key)
        rng = self._rng(f"ship:{epoch}")
        shipments: list[SegmentShipment] = []
        tampered = False
        # Segments of one epoch are delivered in order: a retried segment
        # holds back the ones behind it, so arrivals never go backwards.
        last_arrival_ms = epoch_start_ms
        for seq, (start, end) in enumerate(bounds):
            chunk_entries = list(entries[start:end])
            # The chain commits to the *honest* entries first; a tamperer
            # rewrites what it ships afterwards, which is exactly the
            # history-rewriting the admission chain check must catch.
            for entry in chunk_entries:
                attestor.extend(entry)
            auth = attestor.authenticator()
            if self.spec.tamper and not tampered:
                victim = next((i for i, e in enumerate(chunk_entries)
                               if e.kind == EventKind.PACKET
                               and e.payload), None)
                if victim is not None:
                    original = chunk_entries[victim]
                    forged = bytes([original.payload[0] ^ 0x01]) \
                        + original.payload[1:]
                    chunk_entries[victim] = LogEntry(
                        original.kind, original.instr_count,
                        payload=forged, value=original.value)
                    tampered = True
            chunk_bytes = _entries_to_bytes(chunk_entries)
            transfer = self.channel.transfer(
                chunk_bytes, rng.fork(f"xfer:{seq}"))
            sent_ms = epoch_start_ms + (seq + 1) * self.segment_interval_ms
            last_arrival_ms = max(last_arrival_ms,
                                  sent_ms + transfer.elapsed_ms)
            shipments.append(SegmentShipment(
                tenant_id=self.spec.tenant_id, epoch=epoch, seq=seq,
                total_segments=self.spec.segments,
                chunk_bytes=transfer.data, auth=auth,
                sent_ms=sent_ms,
                arrival_ms=last_arrival_ms,
                transfer=transfer))
        return EpochShipment(tenant_id=self.spec.tenant_id, epoch=epoch,
                             wire=WireObservation.from_result(result),
                             shipments=shipments,
                             log_entries=len(entries))
