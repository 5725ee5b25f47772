"""Per-tenant verdict ledgers.

Every audit the scheduler completes lands here as an immutable
:class:`AuditEvent`.  The :class:`VerdictSink` folds events into
per-tenant :class:`TenantLedger` rows and the service-level metrics
(queue latency, audits by kind, deadline misses), which the
:class:`~repro.service.fleet.FleetReport` renders and byte-compares
across runs and ``--jobs`` settings — so everything here is derived
from virtual time and seeded replay, never the host clock.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.resilience import AuditClassification
from repro.obs.metrics import MetricsRegistry, get_registry

_FLAGGED = ("flagged-covert", "flagged-tamper", "flagged-divergent")


@dataclass(frozen=True)
class AuditEvent:
    """One completed audit job, fully judged."""

    tenant_id: str
    epoch: int
    kind: str                     #: "spot" | "full" | "escalated"
    cause: str
    classification: AuditClassification
    consistent: bool | None
    coverage: float               #: fraction of wire tx the audit checked
    matched_tx: int
    total_tx: int
    tenant_status: str            #: state-machine status after this audit
    queue_latency_ms: float
    service_ms: float
    worker: int
    start_ms: float
    completion_ms: float
    missed_deadline: bool
    cache_hit: bool
    max_rel_ipd_diff: float
    detail: str = ""
    node: str = ""                #: fleet node that judged it ("" = none)

    @property
    def dedup_key(self) -> tuple:
        """Identity for idempotent recording under at-least-once dispatch."""
        return (self.tenant_id, self.epoch, self.kind, self.cause)

    def to_json_dict(self) -> dict:
        data = asdict(self)
        data["classification"] = self.classification.value
        return data


@dataclass(frozen=True)
class UnauditedRecord:
    """A session the fleet explicitly could not audit — never a silent drop.

    The fleet's terminal invariant: every ingested (tenant, epoch)
    session ends in a verdict *or* one of these, with the reason the
    capacity was lost ("no-capacity", "audit-shed", ...).
    """

    tenant_id: str
    epoch: int
    reason: str

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class TenantLedger:
    """Everything the service concluded about one tenant."""

    tenant_id: str
    events: list[AuditEvent] = field(default_factory=list)
    final_status: str = "normal"

    def add(self, event: AuditEvent) -> None:
        self.events.append(event)
        self.final_status = event.tenant_status

    # -- derived counts ----------------------------------------------------

    def _count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    @property
    def audits(self) -> int:
        return len(self.events)

    @property
    def spot_checks(self) -> int:
        return self._count("spot")

    @property
    def full_audits(self) -> int:
        return self._count("full")

    @property
    def escalations(self) -> int:
        return self._count("escalated")

    @property
    def anomalies(self) -> int:
        return sum(1 for e in self.events if e.classification in
                   (AuditClassification.REPLAY_DIVERGENT,
                    AuditClassification.TAMPER_DETECTED))

    @property
    def degraded_audits(self) -> int:
        return sum(1 for e in self.events if e.classification
                   == AuditClassification.TRANSFER_DEGRADED)

    @property
    def cache_hits(self) -> int:
        return sum(1 for e in self.events if e.cache_hit)

    @property
    def deadline_misses(self) -> int:
        return sum(1 for e in self.events if e.missed_deadline)

    @property
    def mean_queue_latency_ms(self) -> float:
        if not self.events:
            return 0.0
        return sum(e.queue_latency_ms for e in self.events) / len(self.events)

    @property
    def max_queue_latency_ms(self) -> float:
        return max((e.queue_latency_ms for e in self.events), default=0.0)

    @property
    def flagged(self) -> bool:
        return self.final_status in _FLAGGED

    @property
    def verdict(self) -> str:
        """The one-word answer the report table prints."""
        if self.final_status == "flagged-covert":
            return "FLAGGED covert-timing"
        if self.final_status == "flagged-tamper":
            return "FLAGGED tamper"
        if self.final_status == "flagged-divergent":
            return "FLAGGED divergent"
        if self.final_status == "suspect":
            return "suspect"
        if self.degraded_audits:
            return "clean (degraded link)"
        return "clean"

    def to_json_dict(self) -> dict:
        return {"tenant_id": self.tenant_id,
                "verdict": self.verdict,
                "final_status": self.final_status,
                "audits": self.audits,
                "spot_checks": self.spot_checks,
                "full_audits": self.full_audits,
                "escalations": self.escalations,
                "anomalies": self.anomalies,
                "degraded_audits": self.degraded_audits,
                "cache_hits": self.cache_hits,
                "deadline_misses": self.deadline_misses,
                "mean_queue_latency_ms": round(self.mean_queue_latency_ms, 3),
                "max_queue_latency_ms": round(self.max_queue_latency_ms, 3),
                "events": [e.to_json_dict() for e in self.events]}


class VerdictSink:
    """Collects audit events into ledgers and service metrics.

    The sink is idempotent on :attr:`AuditEvent.dedup_key`: the fleet's
    rebalance path delivers jobs at least once, and the second verdict
    for the same (tenant, epoch, kind, cause) is counted and discarded
    rather than double-booked.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else get_registry()
        self.ledgers: dict[str, TenantLedger] = {}
        self.events: list[AuditEvent] = []
        self.deduped = 0
        self._seen_keys: set[tuple] = set()

    def already_recorded(self, key: tuple) -> bool:
        """Whether a verdict with this dedup key has landed."""
        return key in self._seen_keys

    def count_duplicate(self) -> None:
        """Book a redelivered job that was skipped before judgement."""
        self.deduped += 1
        if self.registry.enabled:
            self.registry.counter(
                "service_verdicts_deduped_total",
                "Duplicate verdicts discarded by idempotent "
                "recording").inc()

    def record(self, event: AuditEvent) -> bool:
        """Fold one event in; False when dedup discarded a duplicate."""
        key = event.dedup_key
        if key in self._seen_keys:
            self.count_duplicate()
            return False
        self._seen_keys.add(key)
        self.events.append(event)
        ledger = self.ledgers.get(event.tenant_id)
        if ledger is None:
            ledger = TenantLedger(tenant_id=event.tenant_id)
            self.ledgers[event.tenant_id] = ledger
        ledger.add(event)
        registry = self.registry
        if not registry.enabled:
            return True
        registry.counter("service_audits_total",
                         "Audit jobs completed by the verifier").inc()
        registry.counter(f"service_audits_{event.kind}_total",
                         f"{event.kind} audits completed").inc()
        registry.histogram(
            "service_queue_latency_ms",
            "Job wait between ready and dispatch (virtual ms)",
            buckets=(1.0, 5.0, 20.0, 50.0, 200.0, 1000.0)).observe(
            event.queue_latency_ms)
        registry.histogram(
            "service_audit_service_ms",
            "Audit service time under the virtual cost model (ms)",
            buckets=(2.0, 10.0, 50.0, 200.0, 1000.0, 5000.0)).observe(
            event.service_ms)
        if event.missed_deadline:
            registry.counter("service_deadline_misses_total",
                             "Audits completed after their SLO deadline"
                             ).inc()
        return True
