"""Audit scheduling and the escalation state machine.

The scheduler turns admitted segments into replay work and replay
results into tenant state transitions:

::

    NORMAL --spot-check anomaly--> SUSPECT --escalated full-prefix-->
        consistent        -> NORMAL   (strike cleared)
        timing deviation  -> FLAGGED_COVERT
        payload mismatch  -> FLAGGED_DIVERGENT
    any tamper signal (chain mismatch at ingest) --> escalated replay
        --> FLAGGED_TAMPER

Two cost regimes implement the "cheap first" rule.  A *spot check* runs
when the epoch's first segment lands: it replays only the entries
admitted so far under a hard instruction budget (the VM stops at the
budget instead of raising), then compares the matched transmission
prefix.  A *full audit* runs at the epoch's final segment on a cadence
(every ``full_audit_every``-th epoch), replaying the whole accumulated
log — this is what catches shape-mimicking channels a short prefix might
miss.  Escalations replay the full prefix immediately and preempt
everything else in the queue.

Determinism: all real replay execution happens in submission-order
:func:`~repro.analysis.parallel.run_fleet` batches, while *time* (start,
completion, latency, utilization) comes from the virtual
:class:`~repro.service.simclock.WorkerPool` plus a cost model priced in
replayed instructions.  Worker count and ``--jobs`` therefore change
wall-clock only, never a verdict, a latency table, or a cache sequence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.analysis.parallel import _compiled, run_fleet
from repro.core.audit import AuditReport, compare_trace_prefix
from repro.core.log import EventLog
from repro.core.replay_cache import ReplayCache
from repro.core.resilience import AuditClassification
from repro.core.segments import replay_salvaged_prefix
from repro.machine.config import MachineConfig
from repro.machine.machine import ExecutionResult
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.service.ingest import AdmissionRecord, AdmissionStatus, IngestGate
from repro.service.queue import (PRIORITY_ESCALATED, PRIORITY_FULL,
                                 PRIORITY_SPOT, AuditJob, AuditQueue)
from repro.service.session import TenantSpec, WireObservation
from repro.service.simclock import ServiceError, WorkerPool
from repro.service.verdicts import AuditEvent, VerdictSink


class TenantStatus(str, enum.Enum):
    """Where a tenant sits in the escalation state machine."""

    NORMAL = "normal"
    SUSPECT = "suspect"
    FLAGGED_COVERT = "flagged-covert"
    FLAGGED_TAMPER = "flagged-tamper"
    FLAGGED_DIVERGENT = "flagged-divergent"

    @property
    def flagged(self) -> bool:
        return self in (TenantStatus.FLAGGED_COVERT,
                        TenantStatus.FLAGGED_TAMPER,
                        TenantStatus.FLAGGED_DIVERGENT)


@dataclass(frozen=True)
class EscalationPolicy:
    """Knobs of the escalation state machine and the audit cost model."""

    #: Full-prefix audit cadence: epoch ``e`` gets a full audit when
    #: ``(e + 1) % full_audit_every == 0`` (and a spot check otherwise).
    full_audit_every: int = 2
    #: Instruction budget of a spot check — the VM stops here, so the
    #: check's cost is capped no matter how big the epoch is.
    spot_budget_instructions: int = 2_000_000
    full_budget_instructions: int = 200_000_000
    #: §6.2 replay-accuracy bound used for the timing verdict.
    rel_threshold: float = 0.0185
    abs_threshold_ms: float = 0.05
    #: Virtual audit throughput pricing a job's service time
    #: (``service_ms = instructions / virtual_instr_per_ms``).
    virtual_instr_per_ms: float = 2_000.0
    #: Virtual cost of serving a verdict straight from the replay cache.
    cache_hit_cost_ms: float = 2.0
    #: Audit-SLO deadlines per job class (missed ones are reported,
    #: never enforced — a late verdict is still a verdict).
    spot_deadline_ms: float = 2_000.0
    full_deadline_ms: float = 6_000.0
    escalated_deadline_ms: float = 1_500.0

    def __post_init__(self) -> None:
        if self.full_audit_every < 1:
            raise ServiceError("full_audit_every must be >= 1, got "
                               f"{self.full_audit_every}")
        if self.virtual_instr_per_ms <= 0:
            raise ServiceError("virtual_instr_per_ms must be positive")

    def wants_full_audit(self, epoch: int) -> bool:
        return (epoch + 1) % self.full_audit_every == 0


@dataclass
class TenantState:
    """Mutable per-tenant scheduler state."""

    spec: TenantSpec
    status: TenantStatus = TenantStatus.NORMAL
    anomalies: int = 0
    escalations: int = 0
    cleared: int = 0              #: suspicions retired by a clean escalation
    epochs_audited: set = field(default_factory=set)


class ReplayTask(NamedTuple):
    """Picklable description of one verifier replay (fleet worker input)."""

    program: str
    log_bytes: bytes
    config: MachineConfig
    seed: int
    max_instructions: int | None


class ReplayTaskResult(NamedTuple):
    result: ExecutionResult
    diverged: str | None          #: divergence message, picklable


def execute_replay_task(task: ReplayTask) -> ReplayTaskResult:
    """Fleet worker: tolerant prefix replay of a (possibly partial) log.

    Top-level by design so worker processes can import it; the divergence
    exception is flattened to its message because tracebacks and flight
    records need not cross the pool for a scheduling decision.
    """
    program = _compiled(task.program)
    log = EventLog.from_bytes(task.log_bytes)
    result, diverged = replay_salvaged_prefix(
        program, log, task.config, seed=task.seed,
        max_instructions=task.max_instructions)
    return ReplayTaskResult(result,
                            None if diverged is None else str(diverged))


def resolve_replays(work: "list[tuple]", jobs: int | None = None
                    ) -> "list[tuple]":
    """Resolve a dispatch round of jobs into replay outcomes.

    ``work`` is ``[(scheduler, job, gate), ...]`` in submission order —
    one scheduler repeated for a single-node round, or several when a
    fleet batches a round across nodes.  Each job is prepared against
    its own scheduler's cache (so per-node hit/miss attribution holds),
    identical replays are deduped across the whole round, the unique
    misses run in one submission-ordered fleet batch, and duplicates
    are served back through the cache.  Cross-scheduler dedupe assumes
    the schedulers share a cache tier (per-node views of one
    :class:`~repro.core.replay_cache.ReplayCache`), which is how the
    fleet wires them.

    Returns ``[(task, outcome, cache_hit), ...]`` aligned with ``work``.
    """
    prepared = [sched._prepare(job, gate) for sched, job, gate in work]
    unique: dict[tuple, list[int]] = {}
    for i, (task, outcome, _) in enumerate(prepared):
        if task is not None and outcome is None:
            key = (task.program, task.log_bytes, task.seed,
                   task.max_instructions)
            unique.setdefault(key, []).append(i)
    groups = list(unique.values())
    fleet_out = run_fleet([prepared[idxs[0]][0] for idxs in groups],
                          jobs=jobs, worker=execute_replay_task)
    for idxs, out in zip(groups, fleet_out):
        task = prepared[idxs[0]][0]
        log = EventLog.from_bytes(task.log_bytes)
        work[idxs[0]][0].cache.store_value(
            _compiled(task.program), log, out,
            config=task.config, seed=task.seed,
            max_instructions=task.max_instructions)
        prepared[idxs[0]] = (task, out, False)
        for i in idxs[1:]:
            prepared[i] = (task, work[i][0].cache.fetch_value(
                _compiled(task.program), log, config=task.config,
                seed=task.seed,
                max_instructions=task.max_instructions), True)
    return prepared


class AuditScheduler:
    """Owns the queue, the worker-pool model, the cache, and tenant state."""

    REPLAY_SEED = 1

    def __init__(self, tenants: dict[str, TenantSpec],
                 config: MachineConfig | None = None,
                 policy: EscalationPolicy | None = None,
                 queue: AuditQueue | None = None,
                 pool: WorkerPool | None = None,
                 cache: ReplayCache | None = None,
                 sink: VerdictSink | None = None,
                 registry: MetricsRegistry | None = None,
                 states: dict | None = None,
                 node_id: str = "") -> None:
        self.config = config or MachineConfig()
        self.policy = policy or EscalationPolicy()
        self.registry = registry if registry is not None else get_registry()
        # "is None" rather than "or": an *empty* queue or cache view is
        # falsy (len == 0), and replacing a caller's instance with a
        # fresh default would silently drop its sizing — and break the
        # fleet's shared cache tier.
        self.queue = (queue if queue is not None
                      else AuditQueue(registry=self.registry))
        self.pool = pool if pool is not None else WorkerPool(num_workers=2)
        self.cache = (cache if cache is not None
                      else ReplayCache(maxsize=32, registry=self.registry))
        self.sink = (sink if sink is not None
                     else VerdictSink(registry=self.registry))
        #: Per-tenant state machines.  A fleet passes one shared ``states``
        #: mapping to every node-hosted scheduler so a tenant's escalation
        #: history survives rebalancing to a new owner.
        if states is not None:
            self.tenants = states
        else:
            self.tenants = {tid: TenantState(spec=spec)
                            for tid, spec in tenants.items()}
        #: Verifier-observed wire traces, keyed ``(tenant_id, epoch)``.
        #: Fleet-shared for the same reason as ``states``.
        self.wires: dict[tuple[str, int], WireObservation] = {}
        #: Which fleet node hosts this scheduler ("" = standalone).
        self.node_id = node_id
        #: Virtual service-time multiplier (a slow-node fault raises it).
        self.time_factor = 1.0
        #: Degradation ladder: when True, scheduled full audits are
        #: demoted to spot checks (escalations keep full budgets).
        self.spot_only = False

    def state(self, tenant_id: str) -> TenantState:
        state = self.tenants.get(tenant_id)
        if state is None:
            raise ServiceError(f"unknown tenant '{tenant_id}'")
        return state

    def observe_wire(self, tenant_id: str, epoch: int,
                     wire: WireObservation) -> None:
        """Record what the verifier's own vantage saw for this epoch."""
        self.wires[(tenant_id, epoch)] = wire

    # -- job generation ----------------------------------------------------

    def note_admission(self, record: AdmissionRecord,
                       gate: IngestGate) -> list[AuditJob]:
        """React to one admitted segment; returns the jobs it spawned."""
        ship = record.shipment
        state = self.state(ship.tenant_id)
        policy = self.policy
        jobs: list[AuditJob] = []

        if record.status == AdmissionStatus.TAMPER:
            # Proof of history rewriting: escalate immediately, whatever
            # else this epoch was going to get.
            state.anomalies += 1
            jobs.append(self._job(ship.tenant_id, ship.epoch, "escalated",
                                  PRIORITY_ESCALATED, ship.arrival_ms,
                                  policy.escalated_deadline_ms,
                                  policy.full_budget_instructions,
                                  record.accumulated_entries,
                                  cause="tamper-signal"))
        elif record.status == AdmissionStatus.ADMITTED:
            if ship.seq == 0 and ship.total_segments > 1 \
                    and not policy.wants_full_audit(ship.epoch):
                # Streaming spot check on the epoch's first slice.
                jobs.append(self._job(ship.tenant_id, ship.epoch, "spot",
                                      PRIORITY_SPOT, ship.arrival_ms,
                                      policy.spot_deadline_ms,
                                      policy.spot_budget_instructions,
                                      record.accumulated_entries,
                                      cause=f"segment:{ship.seq}"))
            if ship.seq == ship.total_segments - 1:
                kind = ("full" if policy.wants_full_audit(ship.epoch)
                        and not self.spot_only else "spot")
                jobs.append(self._job(
                    ship.tenant_id, ship.epoch, kind,
                    PRIORITY_FULL if kind == "full" else PRIORITY_SPOT,
                    ship.arrival_ms,
                    policy.full_deadline_ms if kind == "full"
                    else policy.spot_deadline_ms,
                    policy.full_budget_instructions if kind == "full"
                    else policy.spot_budget_instructions,
                    record.accumulated_entries, cause="epoch-end"))
        elif record.status == AdmissionStatus.DEGRADED \
                and ship.seq == ship.total_segments - 1:
            # The epoch closed with damage: audit whatever prefix stands.
            jobs.append(self._epoch_close_job(record, ship))
        # DEGRADED mid-epoch and QUARANTINED segments generate no work:
        # the epoch-final job audits the surviving prefix.
        if record.status == AdmissionStatus.QUARANTINED \
                and ship.seq == ship.total_segments - 1 \
                and not gate.accumulator(ship.tenant_id, ship.epoch).tampered:
            jobs.append(self._epoch_close_job(record, ship))

        return [job for job in jobs if self.queue.push(job)]

    def _epoch_close_job(self, record: AdmissionRecord, ship) -> AuditJob:
        """The full audit of a damaged epoch's surviving prefix.

        Under spot-only degradation (fleet capacity loss) it is demoted
        to a budgeted spot check — anomalies still escalate, so nothing
        is silently trusted, but the fleet spends spot-sized budgets.
        """
        policy = self.policy
        if self.spot_only:
            return self._job(ship.tenant_id, ship.epoch, "spot",
                             PRIORITY_SPOT, ship.arrival_ms,
                             policy.spot_deadline_ms,
                             policy.spot_budget_instructions,
                             record.accumulated_entries,
                             cause="degraded-epoch")
        return self._job(ship.tenant_id, ship.epoch, "full",
                         PRIORITY_FULL, ship.arrival_ms,
                         policy.full_deadline_ms,
                         policy.full_budget_instructions,
                         record.accumulated_entries,
                         cause="degraded-epoch")

    def _job(self, tenant_id: str, epoch: int, kind: str, priority: int,
             ready_ms: float, deadline_after_ms: float, budget: int,
             log_upto: int, cause: str) -> AuditJob:
        return AuditJob(tenant_id=tenant_id, epoch=epoch, kind=kind,
                        priority=priority, ready_ms=ready_ms,
                        deadline_ms=ready_ms + deadline_after_ms,
                        budget_instructions=budget, log_upto=log_upto,
                        cause=cause)

    # -- dispatch ----------------------------------------------------------

    def _prepare(self, job: AuditJob, gate: IngestGate
                 ) -> tuple[ReplayTask | None, ReplayTaskResult | None, bool]:
        """Resolve one job against the cache.

        Returns ``(task, outcome, cache_hit)`` — ``task=None`` when there
        is nothing admitted to replay, ``outcome=None`` when the fleet
        round still has to run it.
        """
        acc = gate.accumulator(job.tenant_id, job.epoch)
        entries = acc.log.entries[:job.log_upto]
        if not entries:
            return (None, None, False)
        window = EventLog()
        window.entries = list(entries)
        state = self.state(job.tenant_id)
        task = ReplayTask(program=state.spec.program,
                          log_bytes=window.to_bytes(),
                          config=self.config, seed=self.REPLAY_SEED,
                          max_instructions=job.budget_instructions)
        cached = self.cache.fetch_value(
            _compiled(task.program), window, config=task.config,
            seed=task.seed, max_instructions=task.max_instructions)
        return (task, cached, cached is not None)

    # -- pricing (dispatch time) -------------------------------------------

    def price(self, job: AuditJob, prepared,
              now_ms: float) -> tuple[float, float]:
        """Assign the job a virtual worker; stamp start/completion times.

        Pricing is separate from judgement so a fleet can put a job *in
        flight* — priced, completion scheduled on the sim clock — and
        only judge it if its node is still alive when the completion
        event fires.  ``now_ms`` floors the start at the dispatch
        instant (a rebalanced job cannot start in its past).
        """
        task, outcome, cache_hit = prepared
        policy = self.policy
        if task is None or cache_hit:
            service_ms = policy.cache_hit_cost_ms
        else:
            replayed, _ = outcome
            service_ms = replayed.instructions / policy.virtual_instr_per_ms
        service_ms *= self.time_factor
        worker, start, completion = self.pool.assign(
            max(job.ready_ms, now_ms), service_ms)
        job.service_ms = service_ms
        job.worker = worker
        job.start_ms, job.completion_ms = start, completion
        return start, completion

    # -- judgement (completion time) ---------------------------------------

    def complete(self, job: AuditJob, prepared,
                 gate: IngestGate) -> AuditEvent | None:
        """Judge a priced job: compare, transition, record the verdict.

        Returns None when the idempotent sink has already recorded this
        job's identity — the at-least-once redelivery case, where the
        whole judgement (state transition included) must not repeat.
        """
        if self.sink.already_recorded(job.session_key):
            self.sink.count_duplicate()
            return None
        acc = gate.accumulator(job.tenant_id, job.epoch)
        state = self.state(job.tenant_id)
        policy = self.policy
        wire = self.wires.get((job.tenant_id, job.epoch))
        if wire is None:
            raise ServiceError(
                f"no wire observation for tenant '{job.tenant_id}' "
                f"epoch {job.epoch}")

        report: AuditReport | None = None
        task, outcome, cache_hit = prepared
        if task is None:
            # Nothing admitted: all segments were lost or quarantined.
            matched, replay_tx, consistent, diverged = 0, 0, None, None
        else:
            replayed, diverged = outcome
            replay_tx = len(replayed.tx)
            report, matched = compare_trace_prefix(wire, replayed)
            consistent = (report.is_consistent(policy.rel_threshold,
                                               policy.abs_threshold_ms)
                          if matched >= 2 else None)

        total_tx = len(wire.tx)
        coverage = matched / total_tx if total_tx else 0.0
        classification, follow_up = self._transition(
            job, state, acc, matched, replay_tx, total_tx, consistent,
            diverged)
        state.epochs_audited.add(job.epoch)

        event = AuditEvent(
            tenant_id=job.tenant_id, epoch=job.epoch, kind=job.kind,
            cause=job.cause, classification=classification,
            consistent=consistent, coverage=round(coverage, 4),
            matched_tx=matched, total_tx=total_tx,
            tenant_status=state.status.value,
            queue_latency_ms=round(job.queue_latency_ms, 3),
            service_ms=round(job.service_ms, 3), worker=job.worker,
            start_ms=round(job.start_ms, 3),
            completion_ms=round(job.completion_ms, 3),
            missed_deadline=job.missed_deadline, cache_hit=cache_hit,
            max_rel_ipd_diff=(round(report.max_rel_ipd_diff, 4)
                              if report is not None else 0.0),
            detail=diverged or "", node=self.node_id)
        self.sink.record(event)
        if follow_up is not None:
            self.queue.push(follow_up)
        return event

    def _transition(self, job: AuditJob, state: TenantState, acc,
                    matched: int, replay_tx: int, total_tx: int,
                    consistent: bool | None, diverged: str | None):
        """Apply one audit result to the state machine.

        Returns ``(classification, follow_up_job_or_None)``.

        A partial-prefix replay (spot check under budget, or a degraded
        epoch) legitimately ends short of the wire trace — often with a
        "log exhausted" divergence — so short coverage alone is never an
        anomaly.  The anomaly signals are (a) a payload mismatch *inside*
        the replayed window and (b) timing beyond the replay-accuracy
        bound; for full audits of an undamaged epoch, failing to cover
        the whole wire trace is a third.
        """
        policy = self.policy
        was_flagged = state.status.flagged
        payload_mismatch = matched < min(total_tx, replay_tx)
        timing_anomaly = consistent is False

        if job.kind in ("full", "escalated"):
            incomplete = (not acc.gap
                          and (matched < total_tx or diverged is not None))
            if acc.tampered:
                if not was_flagged:
                    state.status = TenantStatus.FLAGGED_TAMPER
                return AuditClassification.TAMPER_DETECTED, None
            if timing_anomaly:
                state.anomalies += 1
                if not was_flagged:
                    state.status = TenantStatus.FLAGGED_COVERT
                return AuditClassification.REPLAY_DIVERGENT, None
            if payload_mismatch or incomplete:
                state.anomalies += 1
                if not was_flagged:
                    state.status = TenantStatus.FLAGGED_DIVERGENT
                return AuditClassification.REPLAY_DIVERGENT, None
            if state.status == TenantStatus.SUSPECT:
                state.status = TenantStatus.NORMAL
                state.cleared += 1
            if acc.gap or matched < total_tx:
                return AuditClassification.TRANSFER_DEGRADED, None
            return AuditClassification.CLEAN, None

        # Spot checks never flag on their own — they escalate, unless
        # the tenant is already flagged: then the anomaly is recorded
        # and no second full replay is spent on it.
        if timing_anomaly or payload_mismatch:
            state.anomalies += 1
            if was_flagged:
                return AuditClassification.REPLAY_DIVERGENT, None
            state.status = TenantStatus.SUSPECT
            state.escalations += 1
            follow_up = self._job(
                job.tenant_id, job.epoch, "escalated", PRIORITY_ESCALATED,
                job.completion_ms, policy.escalated_deadline_ms,
                policy.full_budget_instructions, len(acc.log.entries),
                cause=f"spot-anomaly:{job.cause}")
            if self.registry.enabled:
                self.registry.counter(
                    "service_escalations_total",
                    "Spot-check anomalies escalated to full replays").inc()
            return AuditClassification.REPLAY_DIVERGENT, follow_up
        if acc.gap:
            return AuditClassification.TRANSFER_DEGRADED, None
        # Partial coverage is the *design* of a spot check, not damage.
        return AuditClassification.CLEAN, None
