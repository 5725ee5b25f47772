"""The verifier service: N audit nodes with chaos, rebalance, and degradation.

:class:`FleetService` is the one verifier service — ``reproduce serve``
is ``reproduce fleet-audit --nodes 1`` — running N verifier nodes on one
discrete-event clock:

* **Placement** — tenants are owned via a consistent-hash
  :class:`~repro.service.ring.HashRing` (removing a node moves only its
  own tenants).
* **Shared replay tier** — every node's scheduler holds a per-node
  :meth:`~repro.core.replay_cache.ReplayCache.view` of one
  content-addressed cache, so a prefix replayed by node 2 is a hit for
  node 5, with hits/misses still attributed per node.
* **Failure handling** — a seeded
  :class:`~repro.faults.plans.NodeChaosPlan` crashes, stalls, or slows
  nodes at known virtual times; the heartbeat
  :class:`~repro.service.failure.FailureDetector` turns silence into
  suspicion after a deterministic timeout (with per-node backoff for
  flappers).  Suspects lose their queue to work stealing; confirmed
  crashes trigger a ring rebalance that re-enqueues orphaned jobs
  **exactly once** — delivery is at-least-once, and the
  :class:`~repro.service.verdicts.VerdictSink` is idempotent on the job
  identity, so nothing is lost and nothing is double-verdicted.
* **Graceful degradation** — when capacity drops below the topology's
  ``degrade_below`` fraction, surviving nodes shed to spot-check-only
  mode (full audits demote; escalations keep full budgets), and any
  session the fleet genuinely cannot audit terminates in an explicit
  :class:`~repro.service.verdicts.UnauditedRecord` — never a silent
  drop.

The invariant everything above preserves: a fleet run is a pure
function of (seed, roster, policy, topology, chaos plan).  Killing node
3 at tick T yields bit-identical verdict sets, rebalance events, and
ledger sums across reruns and across ``jobs=1`` vs ``jobs=4``, because
every decision keys off virtual time and the seed — including the
failure detector's.

Dispatch is a discrete-event loop: queued jobs are priced onto their
node's virtual worker pool the moment they could start, and their
*judgement* is a scheduled completion event — so an escalation runs as
soon as the spot check that raised it completes, not after the epoch's
other arrivals.  A crash that lands between a job's start and
completion therefore kills it in flight — the verdict is discarded and
the job is redelivered by the rebalance, exercising the at-least-once
path for real.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.replay_cache import ReplayCache
from repro.faults.plans import NodeChaosPlan
from repro.machine.config import MachineConfig
from repro.obs.dist import FLEET_TRACK, DistTracer
from repro.obs.metrics import MetricsRegistry, get_registry, labeled
from repro.service.daemon import play_and_ship
from repro.service.failure import FailureDetector
from repro.service.ingest import IngestGate
from repro.service.queue import AuditJob, AuditQueue
from repro.service.ring import HashRing
from repro.service.scheduler import (AuditScheduler, EscalationPolicy,
                                     TenantState, resolve_replays)
from repro.service.session import ProverSession, TenantSpec
from repro.service.simclock import ServiceError, SimClock, WorkerPool
from repro.service.verdicts import (TenantLedger, UnauditedRecord,
                                    VerdictSink)

__all__ = ["FleetNode", "FleetReport", "FleetService", "FleetTopology",
           "RebalanceEvent", "persist_fleet_report"]


@dataclass(frozen=True)
class FleetTopology:
    """Shape and failure-handling knobs of one verifier fleet."""

    num_nodes: int = 4
    #: Virtual points per node on the consistent-hash ring.
    vnodes: int = 64
    workers_per_node: int = 2
    queue_depth: int = 64
    tenant_budget: int = 8
    #: Heartbeat cadence and the base silence-to-suspicion timeout.
    heartbeat_interval_ms: float = 100.0
    failure_timeout_ms: float = 350.0
    #: Grace multiplier per prior strike (a flapping node earns patience).
    failure_backoff: float = 2.0
    #: Queue depth beyond which a slow node's backlog gets stolen.
    steal_threshold: int = 4
    #: Alive fraction below which the fleet sheds to spot-check-only.
    degrade_below: float = 0.5

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ServiceError(f"need >= 1 node, got {self.num_nodes}")
        if not 0.0 <= self.degrade_below <= 1.0:
            raise ServiceError(
                f"degrade_below must be in [0, 1]: {self.degrade_below}")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RebalanceEvent:
    """One ring rebalance after a confirmed node death."""

    time_ms: float
    node: str
    reason: str
    moved_tenants: tuple
    requeued: int                 #: orphaned jobs redelivered (exactly once)
    killed_in_flight: int         #: audits that died with the node

    def to_json_dict(self) -> dict:
        data = asdict(self)
        data["moved_tenants"] = list(self.moved_tenants)
        return data


class FleetNode:
    """One verifier node: a scheduler plus its failure state."""

    def __init__(self, index: int, node_id: str,
                 scheduler: AuditScheduler) -> None:
        self.index = index
        self.node_id = node_id
        self.scheduler = scheduler
        #: Jobs priced and awaiting their completion event, by identity.
        self.in_flight: dict[tuple, AuditJob] = {}
        self.crashed_at: float | None = None
        self.stall_until = 0.0
        self.slow_factor = 1.0
        self.evicted = False      #: confirmed dead and off the ring

    def can_dispatch(self, now_ms: float) -> bool:
        """Whether this node starts new audits at ``now_ms``.

        A crashed node stops immediately even before anyone *detects*
        the crash — detection latency governs recovery, not death.  A
        stalled node pauses dispatch but lets in-flight work finish.
        """
        return (not self.evicted and self.crashed_at is None
                and now_ms >= self.stall_until)

    def status(self, detector: FailureDetector) -> str:
        if self.evicted or self.crashed_at is not None:
            return "dead"
        if detector.node(self.node_id).suspected:
            return "suspected"
        if self.slow_factor > 1.0:
            return f"slow(x{self.slow_factor:g})"
        return "alive"


class FleetService:
    """N audit nodes, one clock, one ingest tier, one verdict history."""

    def __init__(self, tenants: list[TenantSpec],
                 topology: FleetTopology | None = None,
                 epochs: int = 2, seed: int = 0,
                 config: MachineConfig | None = None,
                 policy: EscalationPolicy | None = None,
                 chaos: NodeChaosPlan | None = None,
                 epoch_interval_ms: float = 400.0,
                 segment_interval_ms: float = 40.0,
                 registry: MetricsRegistry | None = None,
                 trace: bool = True) -> None:
        if epochs < 1:
            raise ServiceError(f"need >= 1 epoch, got {epochs}")
        ids = [spec.tenant_id for spec in tenants]
        if len(set(ids)) != len(ids):
            raise ServiceError(f"duplicate tenant ids in roster: {ids}")
        self.topology = topology or FleetTopology()
        self.epochs = epochs
        self.seed = seed
        self.config = config or MachineConfig()
        self.chaos = chaos
        self.epoch_interval_ms = epoch_interval_ms
        self.registry = registry if registry is not None else get_registry()
        self.specs = {spec.tenant_id: spec for spec in tenants}
        self.tenant_ids = sorted(self.specs)
        self.sessions = {
            spec.tenant_id: ProverSession(
                spec, config=self.config, service_seed=seed,
                segment_interval_ms=segment_interval_ms)
            for spec in tenants}

        self.clock = SimClock()
        #: The fleet-wide session trace: per-node span tracks, latency
        #: series, chaos markers.  Purely observational — disabling it
        #: (``trace=False``) is bit-identical in every verdict.
        self.dist: DistTracer | None = (DistTracer(seed=seed)
                                        if trace else None)
        self.gate = IngestGate(self.specs, registry=self.registry)
        #: One idempotent verdict history for the whole fleet.
        self.sink = VerdictSink(registry=self.registry)
        #: Shared tenant state machines: escalation history must follow
        #: a tenant to its new owner after a rebalance.
        self.states = {tid: TenantState(spec=spec)
                       for tid, spec in self.specs.items()}
        self.wires: dict[tuple, object] = {}
        #: The shared content-addressed replay tier (per-node views).
        self.cache_tier = ReplayCache(
            maxsize=max(64, 8 * len(tenants)), registry=self.registry)

        node_ids = [f"node-{i:02d}"
                    for i in range(self.topology.num_nodes)]
        self.ring = HashRing(node_ids, vnodes=self.topology.vnodes)
        self.detector = FailureDetector(
            tuple(node_ids),
            heartbeat_interval_ms=self.topology.heartbeat_interval_ms,
            timeout_ms=self.topology.failure_timeout_ms,
            backoff=self.topology.failure_backoff)
        self.nodes: list[FleetNode] = []
        for index, node_id in enumerate(node_ids):
            scheduler = AuditScheduler(
                self.specs, config=self.config, policy=policy,
                queue=AuditQueue(max_depth=self.topology.queue_depth,
                                 tenant_budget=self.topology.tenant_budget,
                                 registry=self.registry),
                pool=WorkerPool(num_workers=self.topology.workers_per_node),
                cache=self.cache_tier.view(node_id),
                sink=self.sink, registry=self.registry,
                states=self.states, node_id=node_id)
            scheduler.wires = self.wires
            self.nodes.append(FleetNode(index, node_id, scheduler))
        self.node_by_id = {node.node_id: node for node in self.nodes}
        if self.dist is not None:
            # Register tracks up front so tid order is roster order, not
            # first-span order.
            for node_id in node_ids:
                self.dist.register_track(node_id)

        #: Exactly-once redelivery guard, by job identity.
        self._requeued: set[tuple] = set()
        #: Sessions that lost every possible owner (ring went empty).
        self._no_owner: set[tuple] = set()
        #: Every ingested (tenant, epoch) — the zero-silent-drop ledger.
        self._sessions: set[tuple] = set()
        self.rebalances: list[RebalanceEvent] = []
        self.degraded_mode = False
        self.killed_in_flight = 0
        self.requeued = 0
        self.steals = 0
        self.segments_shipped = 0

    # -- the run loop ------------------------------------------------------

    def run(self, jobs: int | None = None) -> "FleetReport":
        """Run every epoch under the chaos plan; assemble the report."""
        if self.chaos is not None:
            for fault in self.chaos.for_fleet(self.topology.num_nodes):
                self.clock.schedule(max(fault.at_ms, self.clock.now_ms),
                                    "chaos", fault)
        for epoch in range(self.epochs):
            self._run_epoch(epoch, jobs)
        return self.report()

    def _run_epoch(self, epoch: int, jobs: int | None) -> None:
        epoch_start = max(self.clock.now_ms,
                          epoch * self.epoch_interval_ms)
        for tid, shipment in play_and_ship(self.sessions, epoch,
                                           epoch_start, jobs=jobs):
            self.wires[(tid, epoch)] = shipment.wire
            self.segments_shipped += len(shipment.shipments)
            self._sessions.add((tid, epoch))
            for segment in shipment.shipments:
                self.clock.schedule(segment.arrival_ms, "segment", segment)
        self._pump(jobs)

    def _pump(self, jobs: int | None) -> None:
        """Alternate dispatch with event processing until quiescent.

        Dispatching *between* events (not after a full drain) is what
        puts audits in flight across chaos instants: a job priced at
        t=100 with completion t=350 genuinely dies when its node
        crashes at t=300.
        """
        while True:
            self._steal_pass()
            dispatched = self._dispatch(jobs)
            if self.clock:
                event = self.clock.pop()
                self._handle(event)
            elif not dispatched:
                return

    def _handle(self, event) -> None:
        if event.kind == "segment":
            self._handle_segment(event.payload)
        elif event.kind == "chaos":
            self._handle_chaos(event.payload)
        elif event.kind == "detect":
            self._handle_detect(event.payload)
        elif event.kind == "stall-end":
            self._handle_stall_end(event.payload)
        elif event.kind == "completion":
            self._handle_completion(event.payload)
        else:
            raise ServiceError(f"unknown fleet event kind '{event.kind}'")

    # -- ingest routing ----------------------------------------------------

    def _handle_segment(self, segment) -> None:
        record = self.gate.admit(segment)
        if self.dist is not None:
            self.dist.session_start(segment.tenant_id, segment.epoch,
                                    segment.arrival_ms)
            self.dist.instant(
                f"ingest:{record.status.value}", FLEET_TRACK,
                segment.arrival_ms, category="ingest",
                tenant=segment.tenant_id, epoch=segment.epoch,
                seq=segment.seq)
        owner_id = self.ring.assign(segment.tenant_id)
        if owner_id is None:
            # Total capacity loss: remember the session so the report
            # closes it with an explicit unaudited(no-capacity) record.
            self._no_owner.add((segment.tenant_id, segment.epoch))
            return
        owner = self.node_by_id[owner_id]
        owner.scheduler.note_admission(record, self.gate)

    # -- chaos and failure detection ---------------------------------------

    def _handle_chaos(self, fault) -> None:
        node = self.nodes[fault.node]
        now = self.clock.now_ms
        if node.evicted or node.crashed_at is not None:
            return
        if fault.kind == "crash":
            node.crashed_at = now
            if self.dist is not None:
                self.dist.instant(f"crash:{node.node_id}", node.node_id,
                                  now, category="chaos")
            self._count(labeled("fleet_node_crashes_total",
                                node=node.node_id),
                        "Node crash faults applied")
            self.clock.schedule(
                self.detector.detection_ms(node.node_id, now),
                "detect", node.node_id)
        elif fault.kind == "stall":
            node.stall_until = max(node.stall_until,
                                   now + fault.duration_ms)
            if self.dist is not None:
                self.dist.instant(f"stall:{node.node_id}", node.node_id,
                                  now, category="chaos",
                                  duration_ms=fault.duration_ms)
            detect_at = self.detector.detection_ms(node.node_id, now)
            if detect_at < node.stall_until:
                # The silence outlives the grace period: suspicion will
                # fire while the node is still stalled.
                self.clock.schedule(detect_at, "detect", node.node_id)
            self.clock.schedule(node.stall_until, "stall-end",
                                node.node_id)
        elif fault.kind == "slow":
            node.slow_factor = max(node.slow_factor, fault.factor)
            node.scheduler.time_factor = node.slow_factor
            if self.dist is not None:
                self.dist.instant(f"slow:{node.node_id}", node.node_id,
                                  now, category="chaos",
                                  factor=fault.factor)
        else:
            raise ServiceError(f"unknown node fault kind '{fault.kind}'")

    def _handle_detect(self, node_id: str) -> None:
        node = self.node_by_id[node_id]
        now = self.clock.now_ms
        if node.evicted:
            return
        if node.crashed_at is not None:
            self.detector.declare_dead(node_id, now)
            self._rebalance(node, now, reason="crash")
        elif now < node.stall_until:
            # Still silent past the grace period: suspect it.  Ring
            # ownership stays (it may come back); the steal pass
            # relieves its queue in the meantime.
            self.detector.suspect(node_id, now)
            if self.dist is not None:
                self.dist.instant(f"suspect:{node_id}", node_id, now,
                                  category="detector")
        # Otherwise the node resumed before the timeout — a blip the
        # detector never saw.

    def _handle_stall_end(self, node_id: str) -> None:
        node = self.node_by_id[node_id]
        if node.evicted or node.crashed_at is not None:
            return
        if self.clock.now_ms < node.stall_until:
            return                 # superseded by a longer stall
        health = self.detector.node(node_id)
        if health.suspected:
            # Back from the dead: clear suspicion, but remember the
            # strike — the next silence gets a longer grace period.
            self.detector.resume(node_id, self.clock.now_ms)
            if self.dist is not None:
                self.dist.instant(f"resume:{node_id}", node_id,
                                  self.clock.now_ms, category="detector")

    # -- rebalance (the at-least-once redelivery path) ---------------------

    def _rebalance(self, node: FleetNode, now: float, reason: str) -> None:
        before = self.ring.assignment(self.tenant_ids)
        self.ring.remove_node(node.node_id)
        after = self.ring.assignment(self.tenant_ids)
        moved = tuple(tid for tid in self.tenant_ids
                      if before[tid] != after[tid])
        node.evicted = True

        # Orphans: everything queued on the dead node plus everything it
        # had in flight (those completion events will now be discarded).
        orphans = node.scheduler.queue.drain()
        orphans += [job for _, job in sorted(node.in_flight.items())]
        killed = len(node.in_flight)
        if self.dist is not None:
            self.dist.instant(f"rebalance:{node.node_id}", FLEET_TRACK,
                              now, category="fleet", reason=reason,
                              requeued=len(orphans))
            # Close the spans that died with the node, at its crash
            # instant; their redelivery re-parents onto these.
            died_at = node.crashed_at if node.crashed_at is not None \
                else now
            for _, job in sorted(node.in_flight.items()):
                self.dist.job_killed(job, node.node_id, died_at)
        node.in_flight.clear()
        requeued = 0
        for job in orphans:
            key = job.session_key
            if self.sink.already_recorded(key):
                continue           # its verdict already landed elsewhere
            new_owner_id = self.ring.assign(job.tenant_id)
            if new_owner_id is None:
                self._no_owner.add((job.tenant_id, job.epoch))
                continue
            # Each rebalance re-enqueues an orphan exactly once (a job
            # lives in exactly one queue or in-flight table, so draining
            # both cannot duplicate it); a *cascading* failure may
            # legitimately redeliver the same identity again — that is
            # the at-least-once half, and the idempotent sink is the
            # no-double-verdict half.
            self._requeued.add(key)
            job.ready_ms = max(job.ready_ms, now)
            job.start_ms = job.completion_ms = -1.0
            self.node_by_id[new_owner_id].scheduler.queue.push(job,
                                                              force=True)
            requeued += 1
        self.requeued += requeued
        self._count(labeled("fleet_orphans_requeued_total",
                            node=node.node_id),
                    "Orphaned jobs redelivered after a node death",
                    by=requeued)

        self.rebalances.append(RebalanceEvent(
            time_ms=round(now, 3), node=node.node_id, reason=reason,
            moved_tenants=moved, requeued=requeued,
            killed_in_flight=killed))
        self._maybe_degrade()

    def _maybe_degrade(self) -> None:
        alive = len(self.ring)
        if self.registry.enabled:
            self.registry.gauge("fleet_nodes_alive",
                                "Nodes currently on the ring").set(alive)
        if self.degraded_mode:
            return
        if alive / self.topology.num_nodes < self.topology.degrade_below:
            self.degraded_mode = True
            for peer in self.nodes:
                peer.scheduler.spot_only = True
            if self.dist is not None:
                self.dist.instant("degraded-mode", FLEET_TRACK,
                                  self.clock.now_ms, category="fleet",
                                  alive=alive)
            self._count("fleet_degraded_mode_entered_total",
                        "Times the fleet shed to spot-check-only mode")

    # -- work stealing -----------------------------------------------------

    def _steal_pass(self) -> None:
        """Move queued work off suspected or backlogged nodes.

        Deterministic: victims in node order, thieves round-robin over
        healthy nodes in node order.  Stealing moves the job's single
        copy, so no dedup is involved.
        """
        now = self.clock.now_ms
        thieves = [n for n in self.nodes
                   if n.can_dispatch(now) and n.slow_factor == 1.0
                   and not self.detector.node(n.node_id).suspected]
        if not thieves:
            return
        for victim in self.nodes:
            if victim.evicted or victim.crashed_at is not None:
                continue           # rebalance handles the dead
            queue = victim.scheduler.queue
            if self.detector.node(victim.node_id).suspected:
                moved = queue.steal(len(queue))
            elif victim.slow_factor > 1.0 \
                    and len(queue) > self.topology.steal_threshold:
                moved = queue.steal(
                    len(queue) - self.topology.steal_threshold)
            else:
                continue
            for index, job in enumerate(moved):
                thief = thieves[index % len(thieves)]
                job.ready_ms = max(job.ready_ms, now)
                thief.scheduler.queue.push(job, force=True)
                if self.dist is not None:
                    self.dist.steal_hop(job, victim.node_id,
                                        thief.node_id, now)
                self.steals += 1
                self._count(labeled("fleet_steals_total",
                                    node=thief.node_id),
                            "Jobs stolen from silent or backlogged peers")

    # -- dispatch and completion -------------------------------------------

    def _dispatch(self, jobs: int | None) -> bool:
        """Price every queued job on its node; schedule completions."""
        now = self.clock.now_ms
        work: list[tuple[FleetNode, AuditJob]] = []
        for node in self.nodes:
            if self.dist is not None and not node.evicted:
                self.dist.sample_queue_depth(node.node_id, now,
                                             len(node.scheduler.queue))
            if not node.can_dispatch(now):
                continue
            for job in node.scheduler.queue.drain():
                work.append((node, job))
        if not work:
            return False
        prepared = resolve_replays(
            [(node.scheduler, job, self.gate) for node, job in work],
            jobs=jobs)
        for (node, job), p in zip(work, prepared):
            _, completion = node.scheduler.price(job, p, now_ms=now)
            node.in_flight[job.session_key] = job
            if self.dist is not None:
                self.dist.job_dispatched(job, node.node_id)
            self.clock.schedule(completion, "completion", (node, job, p))
        return True

    def _handle_completion(self, payload) -> None:
        node, job, prepared = payload
        if node.evicted:
            return                 # already orphaned and redelivered
        if node.crashed_at is not None \
                and job.completion_ms > node.crashed_at:
            # Died in flight: leave it in in_flight so the coming
            # rebalance redelivers it, and discard the verdict.
            self.killed_in_flight += 1
            self._count(labeled("fleet_killed_in_flight_total",
                                node=node.node_id),
                        "Audits that died with their node")
            return
        node.in_flight.pop(job.session_key, None)
        event = node.scheduler.complete(job, prepared, self.gate)
        if self.dist is not None:
            if event is not None:
                self.dist.job_completed(job, node.node_id, event)
            else:
                self.dist.job_deduped(job, node.node_id)

    # -- reporting ---------------------------------------------------------

    def report(self) -> "FleetReport":
        horizon = max([self.clock.now_ms]
                      + [e.completion_ms for e in self.sink.events])
        verdicted = {(e.tenant_id, e.epoch) for e in self.sink.events}
        unaudited = []
        for tid, epoch in sorted(self._sessions):
            if (tid, epoch) in verdicted:
                continue
            if (tid, epoch) in self._no_owner:
                reason = "no-capacity"
            elif not self.gate.accumulator(tid, epoch).log.entries:
                reason = "no-intact-segments"
            else:
                reason = "audit-shed"
            unaudited.append(UnauditedRecord(tenant_id=tid, epoch=epoch,
                                             reason=reason))
        fleet_obs: dict = {}
        trace_ndjson = ""
        if self.dist is not None:
            last_verdict: dict[tuple, float] = {}
            for event in self.sink.events:
                key = (event.tenant_id, event.epoch)
                last_verdict[key] = max(last_verdict.get(key, 0.0),
                                        event.completion_ms)
            for tid, epoch in sorted(self._sessions):
                end = last_verdict.get((tid, epoch))
                if end is not None:
                    self.dist.session_close(tid, epoch, end, "ok")
                else:
                    self.dist.session_close(tid, epoch, horizon,
                                            "unaudited")
            fleet_obs = self.dist.summary()
            fleet_obs["horizon_ms"] = round(horizon, 3)
            trace_ndjson = self.dist.to_ndjson()
        node_stats = {}
        for node in self.nodes:
            scheduler = node.scheduler
            node_stats[node.node_id] = {
                "status": node.status(self.detector),
                "crashed_at_ms": (round(node.crashed_at, 3)
                                  if node.crashed_at is not None else None),
                "strikes": self.detector.node(node.node_id).strikes,
                "audits": sum(1 for e in self.sink.events
                              if e.node == node.node_id),
                "cache_hits": scheduler.cache.hits,
                "cache_misses": scheduler.cache.misses,
                "utilization": round(scheduler.pool.utilization(horizon), 4),
                "queue": asdict(scheduler.queue.stats),
            }
        return FleetReport(
            seed=self.seed, epochs=self.epochs,
            topology=self.topology.to_json_dict(),
            chaos_spec=self.chaos.spec if self.chaos is not None else "",
            ledgers=dict(self.sink.ledgers),
            node_stats=node_stats,
            rebalances=[r.to_json_dict() for r in self.rebalances],
            unaudited=unaudited,
            degraded_mode=self.degraded_mode,
            killed_in_flight=self.killed_in_flight,
            requeued=self.requeued,
            steals=self.steals,
            deduped=self.sink.deduped,
            cache_hits=self.cache_tier.hits,
            cache_misses=self.cache_tier.misses,
            horizon_ms=horizon,
            segments_shipped=self.segments_shipped,
            sessions_total=len(self._sessions),
            metrics=(self.registry.snapshot()
                     if self.registry.enabled else {}),
            fleet_obs=fleet_obs,
            trace_ndjson=trace_ndjson)

    def _count(self, name: str, help_text: str, by: int = 1) -> None:
        if self.registry.enabled and by:
            self.registry.counter(name, help_text).inc(by)


@dataclass
class FleetReport:
    """The complete, deterministic outcome of one fleet run."""

    seed: int
    epochs: int
    topology: dict
    chaos_spec: str
    ledgers: dict[str, TenantLedger]
    node_stats: dict[str, dict]
    rebalances: list[dict]
    unaudited: list[UnauditedRecord]
    degraded_mode: bool
    killed_in_flight: int
    requeued: int
    steals: int
    deduped: int
    cache_hits: int
    cache_misses: int
    horizon_ms: float
    segments_shipped: int
    sessions_total: int
    metrics: dict = field(default_factory=dict)
    #: :meth:`~repro.obs.dist.DistTracer.summary` payload (latency
    #: stats, heatmap, markers).  Observational only — deliberately NOT
    #: part of :meth:`verdicts_dict`, which the determinism tests
    #: byte-compare with tracing on vs off.
    fleet_obs: dict = field(default_factory=dict)
    #: Structured span/instant event log, one JSON object per line.
    trace_ndjson: str = ""

    @property
    def flagged_tenants(self) -> list[str]:
        return sorted(t for t, l in self.ledgers.items() if l.flagged)

    @property
    def sessions_verdicted(self) -> int:
        return self.sessions_total - len(self.unaudited)

    @property
    def exit_code(self) -> int:
        """CLI contract: 1 flagged > 3 degraded coverage > 0 clean."""
        if self.flagged_tenants:
            return 1
        if self.degraded_mode or self.unaudited:
            return 3
        return 0

    def verdicts_dict(self) -> dict:
        """The canonical payload the determinism tests byte-compare."""
        return {"seed": self.seed,
                "epochs": self.epochs,
                "topology": dict(self.topology),
                "chaos": self.chaos_spec,
                "horizon_ms": round(self.horizon_ms, 3),
                "segments_shipped": self.segments_shipped,
                "sessions_total": self.sessions_total,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "killed_in_flight": self.killed_in_flight,
                "requeued": self.requeued,
                "steals": self.steals,
                "deduped": self.deduped,
                "degraded_mode": self.degraded_mode,
                "rebalances": list(self.rebalances),
                "unaudited": [u.to_json_dict() for u in self.unaudited],
                "nodes": {nid: dict(stats)
                          for nid, stats in sorted(self.node_stats.items())},
                "flagged": self.flagged_tenants,
                "tenants": {tid: ledger.to_json_dict()
                            for tid, ledger in sorted(self.ledgers.items())}}

    # -- rendering ---------------------------------------------------------

    def render_lines(self) -> list[str]:
        topo = self.topology
        lines = [
            f"fleet run: seed={self.seed} epochs={self.epochs} "
            f"nodes={topo['num_nodes']} tenants={len(self.ledgers)} "
            f"chaos={self.chaos_spec or 'none'}",
            f"virtual horizon {self.horizon_ms:.1f} ms; sessions "
            f"{self.sessions_verdicted}/{self.sessions_total} verdicted; "
            f"replay tier {self.cache_hits} hits / {self.cache_misses} "
            f"misses",
            f"chaos: rebalances={len(self.rebalances)} "
            f"requeued={self.requeued} killed_in_flight="
            f"{self.killed_in_flight} steals={self.steals} "
            f"deduped={self.deduped} degraded_mode="
            f"{'yes' if self.degraded_mode else 'no'}",
            "",
            f"{'node':<10} {'status':<12} {'audits':>6} {'hits':>6} "
            f"{'miss':>6} {'util':>7} {'shed':>5}",
        ]
        for nid in sorted(self.node_stats):
            stats = self.node_stats[nid]
            lines.append(
                f"{nid:<10} {stats['status']:<12} {stats['audits']:>6} "
                f"{stats['cache_hits']:>6} {stats['cache_misses']:>6} "
                f"{stats['utilization']:>7.1%} "
                f"{stats['queue']['shed']:>5}")
        lines += [
            "",
            f"{'tenant':<12} {'verdict':<22} {'audits':>6} {'spot':>5} "
            f"{'full':>5} {'escal':>6} {'anom':>5} {'degr':>5}",
        ]
        for tid in sorted(self.ledgers):
            ledger = self.ledgers[tid]
            lines.append(
                f"{tid:<12} {ledger.verdict:<22} {ledger.audits:>6} "
                f"{ledger.spot_checks:>5} {ledger.full_audits:>5} "
                f"{ledger.escalations:>6} {ledger.anomalies:>5} "
                f"{ledger.degraded_audits:>5}")
        for rebalance in self.rebalances:
            lines.append(
                f"rebalance @{rebalance['time_ms']:.1f} ms: "
                f"{rebalance['node']} ({rebalance['reason']}) moved "
                f"{len(rebalance['moved_tenants'])} tenants, requeued "
                f"{rebalance['requeued']}")
        for record in self.unaudited:
            lines.append(f"unaudited: {record.tenant_id} epoch "
                         f"{record.epoch} ({record.reason})")
        if self.flagged_tenants:
            lines.append("flagged: " + ", ".join(self.flagged_tenants))
        else:
            lines.append("flagged: none")
        return lines


def persist_fleet_report(runstore, report: FleetReport,
                         label: str = "") -> str:
    """Save a fleet run (kind ``fleet-audit``) to a run store."""
    from repro.obs.runstore import RunRecord

    record = RunRecord(
        kind="fleet-audit", label=label,
        seeds=[report.seed],
        metrics=report.metrics,
        verdicts=report.verdicts_dict(),
        figures={"horizon_ms": report.horizon_ms,
                 "rebalances": len(report.rebalances),
                 "requeued": report.requeued,
                 "unaudited": len(report.unaudited),
                 "nodes": dict(report.node_stats),
                 "fleet_obs": dict(report.fleet_obs)},
        trace_ndjson=report.trace_ndjson)
    return runstore.save(record)
