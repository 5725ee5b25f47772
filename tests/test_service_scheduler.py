"""End-to-end one-node service runs: escalation, verdicts, cache behaviour."""

import pytest

from repro.analysis.parallel import execute_spec
from repro.core.log import EventLog
from repro.core.replay_cache import ReplayCache
from repro.core.resilience import AuditClassification
from repro.obs.metrics import MetricsRegistry
from repro.obs.runstore import RunStore
from repro.service import (
    PRIORITY_SPOT,
    AuditJob,
    AuditScheduler,
    FleetService,
    FleetTopology,
    IngestGate,
    ProverSession,
    TenantSpec,
    default_tenants,
    persist_fleet_report,
    resolve_replays,
)


def _serve(tenants, epochs, seed):
    """What ``reproduce serve`` runs: the verifier service on one node."""
    service = FleetService(tenants, topology=FleetTopology(num_nodes=1),
                           epochs=epochs, seed=seed,
                           registry=MetricsRegistry())
    return service.run(jobs=1)


@pytest.fixture(scope="module")
def report():
    """One shared 4-tenant run: clean, covert, clean, lossy-link."""
    return _serve(default_tenants(4, requests=4), epochs=2, seed=2014)


class TestEndToEnd:
    def test_covert_tenant_is_flagged_covert(self, report):
        ledger = report.ledgers["tenant-01"]
        assert ledger.final_status == "flagged-covert"
        assert ledger.verdict == "FLAGGED covert-timing"

    def test_clean_tenants_stay_clean(self, report):
        for tid in ("tenant-00", "tenant-02", "tenant-03"):
            ledger = report.ledgers[tid]
            assert not ledger.flagged, tid
            assert ledger.verdict.startswith("clean"), tid

    def test_flag_came_through_the_escalation_path(self, report):
        events = report.ledgers["tenant-01"].events
        kinds = [e.kind for e in events]
        assert "escalated" in kinds
        first_escalated = kinds.index("escalated")
        # Some earlier audit raised the suspicion that spawned it.
        trigger = events[first_escalated - 1] if first_escalated else None
        assert report.ledgers["tenant-01"].escalations >= 1
        assert trigger is None or trigger.classification in (
            AuditClassification.REPLAY_DIVERGENT,
            AuditClassification.TAMPER_DETECTED)

    def test_covert_timing_deviation_is_large(self, report):
        covert = report.ledgers["tenant-01"]
        clean = report.ledgers["tenant-00"]
        worst_covert = max(e.max_rel_ipd_diff for e in covert.events)
        worst_clean = max(e.max_rel_ipd_diff for e in clean.events)
        assert worst_covert > 0.0185 > worst_clean

    def test_exit_code_and_flagged_roster(self, report):
        assert report.flagged_tenants == ["tenant-01"]
        assert report.exit_code == 1

    def test_render_lines_cover_both_tables(self, report):
        lines = report.render_lines()
        text = "\n".join(lines)
        assert "FLAGGED covert-timing" in text
        assert "node-00" in text
        header = next(line for line in lines
                      if line.startswith("tenant "))
        assert header.split()[-2:] == ["anom", "degr"]
        covert = next(line for line in lines
                      if line.startswith("tenant-01 "))
        ledger = report.ledgers["tenant-01"]
        assert covert.split()[-2:] == [str(ledger.anomalies),
                                       str(ledger.degraded_audits)]
        assert "flagged: tenant-01" in text

    def test_flagged_tenant_spot_anomalies_are_divergent(self, report):
        # A spot check that sees the deviation on an already-flagged
        # tenant is an anomaly, not a clean audit — but it spawns no
        # second escalation.  Seed 7's first spot check escalates, so
        # its epoch-end spot check lands on a flagged tenant.
        seed7 = _serve(default_tenants(4, requests=4), epochs=2, seed=7)
        for run in (report, seed7):
            events = [e for ledger in run.ledgers.values()
                      for e in ledger.events]
            for event in events:
                if event.consistent is False:
                    assert event.classification \
                        is AuditClassification.REPLAY_DIVERGENT, event
            covert = run.ledgers["tenant-01"]
            assert covert.escalations == 1
        late_spot = [e for e in seed7.ledgers["tenant-01"].events
                     if e.kind == "spot" and e.cause == "epoch-end"
                     and e.epoch == 0]
        assert late_spot and late_spot[0].tenant_status == "flagged-covert"

    def test_all_clean_roster_exits_zero(self):
        solo = _serve(default_tenants(1, requests=4), epochs=1, seed=5)
        assert solo.flagged_tenants == [] and solo.exit_code == 0
        assert "flagged: none" in "\n".join(solo.render_lines())

    def test_tampering_tenant_is_flagged_tamper(self):
        roster = [TenantSpec(tenant_id="mallory", requests=4, seed=7,
                             segments=3, tamper=True)]
        result = _serve(roster, epochs=1, seed=5)
        ledger = result.ledgers["mallory"]
        assert ledger.final_status == "flagged-tamper"
        assert any(e.classification is AuditClassification.TAMPER_DETECTED
                   for e in ledger.events)
        assert result.exit_code == 1

    def test_service_metrics_in_report(self, report):
        assert report.metrics["service_audits_total"]["value"] \
            == sum(l.audits for l in report.ledgers.values())
        assert report.metrics["service_queue_latency_ms"]["count"] > 0


class TestCacheUnderScheduler:
    def _scheduler(self):
        registry = MetricsRegistry()
        spec = TenantSpec(tenant_id="t0", requests=4, seed=3, segments=2)
        session = ProverSession(spec, service_seed=11)
        shipment = session.ship(0, execute_spec(session.play_spec(0)), 0.0)
        gate = IngestGate({"t0": spec}, registry=registry)
        scheduler = AuditScheduler({"t0": spec}, registry=registry)
        scheduler.observe_wire("t0", 0, shipment.wire)
        for segment in shipment.shipments:
            scheduler.note_admission(gate.admit(segment), gate)
        return scheduler, gate, registry

    @staticmethod
    def _audit_queued(scheduler, gate):
        """Dispatch and judge everything queued, escalations included."""
        events = []
        while scheduler.queue:
            batch = scheduler.queue.drain()
            prepared = resolve_replays(
                [(scheduler, job, gate) for job in batch], jobs=1)
            for job, p in zip(batch, prepared):
                scheduler.price(job, p, now_ms=job.ready_ms)
                events.append(scheduler.complete(job, p, gate))
        return events

    def test_repeat_audit_of_same_window_hits_the_cache(self):
        scheduler, gate, registry = self._scheduler()
        first = self._audit_queued(scheduler, gate)
        assert all(not e.cache_hit for e in first)
        repeat_of = first[-1]
        scheduler.queue.push(AuditJob(
            tenant_id="t0", epoch=0, kind="spot", priority=PRIORITY_SPOT,
            ready_ms=1_000.0, deadline_ms=3_000.0,
            budget_instructions=scheduler.policy.spot_budget_instructions,
            log_upto=len(gate.accumulator("t0", 0).log.entries),
            cause="repeat"))
        second = self._audit_queued(scheduler, gate)
        assert len(second) == 1 and second[0].cache_hit
        # A hit is priced at the flat cache cost, not replay cost...
        assert second[0].service_ms == scheduler.policy.cache_hit_cost_ms
        assert repeat_of.service_ms != scheduler.policy.cache_hit_cost_ms
        # ...and never changes the verdict.
        assert second[0].classification == repeat_of.classification
        assert second[0].matched_tx == repeat_of.matched_tx
        snap = registry.snapshot()
        assert snap["tdr_replay_cache_hits_total"]["value"] >= 1

    def test_hit_rate_metrics_accumulate(self):
        scheduler, gate, registry = self._scheduler()
        self._audit_queued(scheduler, gate)
        upto = len(gate.accumulator("t0", 0).log.entries)
        for i in range(3):
            scheduler.queue.push(AuditJob(
                tenant_id="t0", epoch=0, kind="spot",
                priority=PRIORITY_SPOT, ready_ms=1_000.0 + i,
                deadline_ms=5_000.0,
                budget_instructions=(
                    scheduler.policy.spot_budget_instructions),
                log_upto=upto, cause=f"repeat:{i}"))
        events = self._audit_queued(scheduler, gate)
        assert [e.cache_hit for e in events] == [True, True, True]
        assert scheduler.cache.hits >= 3
        snap = registry.snapshot()
        assert snap["tdr_replay_cache_hits_total"]["value"] \
            == scheduler.cache.hits

    def test_mutating_a_fetched_result_never_leaks_back(self):
        cache = ReplayCache(maxsize=4, registry=MetricsRegistry())
        log = EventLog()
        cache.store_value("prog", log, {"tx": ["a", "b"]}, seed=1)
        stolen = cache.fetch_value("prog", log, seed=1)
        stolen["tx"].append("poison")
        pristine = cache.fetch_value("prog", log, seed=1)
        assert pristine == {"tx": ["a", "b"]}

    def test_fetch_refreshes_lru_order(self):
        cache = ReplayCache(maxsize=2, registry=MetricsRegistry())
        log = EventLog()
        cache.store_value("prog", log, "A", seed=1)
        cache.store_value("prog", log, "B", seed=2)
        assert cache.fetch_value("prog", log, seed=1) == "A"   # refresh A
        cache.store_value("prog", log, "C", seed=3)            # evicts B
        assert cache.fetch_value("prog", log, seed=2) is None
        assert cache.fetch_value("prog", log, seed=1) == "A"
        assert cache.fetch_value("prog", log, seed=3) == "C"
        assert len(cache) == 2


def test_persist_fleet_report_roundtrip(tmp_path, report):
    store = RunStore(tmp_path / "runs")
    run_id = persist_fleet_report(store, report, label="svc-test")
    record = store.load(run_id)
    assert record.kind == "fleet-audit"
    assert record.label == "svc-test"
    assert record.seeds == [report.seed]
    assert record.verdicts == report.verdicts_dict()
    assert record.figures["nodes"]["node-00"]["queue"] \
        == report.node_stats["node-00"]["queue"]
