"""Admission control: CRC salvage, chain checks, gap quarantine."""

import dataclasses

from repro.analysis.parallel import execute_spec
from repro.core.log import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.service import (AdmissionStatus, FleetService, FleetTopology,
                           IngestGate, ProverSession, TenantSpec,
                           default_tenants)
from repro.service.scheduler import AuditScheduler


def _shipments(tamper=False, tenant_id="t0"):
    spec = TenantSpec(tenant_id=tenant_id, requests=4, seed=3, segments=3,
                      tamper=tamper)
    session = ProverSession(spec, service_seed=11)
    result = execute_spec(session.play_spec(0))
    return spec, session.ship(0, result, epoch_start_ms=0.0).shipments


def _damage(shipment):
    """Truncate the chunk mid-entry: framing breaks, prefix survives."""
    return dataclasses.replace(
        shipment, chunk_bytes=shipment.chunk_bytes[:-10])


def _gate(spec, registry=None):
    if registry is None:
        registry = MetricsRegistry()
    return IngestGate({spec.tenant_id: spec}, registry=registry)


def test_clean_epoch_admits_every_segment():
    spec, shipments = _shipments()
    gate = _gate(spec)
    records = [gate.admit(s) for s in shipments]
    assert all(r.status is AdmissionStatus.ADMITTED for r in records)
    assert all(r.chain_ok is True for r in records)
    lengths = [r.accumulated_entries for r in records]
    assert lengths == sorted(lengths) and lengths[0] > 0
    acc = gate.accumulator(spec.tenant_id, 0)
    assert acc.segments_admitted == 3 and not acc.gap and not acc.tampered


def test_tampered_segment_is_proof_not_suspicion():
    spec, shipments = _shipments(tamper=True)
    gate = _gate(spec)
    records = [gate.admit(s) for s in shipments]
    statuses = [r.status for r in records]
    assert AdmissionStatus.TAMPER in statuses
    first_bad = statuses.index(AdmissionStatus.TAMPER)
    assert records[first_bad].chain_ok is False
    # Everything after proof of tampering is quarantined, not chained.
    assert all(s is AdmissionStatus.QUARANTINED
               for s in statuses[first_bad + 1:])
    assert gate.accumulator(spec.tenant_id, 0).tampered


def test_damaged_chunk_degrades_and_opens_a_gap():
    spec, shipments = _shipments()
    gate = _gate(spec)
    first = gate.admit(shipments[0])
    assert first.status is AdmissionStatus.ADMITTED
    degraded = gate.admit(_damage(shipments[1]))
    assert degraded.status is AdmissionStatus.DEGRADED
    # The intact prefix of the damaged chunk is still salvaged.
    assert degraded.accumulated_entries >= first.accumulated_entries
    acc = gate.accumulator(spec.tenant_id, 0)
    assert acc.gap and not acc.tampered


def test_intact_segment_after_gap_is_quarantined():
    spec, shipments = _shipments()
    gate = _gate(spec)
    gate.admit(shipments[0])
    gate.admit(_damage(shipments[1]))
    before = len(gate.accumulator(spec.tenant_id, 0).log.entries)
    late = gate.admit(shipments[2])
    assert late.status is AdmissionStatus.QUARANTINED
    assert late.chain_ok is None
    # Quarantined entries never reach the verifier-side log.
    assert len(gate.accumulator(spec.tenant_id, 0).log.entries) == before


def test_out_of_order_chunk_is_not_appended():
    spec, shipments = _shipments()
    gate = _gate(spec)
    early = gate.admit(shipments[1])          # segment 1 overtook 0
    assert early.chain_ok is None             # covers entries not on hand
    before = list(gate.accumulator(spec.tenant_id, 0).log.entries)
    late = gate.admit(shipments[0])
    assert late.status is AdmissionStatus.TAMPER
    assert late.chain_ok is False
    acc = gate.accumulator(spec.tenant_id, 0)
    # The late chunk never reaches the window, which stays a log the
    # codec accepts.
    assert acc.log.entries == before
    assert EventLog.from_bytes(acc.log.to_bytes()).entries == before
    assert acc.tampered and acc.gap
    assert gate.admit(shipments[2]).status is AdmissionStatus.QUARANTINED


def test_fleet_never_replays_a_non_monotonic_window(monkeypatch):
    """A hostile tenant that ships segment 1 before segment 0 is flagged
    through the chain check; no replay window the fleet prepares is one
    ``EventLog.from_bytes`` rejects, so the fleet run completes."""
    original_ship = ProverSession.ship

    def reordering_ship(self, epoch, result, epoch_start_ms):
        shipment = original_ship(self, epoch, result, epoch_start_ms)
        if self.spec.tenant_id == "tenant-00":
            first, second = shipment.shipments[:2]
            shipment.shipments[0] = dataclasses.replace(
                first, arrival_ms=second.arrival_ms + 1.0)
        return shipment

    windows = []
    original_prepare = AuditScheduler._prepare

    def checked_prepare(self, job, gate):
        prepared = original_prepare(self, job, gate)
        if prepared[0] is not None:
            windows.append(EventLog.from_bytes(prepared[0].log_bytes))
        return prepared

    monkeypatch.setattr(ProverSession, "ship", reordering_ship)
    monkeypatch.setattr(AuditScheduler, "_prepare", checked_prepare)
    report = FleetService(default_tenants(3, requests=4),
                          topology=FleetTopology(num_nodes=2), epochs=1,
                          seed=7, registry=MetricsRegistry()).run(jobs=1)
    assert windows
    assert "tenant-00" in report.flagged_tenants


def test_epochs_accumulate_independently():
    spec = TenantSpec(tenant_id="t0", requests=4, seed=3, segments=2)
    session = ProverSession(spec, service_seed=11)
    gate = _gate(spec)
    epoch0 = session.ship(0, execute_spec(session.play_spec(0)), 0.0)
    epoch1 = session.ship(1, execute_spec(session.play_spec(1)), 500.0)
    gate.admit(_damage(epoch0.shipments[0]))          # epoch 0 gap
    records = [gate.admit(s) for s in epoch1.shipments]
    assert all(r.status is AdmissionStatus.ADMITTED for r in records)
    assert gate.accumulator("t0", 0).gap
    assert not gate.accumulator("t0", 1).gap


def test_admission_metrics_are_emitted():
    spec, shipments = _shipments()
    registry = MetricsRegistry()
    gate = _gate(spec, registry=registry)
    for shipment in shipments[:2]:
        gate.admit(shipment)
    gate.admit(_damage(shipments[2]))
    snap = registry.snapshot()
    assert snap["service_segments_ingested_total"]["value"] == 3
    assert snap["service_segments_admitted_total"]["value"] == 2
    assert snap["service_segments_degraded_total"]["value"] == 1
    assert snap["service_ingest_bytes_total"]["value"] > 0
