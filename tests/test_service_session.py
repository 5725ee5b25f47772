"""Prover sessions: segmentation, attestation chains, shipping."""

import pytest

from repro.analysis.parallel import execute_spec
from repro.core.attestation import LogVerifier
from repro.core.log import EventLog
from repro.service import ProverSession, ServiceError, TenantSpec
from repro.service.session import _chunk_bounds


def _session(**overrides):
    defaults = dict(tenant_id="t0", requests=4, seed=3, segments=3)
    defaults.update(overrides)
    return ProverSession(TenantSpec(**defaults), service_seed=11)


def _play(session, epoch=0):
    return execute_spec(session.play_spec(epoch))


class TestTenantSpec:
    def test_rejects_zero_segments(self):
        with pytest.raises(ServiceError):
            TenantSpec(tenant_id="bad", segments=0)

    def test_rejects_out_of_range_drop_rate(self):
        with pytest.raises(ServiceError):
            TenantSpec(tenant_id="bad", drop_rate=1.0)
        with pytest.raises(ServiceError):
            TenantSpec(tenant_id="bad", drop_rate=-0.1)

    def test_signing_key_is_per_tenant(self):
        assert TenantSpec(tenant_id="a").signing_key \
            != TenantSpec(tenant_id="b").signing_key


class TestChunkBounds:
    @pytest.mark.parametrize("n,segments", [(9, 3), (10, 3), (1, 4),
                                            (0, 2), (7, 1)])
    def test_bounds_partition_the_range(self, n, segments):
        bounds = _chunk_bounds(n, segments)
        assert len(bounds) == segments
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (_, end), (start, _) in zip(bounds, bounds[1:]):
            assert end == start

    def test_early_chunks_take_the_remainder(self):
        assert _chunk_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]


class TestShipping:
    def test_segments_reassemble_into_the_full_log(self):
        session = _session()
        result = _play(session)
        shipment = session.ship(0, result, epoch_start_ms=0.0)
        assert len(shipment.shipments) == 3
        rebuilt = []
        for seg in shipment.shipments:
            rebuilt.extend(EventLog.from_bytes(seg.chunk_bytes).entries)
        assert len(rebuilt) == len(result.log.entries)
        assert [e.payload for e in rebuilt] \
            == [e.payload for e in result.log.entries]

    def test_cumulative_authenticators_verify(self):
        session = _session()
        result = _play(session)
        shipment = session.ship(0, result, epoch_start_ms=0.0)
        verifier = LogVerifier(session.spec.signing_key)
        acc = EventLog()
        for seg in shipment.shipments:
            acc.entries.extend(EventLog.from_bytes(seg.chunk_bytes).entries)
            assert verifier.verify_available_prefix(acc, seg.auth) is True

    def test_arrivals_are_ordered_and_after_send(self):
        session = _session()
        shipment = session.ship(0, _play(session), epoch_start_ms=100.0)
        sent = [seg.sent_ms for seg in shipment.shipments]
        assert sent == sorted(sent) and sent[0] > 100.0
        for seg in shipment.shipments:
            assert seg.arrival_ms >= seg.sent_ms

    def test_lossy_arrivals_never_go_backwards(self):
        # A retried segment holds back the ones behind it: the verifier
        # must receive a tenant-epoch's segments in order, or the chain
        # it accumulates is spliced out of order (a false tamper).
        spec = TenantSpec(tenant_id="t3", requests=4, seed=3, segments=3,
                          drop_rate=0.12)
        late_retries = 0
        for service_seed in range(12):
            session = ProverSession(spec, service_seed=service_seed)
            shipment = session.ship(0, _play(session), epoch_start_ms=0.0)
            own = [seg.sent_ms + seg.transfer.elapsed_ms
                   for seg in shipment.shipments]
            arrivals = [seg.arrival_ms for seg in shipment.shipments]
            assert arrivals == sorted(arrivals), service_seed
            assert all(a >= o for a, o in zip(arrivals, own))
            late_retries += own != sorted(own)
        # The sweep covers at least one segment that overtook its
        # predecessor in transit.
        assert late_retries > 0

    def test_tamper_rewrites_exactly_one_payload(self):
        honest = _session()
        tampering = _session(tamper=True)
        result = _play(honest)
        clean = honest.ship(0, result, 0.0)
        forged = tampering.ship(0, _play(tampering), 0.0)
        clean_payloads = [e.payload for seg in clean.shipments
                          for e in EventLog.from_bytes(seg.chunk_bytes).entries]
        forged_payloads = [e.payload for seg in forged.shipments
                           for e in EventLog.from_bytes(seg.chunk_bytes).entries]
        assert len(clean_payloads) == len(forged_payloads)
        diffs = [i for i, (a, b) in enumerate(zip(clean_payloads,
                                                  forged_payloads))
                 if a != b]
        assert len(diffs) == 1

    def test_tampered_chunk_fails_chain_verification(self):
        session = _session(tamper=True)
        shipment = session.ship(0, _play(session), 0.0)
        verifier = LogVerifier(session.spec.signing_key)
        acc = EventLog()
        verdicts = []
        for seg in shipment.shipments:
            acc.entries.extend(EventLog.from_bytes(seg.chunk_bytes).entries)
            verdicts.append(verifier.verify_available_prefix(acc, seg.auth))
        assert False in verdicts


class TestDeterminism:
    def test_play_spec_is_reproducible_across_sessions(self):
        assert _session().play_spec(1) == _session().play_spec(1)

    def test_epochs_get_distinct_workload_seeds(self):
        session = _session()
        assert session.play_spec(0) != session.play_spec(1)

    def test_covert_schedule_cached_and_stable(self):
        covert = _session(covert_channel="ipctc")
        first = covert.covert_schedule(0)
        assert first is covert.covert_schedule(0)      # cached
        assert first == _session(covert_channel="ipctc").covert_schedule(0)
        assert covert.covert_schedule(1) != first
        assert _session().covert_schedule(0) is None

    def test_covert_schedule_lands_in_play_spec(self):
        covert = _session(covert_channel="ipctc")
        spec = covert.play_spec(0)
        assert spec.covert_schedule == covert.covert_schedule(0)
        assert spec.covert_schedule[0] == 0
        assert any(d > 0 for d in spec.covert_schedule)

    def test_wire_observation_mirrors_result(self):
        from repro.service import WireObservation

        session = _session()
        result = _play(session)
        wire = WireObservation.from_result(result)
        assert list(wire.tx) == result.tx
        assert wire.tx_times_ms() == result.tx_times_ms()
        assert wire.instructions == result.instructions

    def test_log_contains_no_packet_gaps_for_covert_play(self):
        # The covert tenant ships an *honest* log: delays are injected
        # during play but never recorded — that is why TDR exposes them.
        covert = _session(covert_channel="ipctc")
        honest = _session()
        covert_result = _play(covert)
        honest_result = _play(honest)
        assert [e.kind for e in covert_result.log.entries] \
            == [e.kind for e in honest_result.log.entries]
        assert covert_result.total_cycles > honest_result.total_cycles
