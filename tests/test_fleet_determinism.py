"""Determinism of the sharded fleet under chaos.

The tentpole invariant: a fleet run is a pure function of (seed, roster,
policy, topology, chaos plan).  Killing node N at tick T yields
bit-identical verdict sets, rebalance events, and ledger sums across
reruns and across ``jobs=1`` vs ``jobs=4`` — the process pool moves
wall-clock only, never an outcome.
"""

import json

import pytest

from repro.faults.plans import NodeChaosPlan
from repro.obs.metrics import MetricsRegistry
from repro.service import FleetService, FleetTopology, default_tenants

CHAOS = NodeChaosPlan.parse("crash:1@180,stall:2@90+500")


def _run(jobs=None, seed=7, chaos=CHAOS, nodes=4):
    service = FleetService(
        default_tenants(3, requests=4),
        topology=FleetTopology(num_nodes=nodes),
        epochs=2, seed=seed, chaos=chaos, registry=MetricsRegistry())
    return service.run(jobs=jobs)


def _canonical(report) -> str:
    return json.dumps(report.verdicts_dict(), sort_keys=True)


class TestFleetDeterminism:
    def test_rerun_is_bit_identical_under_chaos(self):
        assert _canonical(_run()) == _canonical(_run())

    def test_jobs_one_vs_four_identical(self):
        assert _canonical(_run(jobs=1)) == _canonical(_run(jobs=4))

    def test_rebalance_events_identical_across_jobs(self):
        serial, parallel = _run(jobs=1), _run(jobs=4)
        assert serial.rebalances == parallel.rebalances
        assert serial.requeued == parallel.requeued
        assert serial.killed_in_flight == parallel.killed_in_flight

    def test_ledger_sums_identical_across_jobs(self):
        serial, parallel = _run(jobs=1), _run(jobs=4)
        for tid, ledger in serial.ledgers.items():
            other = parallel.ledgers[tid]
            assert ledger.audits == other.audits
            assert ledger.spot_checks == other.spot_checks
            assert ledger.escalations == other.escalations
            assert ledger.final_status == other.final_status

    def test_seeded_chaos_plan_is_reproducible(self):
        plan_a = NodeChaosPlan.seeded(11, num_nodes=4, horizon_ms=800.0)
        plan_b = NodeChaosPlan.seeded(11, num_nodes=4, horizon_ms=800.0)
        assert plan_a.spec == plan_b.spec
        assert _canonical(_run(chaos=plan_a)) == _canonical(
            _run(chaos=plan_b))

    def test_seed_changes_timeline_not_robustness(self):
        for seed in (7, 8):
            report = _run(seed=seed)
            assert report.flagged_tenants == ["tenant-01"]
            verdicted = report.sessions_verdicted
            assert verdicted + len(report.unaudited) == \
                report.sessions_total

    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_verdicts_stable_across_fleet_sizes(self, nodes):
        # Node count is capacity, not policy: the flag set must not
        # depend on how many shards the fleet runs (no chaos here —
        # capacity loss legitimately changes coverage).
        report = _run(chaos=None, nodes=nodes)
        assert report.flagged_tenants == ["tenant-01"]
        assert not report.unaudited


def test_lossy_tenant_late_segment_regression():
    """Serve seed 1072349129: the lossy tenant's segment 0 is retried and
    arrives after segments 1 and 2.  Delivered out of order it produced a
    false tamper and a non-monotonic replay window that crashed the run;
    delivered in order only the covert tenant is flagged."""
    service = FleetService(
        default_tenants(4, requests=4),
        topology=FleetTopology(num_nodes=4), epochs=2,
        seed=1072349129, registry=MetricsRegistry())
    report = service.run(jobs=1)
    assert report.flagged_tenants == ["tenant-01"]
    assert not report.unaudited
