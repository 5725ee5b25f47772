"""The service run is a pure function of (seed, roster, policy).

These tests pin the ISSUE's acceptance bar: byte-identical verdicts,
queue metrics, and per-tenant ledgers across repeat runs and across
``--jobs`` settings.  Worker count is a *policy* knob that may legally
move virtual latencies, but never the flagged set or audit outcomes.
"""

import json

from repro.obs.metrics import MetricsRegistry
from repro.service import FleetService, FleetTopology, default_tenants


def _run(jobs=1, workers_per_node=2, seed=7):
    """One ``reproduce serve`` run: the verifier service on one node."""
    topology = FleetTopology(num_nodes=1, workers_per_node=workers_per_node)
    service = FleetService(default_tenants(3, requests=4),
                           topology=topology, epochs=2, seed=seed,
                           registry=MetricsRegistry())
    return service.run(jobs=jobs)


def _canonical(report):
    return json.dumps(report.verdicts_dict(), sort_keys=True)


def test_repeat_runs_are_bit_identical():
    assert _canonical(_run()) == _canonical(_run())


def test_jobs_setting_never_changes_the_report():
    assert _canonical(_run(jobs=1)) == _canonical(_run(jobs=4))


def test_worker_count_never_changes_a_verdict():
    two = _run(workers_per_node=2)
    four = _run(workers_per_node=4)
    assert two.flagged_tenants == four.flagged_tenants == ["tenant-01"]
    for tid in two.ledgers:
        a, b = two.ledgers[tid], four.ledgers[tid]
        assert a.verdict == b.verdict
        assert [e.classification for e in a.events] \
            == [e.classification for e in b.events]


def test_different_seeds_move_the_timeline_not_the_verdicts():
    a, b = _run(seed=7), _run(seed=8)
    assert _canonical(a) != _canonical(b)            # seed actually matters
    assert a.flagged_tenants == b.flagged_tenants    # the channel still shows
