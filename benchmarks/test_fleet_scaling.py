"""Fleet scaling and chaos bench: 1 -> N verifier nodes.

Sweeps the sharded :class:`~repro.service.fleet.FleetService` over node
counts, with and without a node-crash chaos plan, and prints

* the virtual horizon (how long the fleet took in *simulated* time — the
  number that should shrink as shards absorb the audit load),
* host wall-clock and virtual sessions/second,
* chaos robustness counters (rebalances, requeues, unaudited).

``PERF_SMOKE=1`` shrinks the sweep to 1/2/4 nodes for CI.

No wall-clock assertions (host speed varies); the structural assertions
are determinism of the flag set across fleet sizes and the zero-silent-
drop contract under chaos.
"""

from __future__ import annotations

import os
import time

from conftest import print_banner

from repro.faults.plans import NodeChaosPlan
from repro.obs.metrics import MetricsRegistry
from repro.service import FleetService, FleetTopology, default_tenants

SMOKE = os.environ.get("PERF_SMOKE", "") == "1"
NODE_COUNTS = (1, 2, 4) if SMOKE else (1, 2, 4, 8, 16)
TENANTS = 3 if SMOKE else 6
EPOCHS = 2
REQUESTS = 4 if SMOKE else 8
#: Node 1 is a no-op crash for the single-node sweep point, so one plan
#: drives every fleet size.
CHAOS = "crash:1@180"


def _run(nodes: int, chaos: str | None):
    plan = NodeChaosPlan.parse(chaos) if chaos else None
    service = FleetService(
        default_tenants(TENANTS, requests=REQUESTS),
        topology=FleetTopology(num_nodes=nodes),
        epochs=EPOCHS, seed=2014, chaos=plan,
        registry=MetricsRegistry())
    t0 = time.perf_counter()
    report = service.run()
    return time.perf_counter() - t0, report


def test_fleet_scaling():
    rows = {}
    for nodes in NODE_COUNTS:
        wall_s, clean = _run(nodes, None)
        _, chaotic = _run(nodes, CHAOS)

        # Shard count is capacity, not policy: same flags at every size.
        assert clean.flagged_tenants == ["tenant-01"]
        assert not clean.unaudited
        # Chaos never silently drops a session.
        assert chaotic.sessions_verdicted + len(chaotic.unaudited) \
            == chaotic.sessions_total

        rows[str(nodes)] = {
            "wall_seconds": round(wall_s, 4),
            "virtual_horizon_ms": round(clean.horizon_ms, 1),
            "virtual_sessions_per_s": round(
                clean.sessions_total / (clean.horizon_ms / 1000.0), 2),
            "chaos": {
                "rebalances": len(chaotic.rebalances),
                "requeued": chaotic.requeued,
                "unaudited": len(chaotic.unaudited),
            },
        }

    print_banner("Fleet scaling — sharded verifier, 1 -> N nodes")
    print(f"  {TENANTS} tenants x {EPOCHS} epochs, chaos plan {CHAOS}")
    print(f"  {'nodes':>5} {'wall s':>8} {'virt ms':>9} "
          f"{'sess/virt-s':>11} {'rebal':>5} {'requeue':>7} "
          f"{'unaudited':>9}")
    for nodes in NODE_COUNTS:
        row = rows[str(nodes)]
        print(f"  {nodes:>5} {row['wall_seconds']:>8.3f} "
              f"{row['virtual_horizon_ms']:>9.1f} "
              f"{row['virtual_sessions_per_s']:>11.2f} "
              f"{row['chaos']['rebalances']:>5} "
              f"{row['chaos']['requeued']:>7} "
              f"{row['chaos']['unaudited']:>9}")

    assert set(rows) == {str(n) for n in NODE_COUNTS}
