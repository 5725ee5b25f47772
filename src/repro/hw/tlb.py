"""A small fully-associative TLB with LRU replacement.

The TLB is flushed together with the caches during initialization (§4.2:
"we toggle CR4.PCIDE to flush all TLB entries (including global ones)").
A miss charges a fixed page-walk cost; with identical access streams and a
deterministic replacement policy, TLB behaviour is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareConfigError
from repro.obs.ledger import Source


@dataclass(frozen=True)
class TlbConfig:
    """Geometry and miss cost of the TLB."""

    entries: int = 64
    miss_cycles: int = 30

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise HardwareConfigError("TLB needs at least one entry")
        if self.miss_cycles < 0:
            raise HardwareConfigError("TLB miss cost cannot be negative")


class Tlb:
    """Fully-associative, LRU-replaced translation lookaside buffer."""

    #: Ledger bucket for page-walk cycles this component charges.
    LEDGER_SOURCE = Source.TLB

    def __init__(self, config: TlbConfig) -> None:
        self.config = config
        # dict preserves insertion order; we re-insert on hit for LRU.
        self._entries: dict[int, bool] = {}
        self.hits = 0
        self.misses = 0

    def access(self, vpn: int) -> int:
        """Look up a virtual page number; return the cycle cost (0 on hit)."""
        if vpn in self._entries:
            self.hits += 1
            del self._entries[vpn]
            self._entries[vpn] = True
            return 0
        return self.miss(vpn)

    def miss(self, vpn: int) -> int:
        """Miss-side handling: count, evict the LRU entry, insert.

        Split out of :meth:`access` so the batched memory template that
        inlines the hit check (``render_mem`` in
        :mod:`repro.machine.platform`) shares the exact miss behaviour.
        """
        self.misses += 1
        if len(self._entries) >= self.config.entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[vpn] = True
        return self.config.miss_cycles

    def flush(self) -> None:
        """Drop every entry (CR4.PCIDE toggle)."""
        self._entries.clear()

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def state_fingerprint(self) -> int:
        from repro.determinism import mix64

        acc = 0
        for pos, vpn in enumerate(self._entries):
            acc = mix64(acc ^ (pos * 40503 + vpn))
        return acc
