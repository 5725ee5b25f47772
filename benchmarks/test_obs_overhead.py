"""Null-recorder overhead of the observability hooks.

The cycle-attribution ledger, span tracer, opcode sampler and profiler
are wired into the hot paths behind ``is None`` checks.  This bench pins
the cost of those checks when observability is *disabled* — the default
for every run — by timing the shipped code against a monkeypatched
"pre-observability" variant.

Under the default batched charging, the platform renders ``mem_access``
per instance and picks its ledger slots once, at render time, so no
per-access ledger branch exists; the only hook a patch can strip is the
ledger branch of ``VirtualClock.advance``.  The hooks left on the
running path of *both* sides are:

* the ``advance`` ledger check (stripped on the legacy side);
* the interpreter's poll-branch ``is None`` checks for the opcode
  sampler, the tier-up and the profiler.

Every wall-clock gate here times its two sides in interleaved pairs
(:func:`~repro.analysis.stats.paired_ratios`) and judges its bar on the
median of the per-pair ratios.

Run with ``pytest benchmarks/test_obs_overhead.py -s``.
"""

from __future__ import annotations

from conftest import print_banner, report_pairs
from repro.analysis.stats import paired_ratios
from repro.apps import compile_app, zero_array_source
from repro.core.tdr import play
from repro.hw.clock import VirtualClock

#: Interleaved pairs of single ``zero_array(4096)`` plays (tens of ms
#: each) for the 5% gates: the median of 60 ratios moves by about 1%
#: between runs on a noisy 2-core host, where 3-play samples in 15
#: pairs moved by 4%.
PAIRS = 60


def test_null_recorder_overhead_under_5_percent(monkeypatch):
    print_banner("Observability: disabled-path overhead vs pre-obs code")
    program = compile_app(zero_array_source(elements=4096))
    legacy_calls = 0

    def legacy_advance(self, cycles, source="other"):
        """VirtualClock.advance without its ledger branch."""
        nonlocal legacy_calls
        legacy_calls += 1
        if not isinstance(cycles, int):
            raise TypeError(f"cycles must be int, not "
                            f"{type(cycles).__name__}")
        if cycles < 0:
            raise ValueError(f"cannot advance clock by {cycles} cycles")
        self._cycles += cycles

    def current():
        result = play(program, None, seed=0)
        assert result.ledger is None  # the null path really is null
        return result.total_cycles

    def legacy():
        with monkeypatch.context() as patch:
            patch.setattr(VirtualClock, "advance", legacy_advance)
            return current()

    # Warm-up; the hooks must not change simulated time at all.
    assert current() == legacy()
    legacy_calls = 0
    overhead = report_pairs("current / legacy host time",
                            paired_ratios(current, legacy, PAIRS)) - 1.0
    print(f"  overhead: {overhead * 100:.2f}% "
          f"({legacy_calls:,d} patched advance calls)")
    # The legacy baseline really ran the patched code...
    assert legacy_calls > 0
    # ...and the hooks cost (almost) nothing in host time when disabled.
    assert overhead < 0.05, \
        f"null-recorder overhead {overhead:.1%} exceeds the 5% budget"


def test_profiler_overhead_under_5_percent():
    """The profiler-on knob: strided stack capture on the poll branch
    and at block boundaries must stay under 5% host time versus the
    same observed run without it — while changing nothing simulated."""
    print_banner("Observability: cycle profiler on vs off (obs run)")
    from repro.obs import Observability

    program = compile_app(zero_array_source(elements=4096))

    def run(profile):
        # trace=False isolates the profiler: the span tracer's bind()
        # is per-machine state this A/B does not exercise.
        return play(program, None, seed=0,
                    obs=Observability(trace=False, profile=profile))

    run(True)  # warm-up
    with_profiler = run(True)
    without = run(False)
    # Pure observer: every simulated observable identical...
    assert with_profiler.total_cycles == without.total_cycles
    assert with_profiler.ledger == without.ledger
    assert with_profiler.tx == without.tx
    # ...and the profile itself is exact.
    assert with_profiler.profile["sources"] == dict(with_profiler.ledger)

    overhead = report_pairs("profiler on / off host time",
                            paired_ratios(lambda: run(True),
                                          lambda: run(False), PAIRS)) - 1.0
    print(f"  overhead: {overhead * 100:.2f}%")
    assert overhead < 0.05, \
        f"profiler-on overhead {overhead:.1%} exceeds the 5% budget"


def _legacy_linear_observe(self, value):
    """Histogram.observe as it was before bisection: walk every
    cumulative ``le`` bucket and bump the ones the value falls under."""
    self._count += 1
    self._sum += value
    if self._min is None or value < self._min:
        self._min = value
    if self._max is None or value > self._max:
        self._max = value
    for i, bound in enumerate(self.buckets):
        if value <= bound:
            self._bucket_counts[i] += 1


def test_histogram_observe_bisect_beats_linear_scan(monkeypatch):
    """The satellite that keeps the <5% overhead bound honest: with many
    buckets (fine-grained latency histograms) the old linear scan did
    O(buckets) increments per observation, the bisect path does one."""
    print_banner("Observability: Histogram.observe bisect vs linear scan")
    from repro.obs.metrics import Histogram

    buckets = tuple(float(b) for b in range(1, 65))
    values = [float((i * 37) % 70) for i in range(20_000)]

    def run(hist):
        observe = hist.observe
        for value in values:
            observe(value)
        return hist

    def bisected():
        return run(Histogram("b", buckets=buckets))

    def linear():
        with monkeypatch.context() as patch:
            patch.setattr(Histogram, "observe", _legacy_linear_observe)
            return run(Histogram("l", buckets=buckets))

    current_hist = bisected()  # warm-up + correctness fixture
    legacy_hist = linear()
    # The legacy scan wrote the cumulative view directly; the bisect
    # path stores per-bucket tallies and accumulates at read time —
    # identical observable results, cheaper hot path.
    assert current_hist.cumulative_counts() == legacy_hist._bucket_counts
    assert current_hist.count == legacy_hist._count
    assert current_hist.sum == legacy_hist._sum

    # The effect is several-fold, so 15 pairs resolve it.
    speedup = report_pairs(f"linear scan ({len(buckets)} buckets) / "
                           "bisect host time",
                           paired_ratios(linear, bisected, 15))
    # Equal-or-better is the contract; on 64 buckets bisect should win
    # clearly, but keep the bound conservative for noisy CI hosts.
    assert speedup > 1.0, \
        f"bisect observe slower than the linear scan ({speedup:.2f}x)"
