"""Table 2: SciMark performance of Sanity vs Oracle's JVM.

Paper: completion time of the five SciMark kernels under Sanity, the
Oracle JVM in interpreted mode (``-Xint``), and with the JIT, normalized
to interpreted mode.

Reproduced shape: Sanity is in the same league as a conventional
interpreter ("at the very least, these results suggest that TDR is not
impractical"), the JIT runtime is several times faster, and the pure-
compute Monte Carlo kernel benefits most from JIT compilation (paper:
MC's 0.0305 is the lowest Oracle-JIT ratio).
"""

from __future__ import annotations

import os

from conftest import print_banner, report_pairs

from repro.analysis.stats import paired_ratios
from repro.core.tdr import play
from repro.machine.config import RuntimeKind
from repro.machine.noise import scenario_config

KERNELS = ("sor", "smm", "mc", "fft", "lu")

PAPER_ROWS = {
    "sor": (7.4211, 1.0, 0.2634),
    "smm": (1.0674, 1.0, 1.1200),
    "mc": (4.0890, 1.0, 0.0305),
    "fft": (8.4068, 1.0, 0.1590),
    "lu": (0.2555, 1.0, 0.0353),
}


def run_table2(scimark_programs):
    results = {}
    clean = scenario_config("clean")
    for name in KERNELS:
        program = scimark_programs[name]
        sanity = play(program, scenario_config("sanity"),
                      seed=0).total_cycles
        oracle_int = play(program, clean.with_overrides(name="oracle-int"),
                          seed=0).total_cycles
        oracle_jit = play(
            program,
            clean.with_overrides(name="oracle-jit",
                                 runtime=RuntimeKind.ORACLE_JIT),
            seed=0).total_cycles
        results[name] = (sanity / oracle_int, 1.0,
                         oracle_jit / oracle_int)
    return results


def test_table2_scimark(benchmark, scimark_programs):
    results = benchmark.pedantic(run_table2, args=(scimark_programs,),
                                 rounds=1, iterations=1)

    print_banner("Table 2 — SciMark completion time normalized to "
                 "Oracle-INT (paper values in parentheses)")
    print(f"  {'kernel':<8s} {'Sanity':>18s} {'Oracle-INT':>12s} "
          f"{'Oracle-JIT':>18s}")
    for name in KERNELS:
        sanity, oint, ojit = results[name]
        p_sanity, _, p_jit = PAPER_ROWS[name]
        print(f"  {name.upper():<8s} {sanity:>8.4f} ({p_sanity:>6.4f}) "
              f"{oint:>12.4f} {ojit:>8.4f} ({p_jit:>6.4f})")

    for name in KERNELS:
        sanity, _, ojit = results[name]
        # Sanity is competitive with a conventional interpreter: within
        # 2x either way (the paper's spread is wider because its Sanity
        # is an entirely different codebase, but the conclusion — "TDR is
        # not impractical" — is this bound).
        assert 0.5 < sanity < 2.0, name
        # The JIT is substantially faster than interpretation.
        assert ojit < 0.5, name
    # Pure-compute MC benefits most from JIT compilation (as in the
    # paper); the memory/math-bound kernels benefit less.
    assert results["mc"][2] == min(results[k][2] for k in KERNELS)


#: Interleaved interpreted/compiled pairs per kernel (one play a sample).
PAIRS = 9
#: Host wall-clock bar for the simulator's own tier-up: trace-compiled
#: Sanity must beat the pure interpreter by >= this factor ...
SPEEDUP_BAR = 1.5
#: ... on at least this many of the five kernels (FFT is CALL-heavy and
#: compiled regions cannot cross calls, so it gains the least).
KERNELS_AT_BAR = 3


def run_tierup(scimark_programs):
    """Per-kernel interpreted/compiled host-time ratios, one per pair of
    interleaved plays under ``REPRO_NO_JIT`` and with the tier-up on.

    Measured on the noise-free Sanity variant (``speculation_sigma=0``),
    where the pre-summed block charge takes its provably-exact O(1) fast
    path; bit-identity under the *default noisy* configs is pinned by
    ``tests/test_tracejit.py``, and the guest-visible numbers are
    asserted equal here as well.
    """
    config = scenario_config("sanity").with_overrides(
        name="sanity-deterministic", speculation_sigma=0.0)
    rows = {}
    for name in KERNELS:
        program = scimark_programs[name]

        def jit():
            return play(program, config, seed=0)

        def interp():
            os.environ["REPRO_NO_JIT"] = "1"
            try:
                return jit()
            finally:
                os.environ.pop("REPRO_NO_JIT", None)

        interp_result, jit_result = interp(), jit()  # warm-up
        assert jit_result.total_cycles == interp_result.total_cycles, name
        assert jit_result.instructions == interp_result.instructions, name
        rows[name] = {"ratios": paired_ratios(interp, jit, PAIRS),
                      "jit_coverage": (jit_result.jit["jit_instructions"]
                                       / jit_result.instructions)}
    return rows


def test_table2_tierup_speedup(benchmark, scimark_programs):
    rows = benchmark.pedantic(run_tierup, args=(scimark_programs,),
                              rounds=1, iterations=1)

    print_banner("Table 2 addendum — simulator host time, interpreted / "
                 "trace-compiled Sanity")
    speedups = {}
    for name in KERNELS:
        row = rows[name]
        speedups[name] = report_pairs(
            f"{name.upper():<4s} ({row['jit_coverage']:.1%} compiled)",
            row["ratios"])

    at_bar = sum(speedup >= SPEEDUP_BAR for speedup in speedups.values())
    print(f"  median >= {SPEEDUP_BAR}x on {at_bar}/{len(KERNELS)} kernels "
          f"(bar: {KERNELS_AT_BAR})")
    assert at_bar >= KERNELS_AT_BAR, speedups
    # Every kernel must at least not regress under the tier-up.
    assert all(speedup > 0.9 for speedup in speedups.values()), speedups
