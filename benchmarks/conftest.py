"""Shared fixtures for the paper-reproduction benchmarks.

Every bench regenerates one table or figure of the paper (see DESIGN.md's
per-experiment index), prints the reproduced rows/series, and asserts the
qualitative *shape* of the result (orderings, crossovers, who-wins).
Absolute numbers are simulator-scale, not testbed-scale.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.analysis.stats import quartiles
from repro.apps import build_kernel_program, build_nfs_program


@pytest.fixture(scope="session")
def nfs_program():
    """The compiled mini-NFS server guest (compiled once per session)."""
    return build_nfs_program()


@pytest.fixture(scope="session")
def scimark_programs():
    """All five SciMark kernels, compiled once."""
    return {name: build_kernel_program(name)
            for name in ("fft", "sor", "mc", "smm", "lu")}


def print_banner(title: str) -> None:
    """Uniform bench-output header."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def report_pairs(label: str, ratios: list[float]) -> float:
    """Print the median and quartiles of per-pair A/B ratios (from
    :func:`repro.analysis.stats.paired_ratios`); return the median,
    which is what every wall-clock gate judges its bar on."""
    q1, median, q3 = quartiles(ratios)
    print(f"  {label}: median {median:.3f} "
          f"(quartiles {q1:.3f}..{q3:.3f}, {len(ratios)} pairs)")
    return median
