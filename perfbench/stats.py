"""Summary statistics with the benchmark's percentile rule.

A timing is reported as its median plus the highest percentile that still
has at least :data:`MIN_BEYOND` samples beyond it.  Percentiles use the
nearest-rank definition, so "samples beyond" is an exact count.
"""

from __future__ import annotations

import math

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` sorted samples lie beyond the ``pct`` nearest rank."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def reportable(n: int, pct: float) -> bool:
    """True when ``pct`` may be reported from ``n`` samples."""
    return n > 0 and samples_beyond(n, pct) >= MIN_BEYOND


def min_samples(pct: float) -> int:
    """The smallest sample count from which ``pct`` is reportable."""
    n = 1
    while not reportable(n, pct):
        n += 1
    return n


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile; raises if the rule forbids reporting it."""
    n = len(samples)
    if not reportable(n, pct):
        raise ValueError(
            f"p{pct:g} needs at least {MIN_BEYOND} samples beyond it; "
            f"got {n} samples"
        )
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(pct / 100.0 * n)) - 1]
