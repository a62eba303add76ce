"""Campaign statistics: AUC, rank tests, bootstrap CIs, overhead summaries.

These are the reporting-side companions to the trial logs: nothing here
feeds back into scheduling decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .rng import SeededRng
from .simulator import TrialLog

__all__ = [
    "auc",
    "coverage_timeline",
    "mann_whitney_u",
    "bootstrap_ci",
    "consistency",
    "OverheadSummary",
    "overhead_summary",
]


def auc(timeline: Sequence[tuple[float, float]]) -> float:
    """Trapezoidal area under a (step, value) timeline.

    Needs at least two samples with strictly increasing steps.
    """
    if len(timeline) < 2:
        raise ValueError("auc needs at least two timeline samples")
    steps = np.asarray([t for t, _ in timeline], dtype=np.float64)
    values = np.asarray([v for _, v in timeline], dtype=np.float64)
    if np.any(np.diff(steps) <= 0):
        raise ValueError("timeline steps must be strictly increasing")
    widths = np.diff(steps)
    return float(np.sum(widths * (values[:-1] + values[1:]) / 2.0))


def coverage_timeline(log: TrialLog, interval: int = 100) -> list[tuple[int, int]]:
    """Sampled (step, covered-feature-count) pairs from a trial log.

    Keeps every step divisible by ``interval`` plus the first and last
    logged steps, so short logs still yield a usable timeline.
    """
    if interval < 1:
        raise ValueError("interval must be at least 1")
    steps = log.steps
    covered = log.covered
    keep = (steps % interval == 0)
    keep[0] = True
    keep[-1] = True
    return [(int(s), int(c)) for s, c in zip(steps[keep], covered[keep])]


# ----------------------------------------------------------------------
# Mann-Whitney U

def _midranks(pooled: Sequence[float]) -> list[float]:
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for idx in order[i : j + 1]:
            ranks[idx] = mid
        i = j + 1
    return ranks


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _exact_two_sided_p(pooled: Sequence[float], n_a: int, rank_sum_a: float) -> float:
    """Permutation p-value by exact enumeration of group-a assignments.

    Counts, via dynamic programming over doubled midranks (integers), how
    many of the C(n, n_a) equally likely splits put group a's rank sum at
    least as far from its null mean as observed.  A split and its
    complement lie equally far from their means, so the smaller group is
    the one enumerated; the counts are the same integers either way.
    """
    n = len(pooled)
    ranks2 = [int(round(2 * r)) for r in _midranks(pooled)]
    observed = abs(int(round(2 * rank_sum_a)) - n_a * (n + 1))  # doubled null mean
    m = min(n_a, n - n_a)
    center = m * (n + 1)
    # counts[j][s]: the j-element subsets whose doubled rank sum is s; none
    # exceeds C(n, m), so int64 holds them unless that does not fit
    dtype = np.int64 if math.comb(n, m) < 2**63 else object
    counts = np.zeros((m + 1, sum(sorted(ranks2)[n - m :]) + 1), dtype=dtype)
    counts[0, 0] = 1
    for i, w in enumerate(ranks2):
        for j in range(min(m, i + 1), 0, -1):
            counts[j, w:] += counts[j - 1, :-w]
    sums = np.arange(counts.shape[1])
    extreme = counts[m, np.abs(sums - center) >= observed].sum()
    return int(extreme) / int(counts[m].sum())


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Mann-Whitney U of a over b, with a two-sided p-value.

    U counts pairs (x, y) with x from a, y from b, scoring 1 for x > y and
    0.5 for ties.  The p-value uses the tie-corrected normal approximation
    (with continuity correction) when both samples have at least 8
    observations, and exact enumeration of all splits otherwise.
    """
    a = [float(x) for x in a]
    b = [float(y) for y in b]
    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        raise ValueError("both samples must be non-empty")
    pooled = a + b
    ranks = _midranks(pooled)
    rank_sum_a = sum(ranks[:n_a])
    u_a = rank_sum_a - n_a * (n_a + 1) / 2.0
    mean_u = n_a * n_b / 2.0

    if min(n_a, n_b) >= 8:
        n = n_a + n_b
        # tie correction over groups of equal pooled values
        tie_term = 0.0
        seen: dict[float, int] = {}
        for v in pooled:
            seen[v] = seen.get(v, 0) + 1
        for t in seen.values():
            tie_term += t**3 - t
        var_u = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
        if var_u <= 0.0:
            return u_a, 1.0
        diff = abs(u_a - mean_u)
        z = max(diff - 0.5, 0.0) / math.sqrt(var_u)
        p = min(1.0, 2.0 * _normal_sf(z))
        return u_a, p

    return u_a, _exact_two_sided_p(pooled, n_a, rank_sum_a)


# ----------------------------------------------------------------------
# bootstrap and scalar summaries

def bootstrap_ci(
    samples: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 10_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Seeded percentile-bootstrap confidence interval for the mean."""
    data = np.asarray(list(samples), dtype=np.float64)
    if data.size == 0:
        raise ValueError("bootstrap_ci needs at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    if resamples < 1:
        raise ValueError("resamples must be positive")
    rng = SeededRng(seed)
    idx = rng.integers(0, data.size, size=(resamples, data.size))
    means = data[idx].mean(axis=1)
    tail = (1.0 - confidence) / 2.0 * 100.0
    lo, hi = np.percentile(means, [tail, 100.0 - tail])
    return float(lo), float(hi)


def consistency(total: int, unique: int, trials: int) -> float:
    """Mean per-trial repeat rate: total / unique / trials."""
    if total < 0 or unique <= 0 or trials <= 0:
        raise ValueError("need total >= 0, unique > 0, trials > 0")
    return total / unique / trials


@dataclass(frozen=True)
class OverheadSummary:
    count: int
    mean: float
    variance: float


def overhead_summary(costs: Iterable[float]) -> OverheadSummary:
    """Count, mean, and population variance of per-call op costs."""
    arr = np.asarray(list(costs), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("overhead_summary needs at least one cost sample")
    return OverheadSummary(int(arr.size), float(arr.mean()), float(arr.var()))
