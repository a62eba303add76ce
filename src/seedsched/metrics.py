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
    steps, values = np.asarray(timeline, dtype=np.float64).T
    widths = np.diff(steps)
    if np.any(widths <= 0):
        raise ValueError("timeline steps must be strictly increasing")
    return float(np.sum(widths * (values[:-1] + values[1:]) / 2.0))


def coverage_timeline(log: TrialLog, interval: int = 100) -> list[tuple[int, int]]:
    """Sampled (step, covered-feature-count) pairs from a trial log.

    Keeps every step divisible by ``interval`` plus the first and last
    logged steps, so short logs still yield a usable timeline.
    """
    if interval < 1:
        raise ValueError("interval must be at least 1")
    steps = log.steps
    if steps.size == 0:
        raise ValueError("coverage_timeline needs a non-empty log")
    covered = log.covered
    keep = (steps % interval == 0)
    keep[0] = True
    keep[-1] = True
    return [(int(s), int(c)) for s, c in zip(steps[keep], covered[keep])]


# ----------------------------------------------------------------------
# Mann-Whitney U

def _exact_two_sided_p(ranks2: np.ndarray, n_a: int) -> float:
    """Permutation p-value by exact enumeration of group-a assignments.

    ``ranks2`` holds the pooled sample's doubled midranks (integers), group
    a first.  Counts, by dynamic programming over them, how many of the
    C(n, n_a) equally likely splits put group a's rank sum at least as far
    from its null mean as observed.  A split and its complement lie equally
    far from their means, so the smaller group is the one enumerated; the
    counts are the same integers either way.
    """
    n = ranks2.size
    observed = abs(int(ranks2[:n_a].sum()) - n_a * (n + 1))  # doubled null mean
    m = min(n_a, n - n_a)
    center = m * (n + 1)
    # counts[j][s]: the j-element subsets whose doubled rank sum is s; none
    # exceeds C(n, m), so int64 holds them unless that does not fit
    dtype = np.int64 if math.comb(n, m) < 2**63 else object
    counts = np.zeros((m + 1, int(np.sort(ranks2)[n - m :].sum()) + 1), dtype=dtype)
    counts[0, 0] = 1
    for i, w in enumerate(ranks2.tolist()):
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
    # one ranking: a tie group of t values ending at sorted position c has
    # midrank c - (t - 1) / 2, kept doubled so that it is an integer
    _, inverse, ties = np.unique(a + b, return_inverse=True, return_counts=True)
    ranks2 = (2 * np.cumsum(ties) - ties + 1)[inverse]
    u_a = (int(ranks2[:n_a].sum()) - n_a * (n_a + 1)) / 2

    if min(n_a, n_b) < 8:
        return u_a, _exact_two_sided_p(ranks2, n_a)
    n = n_a + n_b
    tie_term = sum(t**3 - t for t in ties.tolist())  # Python ints: exact
    var_u = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var_u <= 0.0:
        return u_a, 1.0
    z = max(abs(u_a - n_a * n_b / 2.0) - 0.5, 0.0) / math.sqrt(var_u)
    return u_a, min(1.0, math.erfc(z / math.sqrt(2.0)))


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
