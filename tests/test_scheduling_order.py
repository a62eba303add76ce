"""Scheduling beats the baselines on a wide tree.

The golden hashes pin what a seeded run writes, not that it schedules
well: a change that moves the draws on purpose and re-pins the hashes
could make coverage worse unnoticed.  On a seeded 2000-edge tree, the
rareness-corrected rules each reach more coverage than ``greedy``, and
``greedy`` more than ``uniform``, with a Mann-Whitney p below 0.01 over
ten trials each.
"""

import numpy as np
import pytest

from seedsched import make_scheduler, mann_whitney_u, run_fuzz_campaign
from seedsched.simulator import parse_edges

TRIALS = 10
STEPS = 1000


def _wide_tree(n_edges: int = 2000, roots: int = 8, seed: int = 4001):
    """Edges 0..roots-1 are roots; every other edge has one prerequisite
    drawn uniformly from the earlier edges, and p ~ U(0.005, 0.1)."""
    rng = np.random.default_rng(seed)
    return parse_edges(
        [
            {
                "id": i,
                "prereqs": [] if i < roots else [int(rng.integers(0, i))],
                "p": float(rng.uniform(0.005, 0.1)),
            }
            for i in range(n_edges)
        ]
    )


@pytest.fixture(scope="module")
def final_coverage() -> dict[str, list[int]]:
    target = _wide_tree()
    return {
        name: [
            int(run_fuzz_campaign(target, make_scheduler(name, target.k_size, s), STEPS, s).covered[-1])
            for s in range(TRIALS)
        ]
        for name in ("rare-plus", "sample", "greedy", "uniform")
    }


@pytest.mark.parametrize(
    "better,worse",
    [("rare-plus", "greedy"), ("sample", "greedy"), ("greedy", "uniform")],
)
def test_final_coverage_ranks_the_schedulers(final_coverage, better, worse):
    a, b = final_coverage[better], final_coverage[worse]
    u, p = mann_whitney_u(a, b)
    print(f"{better} {np.mean(a):.1f} vs {worse} {np.mean(b):.1f}: U={u}, p={p:.2g}")
    assert u > TRIALS * TRIALS / 2 and p < 0.01
