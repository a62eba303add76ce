"""Scheduling beats the baselines on a wide tree; greedy leads early on a chain.

The golden hashes pin what a seeded run writes, not that it schedules
well: a change that moves the draws on purpose and re-pins the hashes
could make coverage worse unnoticed.  On a seeded 2000-edge tree, the
rareness-corrected rules each reach more coverage than ``greedy``, and
``greedy`` more than ``uniform``, with a Mann-Whitney p below 0.01 over
ten trials each.

On chain-20, where both saturate by 1000 steps (so the acceptance
criterion's final coverage cannot tell them apart), ``greedy`` covers the
chain sooner than ``sample``: over seeds 0-99 of 500 steps its area under
the coverage timeline is larger, with a Mann-Whitney p below 0.01.
"""

import numpy as np
import pytest

from seedsched import (
    CfgTarget,
    auc,
    coverage_timeline,
    make_scheduler,
    mann_whitney_u,
    run_fuzz_campaign,
)
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


CHAIN_SEEDS = range(100)
CHAIN_STEPS = 500


def test_greedy_covers_the_chain_sooner_than_sample():
    target = CfgTarget.chain(20, 0.05)
    areas = {}
    for name in ("greedy", "sample"):
        logs = (
            run_fuzz_campaign(target, make_scheduler(name, 20, s), CHAIN_STEPS, s)
            for s in CHAIN_SEEDS
        )
        areas[name] = [auc(coverage_timeline(log, 10)) for log in logs]
    a, b = areas["greedy"], areas["sample"]
    u, p = mann_whitney_u(a, b)
    print(f"chain-20 AUC: greedy {np.mean(a):.1f} vs sample {np.mean(b):.1f}: U={u}, p={p:.2g}")
    assert u > len(a) * len(b) / 2 and p < 0.01
