"""Seeded workload generator: experiment configs and target files.

Each workload is one experiment config (plus a target file for the DAG
workloads) written from the workload seed alone, so the same seed always
gives byte-identical inputs.  The program under test only ever sees these
files; it never receives the seed itself except as the config's
``base_seed``.

Why these three workloads:

* ``arms-k3``: three Bernoulli arms, trials of 10,000 steps as in the
  regret criterion's 100 x 10,000-step runs.  With K=3 the per-call
  overhead of select, observe and the beta sampler dominates.  The unlock
  scan and interestingness classification never run, so this workload is
  the bypass for simulator and coverage-classification changes.
* ``tree-2k``: a seeded wide tree of 2000 edges.  Per-step cost grows with
  K (2K or 4K beta shapes, length-K coverage vectors, an O(K) unlock scan),
  and coverage is still rising when its 500-step trials end, so corpus
  growth and favored table updates continue for the whole trial.  Trials
  are kept short so that a run holds enough rounds for a steady median.
* ``chain20-resume``: the 20-edge chain with p=0.05 under the
  ``new-bucket`` policy, many short trials, a snapshot at mid-run and a
  resume.  Fixed per-trial costs (runner set-up, CSVs, bootstrap CIs and
  Mann-Whitney over many trials, snapshot JSON and its checksum, state
  loading) make up a large share of the time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

SCHEDULERS = ("rare-minus", "rare-plus", "sample", "greedy", "uniform", "round-robin")

ARMS = (0.7, 0.8, 0.9)

TREE_EDGES = 2000
TREE_ROOTS = 8
TREE_P_RANGE = (0.005, 0.1)

CHAIN_EDGES = 20
CHAIN_P = 0.05

OUTPUT_DIR = "out"


@dataclass(frozen=True)
class Workload:
    """Shape of one workload; a round is one run of its config."""

    name: str
    k_size: int
    seeded: int  # features covered before step 1: every arm, or every root edge
    trials: int
    steps: int
    snapshot_at: int | None = None
    policy: str = "new-feature"

    def scaled(self, trials: int, steps: int) -> "Workload":
        """The same workload at another size (used for the warm-up round)."""
        snap = None if self.snapshot_at is None else max(1, steps // 2)
        return replace(self, trials=trials, steps=steps, snapshot_at=snap)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("arms-k3", len(ARMS), len(ARMS), trials=2, steps=10_000),
        Workload("tree-2k", TREE_EDGES, TREE_ROOTS, trials=2, steps=500),
        Workload(
            "chain20-resume", CHAIN_EDGES, 1, trials=10, steps=200,
            snapshot_at=100, policy="new-bucket",
        ),
    )
}


def tree_edges(seed: int) -> list[dict]:
    """Wide random tree: edges 0..7 are roots, every other edge has one
    prerequisite drawn uniformly from the earlier edges and p ~ U(0.005, 0.1)."""
    rng = random.Random(f"perfbench-tree-{seed}")
    lo, hi = TREE_P_RANGE
    edges = []
    for i in range(TREE_EDGES):
        prereqs = [] if i < TREE_ROOTS else [rng.randrange(i)]
        edges.append({"id": i, "prereqs": prereqs, "p": rng.uniform(lo, hi)})
    return edges


def chain_edges() -> list[dict]:
    """The edges of ``CfgTarget.chain(20, 0.05)`` in target-file form."""
    return [
        {"id": i, "prereqs": [] if i == 0 else [i - 1], "p": CHAIN_P}
        for i in range(CHAIN_EDGES)
    ]


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the workload's config (and target) into ``directory``.

    Returns the config path.  The config names ``OUTPUT_DIR`` relative to
    the working directory, so the program must run with ``directory`` as
    its working directory; outputs then hold no absolute path and their
    digests compare across checkouts.
    """
    directory.mkdir(parents=True, exist_ok=True)
    if workload.name == "arms-k3":
        environment = {"arms": list(ARMS)}
    else:
        edges = tree_edges(seed) if workload.name == "tree-2k" else chain_edges()
        _dump(directory / "target.json", edges)
        environment = {"target": "target.json"}
    config = {
        "environment": environment,
        "schedulers": list(SCHEDULERS),
        "trials": workload.trials,
        "steps": workload.steps,
        "base_seed": seed,
        "output_dir": OUTPUT_DIR,
        "sampling_interval": 100,
        "interesting_policy": workload.policy,
    }
    path = directory / "config.json"
    _dump(path, config)
    return path
