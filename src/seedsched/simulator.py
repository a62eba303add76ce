"""Simulation environments, trial runners, and the worked branch demo.

Two environments exercise the schedulers end to end:

* :class:`BernoulliArmsEnv` is the classic stationary bandit: arm k pays an
  "interesting" observation with latent probability theta_star[k], and each
  pull is fed back as the coverage {k}.  Regret per step is
  max(theta_star) minus the pulled arm's rate.

* :class:`CfgTarget` is a synthetic fuzzing target: a DAG of edges, each
  with prerequisite edges and a discovery probability.  Fuzzing an input
  gives every undiscovered edge whose prerequisites lie inside the input's
  covered path an independent chance to unlock; any unlock synthesizes a
  new interesting input covering the parent's features plus the unlocked
  edges, otherwise the parent's own coverage is re-observed and classified
  non-interesting.

In both, an input covers each of its features once, so an execution's
coverage is the executed input's ``features``, and a runner feeds back
only the input and whether it was interesting.  Both run through the same
runner protocol so a campaign can be snapshotted mid-flight and resumed to
a byte-identical continuation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any

import numpy as np

from .bandit import compute_pbar
from .coverage import InputRecord, _feature_id, classify_interesting
from .errors import ConfigError
from .rng import SeededRng
from .schedulers import Scheduler, TScheduler, _is_int, _is_number, _state_check, _state_int

__all__ = [
    "BernoulliArmsEnv",
    "Edge",
    "CfgTarget",
    "load_target",
    "parse_edges",
    "TrialLog",
    "BernoulliTrialRunner",
    "FuzzCampaignRunner",
    "run_bandit_trial",
    "run_fuzz_campaign",
    "BRANCH_DEMO_INPUTS",
    "BRANCH_DEMO_NODES",
    "BRANCH_DEMO_REFERENCE",
    "DemoRow",
    "branch_demo_coverage",
    "replay_branch_demo",
]

DEFAULT_TIME_RANGE = (1.0, 10.0)
DEFAULT_SIZE_RANGE = (10, 1000)


# ----------------------------------------------------------------------
# environments

@dataclass(frozen=True)
class BernoulliArmsEnv:
    """Stationary arms with latent interestingness probabilities."""

    theta_star: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_star", tuple(float(t) for t in self.theta_star))
        if not self.theta_star:
            raise ConfigError("at least one arm is required")
        if any(not 0.0 < t <= 1.0 for t in self.theta_star):
            raise ConfigError("arm probabilities must lie in (0, 1]")

    @property
    def k_size(self) -> int:
        return len(self.theta_star)


@dataclass(frozen=True)
class Edge:
    """One edge of a synthetic target: feature id, prerequisites, dynamics."""

    id: int
    prereqs: frozenset[int]
    p: float
    time_range: tuple[float, float] = DEFAULT_TIME_RANGE
    size_range: tuple[int, int] = DEFAULT_SIZE_RANGE

    def __post_init__(self) -> None:
        try:
            # numpy integers become ints; int() would read 0.7 as 0 and True as 1
            prereqs = frozenset(map(_feature_id, self.prereqs))
        except TypeError as exc:
            raise ConfigError(f"edge {self.id}: prerequisite {exc}") from None
        object.__setattr__(self, "prereqs", prereqs)
        if not 0.0 < self.p <= 1.0:
            raise ConfigError(f"edge {self.id}: discovery probability must be in (0, 1]")
        lo, hi = self.time_range
        if not 0 <= lo <= hi:
            raise ConfigError(f"edge {self.id}: bad time_range")
        lo, hi = self.size_range
        # sizes are drawn as int64 from [lo, hi + 1)
        if not 0 <= lo <= hi < 2**63:
            raise ConfigError(f"edge {self.id}: bad size_range (need 0 <= lo <= hi < 2**63)")


@dataclass(frozen=True)
class CfgTarget:
    """A DAG of edges; edge ids double as coverage feature indices."""

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        ids = [e.id for e in self.edges]
        if not ids:
            raise ConfigError("target must define at least one edge")
        if sorted(ids) != list(range(len(ids))):
            raise ConfigError("edge ids must be exactly 0..n-1")
        object.__setattr__(
            self, "edges", tuple(sorted(self.edges, key=lambda e: e.id))
        )
        known = set(ids)
        for e in self.edges:
            if not e.prereqs <= known:
                raise ConfigError(f"edge {e.id}: unknown prerequisite ids")
            if e.id in e.prereqs:
                raise ConfigError(f"edge {e.id}: depends on itself")
        self._check_reachable()

    def _check_reachable(self) -> None:
        # Kahn's algorithm: every edge must become unlockable in some order.
        # An edge is ready once its count of unmet prerequisites drops to 0.
        unmet = [len(e.prereqs) for e in self.edges]
        children = self.children
        ready = [i for i, n in enumerate(unmet) if not n]
        for f in ready:  # the list grows while it is walked
            for i in children[f]:
                unmet[i] -= 1
                if not unmet[i]:
                    ready.append(i)
        if len(ready) < len(unmet):
            pending = sorted(i for i, n in enumerate(unmet) if n)
            raise ConfigError(f"edges {pending} are unreachable (cyclic prerequisites)")

    @property
    def k_size(self) -> int:
        return len(self.edges)

    @cached_property
    def roots(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if not e.prereqs)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """``children[f]``: ids of the edges that list f as a prerequisite."""
        kids: list[list[int]] = [[] for _ in self.edges]
        for e in self.edges:
            for f in e.prereqs:
                kids[f].append(e.id)
        return tuple(tuple(k) for k in kids)

    @classmethod
    def chain(cls, n_edges: int, p: float) -> "CfgTarget":
        """Linear chain: edge i requires edge i-1; edge 0 is the root."""
        edges = [
            Edge(i, frozenset() if i == 0 else frozenset({i - 1}), p)
            for i in range(n_edges)
        ]
        return cls(tuple(edges))


def load_target(path: str | Path) -> CfgTarget:
    """Load a target description from JSON: a list of edge objects."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read target file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"target file is not valid JSON: {exc}") from exc
    return parse_edges(raw)


def _is_pair(value: Any, is_item) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(is_item, value))


# edge key -> (value check, what the value must be)
_EDGE_FIELDS = {
    "id": (_is_int, "an integer"),
    "p": (_is_number, "a finite number"),
    "prereqs": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
    "time_range": (lambda v: _is_pair(v, _is_number), "two finite numbers"),
    "size_range": (lambda v: _is_pair(v, _is_int), "two integers"),
}


def parse_edges(raw: Any) -> CfgTarget:
    """Build a target from a decoded JSON list of edge objects.

    ``id`` and ``p`` are required; ``prereqs``, ``time_range`` and
    ``size_range`` default as in :class:`Edge`.  Unknown keys and values of
    the wrong JSON type are rejected, never coerced.
    """
    if not isinstance(raw, list):
        raise ConfigError("the target must be a JSON list of edges")
    edges = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ConfigError(f"edge #{i} must be a JSON object")
        unknown = set(item) - _EDGE_FIELDS.keys()
        if unknown:
            raise ConfigError(f"edge #{i}: unknown keys {sorted(unknown)}")
        missing = {"id", "p"} - set(item)
        if missing:
            raise ConfigError(f"edge #{i}: missing keys {sorted(missing)}")
        for key, value in item.items():
            check, what = _EDGE_FIELDS[key]
            if not check(value):
                raise ConfigError(f"edge #{i}: {key!r} must be {what}, got {value!r}")
        edges.append(
            Edge(
                id=item["id"],
                prereqs=frozenset(item.get("prereqs", ())),
                p=float(item["p"]),
                time_range=tuple(item.get("time_range", DEFAULT_TIME_RANGE)),
                size_range=tuple(item.get("size_range", DEFAULT_SIZE_RANGE)),
            )
        )
    return CfgTarget(tuple(edges))


# ----------------------------------------------------------------------
# trial logs

_LOG_FIELDS = (
    "steps",
    "actions",
    "interesting",
    "regret",
    "covered",
    "corpus_size",
    "select_ops",
    "update_ops",
)


@dataclass
class TrialLog:
    """Per-step record of one trial; one entry per scheduled step."""

    scheduler: str
    trial: int
    steps: np.ndarray
    actions: np.ndarray
    interesting: np.ndarray
    regret: np.ndarray
    covered: np.ndarray
    corpus_size: np.ndarray
    select_ops: np.ndarray
    update_ops: np.ndarray

    def __post_init__(self) -> None:
        lengths = {len(getattr(self, f)) for f in _LOG_FIELDS}
        if len(lengths) != 1:
            raise ValueError("all log columns must have equal length")
        steps = np.asarray(self.steps)
        if steps.size and np.any(np.diff(steps) != 1):
            raise ValueError("log steps must be consecutive")

    def __len__(self) -> int:
        return len(self.steps)


def _log_from_rows(scheduler: str, trial: int, rows: list[tuple]) -> TrialLog:
    cols = list(zip(*rows)) if rows else [[] for _ in _LOG_FIELDS]
    return TrialLog(
        scheduler=scheduler,
        trial=trial,
        steps=np.array(cols[0], dtype=np.int64),
        actions=np.array(cols[1], dtype=np.int64),
        interesting=np.array(cols[2], dtype=bool),
        regret=np.array(cols[3], dtype=np.float64),
        covered=np.array(cols[4], dtype=np.int64),
        corpus_size=np.array(cols[5], dtype=np.int64),
        select_ops=np.array(cols[6], dtype=np.int64),
        update_ops=np.array(cols[7], dtype=np.int64),
    )


# ----------------------------------------------------------------------
# runners

class _TrialRunner:
    """Steps a (scheduler, environment) pair and accumulates log rows."""

    kind = "base"

    def __init__(self, scheduler: Scheduler, steps: int, seed: int) -> None:
        if steps < 1:
            raise ValueError("steps must be at least 1")
        self.scheduler = scheduler
        self.steps = int(steps)
        self.seed = int(seed)
        self.env_rng = SeededRng(seed, stream=1)
        self.step = 0
        self.rows: list[tuple] = []

    # one scheduled step; returns nothing, appends one row
    def _advance(self) -> None:
        raise NotImplementedError

    def run_to(self, until: int | None = None) -> None:
        stop = self.steps if until is None else min(int(until), self.steps)
        while self.step < stop:
            self.step += 1
            self._advance()

    def take_log(self, trial: int = 0) -> TrialLog:
        log = _log_from_rows(self.scheduler.name, trial, self.rows)
        self.rows = []
        return log

    def _covered(self) -> int:
        return len(self.scheduler.global_coverage.covered)

    def _row(self, action: int, interesting: bool, regret: float) -> None:
        s = self.scheduler
        self.rows.append(
            (
                self.step,
                action,
                interesting,
                regret,
                self._covered(),
                len(s.corpus),
                s.last_select_ops,
                s.last_update_ops,
            )
        )

    # -- persistence ---------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """The state a run changes.  The run length and seed are not stored:
        a runner built from the same config has them."""
        return {
            "kind": self.kind,
            "step": self.step,
            "env_rng": self.env_rng.state_dict(),
            "scheduler": self.scheduler.state_dict(),
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a :meth:`state_dict`.  Every field, the scheduler's
        included, is checked before any is assigned, so a rejected state
        leaves the runner and its scheduler as they were."""
        fields = self._loaded_fields(state)
        vars(self.scheduler).update(fields.pop("scheduler"))
        vars(self).update(fields)

    def _loaded_fields(self, state: dict[str, Any]) -> dict[str, Any]:
        """Attribute values ``state`` restores, with the scheduler's under
        ``"scheduler"``; raises on any bad field."""
        if not isinstance(state, dict) or state.get("kind") != self.kind:
            raise ValueError("runner state does not match this environment kind")
        # a fresh generator, so a rejected rng state leaves self.env_rng alone
        env_rng = SeededRng(self.seed, stream=1)
        env_rng.load_state(state["env_rng"])
        return {
            "step": _state_int(state, "step", high=self.steps),
            "env_rng": env_rng,
            "scheduler": self.scheduler._loaded_fields(state["scheduler"]),
            "rows": [],
        }


class BernoulliTrialRunner(_TrialRunner):
    """Runner for the stationary-arms environment."""

    kind = "arms"

    def __init__(
        self, env: BernoulliArmsEnv, scheduler: Scheduler, steps: int, seed: int
    ) -> None:
        super().__init__(scheduler, steps, seed)
        if scheduler.k_size != env.k_size:
            raise ValueError("scheduler feature space must match the number of arms")
        self.env = env
        self._best = max(env.theta_star)
        self._bootstrap()

    def _bootstrap(self) -> None:
        # one fixed-cost input per arm, so every arm is selectable at step 1;
        # a pull of arm k covers exactly feature k
        for k in range(self.env.k_size):
            rec = InputRecord(id=f"arm{k}", size=1, exec_time=1.0, features=frozenset({k}))
            self.scheduler.observe(rec, True)

    def _advance(self) -> None:
        iid = self.scheduler.next()
        rec = self.scheduler.corpus[iid]
        (arm,) = rec.features
        p = self.env.theta_star[arm]
        hit = bool(self.env_rng.random() < p)
        self.scheduler.observe(rec, hit)
        self._row(arm, hit, self._best - p)


class FuzzCampaignRunner(_TrialRunner):
    """Runner for synthetic CFG targets."""

    kind = "fuzz"

    def __init__(
        self, target: CfgTarget, scheduler: Scheduler, steps: int, seed: int
    ) -> None:
        super().__init__(scheduler, steps, seed)
        if scheduler.k_size != target.k_size:
            raise ValueError("scheduler feature space must match the target's edge count")
        self.target = target
        # feature set -> uncovered edges whose prerequisites it covers;
        # derived from the scheduler's coverage, so never snapshotted
        self._candidates: dict[frozenset[int], list[Edge]] = {}
        self._bootstrap()

    def _synth(self, features: frozenset[int], source: Edge, id_prefix: str) -> InputRecord:
        # every synthesized input covers an edge not covered before, so it
        # joins the corpus, and the corpus size counts the inputs made so far
        exec_time = float(self.env_rng.uniform(*source.time_range))
        size = int(self.env_rng.integers(source.size_range[0], source.size_range[1] + 1))
        return InputRecord(
            id=f"{id_prefix}{len(self.scheduler.corpus)}",
            size=size,
            exec_time=exec_time,
            features=features,
        )

    def _observe(self, rec: InputRecord) -> bool:
        interesting = classify_interesting(self.scheduler.global_coverage, rec.features)
        self.scheduler.observe(rec, interesting)
        return interesting

    def _bootstrap(self) -> None:
        # one seed input per root edge, observed before step 1
        for root in self.target.roots:
            self._observe(self._synth(frozenset({root.id}), root, "seed"))

    def _unlockable(self, features: frozenset[int]) -> list[Edge]:
        """Uncovered edges whose prerequisites lie in ``features``, in id order.

        Only roots and children of a feature in the set can qualify, so the
        list is built from those once per feature set and kept.  Edges
        covered since are pruned from it on each later use; coverage only
        grows within a run, so the kept list never misses an edge.
        """
        covered = self.scheduler.global_coverage.covered
        cands = self._candidates.get(features)
        if cands is None:
            target = self.target
            children = target.children
            ids = {e.id for e in target.roots}.union(*[children[f] for f in features])
            live = [
                e
                for e in map(target.edges.__getitem__, sorted(ids - covered))
                if e.prereqs <= features
            ]
        else:
            live = [e for e in cands if e.id not in covered]
        self._candidates[features] = live
        return live

    def _advance(self) -> None:
        iid = self.scheduler.next()
        parent = self.scheduler.corpus[iid]
        live = self._unlockable(parent.features)
        unlocked = []
        if live:
            # one uniform per candidate, in id order, drawn in one call
            draws = self.env_rng.random(len(live)).tolist()
            unlocked = [e for e, u in zip(live, draws) if u < e.p]
        if unlocked:
            features = parent.features | {e.id for e in unlocked}
            interesting = self._observe(self._synth(features, unlocked[0], "input"))
        else:
            interesting = self._observe(parent)
        self._row(self.scheduler.last_action, interesting, 0.0)

    def _loaded_fields(self, state: dict[str, Any]) -> dict[str, Any]:
        fields = super()._loaded_fields(state)
        # the runner names inputs and finds unlockable edges from the
        # scheduler's corpus and coverage, so both must be as a run leaves
        # them: the inputs in the order they were made, and every covered
        # edge held by one of them
        sched = fields["scheduler"]
        order = sched["insertion_order"]
        roots = len(self.target.roots)
        _state_check(
            len(order) >= roots
            and order == [f"{'seed' if i < roots else 'input'}{i}" for i in range(len(order))],
            "corpus",
            f"the runner's inputs in the order it made them: seed0 to seed{roots - 1}, "
            f"then input{roots} on",
        )
        corpus = sched["corpus"]
        _state_check(
            set().union(*(rec.features for rec in corpus.values()))
            == sched["global_coverage"].covered,
            "covered",
            "the union of the corpus inputs' features",
        )
        fields["_candidates"] = {}
        return fields


def run_bandit_trial(
    env: BernoulliArmsEnv, scheduler: Scheduler, steps: int, seed: int, trial: int = 0
) -> TrialLog:
    """Run one full arms trial and return its log."""
    runner = BernoulliTrialRunner(env, scheduler, steps, seed)
    runner.run_to()
    return runner.take_log(trial)


def run_fuzz_campaign(
    target: CfgTarget, scheduler: Scheduler, steps: int, seed: int, trial: int = 0
) -> TrialLog:
    """Run one full synthetic fuzzing campaign and return its log."""
    runner = FuzzCampaignRunner(target, scheduler, steps, seed)
    runner.run_to()
    return runner.take_log(trial)


# ----------------------------------------------------------------------
# the four-branch worked demo

BRANCH_DEMO_INPUTS = ((15, 0), (25, 0), (0, 15), (0, 25), (25, 5), (25, 25))
BRANCH_DEMO_NODES = ("line3", "line4", "line5", "line6")

# Canonical demo table: (step, node) -> (alpha, beta, pbar printed to 2dp).
# Two cells depart from a strict recompute and are kept verbatim; see
# replay_branch_demo for the conventions that produce them.
BRANCH_DEMO_REFERENCE: dict[tuple[int, str], tuple[int, int, str]] = {
    (0, "line3"): (1, 1, "0.25"),
    (0, "line4"): (1, 1, "0.25"),
    (0, "line5"): (1, 1, "0.25"),
    (0, "line6"): (1, 1, "0.25"),
    (1, "line3"): (2, 1, "0.29"),
    (1, "line4"): (1, 1, "0.21"),
    (1, "line5"): (1, 1, "0.21"),
    (1, "line6"): (2, 1, "0.29"),
    (2, "line3"): (3, 1, "0.28"),
    (2, "line4"): (2, 1, "0.25"),
    (2, "line5"): (1, 1, "0.19"),
    (2, "line6"): (3, 1, "0.28"),
    (3, "line3"): (3, 1, "0.30"),
    (3, "line4"): (2, 1, "0.26"),
    (3, "line5"): (1, 1, "0.20"),
    (3, "line6"): (3, 2, "0.24"),
    (4, "line3"): (3, 1, "0.31"),
    (4, "line4"): (2, 1, "0.28"),
    (4, "line5"): (1, 1, "0.21"),
    (4, "line6"): (3, 3, "0.21"),
    (5, "line3"): (3, 2, "0.29"),
    (5, "line4"): (2, 2, "0.24"),
    (5, "line5"): (1, 1, "0.24"),
    (5, "line6"): (3, 4, "0.24"),
    (6, "line3"): (4, 2, "0.27"),
    (6, "line4"): (3, 2, "0.25"),
    (6, "line5"): (2, 1, "0.27"),
    (6, "line6"): (3, 5, "0.21"),
}


@dataclass(frozen=True)
class DemoRow:
    """One cell of the demo table."""

    step: int
    node: str
    alpha: int
    beta: int
    pbar: float


def branch_demo_coverage(a: int, b: int) -> frozenset[int]:
    """Covered ids of the demo program's four tracked nodes for input (a, b).

    The program is three nested guards: a > 10 reaches node line3, a > 20
    reaches line4, b > 10 then reaches line5; line6 is the exit and is hit
    by every execution.
    """
    features = {3}
    if a > 10:
        features.add(0)
    if a > 20:
        features.add(1)
        if b > 10:
            features.add(2)
    return frozenset(features)


def replay_branch_demo() -> list[DemoRow]:
    """Replay the six demo inputs and return the canonical 7x4 demo table.

    The posterior trace is recomputed live through a scheduler, so this
    doubles as an end-to-end check of the reward and update path.  The
    returned table follows two conventions of the canonical demo table,
    verified here against the live recompute cell by cell:

    * its step-5 probability column was normalized before the exit node's
      step-5 update had been applied, so that column is recomputed with the
      exit node's values backed out by one observation;
    * the exit node's step-6 observation is booked as a miss in the table
      even though the input was interesting, so the reported pair for that
      single cell is (alpha - 1, beta + 1) relative to the live posterior.

    Any other disagreement with the embedded reference raises, keeping the
    table honest against drift in the scheduling engine.
    """
    exit_node = 3
    sched = TScheduler(4, "sample", seed=0)
    rows: list[DemoRow] = []

    def emit(step: int, alphas: np.ndarray, betas: np.ndarray, pbar: np.ndarray) -> None:
        for k, node in enumerate(BRANCH_DEMO_NODES):
            rows.append(DemoRow(step, node, int(alphas[k]), int(betas[k]), float(pbar[k])))

    emit(0, sched.posterior.alpha, sched.posterior.beta, compute_pbar(sched.posterior))
    for t, (a, b) in enumerate(BRANCH_DEMO_INPUTS, start=1):
        cov = branch_demo_coverage(a, b)
        interesting = classify_interesting(sched.global_coverage, cov)
        rec = InputRecord(id=f"t{t}", size=1, exec_time=1.0, features=cov)
        sched.observe(rec, interesting)
        alphas = sched.posterior.alpha.copy()
        betas = sched.posterior.beta.copy()
        pbar = compute_pbar(sched.posterior)
        if t == 5:
            lagged = sched.posterior.copy()
            lagged.beta[exit_node] -= 1.0
            pbar = compute_pbar(lagged)
        if t == 6:
            alphas[exit_node] -= 1
            betas[exit_node] += 1
        emit(t, alphas, betas, pbar)

    for row in rows:
        ref_a, ref_b, ref_p = BRANCH_DEMO_REFERENCE[(row.step, row.node)]
        if (row.alpha, row.beta) != (ref_a, ref_b) or f"{row.pbar:.2f}" != ref_p:
            raise RuntimeError(
                f"demo replay diverged from the reference at t={row.step} {row.node}: "
                f"got ({row.alpha}, {row.beta}, {row.pbar:.4f}), "
                f"expected ({ref_a}, {ref_b}, {ref_p})"
            )
    return rows
