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
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
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

# An arms run_to call draws its environment uniforms this many at a time.
# numpy's array call gives the doubles that as many scalar calls would,
# and leaves the generator in the same state.  Longer blocks save nothing
# measurable and keep more floats alive: blocks of 4096 raised the peak
# RSS of a 12-trial arms round by about 0.2 MB (2-core x86-64 host,
# Python 3.11, numpy 2.4).
_UNIFORM_BLOCK = 256


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


def _read_json(path: str | Path, what: str) -> Any:
    """Decode the JSON file at ``path``; ``what`` names the file in errors."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError: a NUL in the path, not UTF-8, not JSON, or an integer past
    # Python's digit limit; RecursionError: nested past the recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot load {what} file: {exc}") from exc


def load_target(path: str | Path) -> CfgTarget:
    """Load a target description from JSON: a list of edge objects."""
    return parse_edges(_read_json(path, "target"))


def _check_fields(obj: Any, fields: dict, required, where: str = "") -> None:
    """Check a decoded JSON object against ``fields`` (key -> (value check,
    what the value must be)): every ``required`` key is present, every key
    is in the table, and every value passes its key's check.  Messages
    start with ``where``, such as ``"edge #3: "``; the config passes none,
    since the CLI and ``resume`` name it where they report the error."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}expected a JSON object, got {type(obj).__name__}")
    unknown = obj.keys() - fields.keys()
    if unknown:
        raise ConfigError(f"{where}unknown keys {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError(f"{where}missing keys {missing}")
    for key, value in obj.items():
        check, what = fields[key]
        if not check(value):
            raise ConfigError(f"{where}{key!r} must be {what}, got {value!r}")


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
        _check_fields(item, _EDGE_FIELDS, ("id", "p"), f"edge #{i}: ")
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

    def run_to(self, until: int | None = None) -> None:
        """Run the steps after :attr:`step` up to ``until`` (the run's end
        by default, and never past it), appending one row per step."""
        stop = self.steps if until is None else min(int(until), self.steps)
        if self.step < stop:
            self._run(stop)

    def _run(self, stop: int) -> None:
        """Steps ``self.step + 1`` to ``stop``, one row each.  Each runner
        has its own loop, which looks up what a step calls once per call."""
        raise NotImplementedError

    def take_log(self, trial: int = 0) -> TrialLog:
        log = _log_from_rows(self.scheduler.name, trial, self.rows)
        self.rows = []
        return log

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
        step = _state_int(state, "step", high=self.steps)
        scheduler = self.scheduler._loaded_fields(state["scheduler"])
        posterior = scheduler.get("posterior")
        # Beta(1, 1), one bootstrap observation, then at most one per step;
        # tested as a difference, as finite shapes can sum past float range
        _state_check(
            posterior is None or (posterior.alpha <= step + 3 - posterior.beta).all(),
            "posterior",
            f"reachable by its step: alpha + beta <= step + 3 = {step + 3} for every feature",
        )
        return {"step": step, "env_rng": env_rng, "scheduler": scheduler, "rows": []}


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
        for rec in self._arm_inputs():
            self.scheduler.observe(rec, True)

    def _arm_inputs(self) -> list[InputRecord]:
        # one fixed-cost input per arm, so every arm is selectable at step 1;
        # a pull of arm k covers exactly feature k
        return [
            InputRecord(id=f"arm{k}", size=1, exec_time=1.0, features=frozenset({k}))
            for k in range(self.env.k_size)
        ]

    def _run(self, stop: int) -> None:
        sched = self.scheduler
        next_id, observe = sched.next, sched.observe
        corpus = sched.corpus
        covered = sched.global_coverage.covered
        append = self.rows.append
        theta, best = self.env.theta_star, self._best
        step = self.step
        while step < stop:
            # one uniform per step, drawn a block at a time
            block = self.env_rng.random(min(stop - step, _UNIFORM_BLOCK)).tolist()
            for step, u in enumerate(block, step + 1):
                rec = corpus[next_id()]
                (arm,) = rec.features
                p = theta[arm]
                hit = u < p
                observe(rec, hit)
                self.step = step
                append(
                    (
                        step,
                        arm,
                        hit,
                        best - p,
                        len(covered),
                        len(corpus),
                        sched.last_select_ops,
                        sched.last_update_ops,
                    )
                )

    def _loaded_fields(self, state: dict[str, Any]) -> dict[str, Any]:
        fields = super()._loaded_fields(state)
        # a step only re-observes the inputs the runner made
        _state_check(
            list(fields["scheduler"]["corpus"].values()) == self._arm_inputs(),
            "corpus",
            f"the runner's arm inputs arm0 to arm{self.env.k_size - 1}, in arm order",
        )
        return fields


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

    def _bootstrap(self) -> None:
        # one seed input per root edge, observed before step 1
        sched = self.scheduler
        for root in self.target.roots:
            rec = self._synth(frozenset({root.id}), root, "seed")
            sched.observe(rec, classify_interesting(sched.global_coverage, rec.features))

    def _unlockable(self, features: frozenset[int]) -> list[Edge]:
        """Uncovered edges whose prerequisites lie in ``features``, in id order.

        Each input's list is kept, and edges covered since are pruned from
        it on each later use; coverage only grows within a run, so a kept
        list never misses an edge.  A child's list is derived from its
        parent's when the child is made (see :meth:`_run`); a seed input's,
        or one first used after a resume, is derived here from the empty
        input's list, the roots.
        """
        covered = self.scheduler.global_coverage.covered
        cands = self._candidates.get(features)
        if cands is None:
            cands = self._derived(self.target.roots, features, features)
        live = [e for e in cands if e.id not in covered]
        self._candidates[features] = live
        return live

    def _derived(
        self, live: Iterable[Edge], gained: Iterable[int], features: frozenset[int]
    ) -> list[Edge]:
        """The unlockable list of an input with ``features``, derived from
        the list ``live`` of an input that lacks only the ids ``gained``:
        the edges of ``live`` outside ``features``, plus the children of
        ``gained`` whose prerequisites all lie in ``features``, in id order.
        Any other edge the larger input could unlock would need a
        prerequisite the smaller one lacked, a gained id.  An edge with two
        gained prerequisites is listed once."""
        target = self.target
        children = target.children
        kept = [e for e in live if e.id not in features]
        kids = {c for f in gained for c in children[f]}
        added = [e for e in map(target.edges.__getitem__, kids) if e.prereqs <= features]
        if added:
            kept += added
            kept.sort(key=attrgetter("id"))
        return kept

    def _run(self, stop: int) -> None:
        sched = self.scheduler
        next_id, observe = sched.next, sched.observe
        corpus = sched.corpus
        covered = sched.global_coverage.covered
        append = self.rows.append
        for step in range(self.step + 1, stop + 1):
            parent = corpus[next_id()]
            live = self._unlockable(parent.features)
            unlocked = []
            if live:
                # one uniform per candidate, in id order, drawn in one call
                draws = self.env_rng.random(len(live)).tolist()
                unlocked = [e for e, u in zip(live, draws) if u < e.p]
            # the parent's features are covered and unlocked edges are not,
            # so a step is interesting exactly when it unlocks an edge
            interesting = bool(unlocked)
            if interesting:
                gained = {e.id for e in unlocked}
                features = parent.features | gained
                rec = self._synth(features, unlocked[0], "input")
                self._candidates[features] = self._derived(live, gained, features)
            else:
                rec = parent
            observe(rec, interesting)
            self.step = step
            append(
                (
                    step,
                    sched.last_action,
                    interesting,
                    0.0,
                    len(covered),
                    len(corpus),
                    sched.last_select_ops,
                    sched.last_update_ops,
                )
            )

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
