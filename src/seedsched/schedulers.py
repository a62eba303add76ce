"""Seed schedulers: the posterior family and the baselines.

Every scheduler speaks the same two-call protocol:

* ``observe(record, interesting)`` feeds back one execution: the executed
  input, whose ``features`` are the ``frozenset`` of feature ids it covered
  (see :mod:`seedsched.coverage`), and whether it was classified
  interesting.  Interesting inputs are retained in the corpus.  The
  features are checked before anything changes.
* ``next()`` returns the id of the retained input to fuzz next.

The posterior family (``rare-minus``, ``rare-plus``, ``sample`` and
``greedy``) is one class, :class:`TScheduler`.  It keeps a Beta posterior
per feature, updates it on every observation whether or not the feature is
currently selectable, and schedules the favored input of the feature that
:func:`seedsched.bandit.select_action` picks from the favored table by the
scheduler's selection rule: a Thompson-style draw for the first three, the
highest posterior mean for ``greedy``.  The table keeps the selectable ids
sorted and extends them only when it gains a feature; no step re-derives
them.  ``uniform`` and ``round-robin`` ignore the posterior entirely and
draw from the retained inputs directly.

Constructors take only the feature-space size and a seed; there is nothing
to tune.  Op-cost counters track abstract work per call (posterior entries
touched plus samples drawn) so scheduling overhead can be audited without a
wall clock.

A state (:meth:`Scheduler.state_dict`) holds the rng, the corpus in the
order it joined, the covered ids and, for the posterior family, the
posterior as JSON numbers.  The favored table is not stored: replaying the
corpus through ``update_favored`` rebuilds it, selectable ids and all.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from . import bandit
from .bandit import PosteriorState, Variant, init_posterior
from .coverage import (
    FavoredTable,
    GlobalCoverage,
    InputRecord,
    absorb,
    update_favored,
)
from .errors import EmptyCorpusError
from .rng import SeededRng

__all__ = [
    "Scheduler",
    "TScheduler",
    "UniformScheduler",
    "RoundRobinScheduler",
    "SCHEDULER_NAMES",
    "make_scheduler",
]


def _is_int(value: Any) -> bool:
    # JSON true/false decode to bool, which Python counts as an int
    return type(value) is int


def _is_number(value: Any) -> bool:
    # JSON decoding also yields NaN, Infinity and ints beyond float range
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _state_int(state: dict[str, Any], key: str, high: int | None = None) -> int:
    """``state[key]`` if it is an integer in [0, high], else ValueError."""
    value = state[key]
    if not _is_int(value) or value < 0 or (high is not None and value > high):
        bounds = f"[0, {high}]" if high is not None else ">= 0"
        raise ValueError(f"runner state {key!r} must be an integer {bounds}, got {value!r}")
    return value


def _state_check(ok: bool, key: str, what: str) -> None:
    if not ok:
        raise ValueError(f"runner state {key!r} must be {what}")


def _corpus_record(row: Any, k_size: int) -> InputRecord:
    """One snapshotted corpus row as an :class:`InputRecord`, or ValueError."""
    _state_check(isinstance(row, dict), "corpus", "a list of objects")
    _state_check(isinstance(row["id"], str), "id", "a string")
    exec_time = row["exec_time"]
    _state_check(_is_number(exec_time) and exec_time >= 0, "exec_time", "a finite number >= 0")
    features = row["features"]
    _state_check(
        isinstance(features, list) and all(_is_int(f) and 0 <= f < k_size for f in features),
        "features",
        f"a list of feature ids in [0, {k_size})",
    )
    return InputRecord(
        id=row["id"],
        size=_state_int(row, "size"),
        exec_time=exec_time,
        features=frozenset(features),
    )


class Scheduler:
    """Shared corpus and coverage bookkeeping for all schedulers."""

    name: str = "base"

    def __init__(self, k_size: int, seed: int) -> None:
        if k_size <= 0:
            raise ValueError("k_size must be a positive integer")
        self.k_size = int(k_size)
        self.seed = int(seed)
        self.rng = SeededRng(seed, stream=0)
        self.corpus: dict[str, InputRecord] = {}
        self.insertion_order: list[str] = []
        self.global_coverage = GlobalCoverage.empty(k_size)
        self.last_action: int | None = None
        self.last_select_ops = 0
        self.last_update_ops = 0

    # -- feedback ------------------------------------------------------

    def observe(self, record: InputRecord, interesting: bool) -> None:
        features = record.features
        coverage = self.global_coverage
        # absorb rejects bad ids before it changes anything, so the
        # posterior and the corpus only see features that were accepted;
        # covered ids were checked when they were absorbed, so a frozenset
        # of them alone needs no call
        if type(features) is not frozenset or not features <= coverage.covered:
            absorb(coverage, features)
        self._learn(features, interesting)
        if interesting and record.id not in self.corpus:
            self.corpus[record.id] = record
            self.insertion_order.append(record.id)
            self._retain(record)
        self.last_update_ops = len(features)

    def _learn(self, covered: frozenset[int], interesting: bool) -> None:
        """Posterior update hook; baselines keep no posterior."""

    def _retain(self, record: InputRecord) -> None:
        """Favored-table hook for schedulers that keep one; called once per
        input, when it joins the corpus."""

    # -- scheduling ----------------------------------------------------

    def next(self) -> str:
        input_id, self.last_action, self.last_select_ops = self._choose()
        return input_id

    def _choose(self) -> tuple[str, int, int]:
        raise NotImplementedError

    # -- persistence ---------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "k_size": self.k_size,
            "rng": self.rng.state_dict(),
            "corpus": [
                {
                    "id": r.id,
                    "size": r.size,
                    "exec_time": r.exec_time,
                    "features": sorted(r.features),
                }
                for r in (self.corpus[i] for i in self.insertion_order)
            ],
            "covered": sorted(self.global_coverage.covered),
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a :meth:`state_dict`.  Every field is checked before any
        is assigned, so a rejected state leaves the scheduler as it was."""
        vars(self).update(self._loaded_fields(state))

    def _loaded_fields(self, state: dict[str, Any]) -> dict[str, Any]:
        """Attribute values ``state`` restores; raises on any bad field."""
        if (
            not isinstance(state, dict)
            or state.get("name") != self.name
            or state.get("k_size") != self.k_size
        ):
            raise ValueError("scheduler state does not match this scheduler")
        k_size = self.k_size
        rows = state["corpus"]
        _state_check(isinstance(rows, list), "corpus", "a list of objects")
        records = [_corpus_record(row, k_size) for row in rows]
        corpus = {rec.id: rec for rec in records}
        _state_check(len(corpus) == len(records), "corpus", "a list of inputs with unique ids")
        covered = state["covered"]
        _state_check(
            isinstance(covered, list)
            and all(_is_int(f) and 0 <= f < k_size for f in covered)
            and covered == sorted(set(covered)),
            "covered",
            f"a sorted list of distinct feature ids in [0, {k_size})",
        )
        covered = set(covered)
        _state_check(
            all(rec.features <= covered for rec in records),
            "corpus",
            "inputs whose features are all in 'covered'",
        )
        # a fresh generator, so a rejected rng state leaves self.rng alone
        rng = SeededRng(self.seed, stream=0)
        rng.load_state(state["rng"])
        return {
            "rng": rng,
            "corpus": corpus,
            "insertion_order": list(corpus),
            "global_coverage": GlobalCoverage(k_size, covered),
        }


class TScheduler(Scheduler):
    """Beta posterior per feature plus one selection rule: the Thompson-style
    variants, with optional rareness damping, or the greedy posterior mean."""

    def __init__(self, k_size: int, variant: Variant | str, seed: int) -> None:
        super().__init__(k_size, seed)
        self.variant = Variant.parse(variant)
        self.name = self.variant.value
        self.posterior: PosteriorState = init_posterior(k_size)
        self.favored = FavoredTable(k_size)
        # K scores (theta draws or posterior means) + argmax scan (K), plus
        # K psi draws or phi reads; an upper bound, as only the selectable
        # features are scored
        self._select_ops = 2 * self.k_size
        if self.variant in (Variant.RARE_PLUS, Variant.SAMPLE):
            self._select_ops += self.k_size

    def _learn(self, covered: frozenset[int], interesting: bool) -> None:
        bandit.update_posterior(self.posterior, covered, interesting)

    def _retain(self, record: InputRecord) -> None:
        update_favored(self.favored, record)

    def _choose(self) -> tuple[str, int, int]:
        favored = self.favored
        action = bandit.select_action(self.posterior, self.variant, favored, self.rng)
        return favored.entries[action][0], action, self._select_ops

    def state_dict(self) -> dict[str, Any]:
        state = super().state_dict()
        state["alpha"] = self.posterior.alpha.tolist()
        state["beta"] = self.posterior.beta.tolist()
        return state

    def _loaded_fields(self, state: dict[str, Any]) -> dict[str, Any]:
        fields = super()._loaded_fields(state)
        k_size = self.k_size
        for key in ("alpha", "beta"):
            values = state[key]
            # a Beta shape starts at 1 and only grows
            _state_check(
                isinstance(values, list)
                and len(values) == k_size
                and all(_is_number(v) and v >= 1 for v in values),
                key,
                f"a list of {k_size} finite numbers >= 1",
            )
        fields["posterior"] = PosteriorState(
            np.array(state["alpha"], dtype=np.float64),
            np.array(state["beta"], dtype=np.float64),
        )
        # the table follows from the corpus: replay the offers in the order
        # the inputs joined it
        favored = FavoredTable(k_size)
        corpus = fields["corpus"]
        for iid in fields["insertion_order"]:
            update_favored(favored, corpus[iid])
        fields["favored"] = favored
        return fields


class UniformScheduler(Scheduler):
    """Uniformly random over retained inputs."""

    name = "uniform"

    def _choose(self) -> tuple[str, int, int]:
        if not self.insertion_order:
            raise EmptyCorpusError("no retained input; seed the corpus first")
        idx = int(self.rng.integers(0, len(self.insertion_order)))
        return self.insertion_order[idx], idx, 1


class RoundRobinScheduler(Scheduler):
    """Cycles through retained inputs in insertion order."""

    name = "round-robin"

    def __init__(self, k_size: int, seed: int) -> None:
        super().__init__(k_size, seed)
        self.cursor = 0

    def _choose(self) -> tuple[str, int, int]:
        if not self.insertion_order:
            raise EmptyCorpusError("no retained input; seed the corpus first")
        idx = self.cursor % len(self.insertion_order)
        self.cursor = idx + 1
        return self.insertion_order[idx], idx, 1

    def state_dict(self) -> dict[str, Any]:
        state = super().state_dict()
        state["cursor"] = self.cursor
        return state

    def _loaded_fields(self, state: dict[str, Any]) -> dict[str, Any]:
        fields = super()._loaded_fields(state)
        fields["cursor"] = _state_int(state, "cursor")
        return fields


_BASELINES = {cls.name: cls for cls in (UniformScheduler, RoundRobinScheduler)}

SCHEDULER_NAMES = (*(v.value for v in Variant), *_BASELINES)


def make_scheduler(name: str, k_size: int, seed: int) -> Scheduler:
    """Build a scheduler from its registry name."""
    if name in _BASELINES:
        return _BASELINES[name](k_size, seed)
    if name in SCHEDULER_NAMES:
        return TScheduler(k_size, name, seed)
    raise ValueError(f"unknown scheduler {name!r}; expected one of {', '.join(SCHEDULER_NAMES)}")
