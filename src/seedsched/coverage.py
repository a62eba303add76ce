"""Coverage maps, interestingness, and the favored-input table.

Coverage comes in one of two forms over a fixed feature space of size K:

* a dense map, a length-K vector of non-negative hit counts;
* an id set, a ``frozenset`` of the int ids of the covered features, each
  hit once.  It stands for the map with a 1 at each id and 0 elsewhere,
  gives the same results, and costs O(number of ids) instead of O(K).  An
  id outside [0, K) raises :class:`DimensionMismatch`.

:func:`classify_interesting` and :func:`absorb` take either form.  Global
coverage accumulates hit totals plus the set of hit-count buckets seen per
feature, which backs the two interestingness policies:

* ``new-feature``: an input is interesting iff it hits a feature whose
  global total was zero;
* ``new-bucket``: an input is interesting iff some hit count falls into a
  bucket not seen before for that feature, with bucket classes
  {1}, {2}, {3}, {4-7}, {8-15}, {16-31}, {32-127}, {128+}.

The favored table keeps, per feature, the cheapest retained input covering
it (weight = exec_time * size, strict improvement required to displace the
incumbent).  Features with a favored entry form the selectable set the
schedulers draw from; collectively the favored inputs are a weighted
set cover of everything the corpus covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "BUCKET_LABELS",
    "INTERESTING_POLICIES",
    "bucketize",
    "GlobalCoverage",
    "InputRecord",
    "FavoredTable",
    "classify_interesting",
    "absorb",
    "update_favored",
    "selectable_features",
]

# lower bound of each bucket class, in increasing order
BUCKET_LABELS = (1, 2, 3, 4, 8, 16, 32, 128)

INTERESTING_POLICIES = ("new-feature", "new-bucket")


def bucketize(hits: int) -> int:
    """Bucket class label (the class lower bound) for a positive hit count."""
    if hits <= 0:
        raise ValueError("hit count must be positive to have a bucket")
    if hits < 4:
        return hits
    if hits < 8:
        return 4
    if hits < 16:
        return 8
    if hits < 32:
        return 16
    if hits < 128:
        return 32
    return 128


@dataclass
class GlobalCoverage:
    """Accumulated hit totals and seen buckets over the feature space."""

    total_hits: np.ndarray
    seen_buckets: list[set[int]]

    def __post_init__(self) -> None:
        self.total_hits = np.asarray(self.total_hits, dtype=np.int64)
        if self.total_hits.ndim != 1:
            raise DimensionMismatch("total_hits must be a 1-D vector")
        if len(self.seen_buckets) != self.total_hits.size:
            raise DimensionMismatch("seen_buckets length must equal k_size")

    @classmethod
    def empty(cls, k_size: int) -> "GlobalCoverage":
        if k_size <= 0:
            raise ValueError("k_size must be a positive integer")
        return cls(np.zeros(k_size, dtype=np.int64), [set() for _ in range(k_size)])

    @property
    def k_size(self) -> int:
        return int(self.total_hits.size)


@dataclass
class InputRecord:
    """A retained input: identity, cost attributes, and covered features."""

    id: str
    size: int
    exec_time: float
    features: frozenset[int]
    times_fuzzed: int = 0

    def __post_init__(self) -> None:
        # A frozenset of ints is kept as given: rebuilding it element by
        # element grows its table in steps and leaves it up to twice the size
        # of the copy a union or frozenset(set) makes, and a DAG child's set
        # holds every feature of its ancestors.
        features = frozenset(self.features)
        if not set(map(type, features)) <= {int}:
            features = frozenset(map(int, features))
        self.features = features
        if self.size < 0:
            raise ValueError("size must be non-negative")
        if self.exec_time < 0:
            raise ValueError("exec_time must be non-negative")

    @property
    def weight(self) -> float:
        return self.exec_time * self.size


@dataclass
class FavoredTable:
    """Cheapest retained input per feature; backs the selectable mask."""

    k_size: int
    entries: dict[int, tuple[str, float]] = field(default_factory=dict)

    def input_for(self, feature: int) -> str:
        return self.entries[feature][0]


def _check_length(k_size: int, coverage: np.ndarray) -> np.ndarray:
    cov = np.asarray(coverage)
    if cov.shape != (k_size,):
        raise DimensionMismatch(
            f"coverage map length {cov.shape} does not match k_size {k_size}"
        )
    return cov


def _check_coverage(k_size: int, coverage: np.ndarray) -> np.ndarray:
    cov = _check_length(k_size, coverage)
    if np.count_nonzero(cov < 0):
        raise ValueError("hit counts must be non-negative")
    return cov


def _check_ids(k_size: int, features: frozenset[int]) -> None:
    # Python's min and max, so a negative id is caught before numpy
    # indexing would wrap it around
    if features and (min(features) < 0 or max(features) >= k_size):
        raise DimensionMismatch(f"covered feature ids must lie in [0, {k_size})")


def classify_interesting(
    global_cov: GlobalCoverage,
    coverage: np.ndarray | frozenset[int],
    policy: str = "new-feature",
) -> bool:
    """Decide whether coverage (a dense map or an id set) exposes behavior
    not seen globally."""
    if isinstance(coverage, frozenset):
        _check_ids(global_cov.k_size, coverage)
        if policy == "new-feature":
            n = len(coverage)
            ids = np.fromiter(coverage, np.intp, n)
            return int(np.count_nonzero(global_cov.total_hits[ids])) < n
        if policy == "new-bucket":
            # every id is hit once, which falls in bucket 1
            seen = global_cov.seen_buckets
            return any(1 not in seen[k] for k in coverage)
        raise ValueError(f"unknown interestingness policy {policy!r}")
    cov = _check_coverage(global_cov.k_size, coverage)
    hit = np.flatnonzero(cov)
    if policy == "new-feature":
        return bool(np.any(global_cov.total_hits[hit] == 0))
    if policy == "new-bucket":
        return any(
            bucketize(int(cov[k])) not in global_cov.seen_buckets[k] for k in hit
        )
    raise ValueError(f"unknown interestingness policy {policy!r}")


def absorb(
    global_cov: GlobalCoverage, coverage: np.ndarray | frozenset[int]
) -> GlobalCoverage:
    """Fold one execution's hit counts (a dense map or an id set) into the
    global accumulator.  Coverage is checked before anything changes."""
    if isinstance(coverage, frozenset):
        _check_ids(global_cov.k_size, coverage)
        global_cov.total_hits[np.fromiter(coverage, np.intp, len(coverage))] += 1
        seen = global_cov.seen_buckets
        for k in coverage:
            seen[k].add(1)
        return global_cov
    cov = _check_length(global_cov.k_size, coverage)
    hit = cov.nonzero()[0]
    # a negative count is nonzero, so checking the gathered counts suffices
    counts = cov[hit].tolist()
    if counts and min(counts) < 0:
        raise ValueError("hit counts must be non-negative")
    global_cov.total_hits += cov if cov.dtype == np.int64 else cov.astype(np.int64)
    seen = global_cov.seen_buckets
    if counts and counts.count(counts[0]) == len(counts):
        # every count equal, as in the runners' one-hot maps: one bucket
        # for all hit features, and no per-feature bucketize call
        label = bucketize(int(counts[0]))
        for k in hit.tolist():
            seen[k].add(label)
    else:
        for k, c in zip(hit.tolist(), counts):
            seen[k].add(bucketize(int(c)))
    return global_cov


def update_favored(table: FavoredTable, record: InputRecord) -> FavoredTable:
    """Offer a retained input; it displaces incumbents only by strictly
    smaller weight (ties keep the incumbent)."""
    weight = record.weight
    for k in record.features:
        if not 0 <= k < table.k_size:
            raise DimensionMismatch(f"feature index {k} outside [0, {table.k_size})")
        held = table.entries.get(k)
        if held is None or weight < held[1]:
            table.entries[k] = (record.id, weight)
    return table


def selectable_features(table: FavoredTable) -> np.ndarray:
    """Boolean mask of features that currently have a favored input."""
    mask = np.zeros(table.k_size, dtype=bool)
    if table.entries:
        mask[list(table.entries)] = True
    return mask
