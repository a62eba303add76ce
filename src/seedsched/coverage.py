"""Coverage, interestingness, and the favored-input table.

An execution's coverage is a ``frozenset`` of the int ids of the features
it covered, over a fixed feature space [0, K); each id counts as hit once.
An id outside [0, K) raises :class:`DimensionMismatch`, and coverage of any
other type, or an id that is not an int, raises ``TypeError``, so a
length-K hit-count vector is never read as a set of ids.  Only the ids not
covered before are checked: the covered set holds checked ids alone.

Global coverage is the set of ids covered so far.  An input is interesting
iff it covers an id outside that set.  With every feature hit once, a hit
count can only fall in a feature's first bucket, so a new bucket is a new
feature and no other interestingness rule is needed.

The favored table keeps, per feature, the cheapest retained input covering
it (weight = exec_time * size, strict improvement required to displace the
incumbent).  A table starts empty and grows only through
:func:`update_favored`, which checks a record's ids before any entry
changes.  Features with a favored entry form the selectable set the
schedulers draw from.  The table keeps it as a sorted, read-only ``np.intp``
array of ids, replaced by a new one on each gain, so an array taken earlier
keeps its ids; :func:`selectable_features` returns it without a sort or copy.
Collectively the favored inputs are a weighted set cover of everything the
corpus covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "GlobalCoverage",
    "InputRecord",
    "FavoredTable",
    "classify_interesting",
    "absorb",
    "update_favored",
    "selectable_features",
]

@dataclass
class GlobalCoverage:
    """The ids covered so far over a feature space of ``k_size`` features.

    ``covered`` holds checked ids alone, so only ids outside it are checked
    when coverage is classified or absorbed.
    """

    k_size: int
    covered: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.k_size <= 0:
            raise ValueError("k_size must be a positive integer")
        _check_ids(self.k_size, frozenset(self.covered))

    @classmethod
    def empty(cls, k_size: int) -> "GlobalCoverage":
        return cls(k_size)


def _feature_id(value: object) -> int:
    # numpy integers become ints; a float or a bool is not an id
    if isinstance(value, np.integer) or type(value) is int:
        return int(value)
    raise TypeError(f"feature ids must be integers, not {type(value).__name__}")


@dataclass
class InputRecord:
    """A retained input: identity, cost attributes, and covered features."""

    id: str
    size: int
    exec_time: float
    features: frozenset[int]

    def __post_init__(self) -> None:
        # A frozenset of ints is kept as given: rebuilding it element by
        # element grows its table in steps and leaves it up to twice the size
        # of the copy a union or frozenset(set) makes, and a DAG child's set
        # holds every feature of its ancestors.
        features = frozenset(self.features)
        if not set(map(type, features)) <= {int}:
            features = frozenset(map(_feature_id, features))
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
    """Cheapest retained input per feature; its keys are the selectable ids,
    which the table also keeps sorted for :func:`selectable_features`."""

    k_size: int
    entries: dict[int, tuple[str, float]] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        self._ids = np.empty(0, dtype=np.intp)
        self._ids.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        # a pickled or copied array arrives writeable (resume hands loaded
        # runners to worker processes)
        vars(self).update(state)
        self._ids.flags.writeable = False

    def input_for(self, feature: int) -> str:
        return self.entries[feature][0]


def _check_ids(k_size: int, ids: frozenset[int]) -> None:
    """Raise unless ``ids`` is a frozenset of ints in [0, k_size)."""
    if not isinstance(ids, frozenset):
        raise TypeError(
            f"coverage must be a frozenset of covered feature ids, not {type(ids).__name__}"
        )
    # one pass; faster than a type set plus min and max, even at 150 ids
    for k in ids:
        if type(k) is not int:
            raise TypeError(f"covered feature ids must be ints, not {type(k).__name__}")
        if not 0 <= k < k_size:
            raise DimensionMismatch(f"covered feature ids must lie in [0, {k_size})")


def _new_ids(global_cov: GlobalCoverage, coverage: frozenset[int]) -> frozenset[int]:
    """The ids of ``coverage`` not covered before, checked."""
    # coverage of another type goes to the check as it is, to be rejected
    new = coverage - global_cov.covered if isinstance(coverage, frozenset) else coverage
    _check_ids(global_cov.k_size, new)
    return new


def classify_interesting(global_cov: GlobalCoverage, coverage: frozenset[int]) -> bool:
    """Whether coverage holds an id not covered before."""
    return bool(_new_ids(global_cov, coverage))


def absorb(global_cov: GlobalCoverage, coverage: frozenset[int]) -> GlobalCoverage:
    """Fold one execution's coverage into the global set.  Coverage is
    checked before anything changes."""
    global_cov.covered |= _new_ids(global_cov, coverage)
    return global_cov


def update_favored(table: FavoredTable, record: InputRecord) -> FavoredTable:
    """Offer a retained input; it displaces incumbents only by strictly
    smaller weight (ties keep the incumbent), and the features it adds join
    the table's sorted ids.  The features are checked before any entry
    changes."""
    _check_ids(table.k_size, record.features)
    entries = table.entries
    held = len(entries)
    weight = record.weight
    for k in record.features:
        incumbent = entries.get(k)
        if incumbent is None or weight < incumbent[1]:
            entries[k] = (record.id, weight)
    # entries are replaced but never removed, and a dict keeps insertion
    # order, so the ids the table gained are its last keys
    gained = len(entries) - held
    if gained:
        new = np.fromiter(islice(reversed(entries), gained), np.intp, gained)
        ids = np.concatenate((table._ids, new))
        # a stable sort merges the few gained ids into the sorted ones in
        # about linear time
        ids.sort(kind="stable")
        ids.flags.writeable = False
        table._ids = ids
    return table


def selectable_features(table: FavoredTable) -> np.ndarray:
    """Sorted, read-only ``np.intp`` array of the features that have a
    favored input: the table's own, so no call sorts or copies."""
    return table._ids
