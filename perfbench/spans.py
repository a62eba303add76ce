"""In-memory span tracer that wraps the program's public functions.

Each wrapped call records one span: its name, its parent span, the trial
it belongs to, and its start and end in nanoseconds.  Functions are
wrapped where the caller looks them up (``seedsched.schedulers.absorb``,
not ``seedsched.coverage.absorb``), so the program itself is unchanged and
every original is put back by :meth:`Tracer.restore`.

A span's self time is its duration minus the durations of its direct
children.  Because a child runs inside its parent, the self times of all
spans sum to the duration of the root spans, which is how the per-layer
split adds up to the traced wall time.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np


def span_trial(obj: Any) -> str:
    """Trial key of a scheduler or runner: scheduler name and trial seed."""
    sched = getattr(obj, "scheduler", obj)
    return f"{sched.name}:{sched.seed}"


def _beta_shapes(args: tuple, result: Any) -> int:
    return int(np.size(args[1]))


def _interesting(args: tuple, result: Any) -> int:
    return int(bool(result))


def trace_points(seedsched) -> list[tuple[Any, str, str, Callable | None, Callable | None]]:
    """(owner, attribute, span name, trial key, tally) for every traced call.

    A tally maps (args, result) to a count summed per span name.
    """
    cli = seedsched.cli
    experiment = seedsched.experiment
    schedulers = seedsched.schedulers
    simulator = seedsched.simulator
    return [
        (cli, "main", "cli.main", None, None),
        (cli, "load_config", "experiment.load_config", None, None),
        (cli, "run_experiment", "experiment.run_experiment", None, None),
        (cli, "resume_experiment", "experiment.resume", None, None),
        (experiment, "write_trial_csv", "experiment.write_trial_csv", None, None),
        (experiment, "write_snapshot", "experiment.write_snapshot", None, None),
        (experiment, "read_snapshot", "experiment.read_snapshot", None, None),
        (experiment, "bootstrap_ci", "metrics.bootstrap_ci", None, None),
        (experiment, "mann_whitney_u", "metrics.mann_whitney_u", None, None),
        (experiment, "auc", "metrics.auc", None, None),
        (experiment, "coverage_timeline", "metrics.coverage_timeline", None, None),
        (simulator.BernoulliTrialRunner, "run_to", "simulator.run_to", span_trial, None),
        (simulator.FuzzCampaignRunner, "run_to", "simulator.run_to", span_trial, None),
        (simulator, "classify_interesting", "coverage.classify_interesting", None, _interesting),
        (schedulers.Scheduler, "next", "schedulers.next", span_trial, None),
        (schedulers.Scheduler, "observe", "schedulers.observe", span_trial, None),
        (schedulers, "absorb", "coverage.absorb", None, None),
        (schedulers, "update_favored", "coverage.update_favored", None, None),
        (seedsched.bandit, "select_action", "bandit.select_action", None, None),
        (seedsched.bandit, "update_posterior", "bandit.update_posterior", None, None),
        (seedsched.rng.SeededRng, "beta", "rng.beta", None, _beta_shapes),
    ]


class Tracer:
    """Records spans of wrapped calls in flat arrays.

    ``on_enter``, if given, runs before each span starts, outside its timing.
    """

    def __init__(self, on_enter: Callable[[], None] | None = None) -> None:
        self.on_enter = on_enter
        self.names: list[str] = []
        self.trials: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tallies: dict[str, int] = {}
        self._name_ids: dict[str, int] = {}
        self._trial_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, bool, Any]] = []

    def __len__(self) -> int:
        return len(self.name)

    def _intern(self, table: list[str], ids: dict[str, int], key: str) -> int:
        if key not in ids:
            ids[key] = len(table)
            table.append(key)
        return ids[key]

    def wrap(self, fn: Callable, span: str, trial_of=None, tally=None) -> Callable:
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._intern(self.names, self._name_ids, span)
        if tally is not None:
            self.tallies.setdefault(span, 0)
        stack, names, parents, trials = self._stack, self.name, self.parent, self.trial
        starts, ends, tallies, clock = self.start, self.end, self.tallies, time.perf_counter_ns
        on_enter = self.on_enter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            idx = len(names)
            parent = stack[-1] if stack else -1
            if trial_of is not None:
                trial = self._intern(self.trials, self._trial_ids, trial_of(args[0]))
            else:
                trial = trials[parent] if parent >= 0 else -1
            names.append(nid)
            parents.append(parent)
            trials.append(trial)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tally is not None:
                tallies[span] += tally(args, result)
            return result

        return traced

    def install(self, points) -> None:
        """Replace each traced attribute with its wrapped version."""
        for owner, attr, span, trial_of, tally in points:
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._patches.append((owner, attr, own, original))
            setattr(owner, attr, self.wrap(original, span, trial_of, tally))

    def restore(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trial": np.frombuffer(self.trial, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write(self, path: Path) -> None:
        """Write every span, with the name and trial tables, as one .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            trials=np.array(self.trials),
            **self.arrays(),
        )


def attributes(points) -> list[tuple[Any, str, Any]]:
    """(owner, attribute, value in the owner's own namespace or None) per point.

    Taken before :meth:`Tracer.install` and again after :meth:`Tracer.restore`;
    equal lists mean every original is back in place.
    """
    return [(owner, attr, vars(owner).get(attr)) for owner, attr, *_ in points]


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed duration of its direct children."""
    has_parent = parent >= 0
    child = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - child


def span_stats(tracer: Tracer) -> dict[str, dict[str, Any]]:
    """Per span name: call count, busy and self seconds, and durations (s)."""
    a = tracer.arrays()
    duration = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
    own = self_times(a["parent"], duration)
    stats = {}
    for nid, name in enumerate(tracer.names):
        sel = a["name"] == nid
        stats[name] = {
            "calls": int(sel.sum()),
            "busy_s": float(duration[sel].sum()),
            "self_s": float(own[sel].sum()),
            "durations": duration[sel],
        }
    return stats
