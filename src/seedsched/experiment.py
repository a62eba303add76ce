"""Experiment configuration, batch running, CSV output, and snapshots.

An experiment is a JSON config naming an environment (stationary arms or a
synthetic CFG target), a list of schedulers, and trial/step counts.  Trial
``i`` always runs with seed ``base_seed + i``, independently of worker
count, so results are reproducible byte for byte.  Campaigns can be
snapshotted at a chosen step and resumed later; the resumed continuation
replays the exact trajectory the uninterrupted run would have taken.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from .errors import ConfigError, SnapshotError
from .metrics import auc, bootstrap_ci, coverage_timeline, mann_whitney_u
from .schedulers import SCHEDULER_NAMES, _is_int, _is_number, make_scheduler
from .simulator import (
    BernoulliArmsEnv,
    BernoulliTrialRunner,
    CfgTarget,
    FuzzCampaignRunner,
    TrialLog,
    _check_fields,
    _read_json,
    load_target,
    parse_edges,
)

__all__ = [
    "ExperimentConfig",
    "load_config",
    "ExperimentResult",
    "TrialSummary",
    "run_experiment",
    "write_snapshot",
    "read_snapshot",
    "resume_experiment",
    "TRIAL_LOG_COLUMNS",
    "SUMMARY_COLUMNS",
    "SNAPSHOT_VERSION",
]

TRIAL_LOG_COLUMNS = (
    "step",
    "scheduler",
    "trial",
    "action",
    "interesting",
    "regret",
    "covered_features",
    "corpus_size",
    "select_ops",
    "update_ops",
)

SUMMARY_COLUMNS = (
    "scheduler",
    "trials",
    "final_cov_mean",
    "final_cov_ci_lo",
    "final_cov_ci_hi",
    "auc_mean",
    "auc_ci_lo",
    "auc_ci_hi",
    "mean_final_regret",
    "mwu_p_vs_baseline",
)

SNAPSHOT_VERSION = 6

# a task runs its trial this many steps at a time, and appends each
# chunk's rows to the trial CSV before it runs the next; no task holds
# more of a log than one chunk
CHUNK_STEPS = 4096

# the trial CSV writer joins and writes this many rows at a time: one
# write per row costs more, and one join per chunk holds the chunk's text
WRITE_BLOCK_ROWS = 256

# accepted for existing configs; with every feature hit once, both select
# the same inputs, so nothing below the config reads the key
INTERESTING_POLICIES = ("new-feature", "new-bucket")


def _is_scheduler_list(value: Any) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and all(name in SCHEDULER_NAMES for name in value)
        and len(set(value)) == len(value)
    )


# config key -> (value check, what the value must be); a snapshot's copy of
# the config holds these keys in this order
_CONFIG_FIELDS = {
    "environment": (lambda v: isinstance(v, dict), "an object"),
    "schedulers": (
        _is_scheduler_list,
        f"a non-empty list of scheduler names, none repeated, from {', '.join(SCHEDULER_NAMES)}",
    ),
    "trials": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "steps": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "base_seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "output_dir": (lambda v: isinstance(v, str) and bool(v), "a path string"),
    # the coverage timeline takes int64 steps modulo the interval
    "sampling_interval": (lambda v: _is_int(v) and 1 <= v < 2**63, "an integer in [1, 2**63)"),
    "interesting_policy": (lambda v: v in INTERESTING_POLICIES, f"one of {INTERESTING_POLICIES}"),
}

# the optional keys; the others are required
_CONFIG_DEFAULTS = {
    "base_seed": 0,
    "output_dir": "results",
    "sampling_interval": 100,
    "interesting_policy": "new-feature",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    arms: tuple[float, ...] | None
    target: CfgTarget | None
    schedulers: tuple[str, ...]
    trials: int
    steps: int
    base_seed: int
    output_dir: str
    sampling_interval: int
    interesting_policy: str

    @property
    def k_size(self) -> int:
        return len(self.arms) if self.arms is not None else self.target.k_size

    def env_payload(self) -> dict[str, Any]:
        """Self-contained environment description for snapshots."""
        if self.arms is not None:
            return {"arms": list(self.arms)}
        return {
            "edges": [
                {
                    "id": e.id,
                    "prereqs": sorted(e.prereqs),
                    "p": e.p,
                    "time_range": list(e.time_range),
                    "size_range": list(e.size_range),
                }
                for e in self.target.edges
            ]
        }


def _parse_environment(env: dict, base_dir: Path) -> tuple[tuple[float, ...] | None, CfgTarget | None]:
    keys = set(env)
    if keys == {"arms"}:
        arms = env["arms"]
        if not (isinstance(arms, list) and arms and all(map(_is_number, arms))):
            raise ConfigError("'environment.arms' must be a non-empty list of numbers")
        return BernoulliArmsEnv(arms).theta_star, None
    if keys == {"target"}:
        if not isinstance(env["target"], str):
            raise ConfigError("'environment.target' must be a path string")
        path = Path(env["target"])
        if not path.is_absolute():
            path = base_dir / path
        return None, load_target(path)
    if keys == {"edges"}:
        return None, parse_edges(env["edges"])
    raise ConfigError(
        "'environment' must contain exactly one of 'arms', 'target', or 'edges'"
    )


def parse_config(raw: Any, base_dir: Path | str = ".") -> ExperimentConfig:
    """Validate a raw config mapping; unknown keys are rejected."""
    required = [key for key in _CONFIG_FIELDS if key not in _CONFIG_DEFAULTS]
    _check_fields(raw, _CONFIG_FIELDS, required)
    fields = {**_CONFIG_DEFAULTS, **raw}
    arms, target = _parse_environment(fields.pop("environment"), Path(base_dir))
    fields["schedulers"] = tuple(fields["schedulers"])
    return ExperimentConfig(arms=arms, target=target, **fields)


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment config file."""
    return parse_config(_read_json(path, "config"), Path(path).parent)


# ----------------------------------------------------------------------
# running

def _build_runner(config: ExperimentConfig, scheduler_name: str, trial: int):
    seed = config.base_seed + trial
    scheduler = make_scheduler(scheduler_name, config.k_size, seed)
    if config.arms is not None:
        return BernoulliTrialRunner(
            BernoulliArmsEnv(config.arms), scheduler, config.steps, seed
        )
    return FuzzCampaignRunner(config.target, scheduler, config.steps, seed)


@dataclass(frozen=True)
class TrialSummary:
    """What the summary reads of one trial's rows: the last covered count,
    the mean regret over the final window of steps, and the coverage
    timeline (every step divisible by ``sampling_interval``, plus the
    first and last) with its area."""

    final_covered: int
    final_regret: float
    timeline: list[tuple[int, int]]
    auc: float


def _final_window(steps: int) -> int:
    return max(1, steps // 10)


class _SummaryFold:
    """Folds a trial's log chunks, in step order, into its summary."""

    def __init__(self, config: ExperimentConfig, runner) -> None:
        self.interval = config.sampling_interval
        self.ends = (runner.step + 1, runner.steps)
        self.window_from = config.steps - _final_window(config.steps) + 1
        self.covered = len(runner.scheduler.global_coverage.covered)
        self.regrets: list[np.ndarray] = []
        self.timeline: list[tuple[int, int]] = []

    def add(self, log: TrialLog) -> None:
        interval, ends = self.interval, self.ends
        # a chunk's timeline also holds the chunk's own first and last step
        self.timeline += [
            p for p in coverage_timeline(log, interval) if p[0] % interval == 0 or p[0] in ends
        ]
        if log.steps[-1] >= self.window_from:
            self.regrets.append(log.regret[log.steps >= self.window_from])
        self.covered = int(log.covered[-1])

    def summary(self) -> TrialSummary:
        # one mean over the whole window, as over a whole log's last rows
        regret = float(np.concatenate(self.regrets).mean()) if self.regrets else float("nan")
        timeline = self.timeline
        area = auc(timeline) if len(timeline) >= 2 else 0.0
        return TrialSummary(self.covered, regret, timeline, area)


def _run_task(args: tuple) -> tuple[str, int, TrialSummary, dict | None]:
    """Run one trial to its end in chunks, appending each chunk's rows to
    its CSV; returns the trial's summary and, with ``snapshot_at``, the
    runner's state at that step.  With no ``runner`` the trial starts from
    the config and writes its trial CSV; a loaded runner continues into
    the ``-resumed`` CSV."""
    config, name, trial, runner, snapshot_at = args
    path = Path(config.output_dir) / trial_csv_name(name, trial, runner is not None)
    if runner is None:
        runner = _build_runner(config, name, trial)
    stops = {*range(CHUNK_STEPS, runner.steps, CHUNK_STEPS), runner.steps}
    if snapshot_at is not None:
        stops.add(snapshot_at)
    fold = _SummaryFold(config, runner)
    state = None
    with open_trial_csv(path) as fh:
        for stop in sorted(s for s in stops if s > runner.step):
            runner.run_to(stop)
            if stop == snapshot_at:
                state = runner.state_dict()
            log = runner.take_log(trial)
            write_trial_csv(fh, log)
            fold.add(log)
    return name, trial, fold.summary(), state


def _map_tasks(tasks: list[tuple], jobs: int) -> list:
    """:func:`_run_task` over ``tasks`` in order, in up to ``jobs`` worker
    processes but no more than there are tasks; in this process when that
    is one.  (Under ``fork`` the pool starts all its workers at the first
    submit.)  The pool is imported here, so a run that starts no worker
    never loads ``multiprocessing``."""
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_task, tasks))
    return [_run_task(t) for t in tasks]


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    trials: dict[tuple[str, int], TrialSummary]
    summary: list[dict[str, Any]]
    output_dir: Path
    snapshot_path: Path | None


def _summarize(
    config: ExperimentConfig, trials: dict[tuple[str, int], TrialSummary]
) -> list[dict[str, Any]]:
    baseline = config.schedulers[0]
    rows = []
    finals_by_sched: dict[str, list[int]] = {}
    for name in config.schedulers:
        finals_by_sched[name] = [trials[(name, i)].final_covered for i in range(config.trials)]
    for name in config.schedulers:
        finals = finals_by_sched[name]
        aucs = [trials[(name, i)].auc for i in range(config.trials)]
        regrets = [trials[(name, i)].final_regret for i in range(config.trials)]
        cov_lo, cov_hi = bootstrap_ci(finals, seed=config.base_seed)
        auc_lo, auc_hi = bootstrap_ci(aucs, seed=config.base_seed)
        _, p = mann_whitney_u(finals, finals_by_sched[baseline])
        rows.append(
            {
                "scheduler": name,
                "trials": config.trials,
                "final_cov_mean": float(np.mean(finals)),
                "final_cov_ci_lo": cov_lo,
                "final_cov_ci_hi": cov_hi,
                "auc_mean": float(np.mean(aucs)),
                "auc_ci_lo": auc_lo,
                "auc_ci_hi": auc_hi,
                "mean_final_regret": float(np.mean(regrets)),
                "mwu_p_vs_baseline": p,
            }
        )
    return rows


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def open_trial_csv(path: Path) -> TextIO:
    """Open a trial CSV for writing, its header written."""
    fh = path.open("w", newline="", encoding="ascii")
    csv.writer(fh).writerow(TRIAL_LOG_COLUMNS)
    return fh


def write_trial_csv(fh: TextIO, log: TrialLog) -> None:
    """Append the rows of ``log`` to a trial CSV opened by :func:`open_trial_csv`."""
    def ints(column) -> list[int]:
        return np.asarray(column, dtype=np.int64).tolist()

    # each distinct regret is formatted once: an arms trial has one per
    # arm, a DAG trial only 0.0.  Keyed by the float's bits, so that -0.0
    # and 0.0 keep their own texts.  (np.unique's return_inverse takes an
    # argsort, whose first call grew peak RSS by about 0.5 MB; the sort
    # and the search are shared with the summary's statistics.)
    keys = np.asarray(log.regret, dtype=np.float64).view(np.uint64)
    bits = np.unique(keys)
    index = np.searchsorted(bits, keys)
    texts = list(map(repr, bits.view(np.float64).tolist()))
    # one conversion per column, not per cell
    rows = zip(
        ints(log.steps),
        ints(log.actions),
        ints(log.interesting),
        map(texts.__getitem__, index.tolist()),
        ints(log.covered),
        ints(log.corpus_size),
        ints(log.select_ops),
        ints(log.update_ops),
    )
    # one %-template per row; the scheduler and trial cells are the same on
    # every row, so the csv module quotes them once
    fixed = io.StringIO()
    csv.writer(fixed, lineterminator="").writerow((log.scheduler, log.trial))
    row = "%d," + fixed.getvalue().replace("%", "%%") + ",%d,%d,%s,%d,%d,%d,%d\r\n"
    lines = map(row.__mod__, rows)
    while block := "".join(islice(lines, WRITE_BLOCK_ROWS)):
        fh.write(block)


def write_summary_csv(path: Path, rows: list[dict[str, Any]]) -> None:
    with path.open("w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in SUMMARY_COLUMNS])


def trial_csv_name(scheduler: str, trial: int, resumed: bool = False) -> str:
    suffix = "-resumed" if resumed else ""
    return f"{scheduler}-trial{trial:04d}{suffix}.csv"


def run_experiment(
    config: ExperimentConfig,
    jobs: int = 1,
    snapshot_at: int | None = None,
) -> ExperimentResult:
    """Run all (scheduler, trial) pairs, write CSVs, optionally snapshot.
    Each task writes its own trial CSV as it runs."""
    if snapshot_at is not None and not 1 <= snapshot_at < config.steps:
        raise ConfigError("snapshot step must satisfy 1 <= snapshot_at < steps")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [
        (config, name, trial, None, snapshot_at)
        for name in config.schedulers
        for trial in range(config.trials)
    ]
    trials: dict[tuple[str, int], TrialSummary] = {}
    states = []
    for name, trial, summary, state in _map_tasks(tasks, jobs):
        trials[(name, trial)] = summary
        if state is not None:
            states.append({"scheduler": name, "trial": trial, "state": state})

    summary = _summarize(config, trials)
    write_summary_csv(out_dir / "summary.csv", summary)

    snapshot_path = None
    if snapshot_at is not None:
        snapshot_path = out_dir / f"snapshot-step{snapshot_at}.json"
        payload = {
            "config": {
                key: config.env_payload() if key == "environment" else getattr(config, key)
                for key in _CONFIG_FIELDS
            },
            "snapshot_step": snapshot_at,
            "runners": states,
        }
        write_snapshot(snapshot_path, payload)

    return ExperimentResult(config, trials, summary, out_dir, snapshot_path)


# ----------------------------------------------------------------------
# snapshots

def _canonical(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_snapshot(path: str | Path, payload: dict[str, Any]) -> None:
    body = {
        "version": SNAPSHOT_VERSION,
        "checksum": hashlib.sha256(_canonical(payload).encode("ascii")).hexdigest(),
        "payload": payload,
    }
    Path(path).write_text(json.dumps(body), encoding="ascii")


def read_snapshot(path: str | Path) -> dict[str, Any]:
    try:
        body = json.loads(Path(path).read_text(encoding="ascii"))
    # as for a config file, with ASCII in place of UTF-8
    except (OSError, ValueError, RecursionError) as exc:
        raise SnapshotError(f"cannot load snapshot: {exc}") from exc
    if not isinstance(body, dict) or set(body) != {"version", "checksum", "payload"}:
        raise SnapshotError("snapshot file has an unexpected layout")
    if body["version"] != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {body['version']!r} is not supported (expected {SNAPSHOT_VERSION})"
        )
    digest = hashlib.sha256(_canonical(body["payload"]).encode("ascii")).hexdigest()
    if digest != body["checksum"]:
        raise SnapshotError("snapshot checksum mismatch; the file is corrupt")
    return body["payload"]


def resume_experiment(snapshot_path: str | Path, jobs: int = 1) -> ExperimentResult:
    """Resume a snapshotted campaign; writes suffix logs for each trial.
    Every runner is loaded before any trial resumes, so a snapshot
    rejected at any entry writes no log."""
    payload = read_snapshot(snapshot_path)
    try:
        raw_config, entries = payload["config"], list(payload["runners"])
    except (KeyError, TypeError) as exc:
        raise SnapshotError(
            f"snapshot payload is malformed ({type(exc).__name__}: {exc})"
        ) from exc
    try:
        config = parse_config(raw_config, Path(snapshot_path).parent)
    except ConfigError as exc:
        raise SnapshotError(f"snapshot holds an invalid config: {exc}") from exc
    # one pass, entry by entry, so the first faulty entry is the one reported
    runners = {}
    for entry in entries:
        try:
            name, trial = entry["scheduler"], entry["trial"]
        except (KeyError, TypeError) as exc:
            raise SnapshotError(
                f"snapshot holds a malformed runner entry ({type(exc).__name__}: {exc})"
            ) from exc
        if not isinstance(name, str) or name not in config.schedulers:
            raise SnapshotError(
                f"snapshot runner scheduler {name!r} is not one of the config's "
                f"schedulers {list(config.schedulers)}"
            )
        if not (_is_int(trial) and 0 <= trial < config.trials):
            raise SnapshotError(
                f"snapshot runner trial {trial!r} must be an integer in [0, {config.trials})"
            )
        if (name, trial) in runners:
            raise SnapshotError(f"snapshot holds runner ({name}, trial {trial}) twice")
        try:
            runner = _build_runner(config, name, trial)
            runner.load_state(entry["state"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"snapshot holds a malformed runner state ({type(exc).__name__}: {exc})"
            ) from exc
        runners[(name, trial)] = runner

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(config, name, trial, runner, None) for (name, trial), runner in runners.items()]
    trials = {(name, trial): summary for name, trial, summary, _ in _map_tasks(tasks, jobs)}
    return ExperimentResult(config, trials, [], out_dir, None)
