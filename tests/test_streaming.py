"""Trial logs streamed to disk in chunks.

A task runs its trial ``CHUNK_STEPS`` steps at a time and appends each
chunk's rows to the trial CSV, so the bytes it writes and the summary it
returns must equal those of the whole log: the log a single ``run_to()``
gives, written at once, and its timeline, final-window regret and area.
"""

import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from seedsched import (
    BernoulliArmsEnv,
    FuzzCampaignRunner,
    TrialSummary,
    auc,
    coverage_timeline,
    make_scheduler,
    parse_config,
    resume_experiment,
    run_bandit_trial,
    run_experiment,
    run_fuzz_campaign,
)
from seedsched.cli import main
from seedsched.experiment import (
    CHUNK_STEPS,
    _run_task,
    open_trial_csv,
    read_snapshot,
    trial_csv_name,
    write_snapshot,
    write_trial_csv,
)

ARMS = [0.7, 0.8, 0.9]


def _dag(n_edges: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [
        {
            "id": i,
            "prereqs": [] if i < 3 else [int(rng.integers(0, i))],
            "p": round(float(rng.uniform(0.005, 0.05)), 4),
        }
        for i in range(n_edges)
    ]


ENVIRONMENTS = {"arms": {"arms": ARMS}, "dag": {"edges": _dag(60, 5)}}
SCHEDULER = {"arms": "sample", "dag": "rare-plus"}


def _config(tmp_path, env: str, steps: int, interval: int):
    return parse_config(
        {
            "environment": ENVIRONMENTS[env],
            "schedulers": [SCHEDULER[env]],
            "trials": 2,
            "steps": steps,
            "base_seed": 90,
            "output_dir": str(tmp_path / "out"),
            "sampling_interval": interval,
        }
    )


def _whole_log(config, name: str, trial: int):
    seed = config.base_seed + trial
    scheduler = make_scheduler(name, config.k_size, seed)
    if config.arms is not None:
        return run_bandit_trial(BernoulliArmsEnv(config.arms), scheduler, config.steps, seed, trial)
    return run_fuzz_campaign(config.target, scheduler, config.steps, seed, trial)


def _reference(config, log, path) -> TrialSummary:
    """Write ``log`` whole to ``path`` and summarize it as one piece."""
    with open_trial_csv(path) as fh:
        write_trial_csv(fh, log)
    window = max(1, config.steps // 10)
    timeline = coverage_timeline(log, config.sampling_interval)
    return TrialSummary(
        final_covered=int(log.covered[-1]),
        final_regret=float(log.regret[-window:].mean()),
        timeline=timeline,
        auc=auc(timeline) if len(timeline) >= 2 else 0.0,
    )


def _assert_streamed_like_whole(tmp_path, config, result) -> None:
    ref_dir = tmp_path / "whole"
    ref_dir.mkdir(exist_ok=True)
    for name in config.schedulers:
        for trial in range(config.trials):
            csv_name = trial_csv_name(name, trial)
            expected = _reference(config, _whole_log(config, name, trial), ref_dir / csv_name)
            assert result.trials[(name, trial)] == expected
            assert (result.output_dir / csv_name).read_bytes() == (ref_dir / csv_name).read_bytes()


@pytest.mark.parametrize("env", ["arms", "dag"])
@pytest.mark.parametrize(
    "steps",
    [1, CHUNK_STEPS - 1, CHUNK_STEPS, CHUNK_STEPS + 1, 2 * CHUNK_STEPS + 37],
    ids=["1", "chunk-1", "chunk", "chunk+1", "2chunk+37"],
)
def test_streamed_trials_equal_the_whole_log(tmp_path, env, steps):
    config = _config(tmp_path, env, steps, interval=7)
    _assert_streamed_like_whole(tmp_path, config, run_experiment(config))


@pytest.mark.parametrize("interval", [1, 2 * CHUNK_STEPS + 38], ids=["1", "beyond-steps"])
def test_sampling_interval_at_its_ends(tmp_path, interval):
    config = _config(tmp_path, "arms", 2 * CHUNK_STEPS + 37, interval)
    result = run_experiment(config)
    _assert_streamed_like_whole(tmp_path, config, result)
    if interval > config.steps:
        assert result.trials[("sample", 0)].timeline[0][0] == 1
        assert [t for t, _ in result.trials[("sample", 0)].timeline] == [1, config.steps]


@pytest.mark.parametrize("env", ["arms", "dag"])
def test_snapshot_between_chunk_stops(tmp_path, env):
    snapshot_at = CHUNK_STEPS + 5
    config = _config(tmp_path, env, 2 * CHUNK_STEPS + 37, interval=7)
    result = run_experiment(config, snapshot_at=snapshot_at)
    _assert_streamed_like_whole(tmp_path, config, result)

    resumed = resume_experiment(result.snapshot_path)
    window = max(1, config.steps // 10)
    for name in config.schedulers:
        for trial in range(config.trials):
            full = (result.output_dir / trial_csv_name(name, trial)).read_text().splitlines()
            suffix_path = result.output_dir / trial_csv_name(name, trial, resumed=True)
            suffix = suffix_path.read_text().splitlines()
            assert suffix[0] == full[0] and suffix[1:] == full[snapshot_at + 1 :]
            # the resumed summary folds the suffix rows alone
            log = _whole_log(config, name, trial)
            tail = slice(snapshot_at, None)
            timeline = [
                (s, c)
                for s, c in zip(log.steps[tail].tolist(), log.covered[tail].tolist())
                if s % 7 == 0 or s in (snapshot_at + 1, config.steps)
            ]
            assert resumed.trials[(name, trial)] == TrialSummary(
                int(log.covered[-1]), float(log.regret[-window:].mean()), timeline, auc(timeline)
            )


def test_a_runner_resumed_at_its_last_step_writes_a_header_only(tmp_path):
    config = _config(tmp_path, "dag", 30, interval=7)
    result = run_experiment(config, snapshot_at=29)
    payload = read_snapshot(result.snapshot_path)
    scheduler = make_scheduler("rare-plus", config.k_size, config.base_seed)
    runner = FuzzCampaignRunner(config.target, scheduler, config.steps, config.base_seed)
    runner.load_state(payload["runners"][0]["state"])
    runner.run_to()
    payload["runners"][0]["state"] = runner.state_dict()
    write_snapshot(result.snapshot_path, payload)
    resumed = resume_experiment(result.snapshot_path)
    header = (result.output_dir / trial_csv_name("rare-plus", 0)).read_text().splitlines()[0]
    suffix = result.output_dir / trial_csv_name("rare-plus", 0, resumed=True)
    assert suffix.read_text().splitlines() == [header]
    summary = resumed.trials[("rare-plus", 0)]
    assert summary.final_covered == len(scheduler.global_coverage.covered)
    assert summary.timeline == [] and summary.auc == 0.0 and np.isnan(summary.final_regret)


def test_memory_does_not_grow_with_the_steps_of_a_trial(tmp_path, capsys):
    # the whole log of 5 * 10**4 steps once took 14 MB; a chunk takes a
    # fraction of one
    def simulate(steps: int, out: str) -> None:
        cfg = tmp_path / f"{out}.json"
        cfg.write_text(
            json.dumps(
                {
                    "environment": {"arms": ARMS},
                    "schedulers": ["uniform"],
                    "trials": 1,
                    "steps": steps,
                    "output_dir": str(tmp_path / out),
                }
            )
        )
        assert main(["simulate", "--config", str(cfg)]) == 0

    simulate(50, "warm-up")  # first-use imports and caches are not the trial's
    tracemalloc.start()
    try:
        simulate(5 * 10**4, "out")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.2f} MB"


def test_a_task_finds_its_chunk_stops_as_it_runs(tmp_path):
    # the stops of a trial were once all listed and sorted before its first
    # step: 8.8 MB for these steps
    class FirstStep(Exception):
        pass

    class Runner:
        steps = CHUNK_STEPS * 10**5
        step = 0
        scheduler = SimpleNamespace(global_coverage=SimpleNamespace(covered=set()))

        def run_to(self, until):
            raise FirstStep

    config = _config(tmp_path, "arms", 50, interval=7)
    (tmp_path / "out").mkdir()
    tracemalloc.start()
    try:
        with pytest.raises(FirstStep):
            _run_task((config, "sample", 0, Runner(), None))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MB"
