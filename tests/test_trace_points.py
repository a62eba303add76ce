"""Every layer a trial uses is still reached where the benchmark wraps it.

``perfbench/spans.py`` times the program by replacing these attributes,
on these owners, with wrappers.  A loop that bound a function before the
wrapper was put in place, or stopped calling it, would drop that layer
from the split without failing anything else.  Here each attribute is
swapped for a counting wrapper, the same way, and a trial must reach it
as often as its steps and inputs say.
"""

import functools
import importlib.util
import json
from pathlib import Path

import pytest

import seedsched
from seedsched import bandit, cli, experiment, rng, schedulers, simulator
from seedsched.simulator import BernoulliArmsEnv, CfgTarget, Edge

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# (owner, attribute): the points perfbench/spans.py::trace_points wraps
# below the experiment layer
POINTS = [
    (simulator.BernoulliTrialRunner, "run_to"),
    (simulator.FuzzCampaignRunner, "run_to"),
    (simulator, "classify_interesting"),
    (schedulers.Scheduler, "next"),
    (schedulers.Scheduler, "observe"),
    (schedulers, "absorb"),
    (schedulers, "update_favored"),
    (bandit, "select_action"),
    (bandit, "update_posterior"),
    (rng.SeededRng, "beta"),
]


def test_points_are_the_benchmarks():
    # loaded from its file, so that the benchmark's directory is not put on
    # the import path
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = [
        (owner, attr)
        for owner, attr, *_ in spans.trace_points(seedsched)
        if owner not in (cli, experiment)
    ]
    assert wrapped == POINTS


@pytest.fixture
def calls(monkeypatch):
    counts = {}

    def counting(key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    for owner, attr in POINTS:
        key = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        counts[key] = 0
        monkeypatch.setattr(owner, attr, counting(key, getattr(owner, attr)))
    return counts


def test_arms_trial_reaches_every_layer(calls):
    steps = 50
    sched = schedulers.make_scheduler("sample", 3, 4)
    runner = simulator.BernoulliTrialRunner(BernoulliArmsEnv((0.7, 0.8, 0.9)), sched, steps, 4)
    runner.run_to()
    # the three bootstrap inputs cover every arm, so nothing is absorbed
    # or classified after them
    assert calls == {
        "BernoulliTrialRunner.run_to": 1,
        "FuzzCampaignRunner.run_to": 0,
        "simulator.classify_interesting": 0,
        "Scheduler.next": steps,
        "Scheduler.observe": steps + 3,
        "schedulers.absorb": 3,
        "schedulers.update_favored": 3,
        "bandit.select_action": steps,
        "bandit.update_posterior": steps + 3,
        "SeededRng.beta": steps,
    }


def test_dag_trial_reaches_every_layer(calls):
    steps = 60
    target = CfgTarget(
        (
            Edge(0, frozenset(), 0.5),
            Edge(1, frozenset(), 0.5),
            Edge(2, frozenset({0}), 0.3),
            Edge(3, frozenset({2}), 0.3),
            Edge(4, frozenset({1, 3}), 0.3),
        )
    )
    sched = schedulers.make_scheduler("rare-plus", 5, 2)
    runner = simulator.FuzzCampaignRunner(target, sched, steps, 2)
    runner.run_to()
    inputs = len(sched.corpus)
    assert inputs > 2  # edges were unlocked past the two seeds
    # every retained input covered a new edge, so each was absorbed and
    # offered to the table once; no other observation absorbs anything
    assert calls == {
        "BernoulliTrialRunner.run_to": 0,
        "FuzzCampaignRunner.run_to": 1,
        # the two seed inputs; a step's interestingness is whether it unlocks
        "simulator.classify_interesting": 2,
        "Scheduler.next": steps,
        "Scheduler.observe": steps + 2,
        "schedulers.absorb": inputs,
        "schedulers.update_favored": inputs,
        "bandit.select_action": steps,
        "bandit.update_posterior": steps + 2,
        "SeededRng.beta": steps,
    }


def test_each_chunk_stop_takes_and_writes_one_log(tmp_path, monkeypatch):
    # perfbench times the CSV layer as experiment.write_trial_csv, looked up
    # in the module's globals; a streamed trial takes its log and writes it
    # at every CHUNK_STEPS step, at the snapshot step and at its end
    chunk = experiment.CHUNK_STEPS
    steps, snapshot_at = 2 * chunk + 5, chunk + 7
    taken, written = [], []
    take_log = simulator.BernoulliTrialRunner.take_log
    write_trial_csv = experiment.write_trial_csv

    def counted_take_log(self, *args, **kwargs):
        log = take_log(self, *args, **kwargs)
        taken.append(int(log.steps[-1]))
        return log

    def counted_write(fh, log):
        written.append(int(log.steps[-1]))
        write_trial_csv(fh, log)

    monkeypatch.setattr(simulator.BernoulliTrialRunner, "take_log", counted_take_log)
    monkeypatch.setattr(experiment, "write_trial_csv", counted_write)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "environment": {"arms": [0.7, 0.8, 0.9]},
                "schedulers": ["sample"],
                "trials": 1,
                "steps": steps,
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    argv = ["simulate", "--config", str(config), "--snapshot-at", str(snapshot_at)]
    assert cli.main(argv) == 0
    stops = [chunk, snapshot_at, 2 * chunk, steps]
    assert taken == written == stops
    snapshot = tmp_path / "out" / f"snapshot-step{snapshot_at}.json"
    taken.clear()
    written.clear()
    assert cli.main(["resume", "--snapshot", str(snapshot)]) == 0
    assert taken == written == stops[2:]
