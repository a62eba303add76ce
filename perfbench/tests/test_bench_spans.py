import numpy as np
import pytest

import run
from spans import Tracer, attributes, self_times, span_stats, trace_points
from workloads import WORKLOADS


def test_self_times_on_a_synthetic_tree():
    # 0 (10) -> 1 (4) -> 3 (1)
    #        -> 2 (3)
    # 4 (2) is a second root
    parent = np.array([-1, 0, 0, 1, -1])
    duration = np.array([10.0, 4.0, 3.0, 1.0, 2.0])
    own = self_times(parent, duration)
    assert own.tolist() == [3.0, 3.0, 3.0, 1.0, 2.0]
    assert own.sum() == duration[parent < 0].sum()


def test_wrapped_calls_record_parent_trial_and_tally():
    tracer = Tracer()

    class Sched:
        name, seed = "sample", 4

    def leaf(x):
        return x + 1

    leaf_t = tracer.wrap(leaf, "leaf", tally=lambda args, result: result)

    def outer(sched, x):
        return leaf_t(x) + leaf_t(x)

    outer_t = tracer.wrap(outer, "outer", trial_of=lambda s: f"{s.name}:{s.seed}")
    assert outer_t(Sched(), 1) == 4
    a = tracer.arrays()
    assert a["parent"].tolist() == [-1, 0, 0]
    assert [tracer.trials[t] for t in a["trial"]] == ["sample:4"] * 3
    assert tracer.tallies == {"leaf": 4}
    stats = span_stats(tracer)
    assert stats["outer"]["calls"] == 1 and stats["leaf"]["calls"] == 2
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["busy_s"] - stats["leaf"]["busy_s"]
    )


def test_traced_round_restores_every_original(tmp_path, seedsched):
    points = trace_points(seedsched)
    before = attributes(points)
    runner_cls = seedsched.simulator.FuzzCampaignRunner
    assert "run_to" not in vars(runner_cls)
    bench = run.Bench(seedsched, WORKLOADS["chain20-resume"].scaled(1, 20), 2, tmp_path)
    tracer = Tracer()
    calls, codes = bench.round(tracer, full=True)
    wall = sum(end - start for start, end in calls) * 1e-9
    assert codes == [0, 0] and wall > 0
    assert attributes(points) == before
    assert "run_to" not in vars(runner_cls)
    assert seedsched.schedulers.absorb is seedsched.coverage.absorb
    assert seedsched.cli.main.__module__ == "seedsched.cli"
    stats = span_stats(tracer)
    traced = {name for name, s in stats.items() if s["calls"]}
    assert traced == {p[2] for p in points}
    total_self = sum(s["self_s"] for s in stats.values())
    assert total_self == pytest.approx(stats["cli.main"]["busy_s"])
    assert total_self <= wall
