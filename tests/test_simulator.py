"""Environments, trial runners, and the worked four-branch demo."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedsched import (
    BernoulliArmsEnv,
    BernoulliTrialRunner,
    CfgTarget,
    ConfigError,
    Edge,
    FuzzCampaignRunner,
    SCHEDULER_NAMES,
    TrialLog,
    load_target,
    make_scheduler,
    replay_branch_demo,
    run_bandit_trial,
    run_fuzz_campaign,
)
from seedsched.coverage import InputRecord, classify_interesting
from seedsched.simulator import (
    _UNIFORM_BLOCK,
    BRANCH_DEMO_INPUTS,
    BRANCH_DEMO_NODES,
    BRANCH_DEMO_REFERENCE,
    branch_demo_coverage,
)


_LOG_COLUMNS = (
    "steps", "actions", "interesting", "regret", "covered",
    "corpus_size", "select_ops", "update_ops",
)


class FullScanRunner(FuzzCampaignRunner):
    """Reference fuzz runner: every step scans all K edges, drawing one
    uniform per undiscovered edge whose prerequisites the parent covers, in
    id order, and observes the input's features as its coverage.  It keeps
    its own set of discovered edges and count of synthesized inputs, and
    logs those, where the runner under test reads both from its scheduler.
    ``scans`` counts the steps its own loop took."""

    def __init__(self, *args, **kwargs):
        self.discovered = set()
        self.synth_count = 0
        self.scans = 0
        super().__init__(*args, **kwargs)

    def _synth(self, features, source, id_prefix):
        exec_time = float(self.env_rng.uniform(*source.time_range))
        size = int(self.env_rng.integers(source.size_range[0], source.size_range[1] + 1))
        rec = InputRecord(f"{id_prefix}{self.synth_count}", size, exec_time, features)
        self.synth_count += 1
        self.discovered |= features
        return rec

    def _run(self, stop):
        sched = self.scheduler
        while self.step < stop:
            self.step += 1
            self.scans += 1
            parent = sched.corpus[sched.next()]
            unlocked = [
                e
                for e in self.target.edges
                if e.id not in self.discovered
                and e.prereqs <= parent.features
                and self.env_rng.random() < e.p
            ]
            if unlocked:
                features = parent.features | {e.id for e in unlocked}
                rec = self._synth(features, unlocked[0], "input")
            else:
                rec = parent
            interesting = classify_interesting(sched.global_coverage, rec.features)
            sched.observe(rec, interesting)
            self.rows.append(
                (
                    self.step,
                    sched.last_action,
                    interesting,
                    0.0,
                    len(self.discovered),
                    self.synth_count,
                    sched.last_select_ops,
                    sched.last_update_ops,
                )
            )


def _branch_demo_target():
    """The four-node branch demo as a target: a 3-edge chain plus an
    always-reachable exit edge, each discovered on the first try."""
    prereqs = (frozenset(), frozenset({0}), frozenset({1}), frozenset())
    return CfgTarget(tuple(Edge(i, pre, 1.0) for i, pre in enumerate(prereqs)))


@st.composite
def dags(draw):
    """Random targets: a few roots, the rest with one to three earlier
    edges as prerequisites, discovery probabilities in (0, 1]."""
    n = draw(st.integers(1, 24))
    p = st.floats(0.0, 1.0, exclude_min=True)
    edges = []
    for i in range(n):
        prereqs: list[int] = []
        if i and draw(st.integers(0, 4)):
            k = draw(st.integers(1, min(3, i)))
            prereqs = draw(st.lists(st.integers(0, i - 1), min_size=k, max_size=k, unique=True))
        edges.append(Edge(i, frozenset(prereqs), draw(p)))
    return CfgTarget(tuple(edges))


class TestEnvValidation:
    def test_arms_probability_range(self):
        with pytest.raises(ConfigError):
            BernoulliArmsEnv((0.5, 1.2))
        with pytest.raises(ConfigError):
            BernoulliArmsEnv(())

    def test_arms_reject_zero_probability(self):
        with pytest.raises(ConfigError, match=r"\(0, 1\]"):
            BernoulliArmsEnv((0.0, 0.5))

    def test_edge_probability_range(self):
        with pytest.raises(ConfigError):
            Edge(0, frozenset(), 0.0)
        with pytest.raises(ConfigError):
            Edge(0, frozenset(), 1.5)

    def test_edge_ranges(self):
        with pytest.raises(ConfigError):
            Edge(0, frozenset(), 0.5, time_range=(5.0, 1.0))
        with pytest.raises(ConfigError):
            Edge(0, frozenset(), 0.5, size_range=(-1, 10))

    def test_edge_size_range_fits_the_int64_draw(self):
        # sizes are drawn as int64 from [lo, hi + 1); a larger hi failed the
        # run with numpy's "high is out of bounds" once the edge unlocked
        with pytest.raises(ConfigError, match="size_range"):
            Edge(0, frozenset(), 0.5, size_range=(1, 2**63))
        edge = Edge(0, frozenset(), 1.0, size_range=(2**63 - 1, 2**63 - 1))
        runner = FuzzCampaignRunner(CfgTarget((edge,)), make_scheduler("sample", 1, 0), 1, 0)
        assert runner.scheduler.corpus["seed0"].size == 2**63 - 1

    @pytest.mark.parametrize("bad", [0.7, 1.0, True, np.float64(0.0)])
    def test_edge_rejects_non_integer_prereqs(self, bad):
        # int() would read 0.7 as prerequisite 0 and True as 1
        with pytest.raises(ConfigError, match="prerequisite"):
            Edge(2, frozenset({bad}), 0.5)

    def test_edge_accepts_numpy_integer_prereqs(self):
        edge = Edge(2, frozenset({np.int64(0), 1}), 0.5)
        assert edge.prereqs == frozenset({0, 1})
        assert {type(k) for k in edge.prereqs} == {int}

    def test_target_ids_must_be_dense(self):
        with pytest.raises(ConfigError):
            CfgTarget((Edge(0, frozenset(), 1.0), Edge(2, frozenset(), 1.0)))

    def test_target_rejects_unknown_prereq(self):
        with pytest.raises(ConfigError):
            CfgTarget((Edge(0, frozenset({9}), 1.0),))

    def test_target_rejects_self_dependency(self):
        with pytest.raises(ConfigError):
            CfgTarget((Edge(0, frozenset({0}), 1.0),))

    def test_target_rejects_cycles(self):
        with pytest.raises(ConfigError, match="unreachable"):
            CfgTarget((Edge(0, frozenset({1}), 1.0), Edge(1, frozenset({0}), 1.0)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), acyclic=st.booleans())
    def test_reachability_matches_layer_peeling(self, data, n, acyclic):
        # with acyclic, every edge depends only on edges earlier in a random
        # order, so the graph is a DAG; otherwise any other edge may be a
        # prerequisite and cycles are common
        order = data.draw(st.permutations(range(n)))
        prereqs = []
        for pos, i in enumerate(order):
            pool = order[:pos] if acyclic else [j for j in range(n) if j != i]
            chosen = data.draw(st.lists(st.sampled_from(pool), max_size=3)) if pool else []
            prereqs.append((i, frozenset(chosen)))
        edges = tuple(Edge(i, pre, 1.0) for i, pre in prereqs)
        expected = _layer_peeling_verdict({i: pre for i, pre in prereqs})
        if expected is None:
            CfgTarget(edges)
        else:
            with pytest.raises(ConfigError) as excinfo:
                CfgTarget(edges)
            assert str(excinfo.value) == expected
        if acyclic:
            assert expected is None


def _layer_peeling_verdict(prereqs: dict[int, frozenset]) -> str | None:
    """Reference reachability rule: peel the DAG one layer per round,
    rescanning every pending edge; the message names the edges left over."""
    done: set[int] = set()
    pending = set(prereqs)
    while pending:
        ready = {i for i in pending if prereqs[i] <= done}
        if not ready:
            return f"edges {sorted(pending)} are unreachable (cyclic prerequisites)"
        done |= ready
        pending -= ready
    return None


def test_chain_and_demo_shapes():
    chain = CfgTarget.chain(5, 0.2)
    assert chain.k_size == 5
    assert [sorted(e.prereqs) for e in chain.edges] == [[], [0], [1], [2], [3]]
    assert [e.id for e in chain.roots] == [0]

    demo = _branch_demo_target()
    assert demo.k_size == 4
    assert [e.id for e in demo.roots] == [0, 3]


class TestLoadTarget:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "target.json"
        path.write_text(
            json.dumps(
                [
                    {"id": 0, "p": 1.0},
                    {"id": 1, "prereqs": [0], "p": 0.5,
                     "time_range": [1.0, 2.0], "size_range": [5, 6]},
                ]
            )
        )
        target = load_target(path)
        assert target.k_size == 2
        assert target.edges[1].prereqs == frozenset({0})
        assert target.edges[1].size_range == (5, 6)

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps([{"id": 0, "p": 1.0, "speed": 3}]))
        with pytest.raises(ConfigError, match="speed"):
            load_target(path)

    def test_rejects_missing_fields_and_bad_json(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps([{"id": 0}]))
        with pytest.raises(ConfigError):
            load_target(path)
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_target(path)
        path.write_text(json.dumps({"id": 0, "p": 1.0}))
        with pytest.raises(ConfigError, match="list"):
            load_target(path)
        with pytest.raises(ConfigError):
            load_target(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "edge",
        [
            {"id": True, "p": 1.0},
            {"id": 0.0, "p": 1.0},
            {"id": "0", "p": 1.0},
            {"id": 0, "p": True},
            {"id": 0, "p": "0.5"},
            {"id": 0, "p": None},
            {"id": 0, "p": 1.0, "prereqs": "1"},
            {"id": 0, "p": 1.0, "prereqs": [True]},
            {"id": 0, "p": 1.0, "prereqs": [1.0]},
            {"id": 0, "p": 1.0, "size_range": [1.5, 7.9]},
            {"id": 0, "p": 1.0, "size_range": [True, 5]},
            {"id": 0, "p": 1.0, "size_range": [1, 2, 3]},
            {"id": 0, "p": 1.0, "time_range": ["1", "2"]},
            {"id": 0, "p": 1.0, "time_range": [1.0, False]},
            {"id": 0, "p": 1.0, "time_range": [1.0, float("inf")]},
        ],
    )
    def test_rejects_wrong_value_types(self, tmp_path, edge):
        # a second, well-formed edge keeps the ids 0..1 and the DAG valid
        other = {"id": 1, "p": 1.0}
        path = tmp_path / "t.json"
        path.write_text(json.dumps([edge, other]))
        with pytest.raises(ConfigError, match="edge #0"):
            load_target(path)

    def test_integral_numbers_are_accepted_where_floats_are_expected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps([{"id": 0, "p": 1, "time_range": [1, 2]}]))
        edge = load_target(path).edges[0]
        assert edge.p == 1.0 and edge.time_range == (1, 2)


def test_trial_log_validation():
    with pytest.raises(ValueError):
        TrialLog(
            "x", 0,
            steps=np.array([1, 2]), actions=np.array([0]),
            interesting=np.array([True]), regret=np.array([0.0]),
            covered=np.array([1]), corpus_size=np.array([1]),
            select_ops=np.array([1]), update_ops=np.array([1]),
        )
    with pytest.raises(ValueError, match="consecutive"):
        TrialLog(
            "x", 0,
            steps=np.array([1, 3]), actions=np.array([0, 0]),
            interesting=np.array([True, True]), regret=np.zeros(2),
            covered=np.ones(2, int), corpus_size=np.ones(2, int),
            select_ops=np.ones(2, int), update_ops=np.ones(2, int),
        )


def test_runner_rejects_mismatched_feature_space():
    env = BernoulliArmsEnv((0.5, 0.5))
    with pytest.raises(ValueError):
        BernoulliTrialRunner(env, make_scheduler("sample", 3, 0), 10, 0)
    with pytest.raises(ValueError):
        FuzzCampaignRunner(CfgTarget.chain(3, 0.5), make_scheduler("sample", 2, 0), 10, 0)


class TestArmsRunner:
    def test_bootstrap_makes_every_arm_selectable(self):
        sched = make_scheduler("sample", 3, 0)
        BernoulliTrialRunner(BernoulliArmsEnv((0.1, 0.2, 0.3)), sched, 5, 0)
        assert sched.posterior.alpha.tolist() == [2.0, 2.0, 2.0]
        assert len(sched.corpus) == 3

    def test_log_shape_and_regret_values(self):
        env = BernoulliArmsEnv((0.7, 0.8, 0.9))
        log = run_bandit_trial(env, make_scheduler("sample", 3, 0), 50, 0)
        assert len(log) == 50
        assert log.steps.tolist() == list(range(1, 51))
        expected = 0.9 - np.asarray(env.theta_star)[log.actions]
        assert np.allclose(log.regret, expected)

    def test_same_seed_reproduces(self):
        env = BernoulliArmsEnv((0.3, 0.6))
        a = run_bandit_trial(env, make_scheduler("sample", 2, 5), 200, 5)
        b = run_bandit_trial(env, make_scheduler("sample", 2, 5), 200, 5)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.interesting, b.interesting)

    def test_different_seeds_diverge(self):
        env = BernoulliArmsEnv((0.3, 0.6))
        a = run_bandit_trial(env, make_scheduler("sample", 2, 5), 200, 5)
        b = run_bandit_trial(env, make_scheduler("sample", 2, 6), 200, 6)
        assert not np.array_equal(a.interesting, b.interesting)


class TestFuzzRunner:
    def test_coverage_is_monotone(self):
        target = CfgTarget.chain(10, 0.3)
        log = run_fuzz_campaign(target, make_scheduler("sample", 10, 2), 300, 2)
        assert (np.diff(log.covered) >= 0).all()
        assert log.covered[-1] <= 10

    def test_unlocked_features_respect_prerequisites(self):
        target = CfgTarget.chain(12, 0.4)
        sched = make_scheduler("sample", 12, 4)
        run_fuzz_campaign(target, sched, 400, 4)
        by_id = {e.id: e for e in target.edges}
        for rec in sched.corpus.values():
            for f in rec.features:
                assert by_id[f].prereqs <= rec.features

    @pytest.mark.parametrize("name", ["greedy", "round-robin"])
    def test_demo_target_fully_covered_within_three_steps(self, name):
        # with p=1 the branch demo's four features need at most three runs
        target = _branch_demo_target()
        log = run_fuzz_campaign(target, make_scheduler(name, 4, 0), 3, 0)
        assert log.covered[-1] == 4

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_interesting_exactly_when_corpus_and_coverage_grow(self, name):
        # every synthesized input covers a new edge and every re-observed
        # parent covers none: the runner names its next input after the
        # corpus size, and takes no interestingness policy, on this
        gen = np.random.default_rng(120)
        edges = [
            Edge(
                i,
                frozenset(int(gen.integers(0, i)) for _ in range(gen.integers(1, 3)))
                if i >= 3
                else frozenset(),
                float(gen.uniform(0.02, 0.3)),
            )
            for i in range(120)
        ]
        log = run_fuzz_campaign(CfgTarget(tuple(edges)), make_scheduler(name, 120, 5), 300, 5)
        # before step 1 the corpus holds one seed input per root, which
        # covers that root alone
        corpus = np.diff(log.corpus_size, prepend=3)
        covered = np.diff(log.covered, prepend=3)
        assert set(corpus.tolist()) <= {0, 1}
        assert (corpus == log.interesting).all()
        assert ((covered > 0) == log.interesting).all()
        assert 0 < log.interesting.sum() < 300

    @staticmethod
    def _assert_same_run(fast, slow):
        fast.run_to()
        slow.run_to()
        a, b = fast.take_log(), slow.take_log()
        for column in _LOG_COLUMNS:
            assert getattr(a, column).tolist() == getattr(b, column).tolist(), column
        # the runner's discovered edges and input count are its scheduler's
        assert fast.scheduler.global_coverage.covered == slow.discovered
        assert len(fast.scheduler.corpus) == slow.synth_count
        assert fast.scheduler.insertion_order == slow.scheduler.insertion_order
        assert fast.env_rng.state_dict() == slow.env_rng.state_dict()
        # the oracle's own scan drove every step
        assert slow.scans == slow.steps

    @settings(max_examples=60, deadline=None)
    @given(
        target=dags(),
        name=st.sampled_from(SCHEDULER_NAMES),
        steps=st.integers(1, 200),
        seed=st.integers(0, 2**16),
    )
    def test_matches_full_edge_scan(self, target, name, steps, seed):
        # long runs make deep lineages, whose unlockable lists are built
        # from their parents' lists
        k = target.k_size
        fast = FuzzCampaignRunner(target, make_scheduler(name, k, seed), steps, seed)
        slow = FullScanRunner(target, make_scheduler(name, k, seed), steps, seed)
        self._assert_same_run(fast, slow)

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_matches_full_edge_scan_when_two_prerequisites_unlock_together(self, name):
        # step 1 unlocks edges 1 and 2 from the seed input; edge 3 needs
        # both, so the child's list holds it once and a step draws one
        # uniform for it, as the full scan does
        target = CfgTarget(
            (
                Edge(0, frozenset(), 1.0),
                Edge(1, frozenset({0}), 1.0),
                Edge(2, frozenset({0}), 1.0),
                Edge(3, frozenset({1, 2}), 0.5),
                Edge(4, frozenset({3}), 0.5),
            )
        )
        fast = FuzzCampaignRunner(target, make_scheduler(name, 5, 3), 40, 3)
        fast.run_to(1)
        child = fast.scheduler.corpus["input1"]
        assert child.features == {0, 1, 2}
        assert fast._candidates[child.features] == [target.edges[3]]
        slow = FullScanRunner(target, make_scheduler(name, 5, 3), 40, 3)
        self._assert_same_run(fast, slow)

    def test_same_seed_reproduces(self):
        target = CfgTarget.chain(8, 0.2)
        a = run_fuzz_campaign(target, make_scheduler("rare-plus", 8, 7), 150, 7)
        b = run_fuzz_campaign(target, make_scheduler("rare-plus", 8, 7), 150, 7)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.covered, b.covered)


class TestRunnerSnapshots:
    @settings(max_examples=60, deadline=None)
    @given(
        target=dags(),
        name=st.sampled_from(SCHEDULER_NAMES),
        steps=st.integers(2, 200),
        data=st.data(),
    )
    def test_resume_at_a_random_step_gives_the_straight_suffix(
        self, target, name, steps, data
    ):
        seed = data.draw(st.integers(0, 2**16))
        cut = data.draw(st.integers(1, steps - 1))
        k = target.k_size
        straight = FuzzCampaignRunner(target, make_scheduler(name, k, seed), steps, seed)
        straight.run_to()
        full = straight.take_log()

        first = FuzzCampaignRunner(target, make_scheduler(name, k, seed), steps, seed)
        first.run_to(cut)
        state = json.loads(json.dumps(first.state_dict()))
        covered = state["scheduler"]["covered"]
        assert covered == sorted(first.scheduler.global_coverage.covered)
        assert len(covered) == full.covered[cut - 1]

        # the run length is the config's, as resume builds the runner; the
        # seed does not matter once the generators are loaded
        resumed = FuzzCampaignRunner(target, make_scheduler(name, k, seed + 1), steps, seed + 1)
        resumed.load_state(state)
        resumed.run_to()
        suffix = resumed.take_log()
        for column in _LOG_COLUMNS:
            assert getattr(suffix, column).tolist() == getattr(full, column)[cut:].tolist(), column

    def test_arms_snapshot_resume_matches_straight_run(self):
        env = BernoulliArmsEnv((0.4, 0.7))

        straight = BernoulliTrialRunner(env, make_scheduler("sample", 2, 9), 120, 9)
        straight.run_to()
        full = straight.take_log()

        first = BernoulliTrialRunner(env, make_scheduler("sample", 2, 9), 120, 9)
        first.run_to(60)
        state = json.loads(json.dumps(first.state_dict()))

        second = BernoulliTrialRunner(env, make_scheduler("sample", 2, 0), 120, 0)
        second.load_state(state)
        second.run_to()
        suffix = second.take_log()
        assert suffix.steps.tolist() == list(range(61, 121))
        assert suffix.actions.tolist() == full.actions[60:].tolist()
        assert suffix.regret.tolist() == full.regret[60:].tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(SCHEDULER_NAMES),
        steps=st.integers(1, 3 * _UNIFORM_BLOCK + 50),
        data=st.data(),
    )
    def test_arms_stops_and_resume_match_a_straight_run(self, name, steps, data):
        # an arms runner draws its uniforms in blocks within a run_to call:
        # a stop inside a straight run's block, or a snapshot there, must
        # leave the generators where one scalar draw per step would
        seed = data.draw(st.integers(0, 2**16))
        stops = data.draw(st.lists(st.integers(1, steps + 10), max_size=6))
        cut = data.draw(st.integers(1, steps))
        env = BernoulliArmsEnv((0.7, 0.8, 0.9))

        straight = BernoulliTrialRunner(env, make_scheduler(name, 3, seed), steps, seed)
        straight.run_to()
        full = straight.take_log()

        runner = BernoulliTrialRunner(env, make_scheduler(name, 3, seed), steps, seed)
        logs = []
        for stop in sorted(stops + [cut]):
            runner.run_to(stop)
            logs.append(runner.take_log())
            if stop == cut:
                state = json.loads(json.dumps(runner.state_dict()))
                runner = BernoulliTrialRunner(
                    env, make_scheduler(name, 3, seed + 1), steps, seed + 1
                )
                runner.load_state(state)
        runner.run_to()
        logs.append(runner.take_log())
        for column in _LOG_COLUMNS:
            pieces = [getattr(log, column).tolist() for log in logs]
            assert sum(pieces, []) == getattr(full, column).tolist(), column
        assert runner.env_rng.state_dict() == straight.env_rng.state_dict()
        assert runner.scheduler.rng.state_dict() == straight.scheduler.rng.state_dict()

    def test_fuzz_snapshot_resume_matches_straight_run(self):
        target = CfgTarget.chain(6, 0.3)

        straight = FuzzCampaignRunner(target, make_scheduler("rare-minus", 6, 3), 80, 3)
        straight.run_to()
        full = straight.take_log()

        first = FuzzCampaignRunner(target, make_scheduler("rare-minus", 6, 3), 80, 3)
        first.run_to(40)
        state = json.loads(json.dumps(first.state_dict()))
        second = FuzzCampaignRunner(target, make_scheduler("rare-minus", 6, 0), 80, 0)
        second.load_state(state)
        second.run_to()
        suffix = second.take_log()
        assert suffix.actions.tolist() == full.actions[40:].tolist()
        assert suffix.covered.tolist() == full.covered[40:].tolist()

    def test_reloading_an_earlier_state_into_the_same_runner(self):
        # the runner has discovered more edges by step 120 than at step 60;
        # loading the step-60 state must forget whatever it derived since
        target = CfgTarget.chain(40, 0.15)

        straight = FuzzCampaignRunner(target, make_scheduler("rare-plus", 40, 5), 120, 5)
        straight.run_to()
        full = straight.take_log()

        runner = FuzzCampaignRunner(target, make_scheduler("rare-plus", 40, 5), 120, 5)
        runner.run_to(60)
        state = json.loads(json.dumps(runner.state_dict()))
        runner.run_to()
        assert len(runner.scheduler.global_coverage.covered) > len(state["scheduler"]["covered"])
        runner.take_log()
        runner.load_state(state)
        runner.run_to()
        suffix = runner.take_log()
        assert suffix.steps.tolist() == list(range(61, 121))
        assert suffix.actions.tolist() == full.actions[60:].tolist()
        assert suffix.interesting.tolist() == full.interesting[60:].tolist()
        assert suffix.covered.tolist() == full.covered[60:].tolist()

    @pytest.mark.parametrize(
        "kind,change",
        [
            # beyond the runner's own run length
            ("fuzz", lambda s: s.__setitem__("step", 61)),
            ("fuzz", lambda s: s["scheduler"]["alpha"].__setitem__(0, float("inf"))),
            # a corpus id the runner would give a later input, and an edge
            # covered by no input: both pass the scheduler's own checks
            ("fuzz", lambda s: s["scheduler"]["corpus"][-1].__setitem__("id", "input99")),
            ("fuzz", lambda s: s["scheduler"]["covered"].append(19)),
            ("arms", lambda s: s["scheduler"]["alpha"].__setitem__(0, float("inf"))),
        ],
        ids=["step-beyond-steps", "alpha-inf", "corpus-id-ahead", "covered-beyond-corpus",
             "arms-alpha-inf"],
    )
    def test_rejected_load_state_leaves_the_runner_fresh(self, kind, change):
        def build(seed):
            if kind == "arms":
                return BernoulliTrialRunner(
                    BernoulliArmsEnv((0.4, 0.7)), make_scheduler("sample", 2, seed), 60, seed
                )
            return FuzzCampaignRunner(
                CfgTarget.chain(20, 0.05), make_scheduler("sample", 20, seed), 60, seed
            )

        source = build(1)
        source.run_to(30)
        state = json.loads(json.dumps(source.state_dict()))
        change(state)
        fresh = build(0)
        with pytest.raises(ValueError):
            fresh.load_state(state)
        untouched = build(0)
        assert fresh.state_dict() == untouched.state_dict()
        assert fresh.scheduler.favored.entries == untouched.scheduler.favored.entries

    def test_kind_mismatch_rejected(self):
        env = BernoulliArmsEnv((0.5,))
        arms = BernoulliTrialRunner(env, make_scheduler("sample", 1, 0), 10, 0)
        fuzz = FuzzCampaignRunner(
            CfgTarget.chain(1, 1.0), make_scheduler("sample", 1, 0), 10, 0
        )
        with pytest.raises(ValueError):
            fuzz.load_state(arms.state_dict())


class TestBranchDemo:
    def test_coverage_function(self):
        assert branch_demo_coverage(15, 0) == frozenset({0, 3})
        assert branch_demo_coverage(25, 0) == frozenset({0, 1, 3})
        assert branch_demo_coverage(0, 25) == frozenset({3})
        assert branch_demo_coverage(25, 25) == frozenset({0, 1, 2, 3})

    @pytest.mark.parametrize(
        "a, b, covered",
        [
            (10, 25, {3}),
            (11, 25, {0, 3}),
            (20, 25, {0, 3}),
            (21, 10, {0, 1, 3}),
            (21, 11, {0, 1, 2, 3}),
        ],
    )
    def test_coverage_guards_are_strict(self, a, b, covered):
        # each guard passes only strictly above its bound
        assert branch_demo_coverage(a, b) == frozenset(covered)

    def test_replay_emits_full_reference_table(self):
        rows = replay_branch_demo()
        assert len(rows) == 28
        seen = {(r.step, r.node): r for r in rows}
        assert len(seen) == 28
        for (t, node), (alpha, beta, pbar) in BRANCH_DEMO_REFERENCE.items():
            row = seen[(t, node)]
            assert (row.alpha, row.beta) == (alpha, beta)
            assert f"{row.pbar:.2f}" == pbar

    def test_reference_covers_all_steps_and_nodes(self):
        keys = set(BRANCH_DEMO_REFERENCE)
        assert keys == {
            (t, n) for t in range(len(BRANCH_DEMO_INPUTS) + 1) for n in BRANCH_DEMO_NODES
        }
