"""Scheduler behavior: registry, selection rules, accounting, snapshots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedsched import (
    DimensionMismatch,
    EmptyCorpusError,
    InputRecord,
    RoundRobinScheduler,
    SCHEDULER_NAMES,
    TScheduler,
    UniformScheduler,
    classify_interesting,
    make_scheduler,
    selectable_features,
)


def _record(iid, features, size=10, exec_time=1.0):
    return InputRecord(id=iid, size=size, exec_time=exec_time, features=frozenset(features))


def _seed_arm(sched, feature, iid=None):
    rec = _record(iid or f"in{feature}", {feature})
    sched.observe(rec, True)
    return rec


def test_registry_builds_every_name():
    for name in SCHEDULER_NAMES:
        sched = make_scheduler(name, 4, 0)
        assert sched.name == name
        assert sched.k_size == 4


def test_registry_rejects_unknown_name():
    with pytest.raises(ValueError, match="nonsense"):
        make_scheduler("nonsense", 4, 0)


def test_tscheduler_takes_no_hyperparameters():
    # the adaptive scheduler is fully specified by (k_size, variant, seed)
    import inspect

    params = list(inspect.signature(TScheduler.__init__).parameters)
    assert params == ["self", "k_size", "variant", "seed"]


def test_observe_updates_posterior_counts():
    sched = TScheduler(3, "sample", seed=0)
    sched.observe(_record("a", {0, 2}), True)
    sched.observe(_record("b", {0}), False)
    assert sched.posterior.alpha.tolist() == [2.0, 1.0, 2.0]
    assert sched.posterior.beta.tolist() == [2.0, 1.0, 1.0]
    assert sched.global_coverage.covered == {0, 2}


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_observe_updates_like_a_recount(data):
    # over random id-set histories, alpha_k - 1 counts the interesting
    # executions covering k and beta_k - 1 the rest; update_ops is the
    # number of ids each execution covers
    k = data.draw(st.integers(min_value=1, max_value=12))
    sched = TScheduler(k, "rare-minus", seed=0)
    hits = np.zeros(k, dtype=np.int64)
    wins = np.zeros(k, dtype=np.int64)
    for i in range(data.draw(st.integers(min_value=1, max_value=20))):
        ids = data.draw(st.frozensets(st.integers(0, k - 1)))
        interesting = data.draw(st.booleans())
        sched.observe(_record(f"r{i}", ids), interesting)
        assert sched.last_update_ops == len(ids)
        for f in ids:
            hits[f] += 1
            wins[f] += interesting
    assert np.array_equal(sched.posterior.alpha - 1, wins)
    assert np.array_equal(sched.posterior.beta - 1, hits - wins)


def test_observe_retains_interesting_once():
    sched = TScheduler(2, "sample", seed=0)
    rec = _record("a", {0})
    sched.observe(rec, True)
    sched.observe(rec, True)
    sched.observe(_record("b", {1}), False)
    assert sched.insertion_order == ["a"]
    assert len(sched.corpus) == 1


def test_favored_table_offers_only_corpus_inputs():
    # a second record under a retained id is not retained, so it must not
    # enter the favored table either: the table is a function of the corpus
    sched = TScheduler(3, "sample", seed=0)
    sched.observe(_record("a", {0}, size=10), True)
    sched.observe(_record("a", {0, 1}, size=1), True)
    assert sched.favored.entries == {0: ("a", 10.0)}
    assert sched.corpus["a"].features == frozenset({0})


POSTERIOR_NAMES = ["rare-minus", "rare-plus", "sample", "greedy"]


@pytest.mark.parametrize("name", POSTERIOR_NAMES)
def test_selectable_ids_follow_the_favored_table(name):
    # seeded DAG-shaped records: each extends the features of the input
    # just scheduled by a few ids; the table's id array is replaced only
    # when an insertion adds a feature to the table, never by next(), and
    # must equal the sorted table keys after every step
    rng = np.random.default_rng(sum(map(ord, name)))
    k = 60
    sched = make_scheduler(name, k, seed=4)
    feats = frozenset({int(rng.integers(k))})
    growths = rebuilds = 0
    for i in range(150):
        ids = selectable_features(sched.favored)
        if i and rng.random() < 0.7:
            feats = sched.corpus[sched.next()].features
            assert selectable_features(sched.favored) is ids
        if rng.random() < 0.5:
            feats = feats | set(rng.integers(0, k, int(rng.integers(1, 4))).tolist())
        rec = _record(f"r{i}", feats, size=int(rng.integers(1, 50)))
        held = len(sched.favored.entries)
        sched.observe(rec, classify_interesting(sched.global_coverage, feats))
        growths += len(sched.favored.entries) != held
        current = selectable_features(sched.favored)
        rebuilds += current is not ids
        assert current.dtype == np.intp and not current.flags.writeable
        assert current.tolist() == sorted(sched.favored.entries)
    assert rebuilds == growths > 1
    assert 1 < len(sched.favored.entries) < k


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_greedy_over_ids_matches_the_masked_argmax(data):
    # the old rule: posterior means, -inf where unselectable, first argmax;
    # small integer shapes make ties between selectable features common
    k = data.draw(st.integers(1, 12))
    chosen = data.draw(st.frozensets(st.integers(0, k - 1), min_size=1))
    sched = make_scheduler("greedy", k, 0)
    for f in sorted(chosen):
        _seed_arm(sched, f)
    shapes = st.lists(st.integers(1, 4), min_size=k, max_size=k)
    alpha = np.array(data.draw(shapes), dtype=float)
    beta = np.array(data.draw(shapes), dtype=float)
    sched.posterior.alpha[:] = alpha
    sched.posterior.beta[:] = beta
    mask = np.zeros(k, dtype=bool)
    mask[list(chosen)] = True
    expected = int(np.where(mask, alpha / (alpha + beta), -np.inf).argmax())
    assert sched.next() == f"in{expected}"
    assert sched.last_action == expected


def test_observe_rejects_out_of_range_ids_before_any_change():
    sched = TScheduler(3, "sample", seed=0)
    _seed_arm(sched, 0)
    before = sched.state_dict()
    for ids in ({-1}, {0, 3}):
        with pytest.raises(DimensionMismatch):
            sched.observe(_record("x", ids), True)
    assert sched.state_dict() == before


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_observe_rejects_a_bad_record_before_any_change(name):
    # the record's features are its coverage, and they are out of range
    sched = make_scheduler(name, 3, 0)
    with pytest.raises(DimensionMismatch):
        sched.observe(_record("x", {5}), True)
    assert _visible_state(sched) == _visible_state(make_scheduler(name, 3, 0))


def test_empty_id_set_touches_nothing():
    sched = TScheduler(3, "rare-plus", seed=0)
    _seed_arm(sched, 1)
    before = sched.state_dict()
    sched.observe(_record("e", set()), False)
    after = sched.state_dict()
    assert sched.last_update_ops == 0
    assert after == before


def test_conservation_alpha_beta_vs_hits():
    rng = np.random.default_rng(5)
    sched = TScheduler(8, "rare-plus", seed=1)
    touched = 0
    for i in range(200):
        feats = frozenset(np.flatnonzero(rng.random(8) < 0.6).tolist())
        touched += len(feats)
        sched.observe(_record(f"r{i}", feats), bool(rng.random() < 0.3))
    mass = (sched.posterior.alpha - 1.0) + (sched.posterior.beta - 1.0)
    assert int(mass.sum()) == touched


def test_greedy_prefers_higher_posterior_mean():
    sched = make_scheduler("greedy", 2, 0)
    sched.observe(_record("both", {0, 1}), True)
    # one boring re-run touching only feature 1 drops its mean below 0's
    sched.observe(_record("x", {1}), False)
    assert sched.next() == "both"
    assert sched.last_action == 0


def test_greedy_tie_takes_smallest_index():
    sched = make_scheduler("greedy", 3, 0)
    for k in range(3):
        _seed_arm(sched, k)
    sched.next()
    assert sched.last_action == 0


def test_uniform_frequency_is_flat():
    sched = UniformScheduler(4, seed=9)
    for k in range(4):
        _seed_arm(sched, k)
    counts = {f"in{k}": 0 for k in range(4)}
    n = 100_000
    for _ in range(n):
        counts[sched.next()] += 1
    for c in counts.values():
        assert abs(c / n - 0.25) < 0.01


def test_round_robin_cycles_in_insertion_order():
    sched = RoundRobinScheduler(3, seed=0)
    for k in range(3):
        _seed_arm(sched, k)
    assert [sched.next() for _ in range(4)] == ["in0", "in1", "in2", "in0"]


def test_next_before_any_retention_raises():
    for name in SCHEDULER_NAMES:
        with pytest.raises(EmptyCorpusError):
            make_scheduler(name, 2, 0).next()


def test_unselectable_features_still_learn():
    sched = TScheduler(3, "sample", seed=0)
    _seed_arm(sched, 0)
    # feature 2 is observed (boring) but never retained, so never selectable
    for i in range(30):
        sched.observe(_record(f"x{i}", {2}), False)
    assert sched.posterior.beta[2] == 31.0
    for _ in range(20):
        sched.next()
        assert sched.last_action == 0


class TestOpAccounting:
    def test_select_ops_by_scheduler(self):
        expected = {
            "rare-minus": 8,   # K theta draws + K-wide argmax
            "rare-plus": 12,   # + K phi reads
            "sample": 12,      # + K psi draws
            "greedy": 8,
            "uniform": 1,
            "round-robin": 1,
        }
        for name, ops in expected.items():
            sched = make_scheduler(name, 4, 0)
            _seed_arm(sched, 0)
            sched.next()
            assert sched.last_select_ops == ops, name

    def test_update_ops_count_touched_features(self):
        sched = TScheduler(5, "sample", seed=0)
        sched.observe(_record("a", {0, 1, 2}), True)
        assert sched.last_update_ops == 3
        sched.observe(_record("b", set()), False)
        assert sched.last_update_ops == 0
        sched.observe(_record("a", {3, 4}), False)
        assert sched.last_update_ops == 2


class TestSnapshots:
    def _drive(self, sched, steps, seed):
        rng = np.random.default_rng(seed)
        actions = []
        for i in range(steps):
            rec = sched.corpus[sched.next()]
            sched.observe(rec, bool(rng.random() < 0.4))
            actions.append(sched.last_action)
        return actions

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_round_trip_resumes_identically(self, name):
        a = make_scheduler(name, 4, seed=3)
        for k in range(4):
            _seed_arm(a, k)
        self._drive(a, 25, seed=1)
        state = a.state_dict()

        b = make_scheduler(name, 4, seed=999)
        b.load_state(state)
        follow_a = self._drive(a, 25, seed=2)
        follow_b = self._drive(b, 25, seed=2)
        assert follow_a == follow_b
        assert a.global_coverage.covered == b.global_coverage.covered == {0, 1, 2, 3}

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(POSTERIOR_NAMES), at=st.integers(0, 60), seed=st.integers(0, 99))
    def test_snapshot_at_any_step_resumes_like_an_uninterrupted_run(self, name, at, seed):
        # a DAG-shaped run whose selectable ids grow as it goes; the state
        # taken at step `at` goes through JSON into a fresh scheduler, which
        # must rebuild the same ids and then run exactly as the original
        import json

        def run(sched, env, start, stop):
            actions = []
            for i in range(start, stop):
                feats = sched.corpus[sched.next()].features
                if env.random() < 0.3:
                    feats = feats | {int(env.integers(k))}
                rec = _record(f"r{i}", feats, size=int(env.integers(1, 50)))
                sched.observe(rec, classify_interesting(sched.global_coverage, feats))
                actions.append(sched.last_action)
            return actions

        k, steps = 40, 60
        whole = make_scheduler(name, k, seed=seed)
        part = make_scheduler(name, k, seed=seed)
        for sched in (whole, part):
            _seed_arm(sched, 0)
        env_whole = np.random.default_rng(seed)
        env_part = np.random.default_rng(seed)
        expected = run(whole, env_whole, 0, steps)
        head = run(part, env_part, 0, at)
        resumed = make_scheduler(name, k, seed=seed + 1)
        resumed.load_state(json.loads(json.dumps(part.state_dict())))
        assert _visible_state(resumed) == _visible_state(part)
        assert head + run(resumed, env_part, at, steps) == expected
        # the seed is the constructor's; the generator state is the snapshot's
        assert resumed.seed == seed + 1
        assert _visible_state(resumed) == _visible_state(whole)

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_covered_holds_ids_no_retained_input_covers(self, name):
        # a boring execution can cover a feature that no corpus input has,
        # so 'covered' is stored, not derived from the corpus
        import json

        sched = make_scheduler(name, 3, seed=0)
        _seed_arm(sched, 0)
        sched.observe(_record("x", {2}), False)
        state = json.loads(json.dumps(sched.state_dict()))
        assert state["covered"] == [0, 2]
        other = make_scheduler(name, 3, seed=0)
        other.load_state(state)
        assert other.global_coverage.covered == {0, 2}
        assert classify_interesting(other.global_coverage, frozenset({2})) is False

    def test_state_is_json_round_trippable(self):
        import json

        sched = TScheduler(3, "rare-plus", seed=0)
        _seed_arm(sched, 1)
        sched.next()
        state = json.loads(json.dumps(sched.state_dict()))
        other = TScheduler(3, "rare-plus", seed=5)
        other.load_state(state)
        assert other.posterior.alpha.tolist() == sched.posterior.alpha.tolist()
        assert other.favored.entries == sched.favored.entries

    def test_mismatched_state_rejected(self):
        state = TScheduler(3, "sample", seed=0).state_dict()
        with pytest.raises(ValueError):
            make_scheduler("greedy", 3, 0).load_state(state)
        with pytest.raises(ValueError):
            TScheduler(4, "sample", seed=0).load_state(state)


def _visible_state(sched):
    """Everything a scheduler's behaviour depends on, comparable with ==."""
    state = sched.state_dict()
    if hasattr(sched, "favored"):
        state["favored"] = dict(sched.favored.entries)
        state["selectable"] = selectable_features(sched.favored).tolist()
    return state


@pytest.mark.parametrize(
    "name,change",
    [
        ("sample", lambda s: s["alpha"].__setitem__(0, float("inf"))),
        ("rare-plus", lambda s: s["beta"].__setitem__(2, None)),
        ("greedy", lambda s: s.__setitem__("alpha", s["alpha"][:2])),
        # a Beta shape starts at 1 and only grows
        ("greedy", lambda s: s["beta"].__setitem__(1, 0.5)),
        ("round-robin", lambda s: s.__setitem__("cursor", "1")),
        ("uniform", lambda s: s.__setitem__("rng", {"bit_generator": "MT19937"})),
        ("rare-minus", lambda s: s.pop("covered")),
    ],
    ids=["alpha-inf", "beta-none", "alpha-short", "beta-below-one", "cursor-str", "rng",
         "missing"],
)
def test_rejected_load_state_leaves_the_scheduler_fresh(name, change):
    source = make_scheduler(name, 3, seed=1)
    for k in range(3):
        _seed_arm(source, k, iid=f"a{k}")
    source.next()
    state = source.state_dict()
    change(state)
    target = make_scheduler(name, 3, seed=2)
    with pytest.raises((KeyError, TypeError, ValueError)):
        target.load_state(state)
    assert _visible_state(target) == _visible_state(make_scheduler(name, 3, seed=2))
