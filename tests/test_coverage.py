"""Hit-count buckets, interestingness, favored inputs, rareness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedsched import (
    BUCKET_LABELS,
    DimensionMismatch,
    FavoredTable,
    GlobalCoverage,
    InputRecord,
    bucketize,
    classify_interesting,
    absorb,
    selectable_features,
    update_favored,
)
from seedsched.simulator import BRANCH_DEMO_INPUTS, branch_demo_coverage


@pytest.mark.parametrize(
    "hits,label",
    [
        (1, 1), (2, 2), (3, 3),
        (4, 4), (5, 4), (7, 4),
        (8, 8), (15, 8),
        (16, 16), (31, 16),
        (32, 32), (127, 32),
        (128, 128), (10_000, 128),
    ],
)
def test_bucketize_class_bounds(hits, label):
    assert bucketize(hits) == label


def test_bucketize_rejects_nonpositive():
    with pytest.raises(ValueError):
        bucketize(0)
    with pytest.raises(ValueError):
        bucketize(-4)


def test_bucket_labels_are_the_class_lower_bounds():
    assert BUCKET_LABELS == (1, 2, 3, 4, 8, 16, 32, 128)


class TestClassify:
    def test_new_feature_on_unhit_index(self):
        gc = GlobalCoverage.empty(3)
        absorb(gc, np.array([0, 2, 0]))
        assert classify_interesting(gc, np.array([9, 0, 0])) is True

    def test_known_features_are_boring(self):
        gc = GlobalCoverage.empty(3)
        absorb(gc, np.array([1, 2, 0]))
        assert classify_interesting(gc, np.array([5, 1, 0])) is False

    def test_new_bucket_policy(self):
        gc = GlobalCoverage.empty(2)
        absorb(gc, np.array([2, 0]))  # feature 0 seen in bucket 2
        assert classify_interesting(gc, np.array([3, 0]), policy="new-bucket") is True
        assert classify_interesting(gc, np.array([2, 0]), policy="new-bucket") is False

    def test_absorb_records_each_feature_bucket(self):
        gc = GlobalCoverage.empty(5)
        absorb(gc, np.array([1, 5, 0, 1, 200]))
        absorb(gc, np.array([3, 5, 0, 0, 0]))
        assert gc.total_hits.tolist() == [4, 10, 0, 1, 200]
        assert gc.seen_buckets == [{1, 3}, {4}, set(), {1}, {128}]
        with pytest.raises(ValueError):
            absorb(gc, np.array([1, -1, 0, 0, 0]))

    def test_new_bucket_subsumes_new_feature(self):
        gc = GlobalCoverage.empty(2)
        assert classify_interesting(gc, np.array([0, 1]), policy="new-bucket") is True

    def test_unknown_policy_rejected(self):
        gc = GlobalCoverage.empty(1)
        with pytest.raises(ValueError):
            classify_interesting(gc, np.array([1]), policy="weird")

    def test_coverage_validation(self):
        gc = GlobalCoverage.empty(2)
        with pytest.raises(DimensionMismatch):
            classify_interesting(gc, np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            classify_interesting(gc, np.array([1, -1]))


class TestIdSetCoverage:
    """A frozenset of covered ids stands for its one-hot map."""

    @pytest.mark.parametrize("policy", ["new-feature", "new-bucket"])
    def test_empty_set_is_boring_and_changes_nothing(self, policy):
        gc = GlobalCoverage.empty(3)
        absorb(gc, np.array([0, 2, 0]))
        assert classify_interesting(gc, frozenset(), policy) is False
        absorb(gc, frozenset())
        assert gc.total_hits.tolist() == [0, 2, 0]
        assert gc.seen_buckets == [set(), {2}, set()]

    @pytest.mark.parametrize("ids", [{-1}, {0, -2}, {3}, {0, 1, 2, 7}])
    def test_out_of_range_ids_rejected_before_any_change(self, ids):
        gc = GlobalCoverage.empty(3)
        absorb(gc, frozenset({0}))
        for policy in ("new-feature", "new-bucket"):
            with pytest.raises(DimensionMismatch):
                classify_interesting(gc, frozenset(ids), policy)
        with pytest.raises(DimensionMismatch):
            absorb(gc, frozenset(ids))
        assert gc.total_hits.tolist() == [1, 0, 0]
        assert gc.seen_buckets == [{1}, set(), set()]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="weird"):
            classify_interesting(GlobalCoverage.empty(2), frozenset({1}), policy="weird")

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_one_hot_map(self, seed):
        # DAG-shaped records: each extends an earlier one by a few ids; dense
        # maps with counts above 1 first fill buckets other than bucket 1
        rng = np.random.default_rng(seed)
        k = int(rng.integers(5, 300))
        sparse, dense = GlobalCoverage.empty(k), GlobalCoverage.empty(k)
        for _ in range(3):
            counts = rng.integers(0, 5, k) * (rng.random(k) < 0.2)
            absorb(sparse, counts)
            absorb(dense, counts)
        records = [frozenset()]
        for _ in range(200):
            parent = records[int(rng.integers(len(records)))]
            ids = parent | set(rng.integers(0, k, int(rng.integers(0, 4))).tolist())
            records.append(ids)
            cov = np.zeros(k, dtype=np.int64)
            cov[list(ids)] = 1
            for policy in ("new-feature", "new-bucket"):
                assert classify_interesting(sparse, ids, policy) is classify_interesting(
                    dense, cov, policy
                )
            if rng.random() < 0.5:
                absorb(sparse, ids)
                absorb(dense, cov)
        assert sparse.total_hits.tolist() == dense.total_hits.tolist()
        assert sparse.seen_buckets == dense.seen_buckets


def test_absorb_accumulates_demo_walkthrough_totals():
    # six two-integer inputs against the four-feature branch demo; the
    # per-feature totals after all of them are a fixed point of the demo
    gc = GlobalCoverage.empty(4)
    for a, b in BRANCH_DEMO_INPUTS:
        absorb(gc, branch_demo_coverage(a, b))
    assert gc.total_hits.tolist() == [4, 3, 1, 6]


@pytest.mark.parametrize(
    "coverage", [[1, -1, 0], [-3, 0, 0], [0.0, 2.0, -0.5]], ids=["int", "first", "float"]
)
def test_absorb_rejects_negative_counts_and_leaves_totals(coverage):
    gc = GlobalCoverage.empty(3)
    absorb(gc, np.array([1, 1, 1]))
    with pytest.raises(ValueError, match="non-negative"):
        absorb(gc, np.array(coverage))
    assert gc.total_hits.tolist() == [1, 1, 1]
    assert gc.seen_buckets == [{1}, {1}, {1}]


def test_absorb_checks_coverage_length():
    with pytest.raises(DimensionMismatch):
        absorb(GlobalCoverage.empty(2), np.array([1, 0, 0]))


def test_input_record_weight_and_validation():
    rec = InputRecord("a", size=40, exec_time=0.5, features=frozenset({1}))
    assert rec.weight == 20.0
    with pytest.raises(ValueError):
        InputRecord("b", size=-1, exec_time=1.0, features=frozenset())
    with pytest.raises(ValueError):
        InputRecord("c", size=1, exec_time=-0.5, features=frozenset())


def test_input_record_features_are_a_frozenset_of_ints():
    given = frozenset(range(300)) | {400}
    assert InputRecord("a", size=1, exec_time=1.0, features=given).features is given
    for raw in (np.array([3, 1, 3]), [np.int64(3), 1], {3, 1}):
        feats = InputRecord("b", size=1, exec_time=1.0, features=raw).features
        assert feats == frozenset({1, 3})
        assert type(feats) is frozenset and all(type(k) is int for k in feats)


class TestFavored:
    def test_strictly_cheaper_displaces(self):
        table = FavoredTable(k_size=2)
        update_favored(table, InputRecord("x", 10, 2.0, frozenset({0, 1})))
        update_favored(table, InputRecord("y", 10, 1.0, frozenset({1})))
        assert table.input_for(0) == "x"
        assert table.input_for(1) == "y"

    def test_equal_weight_keeps_incumbent(self):
        table = FavoredTable(k_size=1)
        update_favored(table, InputRecord("first", 10, 1.0, frozenset({0})))
        update_favored(table, InputRecord("second", 5, 2.0, frozenset({0})))
        assert table.input_for(0) == "first"

    def test_out_of_range_feature_rejected(self):
        table = FavoredTable(k_size=2)
        with pytest.raises(DimensionMismatch):
            update_favored(table, InputRecord("x", 1, 1.0, frozenset({7})))

    def test_selectable_mask_tracks_entries(self):
        table = FavoredTable(k_size=4)
        assert selectable_features(table).tolist() == [False] * 4
        update_favored(table, InputRecord("x", 1, 1.0, frozenset({1, 3})))
        assert selectable_features(table).tolist() == [False, True, False, True]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_favored_matches_brute_force_and_covers_everything(data):
    k = data.draw(st.integers(min_value=1, max_value=12))
    n = data.draw(st.integers(min_value=0, max_value=25))
    records = []
    for i in range(n):
        feats = data.draw(st.frozensets(st.integers(0, k - 1), max_size=k))
        size = data.draw(st.integers(0, 20))
        t = data.draw(st.integers(0, 40)) / 4.0
        records.append(InputRecord(f"r{i}", size, t, feats))
    table = FavoredTable(k_size=k)
    for rec in records:
        update_favored(table, rec)

    for feat in range(k):
        covering = [r for r in records if feat in r.features]
        if not covering:
            assert feat not in table.entries
            continue
        best = min(r.weight for r in covering)
        first_best = next(r for r in covering if r.weight == best)
        assert table.entries[feat] == (first_best.id, best)

    # the referenced inputs jointly cover every feature any record touched
    by_id = {r.id: r for r in records}
    union = set()
    for iid, _ in table.entries.values():
        union |= by_id[iid].features
    assert union >= set(table.entries)
