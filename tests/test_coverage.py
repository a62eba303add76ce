"""Covered-id sets, interestingness, favored inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedsched import (
    DimensionMismatch,
    FavoredTable,
    GlobalCoverage,
    InputRecord,
    classify_interesting,
    absorb,
    selectable_features,
    update_favored,
)
from seedsched.simulator import BRANCH_DEMO_INPUTS, branch_demo_coverage


class TestClassify:
    def test_new_feature_on_uncovered_id(self):
        gc = GlobalCoverage.empty(3)
        absorb(gc, frozenset({1}))
        assert classify_interesting(gc, frozenset({0})) is True
        assert classify_interesting(gc, frozenset({0, 1})) is True

    def test_known_features_are_boring(self):
        gc = GlobalCoverage.empty(3)
        absorb(gc, frozenset({0, 1}))
        assert classify_interesting(gc, frozenset({0})) is False
        assert classify_interesting(gc, frozenset({0, 1})) is False

    def test_absorb_unions_the_covered_ids(self):
        gc = GlobalCoverage.empty(5)
        absorb(gc, frozenset({0, 4}))
        absorb(gc, frozenset({0, 1}))
        assert gc.covered == {0, 1, 4}

    def test_empty_set_is_boring_and_changes_nothing(self):
        gc = GlobalCoverage.empty(3)
        absorb(gc, frozenset({1}))
        assert classify_interesting(gc, frozenset()) is False
        absorb(gc, frozenset())
        assert gc.covered == {1}

    @pytest.mark.parametrize("ids", [{-1}, {0, -2}, {3}, {0, 1, 2, 7}])
    def test_out_of_range_ids_rejected_before_any_change(self, ids):
        gc = GlobalCoverage.empty(3)
        absorb(gc, frozenset({0}))
        with pytest.raises(DimensionMismatch):
            classify_interesting(gc, frozenset(ids))
        with pytest.raises(DimensionMismatch):
            absorb(gc, frozenset(ids))
        assert gc.covered == {0}

    @pytest.mark.parametrize(
        "coverage",
        [np.array([0, 1, 0]), [0, 1], {0, 1}, (1,)],
        ids=["dense-map", "list", "set", "tuple"],
    )
    def test_coverage_other_than_a_frozenset_is_a_type_error(self, coverage):
        # a dense map would otherwise read as the ids {0, 1}
        gc = GlobalCoverage.empty(3)
        with pytest.raises(TypeError, match="frozenset"):
            classify_interesting(gc, coverage)
        with pytest.raises(TypeError, match="frozenset"):
            absorb(gc, coverage)
        assert gc.covered == set()

    @pytest.mark.parametrize("n", [1, 40])
    @pytest.mark.parametrize(
        "bad", [1.5, True, np.float64(3.0)], ids=["float", "bool", "np-float"]
    )
    def test_non_integer_ids_rejected_before_any_change(self, n, bad):
        # the ids not covered before are type-checked, however many there are
        gc = GlobalCoverage.empty(50)
        absorb(gc, frozenset({0, 49}))
        coverage = frozenset(set(range(10, 9 + n)) | {bad})
        with pytest.raises(TypeError, match="ints"):
            classify_interesting(gc, coverage)
        with pytest.raises(TypeError, match="ints"):
            absorb(gc, coverage)
        assert gc.covered == {0, 49}

    @settings(max_examples=80, deadline=None)
    @given(
        st.frozensets(st.integers(0, 9)),
        st.lists(st.frozensets(st.integers(0, 9)), max_size=6),
    )
    def test_interesting_iff_an_id_is_not_covered(self, coverage, history):
        gc = GlobalCoverage.empty(10)
        for past in history:
            absorb(gc, past)
        assert classify_interesting(gc, coverage) is (not coverage <= gc.covered)

    def test_coverage_validation(self):
        # ids 0 and K - 1 bound the feature space from inside
        gc = GlobalCoverage.empty(3)
        assert classify_interesting(gc, frozenset({0, 2})) is True
        absorb(gc, frozenset({0, 2}))
        assert gc.covered == {0, 2}
        with pytest.raises(DimensionMismatch):
            absorb(gc, frozenset({3}))
        with pytest.raises(TypeError):
            absorb(gc, np.array([1, 0, 1]))
        assert gc.covered == {0, 2}

    def test_empty_rejects_a_nonpositive_size(self):
        with pytest.raises(ValueError):
            GlobalCoverage.empty(0)

    @pytest.mark.parametrize("covered,error", [({3}, DimensionMismatch), ({1.5}, TypeError)])
    def test_covered_set_is_checked_on_construction(self, covered, error):
        # only ids outside 'covered' are checked later, so it holds checked ids
        with pytest.raises(error):
            GlobalCoverage(3, covered)
        assert GlobalCoverage(3, {0, 2}).covered == {0, 2}


def test_absorb_accumulates_demo_walkthrough_coverage():
    # six two-integer inputs against the four-feature branch demo: every
    # node is reached by some input, and the exit node by each
    gc = GlobalCoverage.empty(4)
    seen = []
    for a, b in BRANCH_DEMO_INPUTS:
        cov = branch_demo_coverage(a, b)
        assert 3 in cov
        seen.append(classify_interesting(gc, cov))
        absorb(gc, cov)
    assert gc.covered == {0, 1, 2, 3}
    assert seen == [True, True, False, False, False, True]


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


@pytest.mark.parametrize(
    "raw",
    [frozenset({0, 1.5}), frozenset({True}), [np.float64(2.0)], {np.bool_(False)}],
    ids=["float", "bool", "np-float", "np-bool"],
)
def test_input_record_rejects_non_integer_ids(raw):
    # coercion with int() would read {0, 1.5} as {0, 1} and True as 1
    with pytest.raises(TypeError, match="integers"):
        InputRecord("a", size=1, exec_time=1.0, features=raw)


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

    @pytest.mark.parametrize(
        "features,error",
        [({0, 7}, DimensionMismatch), ({0, -1}, DimensionMismatch), ({0, 1.5}, TypeError)],
    )
    def test_bad_ids_rejected_before_any_entry(self, features, error):
        # a record's features are checked before the first entry is made, so
        # a rejected record leaves the table as it was
        table = FavoredTable(k_size=2)
        update_favored(table, InputRecord("a", 1, 3.0, frozenset({1})))
        # InputRecord rejects a float id itself; bypass it to reach the table
        rec = InputRecord("x", 1, 1.0, frozenset({0}))
        rec.features = frozenset(features)
        with pytest.raises(error):
            update_favored(table, rec)
        assert table.entries == {1: ("a", 3.0)}

    @pytest.mark.parametrize(
        "keys,error",
        [
            ((1.5,), TypeError),
            ((True,), TypeError),
            ((np.intp(1),), TypeError),
            ((0, 1, 2), DimensionMismatch),
            ((0, -1), DimensionMismatch),
        ],
        ids=["float", "bool", "numpy-int", "three-in-k2", "negative"],
    )
    def test_bad_entry_keys_rejected(self, keys, error):
        # the table's keys are the ids selection trusts, so a float would be
        # published as the id it truncates to and a bool read as feature 1;
        # update_favored is the only way in, and it lets none of them become a key
        table = FavoredTable(k_size=2)
        # InputRecord coerces or rejects such ids itself; bypass it to reach the table
        rec = InputRecord("x", 1, 1.0, frozenset({0}))
        rec.features = frozenset(keys)
        with pytest.raises(error):
            update_favored(table, rec)
        assert table.entries == {}
        assert selectable_features(table).tolist() == []

    def test_entries_are_not_an_argument(self):
        # selection trusts the table's keys, so they come from update_favored
        # alone, which checks a record's ids first
        with pytest.raises(TypeError):
            FavoredTable(2, {0: ("x", 1.0)})

    def test_selectable_ids_track_entries(self):
        table = FavoredTable(k_size=4)
        empty = selectable_features(table)
        assert empty.dtype == np.intp and empty.shape == (0,)
        update_favored(table, InputRecord("x", 1, 1.0, frozenset({3, 1})))
        update_favored(table, InputRecord("y", 1, 1.0, frozenset({0})))
        ids = selectable_features(table)
        assert ids.dtype == np.intp and ids.tolist() == [0, 1, 3]
        # the table's own array, not a copy, and no caller can write to it
        assert selectable_features(table) is ids
        with pytest.raises(ValueError, match="read-only"):
            ids[0] = 2
        update_favored(table, InputRecord("z", 1, 0.5, frozenset({0, 1})))
        assert selectable_features(table) is ids  # no id gained
        # the ids come out sorted whatever order they were gained in
        other = FavoredTable(k_size=4)
        for k in (3, 0, 1):
            update_favored(other, InputRecord(f"in{k}", 1, 1.0, frozenset({k})))
        assert selectable_features(other).tolist() == [0, 1, 3]


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
        assert selectable_features(table).tolist() == sorted(table.entries)

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
