"""Posterior bookkeeping, rareness correction, and action selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedsched import (
    DimensionMismatch,
    EmptyCorpusError,
    FavoredTable,
    InputRecord,
    PosteriorState,
    SeededRng,
    Variant,
    compute_pbar,
    expected_phi,
    init_posterior,
    select_action,
    update_favored,
    update_posterior,
)
from seedsched import bandit
from seedsched.rng import _SCALAR_BETA_MAX


class FakeRng:
    """Returns scripted draws from beta(), as a list when given lists as
    SeededRng does; records the shapes it was asked for."""

    def __init__(self, values):
        self._values = [list(map(float, v)) for v in values]
        self.calls = []

    def beta(self, a, b):
        self.calls.append((np.asarray(a, dtype=float), np.asarray(b, dtype=float)))
        values = self._values.pop(0)
        return values if type(a) is list else np.array(values)


class RecordingRng(SeededRng):
    """A real generator that records each beta call's shapes and draws."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def beta(self, a, b, size=None):
        out = super().beta(a, b, size)
        self.calls.append((np.asarray(a), np.asarray(b), out))
        return out


def _shapes(variant, alpha, beta):
    """The shape arrays ``select_action`` draws for ``variant``."""
    if variant == "sample":
        return np.concatenate([alpha, alpha + beta]), np.concatenate([beta, alpha**2])
    return alpha, beta


def _scores(variant, alpha, beta, draws):
    if variant == "greedy":
        return alpha / (alpha + beta)
    if variant == "rare-minus":
        return draws
    if variant == "rare-plus":
        return expected_phi(PosteriorState(alpha, beta)) * draws
    n = alpha.size
    return draws[:n] * draws[n:]


def test_init_posterior_is_uniform():
    state = init_posterior(5)
    assert len(state.alpha) == 5
    assert (state.alpha == 1.0).all()
    assert (state.beta == 1.0).all()


@pytest.mark.parametrize("k", [0, -3])
def test_init_posterior_rejects_bad_size(k):
    with pytest.raises(ValueError):
        init_posterior(k)


def test_posterior_state_validation():
    with pytest.raises(DimensionMismatch):
        PosteriorState(np.ones(3), np.ones(4))
    with pytest.raises(DimensionMismatch):
        PosteriorState(np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        PosteriorState(np.array([1.0, 0.5]), np.ones(2))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("pos", [0, -1])
def test_posterior_state_rejects_non_finite_parameters(bad, pos):
    # an inf shape would make every draw for it NaN, and the argmax over
    # NaN scores would pick feature 0
    values = np.ones(3)
    values[pos] = bad
    with pytest.raises(ValueError, match="finite"):
        PosteriorState(values, np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        PosteriorState(np.ones(3), values)


def test_update_posterior_conjugate_steps():
    state = init_posterior(3)
    out = update_posterior(state, frozenset({0, 2}), True)
    assert out is state
    update_posterior(state, frozenset({2}), False)
    assert state.alpha.tolist() == [2.0, 1.0, 2.0]
    assert state.beta.tolist() == [1.0, 1.0, 2.0]


def test_update_posterior_rejects_bad_input():
    state = init_posterior(2)
    with pytest.raises(DimensionMismatch):
        update_posterior(state, frozenset({5}), True)
    with pytest.raises(TypeError, match="frozenset"):
        update_posterior(state, [0, 0], True)
    assert state.alpha.tolist() == state.beta.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("interesting", [True, False])
def test_long_id_sets_update_like_the_scalar_loop(interesting):
    # 40 ids take the indexed-add path; each id gets exactly one add
    ids = frozenset(range(0, 120, 3))
    state = init_posterior(130)
    expect_a, expect_b = state.alpha.copy(), state.beta.copy()
    for k in ids:
        if interesting:
            expect_a[k] += 1
        else:
            expect_b[k] += 1
    update_posterior(state, ids, interesting)
    assert state.alpha.tolist() == expect_a.tolist()
    assert state.beta.tolist() == expect_b.tolist()


@pytest.mark.parametrize("n", [1, 40])
@pytest.mark.parametrize(
    "bad,error", [(-1, DimensionMismatch), (50, DimensionMismatch), (1.5, TypeError)]
)
def test_update_posterior_checks_ids_before_any_change(n, bad, error):
    # n = 1 takes the scalar loop and n = 40 the indexed add; on both, a -1
    # must not wrap around to K - 1, nor a 1.5 truncate to 1
    k = 50
    rest = set(range(10, 9 + n))
    state = init_posterior(k)
    for edge in (0, k - 1):
        update_posterior(state, frozenset(rest | {edge}), True)
        update_posterior(state, frozenset(rest | {edge}), False)
    assert state.alpha[[0, k - 1]].tolist() == state.beta[[0, k - 1]].tolist() == [2.0, 2.0]
    before = state.copy()
    for interesting in (True, False):
        with pytest.raises(error):
            update_posterior(state, frozenset(rest | {bad}), interesting)
        assert state.alpha.tolist() == before.alpha.tolist()
        assert state.beta.tolist() == before.beta.tolist()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_counting_invariant(data):
    # alpha_k - 1 equals interesting hits of k, beta_k - 1 the rest, exactly
    k = data.draw(st.integers(min_value=1, max_value=16))
    state = init_posterior(k)
    hits = np.zeros(k, dtype=int)
    wins = np.zeros(k, dtype=int)
    n = data.draw(st.integers(min_value=0, max_value=30))
    for _ in range(n):
        cov = np.array(data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)))
        interesting = data.draw(st.booleans())
        update_posterior(state, frozenset(np.flatnonzero(cov).tolist()), interesting)
        touched = cov > 0
        hits += touched
        wins += touched & interesting
    assert (state.alpha - 1 == wins).all()
    assert (state.beta - 1 == hits - wins).all()


class TestPhi:
    def test_uniform_posterior_value(self):
        # (1+1) / (1+1+1)
        assert expected_phi(init_posterior(1))[0] == pytest.approx(2.0 / 3.0)

    def test_matches_psi_distribution_mean(self):
        # psi ~ Beta(alpha+beta, alpha^2); for (3, 2) that is Beta(5, 9)
        state = PosteriorState(np.array([3.0]), np.array([2.0]))
        one = SeededRng(17).beta(state.alpha + state.beta, state.alpha**2)
        assert one.shape == (1,)
        assert 0.0 < one[0] < 1.0
        assert expected_phi(state)[0] == pytest.approx(5.0 / 14.0)
        draws = SeededRng(17).beta(5.0, 9.0, size=100_000)
        assert abs(draws.mean() - 5.0 / 14.0) < 0.002

    def test_decreasing_in_alpha_increasing_in_beta(self):
        alphas = np.arange(1.0, 200.0)
        fixed_b = PosteriorState(alphas, np.full(alphas.size, 7.0))
        vals = expected_phi(fixed_b)
        assert (np.diff(vals) < 0).all()
        betas = np.arange(1.0, 200.0)
        fixed_a = PosteriorState(np.full(betas.size, 7.0), betas)
        assert (np.diff(expected_phi(fixed_a)) > 0).all()

    def test_asymptotic_reciprocal_alpha(self):
        state = PosteriorState(np.array([1e6]), np.array([1.0]))
        assert abs(expected_phi(state)[0] * 1e6 - 1.0) <= 2e-6

    def test_asymptotic_toward_one(self):
        state = PosteriorState(np.array([1.0]), np.array([1e6]))
        assert expected_phi(state)[0] >= 1.0 - 3e-6


def test_pbar_normalizes_posterior_means():
    state = PosteriorState(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    assert compute_pbar(state).tolist() == pytest.approx([4.0 / 7.0, 3.0 / 7.0])
    assert compute_pbar(init_posterior(4)).tolist() == pytest.approx([0.25] * 4)


VARIANTS = ["rare-minus", "rare-plus", "sample", "greedy"]


def _table(k, *ids):
    """A favored table over ``k`` features whose selectable ids are ``ids``."""
    table = FavoredTable(k)
    if ids:
        update_favored(table, InputRecord("in", 1, 1.0, frozenset(ids)))
    return table


class TestSelectAction:
    def test_tie_goes_to_smallest_id(self):
        rng = FakeRng([[0.5, 0.5, 0.5]])
        assert select_action(init_posterior(3), "rare-minus", _table(3, 0, 1, 2), rng) == 0

    def test_ids_exclude_features(self):
        # feature 0 would win, but only ids 1 and 2 are drawn for
        rng = FakeRng([[0.5, 0.9]])
        assert select_action(init_posterior(3), "rare-minus", _table(3, 1, 2), rng) == 2
        (a, _), = rng.calls
        assert a.size == 2

    def test_rare_plus_damps_explored_feature(self):
        # feature 0 has been rewarded often; phi should flip the ranking
        state = PosteriorState(np.array([5.0, 1.0]), np.array([1.0, 5.0]))
        theta = [0.9, 0.3]
        minus = select_action(state, "rare-minus", _table(2, 0, 1), FakeRng([theta]))
        plus = select_action(state, "rare-plus", _table(2, 0, 1), FakeRng([theta]))
        assert minus == 0
        assert plus == 1
        phi = expected_phi(state)
        assert phi[0] * theta[0] < phi[1] * theta[1]

    def test_sample_variant_uses_one_fused_draw(self):
        state = PosteriorState(np.array([2.0, 1.0]), np.array([1.0, 3.0]))
        rng = FakeRng([[0.5, 0.8, 0.9, 0.1]])
        picked = select_action(state, "sample", _table(2, 0, 1), rng)
        (a, b), = rng.calls
        assert a.tolist() == [2.0, 1.0, 3.0, 4.0]  # alpha then alpha+beta
        assert b.tolist() == [1.0, 3.0, 4.0, 1.0]  # beta then alpha**2
        # scores: [0.5*0.9, 0.8*0.1]
        assert picked == 0

    @pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_bare_generator_beta(self, variant, n, partial):
        # n crosses the scalar cut-off (n pairs, or 2n for sample): the
        # draws and the generator state afterwards equal a bare
        # Generator.beta over the selectable features, in id order, and the
        # pick is the first maximum of the scores numpy computes from them;
        # greedy scores the posterior means and leaves the generator alone
        gen = np.random.default_rng(100 * n + partial)
        k = 2 * n + 3 if partial else n
        ids = np.sort(gen.choice(k, n, replace=False)) if partial else np.arange(n)
        state = PosteriorState(
            1.0 + gen.integers(0, 50, k).astype(float), 1.0 + gen.integers(0, 50, k).astype(float)
        )
        rng = RecordingRng(31)
        picked = select_action(state, variant, _table(k, *ids.tolist()), rng)
        bare = np.random.Generator(np.random.PCG64(np.random.SeedSequence([31, 0])))
        alpha, beta = state.alpha[ids], state.beta[ids]
        if variant == "greedy":
            expected = None
            assert rng.calls == []
        else:
            a, b = _shapes(variant, alpha, beta)
            expected = bare.beta(a, b)
            (call,) = rng.calls
            assert call[0].tolist() == a.tolist() and call[1].tolist() == b.tolist()
            assert np.array_equal(call[2], expected)
        assert rng.state_dict() == bare.bit_generator.state
        scores = _scores(variant, alpha, beta, expected)
        assert type(picked) is int
        assert picked == ids[int(scores.argmax())]

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_partial_ids_return_global_id_and_smallest_tie(self, variant, n):
        # odd ids 1, 3, ..., 2n - 1; the scores tie at the last two
        # positions, on either side of the scalar cut-off: scripted draws
        # for the drawn rules, two equal posterior means above the rest
        # for greedy
        ids = list(range(1, 2 * n, 2))
        state = init_posterior(2 * n + 1)
        if variant == "greedy":
            state.alpha[ids[-2:]] = 3.0
            rng = RecordingRng(0)
        else:
            theta = [0.2] * (n - 2) + [0.7, 0.7]
            rng = FakeRng([theta + [0.5] * n if variant == "sample" else theta])
        assert select_action(state, variant, _table(2 * n + 1, *ids), rng) == 2 * n - 3
        if variant != "greedy":
            (a, _), = rng.calls
            assert a.size == (2 * n if variant == "sample" else n)

    @settings(max_examples=200, deadline=None)
    @given(
        variant=st.sampled_from(VARIANTS),
        shapes=st.lists(
            st.tuples(
                st.floats(1.0, 1e12), st.floats(1.0, 1e12), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_short_scores_equal_the_array_scores(self, variant, shapes):
        # the Python-float scores of a short draw are the numpy scores, bit
        # for bit, so both forms pick the same feature
        alpha, beta, theta, psi = (np.array(c) for c in zip(*shapes))
        draws = np.concatenate([theta, psi]) if variant == "sample" else theta
        v = Variant(variant)
        short_scores, _ = bandit._SHORT_SCORERS[v]
        short = short_scores(alpha.tolist(), beta.tolist(), FakeRng([draws]))
        full = bandit._scores(v, alpha, beta, FakeRng([draws]))
        assert short == full.tolist()

    def test_one_short_scorer_per_variant(self):
        assert list(bandit._SHORT_SCORERS) == list(Variant)
        # a short scorer takes only as many features as its shape pairs
        # fit under the scalar cut-off
        for variant, (_, most) in bandit._SHORT_SCORERS.items():
            pairs = 2 if variant is Variant.SAMPLE else 1
            assert pairs * most <= _SCALAR_BETA_MAX < pairs * (most + 1)

    @pytest.mark.parametrize(
        "table,error",
        [
            (np.array([0, 1], dtype=np.intp), TypeError),
            ([0, 1], TypeError),
            (FavoredTable(5), EmptyCorpusError),
            (_table(4, 0, 1), DimensionMismatch),
            (_table(6, 0, 5), DimensionMismatch),
        ],
        ids=["array", "list", "empty", "smaller-k", "larger-k"],
    )
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bad_ids_raise_and_draw_nothing(self, variant, table, error):
        rng = RecordingRng(4)
        before = rng.state_dict()
        with pytest.raises(error):
            select_action(init_posterior(5), variant, table, rng)
        assert rng.calls == []
        assert rng.state_dict() == before

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="rare-minus"):
            select_action(init_posterior(2), "bogus", _table(2, 0, 1), SeededRng(0))


def test_variant_parse_round_trip():
    assert Variant.parse("sample") is Variant.SAMPLE
    assert Variant.parse(Variant.RARE_PLUS) is Variant.RARE_PLUS
