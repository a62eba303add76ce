"""Beta variate generation: determinism, delegation, moments, edge shapes."""

import json
import warnings

import numpy as np
import pytest

from seedsched import SeededRng


def test_same_seed_same_stream_reproduces():
    a = SeededRng(123, stream=0)
    b = SeededRng(123, stream=0)
    assert np.array_equal(a.random(64), b.random(64))
    assert np.array_equal(a.beta(np.ones(4), np.ones(4)), b.beta(np.ones(4), np.ones(4)))


def test_streams_are_independent():
    a = SeededRng(123, stream=0)
    b = SeededRng(123, stream=1)
    assert not np.array_equal(a.random(64), b.random(64))


def test_state_round_trip_resumes_exactly():
    rng = SeededRng(7)
    rng.beta(2.0, 3.0, size=100)
    saved = rng.state_dict()
    ahead = rng.beta(2.0, 3.0, size=50)
    rng2 = SeededRng(0)
    rng2.load_state(saved)
    assert np.array_equal(rng2.beta(2.0, 3.0, size=50), ahead)


def test_state_dict_is_json_serializable():
    state = SeededRng(1).state_dict()
    restored = json.loads(json.dumps(state))
    rng = SeededRng(99)
    rng.load_state(restored)
    assert np.array_equal(rng.random(8), SeededRng(1).random(8))


_DELETE = object()


@pytest.mark.parametrize(
    "path,value",
    [
        (("state", "state"), -1),
        (("state", "state"), 2**128),
        (("state", "inc"), -1),
        (("state", "inc"), 2**128),
        (("state", "state"), 1.5),
        (("state", "inc"), True),
        (("state", "state"), "1"),
        (("has_uint32",), 2),
        (("has_uint32",), 1.5),
        (("has_uint32",), True),
        (("uinteger",), -1),
        (("uinteger",), 2**32),
        (("uinteger",), 0.5),
        (("bit_generator",), "MT19937"),
        (("state",), [1, 2]),
        (("state", "extra"), 0),
        (("extra",), 0),
        (("uinteger",), _DELETE),
        (("state", "inc"), _DELETE),
    ],
    ids=[
        "state-negative", "state-2**128", "inc-negative", "inc-2**128",
        "state-float", "inc-bool", "state-str", "has_uint32-2", "has_uint32-float",
        "has_uint32-bool", "uinteger-negative", "uinteger-2**32", "uinteger-float",
        "other-generator", "state-list", "state-extra-key", "extra-key",
        "no-uinteger", "no-inc",
    ],
)
def test_load_state_rejects_a_bad_layout_and_keeps_the_generator(path, value):
    # numpy's setter raises OverflowError for an out-of-range int and
    # truncates a float or a bool; each is a ValueError here instead
    state = json.loads(json.dumps(SeededRng(5).state_dict()))
    *parents, key = path
    node = state
    for p in parents:
        node = node[p]
    if value is _DELETE:
        del node[key]
    else:
        node[key] = value
    rng = SeededRng(3)
    with pytest.raises(ValueError, match="rng state"):
        rng.load_state(state)
    assert rng.state_dict() == SeededRng(3).state_dict()


@pytest.mark.parametrize("state", [None, [], "PCG64"])
def test_load_state_rejects_a_non_object(state):
    with pytest.raises(ValueError, match="rng state"):
        SeededRng(0).load_state(state)


def test_load_state_accepts_the_range_ends():
    state = SeededRng(5).state_dict()
    for value in (0, 2**128 - 1):
        state["state"] = {"state": value, "inc": value}
        state["has_uint32"] = 1
        state["uinteger"] = 2**32 - 1
        rng = SeededRng(0)
        rng.load_state(state)
        assert rng.state_dict() == state


class TestBeta:
    def test_scalar_in_scalar_out(self):
        out = SeededRng(0).beta(2.0, 3.0)
        assert isinstance(out, float)
        assert 0.0 < out < 1.0

    def test_broadcasting(self):
        out = SeededRng(0).beta(np.array([1.0, 2.0, 3.0]), 2.0)
        assert out.shape == (3,)

    def test_size_with_array_shape_rejected(self):
        with pytest.raises(ValueError):
            SeededRng(0).beta(np.array([1.0, 2.0]), 1.0, size=4)

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(ValueError):
            SeededRng(0).beta(0.0, 1.0, size=2)
        with pytest.raises(ValueError):
            SeededRng(0).beta(1.0, -2.0, size=2)

    def test_nan_parameters_rejected(self):
        # numpy's Generator.beta returns NaN for a NaN shape without raising
        with pytest.raises(ValueError, match="positive"):
            SeededRng(0).beta(np.nan, 1.0)
        with pytest.raises(ValueError, match="positive"):
            SeededRng(0).beta(np.array([1.0, 2.0]), np.array([3.0, np.nan]))

    def test_infinite_parameters_rejected(self):
        # numpy's Generator.beta returns NaN for an infinite shape too
        rng = SeededRng(0)
        before = rng.state_dict()
        for a, b in (
            (np.inf, 1.0),
            (1.0, np.inf),
            ([np.inf, 2.0], [1.0, 3.0]),
            (np.full(5, np.inf), np.full(5, np.inf)),
            (np.full(300, np.inf), np.full(300, np.inf)),
        ):
            with pytest.raises(ValueError, match="finite"):
                rng.beta(a, b)
        with pytest.raises(ValueError, match="finite"):
            rng.beta(np.inf, 1.0, size=3)
        assert rng.state_dict() == before

    def test_short_lists_whose_sums_pass_the_float_range_are_drawn(self):
        # each shape is finite, so the draws are numpy's
        a, b = [1e308, 1e308], [2.0, 1e308]
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence([0, 0])))
        got = SeededRng(0).beta(a, b)
        assert type(got) is list
        assert got == ref.beta(a, b).tolist()

    @pytest.mark.parametrize("seed,stream", [(0, 0), (123, 1), (2**31, 0)])
    def test_delegates_to_numpy_generator(self, seed, stream):
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))
        rng = SeededRng(seed, stream)
        a = np.array([1.0, 2.0, 5.0, 0.5, 1e6])
        b = np.array([1.0, 9.0, 25.0, 0.5, 1e12])
        assert np.array_equal(rng.beta(a, b), ref.beta(a, b))
        assert rng.beta(3.0, 4.0) == ref.beta(3.0, 4.0)
        assert np.array_equal(rng.beta(2.0, 3.0, size=7), ref.beta(2.0, 3.0, size=7))
        assert rng.state_dict() == ref.bit_generator.state

    @pytest.mark.parametrize("n", range(1, 17))
    def test_short_and_long_shape_arrays_match_numpy(self, n):
        # arrays of any length are drawn in one vector call; two lists of
        # up to _SCALAR_BETA_MAX floats one scalar call at a time (below)
        pairs = [(1.0, 1.0), (0.3, 0.5), (1e6, 1e12), (2.0, 9.0), (0.5, 0.5), (40.0, 1.0)]
        a = np.array([pairs[i % len(pairs)][0] for i in range(n)])
        b = np.array([pairs[i % len(pairs)][1] for i in range(n)])
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence([n, 0])))
        rng = SeededRng(n, 0)
        for _ in range(50):
            got = rng.beta(a, b)
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert np.array_equal(got, ref.beta(a, b))
        assert rng.state_dict() == ref.bit_generator.state

    @pytest.mark.parametrize("n", range(1, 17))
    def test_lists_match_numpy(self, n):
        # up to _SCALAR_BETA_MAX pairs, two lists of floats give a list of
        # floats, longer lists an array; both equal the bare generator
        pairs = [(1.0, 1.0), (0.3, 0.5), (1e6, 1e12), (2, 9), (0.5, 0.5), (40.0, 1)]
        a = [pairs[i % len(pairs)][0] for i in range(n)]
        b = [pairs[i % len(pairs)][1] for i in range(n)]
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence([n, 1])))
        rng = SeededRng(n, 1)
        for _ in range(20):
            got = rng.beta(a, b)
            if n <= 8:
                assert type(got) is list and {type(x) for x in got} == {float}
            else:
                assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert np.array_equal(got, ref.beta(a, b))
        assert rng.state_dict() == ref.bit_generator.state

    def test_empty_nested_and_int_lists_give_arrays(self):
        for a, b, shape in (([], [], (0,)), ([[1.0, 2.0]], [[3.0, 4.0]], (1, 2)), ([2], [3], (1,))):
            got = SeededRng(0).beta(a, b)
            assert isinstance(got, np.ndarray) and got.shape == shape
            assert np.array_equal(got, SeededRng(0).beta(np.array(a, float), np.array(b, float)))

    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    @pytest.mark.parametrize("pos", [0, -1])
    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
    @pytest.mark.parametrize("n", [1, 3, 8, 9, 300])
    def test_short_path_rejects_nonpositive_and_nan(self, n, bad, pos, as_list):
        # a NaN or an inf ahead of a valid shape and one behind it are both
        # caught, on short lists and on short and long arrays
        rng = SeededRng(0)
        before = rng.state_dict()
        a = np.ones(n)
        b = np.ones(n)
        b[pos] = bad
        if as_list:
            a, b = a.tolist(), b.tolist()
        with pytest.raises(ValueError, match="positive"):
            rng.beta(a, b)
        with pytest.raises(ValueError, match="positive"):
            rng.beta(b, a)
        assert rng.state_dict() == before

    @pytest.mark.parametrize("pos", [0, 4, -1])
    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [9, 145])
    def test_equal_length_arrays_reject_with_one_message(self, n, bad, pos):
        # the array path's dot test and numpy's own positivity check both
        # end in the full check, so every bad shape gives its message
        rng = SeededRng(0)
        before = rng.state_dict()
        a = np.linspace(1.0, 3.0, n)
        b = np.linspace(2.0, 1e6, n)
        for side in (0, 1):
            shapes = [a.copy(), b.copy()]
            shapes[side][pos] = bad
            with pytest.raises(ValueError) as excinfo:
                rng.beta(*shapes)
            assert str(excinfo.value) == "beta shape parameters must be positive and finite"
        assert rng.state_dict() == before

    @pytest.mark.parametrize("n", [9, 145])
    def test_shapes_whose_dot_overflows_are_drawn(self, n):
        # 1e200 shapes are finite; their dot overflows without a warning
        a = np.full(n, 1e200)
        b = np.linspace(1e200, 1e300, n)
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence([n, 0])))
        rng = SeededRng(n, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rng.beta(a, b)
        assert np.array_equal(got, ref.beta(a, b))
        assert rng.state_dict() == ref.bit_generator.state

    def test_empty_shape_arrays(self):
        out = SeededRng(0).beta(np.array([]), np.array([]))
        assert out.shape == (0,) and out.dtype == np.float64

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 5.0), (0.5, 0.5), (100.0, 3.0)])
    def test_moments(self, a, b):
        n = 200_000
        draws = SeededRng(23).beta(a, b, size=n)
        mean = a / (a + b)
        var = a * b / ((a + b) ** 2 * (a + b + 1.0))
        assert abs(draws.mean() - mean) < 4 * np.sqrt(var / n)
        assert abs(draws.var() / var - 1.0) < 0.05

    def test_extreme_second_shape_stays_in_range(self):
        # ratio-of-gammas form must not underflow to 0 or round to 1
        draws = SeededRng(5).beta(3.0, 1e12, size=50_000)
        assert ((draws > 0.0) & (draws < 1.0)).all()
        assert abs(draws.mean() / 3e-12 - 1.0) < 0.05

    def test_lopsided_toward_one(self):
        draws = SeededRng(5).beta(1e6, 1.0, size=10_000)
        assert ((draws > 0.0) & (draws < 1.0)).all()
        assert draws.min() > 0.99
