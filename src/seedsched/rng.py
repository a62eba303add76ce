"""Deterministic random variate generation for schedulers and simulators.

Everything stochastic in this package flows through :class:`SeededRng` so
that a (seed, stream) pair pins down the full trajectory of a run.  Beta
draws come from numpy's ``Generator.beta`` on the same PCG64 generator,
which stays numerically sound for the very lopsided shape pairs the
schedulers need, where the second shape can reach ~1e12.
"""

from __future__ import annotations

from math import inf
from typing import Any

import numpy as np

__all__ = ["SeededRng"]

# Up to this many shape pairs, ``beta`` draws two lists of floats with
# numpy's scalar ``Generator.beta``, once per pair, instead of once on
# arrays.  numpy's vector call draws element by element in order, so the
# values and the generator state are the same either way.  Below the
# cut-off the scalar calls cost less than the vector call's fixed overhead;
# the two cost the same at 10-14 pairs (2-core x86-64 host, Python 3.11,
# numpy 2.4).  ``bandit.select_action`` passes draws this short as lists.
_SCALAR_BETA_MAX = 8


def _check_shapes(a, b) -> None:
    """Raise unless every shape in ``a`` and ``b`` is positive and finite.
    ``minimum`` passes a NaN on, so the least shape and the greatest tell
    all three faults; one array of both costs less than two of each, and
    an empty one holds no bad shape (a reduction over nothing raises)."""
    shapes = np.concatenate((a, b), axis=None)
    if shapes.size and not (np.minimum.reduce(shapes) > 0.0 and np.maximum.reduce(shapes) < inf):
        raise ValueError("beta shape parameters must be positive and finite")


class SeededRng:
    """PCG64-backed random source with beta variate support.

    Parameters
    ----------
    seed:
        Base seed for the stream.
    stream:
        Sub-stream index, so one trial can hold independent generator
        streams (scheduler vs environment) derived from the same seed.
    """

    def __init__(self, seed: int, stream: int = 0) -> None:
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([int(seed), int(stream)]))
        )

    # ------------------------------------------------------------------
    # plain draws

    def random(self, size=None):
        """Uniform draw(s) on [0, 1)."""
        return self._gen.random(size)

    def integers(self, low: int, high: int, size=None):
        """Integer draw(s) from [low, high)."""
        return self._gen.integers(low, high, size=size)

    def uniform(self, low: float, high: float, size=None):
        """Uniform draw(s) on [low, high)."""
        return self._gen.uniform(low, high, size)

    # ------------------------------------------------------------------
    # beta variates

    def beta(self, a, b, size: int | None = None):
        """Beta(a, b) draws from numpy's ``Generator.beta``.

        Shapes broadcast; a scalar pair without ``size`` gives a float, and
        ``size`` expands a scalar pair to that many independent draws.
        numpy rejects zero and negative shapes but returns NaN for a NaN or
        an infinite shape, so shapes are checked here to be positive and
        finite, before anything is drawn.  Two non-empty lists of at most
        ``_SCALAR_BETA_MAX`` floats are drawn pair by pair and give a list of
        floats, with no array made on the way; other shapes give an array.
        """
        if (
            type(a) is list
            and type(b) is list
            and size is None
            and 0 < len(a) == len(b) <= _SCALAR_BETA_MAX
            # the first shapes tell flat lists of floats from other lists
            and type(a[0]) is float
            and type(b[0]) is float
        ):
            # a NaN fails no comparison inside min, but it makes the sum
            # NaN, and an inf makes it inf; finite shapes can also sum past
            # the float range, so a failed test is checked shape by shape
            if not (min(a) > 0.0 and min(b) > 0.0 and sum(a, sum(b)) < inf):
                _check_shapes(a, b)
            return list(map(self._gen.beta, a, b))
        a_arr = np.asarray(a, dtype=np.float64)
        b_arr = np.asarray(b, dtype=np.float64)
        if size is not None and (a_arr.ndim or b_arr.ndim):
            raise ValueError("size is only valid with scalar shapes")
        if a_arr.ndim == 1 and a_arr.shape == b_arr.shape:
            # a NaN or an inf makes the dot NaN or infinite; finite shapes
            # can also overflow it, so a failed test is checked in full.
            # numpy rejects a shape <= 0 before it draws, and the full
            # check then gives this module's message
            with np.errstate(over="ignore", invalid="ignore"):
                dot = a_arr.dot(b_arr)
            if not -inf < dot < inf:
                _check_shapes(a_arr, b_arr)
            try:
                return self._gen.beta(a_arr, b_arr)
            except ValueError:
                _check_shapes(a_arr, b_arr)
                raise
        _check_shapes(a_arr, b_arr)
        return self._gen.beta(a_arr, b_arr, size)

    # ------------------------------------------------------------------
    # snapshot support

    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable generator state."""
        return self._gen.bit_generator.state

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a :meth:`state_dict`.  The layout is checked first, since
        numpy's setter raises OverflowError for an out-of-range integer and
        truncates a float or a bool; a rejected state raises ValueError and
        leaves the generator as it was."""
        inner = state.get("state") if type(state) is dict else None
        if not (
            type(inner) is dict
            and set(state) == {"bit_generator", "state", "has_uint32", "uinteger"}
            and state["bit_generator"] == "PCG64"
            and set(inner) == {"state", "inc"}
            and all(type(v) is int and 0 <= v < 1 << 128 for v in inner.values())
            and type(state["has_uint32"]) is int
            and state["has_uint32"] in (0, 1)
            and type(state["uinteger"]) is int
            and 0 <= state["uinteger"] < 1 << 32
        ):
            raise ValueError(
                "rng state must be a PCG64 state: integer 'state' and 'inc' in "
                "[0, 2**128), 'has_uint32' 0 or 1, 'uinteger' in [0, 2**32)"
            )
        self._gen.bit_generator.state = state
