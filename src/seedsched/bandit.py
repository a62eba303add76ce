"""Beta-Bernoulli posterior bookkeeping and feature selection.

Each coverage feature k keeps a Beta(alpha_k, beta_k) posterior over "how
often does exercising this feature lead to something new".  An executed
input's one reward bit, whether it was interesting, is paid to every feature
it covers: alpha_k grows by 1 at each covered id when the input was
interesting, and beta_k when it was not; features the input did not touch
are left alone.  Selection takes the favored table and reads the
selectable features from it as the sorted array of their ids (see
:func:`seedsched.coverage.selectable_features`).  Each selection rule scores
those features and picks the highest score; the Thompson-style rules draw a
success-rate sample theta_k ~ Beta(alpha_k, beta_k) per selectable feature
and, depending on the variant, damp it by a rareness factor so that
features whose inputs have already produced many discoveries stop
monopolising the schedule:

* ``rare-minus``  picks argmax theta_k (no rareness correction);
* ``rare-plus``   picks argmax phi_k * theta_k with the deterministic
  correction phi_k = (alpha_k + beta_k) / (alpha_k**2 + alpha_k + beta_k);
* ``sample``      picks argmax psi_k * theta_k with psi_k drawn from
  Beta(alpha_k + beta_k, alpha_k**2), whose mean is phi_k;
* ``greedy``      picks argmax alpha_k / (alpha_k + beta_k), the posterior
  mean, and draws nothing.

phi decays like 1/alpha once alpha dominates beta and tends to 1 when beta
dominates, so the correction only bites on frequently rewarded features.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import add, mul

import numpy as np

from .coverage import FavoredTable, _check_ids, selectable_features
from .errors import DimensionMismatch, EmptyCorpusError
from .rng import _SCALAR_BETA_MAX, SeededRng

__all__ = [
    "Variant",
    "PosteriorState",
    "init_posterior",
    "update_posterior",
    "expected_phi",
    "compute_pbar",
    "select_action",
]

class Variant(str, enum.Enum):
    """Selection rule used by the posterior scheduler."""

    RARE_MINUS = "rare-minus"
    RARE_PLUS = "rare-plus"
    SAMPLE = "sample"
    GREEDY = "greedy"

    @classmethod
    def parse(cls, value: "Variant | str") -> "Variant":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(v.value for v in cls)
            raise ValueError(f"unknown variant {value!r}; expected one of {names}") from None


@dataclass
class PosteriorState:
    """Per-feature Beta posterior parameters, stored as float64 vectors."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if self.alpha.shape != self.beta.shape or self.alpha.ndim != 1:
            raise DimensionMismatch("alpha and beta must be 1-D vectors of equal length")
        if self.alpha.size == 0:
            raise ValueError("feature space must hold at least one feature")
        # minimum passes a NaN on, so a NaN fails the first test
        for side in (self.alpha, self.beta):
            if not (np.minimum.reduce(side) >= 1.0 and np.maximum.reduce(side) < np.inf):
                raise ValueError(
                    "posterior parameters are finite, start at 1 and never drop below it"
                )

    def copy(self) -> "PosteriorState":
        return PosteriorState(self.alpha.copy(), self.beta.copy())


def init_posterior(k_size: int) -> PosteriorState:
    """Uniform Beta(1, 1) posterior over ``k_size`` features."""
    if k_size <= 0:
        raise ValueError("k_size must be a positive integer")
    return PosteriorState(np.ones(k_size), np.ones(k_size))


# id sets at least this long are applied with one indexed add; shorter
# ones (every arms step) cost less through the scalar loop
_INDEXED_UPDATE_MIN = 32


def update_posterior(
    state: PosteriorState, covered: frozenset[int], interesting: bool
) -> PosteriorState:
    """Conjugate update for one executed input: alpha_k += 1 at each covered
    id if it was interesting, else beta_k += 1.  The ids are checked before
    anything changes."""
    _check_ids(len(state.alpha), covered)
    side = state.alpha if interesting else state.beta
    n = len(covered)
    if n >= _INDEXED_UPDATE_MIN:
        # a set's ids are distinct, so each feature gets exactly one add
        side[np.fromiter(covered, np.intp, n)] += 1.0
    else:
        for k in covered:
            side[k] += 1.0
    return state


def _phi(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    total = alpha + beta
    return total / (alpha**2 + total)


def expected_phi(state: PosteriorState) -> np.ndarray:
    """Deterministic rareness factor, the mean of the psi distribution."""
    return _phi(state.alpha, state.beta)


def compute_pbar(state: PosteriorState) -> np.ndarray:
    """Posterior means normalized across features.

    Reporting quantity only; selection never consumes it.
    """
    means = state.alpha / (state.alpha + state.beta)
    return means / means.sum()


def select_action(
    state: PosteriorState,
    variant: Variant | str,
    table: FavoredTable,
    rng: SeededRng,
) -> int:
    """Pick the feature with the highest selection score among the features
    of ``table`` that have a favored input.

    Their ids come from :func:`seedsched.coverage.selectable_features`, the
    table's sorted array of checked ids, so they are not checked again.
    Scores are computed only for those ids, in id order, and the winner is
    mapped back to its feature id, so ties resolve to the smallest id.
    With every feature selectable this is one draw over all K features;
    ``greedy`` draws nothing.  At most ``_SCALAR_BETA_MAX`` shape pairs are
    shaped and scored as Python floats, with the same values as the array
    form.
    """
    if type(variant) is not Variant:
        variant = Variant.parse(variant)
    if not isinstance(table, FavoredTable):
        raise TypeError(f"select_action takes a FavoredTable, not {type(table).__name__}")
    selectable = selectable_features(table)
    n = len(selectable)
    if not n:
        raise EmptyCorpusError("no selectable feature; seed the corpus first")
    alpha, beta = state.alpha, state.beta
    k = len(alpha)
    if table.k_size != k:
        raise DimensionMismatch(f"the table has {table.k_size} features, the posterior {k}")
    if n < k:
        # unselectable features could never win, so draw none for them
        alpha, beta = alpha[selectable], beta[selectable]
    short_scores, short_max = _SHORT_SCORERS[variant]
    if n <= short_max:
        scores = short_scores(alpha.tolist(), beta.tolist(), rng)
        best = scores.index(max(scores))
    else:
        best = int(_scores(variant, alpha, beta, rng).argmax())
    return best if n == k else int(selectable[best])


def _scores(
    variant: Variant, alpha: np.ndarray, beta: np.ndarray, rng: SeededRng
) -> np.ndarray:
    """Selection scores of the features with these posterior parameters."""
    if variant is Variant.GREEDY:
        return alpha / (alpha + beta)
    if variant is Variant.RARE_MINUS:
        return rng.beta(alpha, beta)
    if variant is Variant.RARE_PLUS:
        return _phi(alpha, beta) * rng.beta(alpha, beta)
    # theta ~ Beta(alpha, beta) and psi ~ Beta(alpha + beta, alpha**2) in one draw
    n = alpha.size
    draws = rng.beta(
        np.concatenate((alpha, alpha + beta)), np.concatenate((beta, alpha * alpha))
    )
    return draws[:n] * draws[n:]


# The short forms of :func:`_scores`, on lists: each float operation is the
# one numpy applies per element, in the same order, so the scores are equal.


def _greedy_short(alpha: list[float], beta: list[float], rng: SeededRng) -> list[float]:
    return [a / (a + b) for a, b in zip(alpha, beta)]


def _rare_minus_short(alpha: list[float], beta: list[float], rng: SeededRng) -> list[float]:
    return rng.beta(alpha, beta)


def _rare_plus_short(alpha: list[float], beta: list[float], rng: SeededRng) -> list[float]:
    theta = rng.beta(alpha, beta)
    return [t / (a * a + t) * d for a, t, d in zip(alpha, map(add, alpha, beta), theta)]


def _sample_short(alpha: list[float], beta: list[float], rng: SeededRng) -> list[float]:
    # theta ~ Beta(alpha, beta) and psi ~ Beta(alpha + beta, alpha**2) in one draw
    n = len(alpha)
    draws = rng.beta(alpha + list(map(add, alpha, beta)), beta + [a * a for a in alpha])
    return list(map(mul, draws[:n], draws[n:]))


# variant -> (short scorer, most selectable features it scores): up to
# _SCALAR_BETA_MAX shape pairs, and ``sample`` draws two pairs per feature
_SHORT_SCORERS = {
    Variant.RARE_MINUS: (_rare_minus_short, _SCALAR_BETA_MAX),
    Variant.RARE_PLUS: (_rare_plus_short, _SCALAR_BETA_MAX),
    Variant.SAMPLE: (_sample_short, _SCALAR_BETA_MAX // 2),
    Variant.GREEDY: (_greedy_short, _SCALAR_BETA_MAX),
}
