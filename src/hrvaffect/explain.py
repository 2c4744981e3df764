"""Exact Shapley attribution of the tree ensemble's per-class probability.

The value of a coalition S is the interventional expectation over a background
set: background rows with the features in S overwritten by the explained
instance's values, pushed through the model, averaged.  Each tree leaf is a
box of (lo, hi] edges, and per background row its share of that game has a
closed-form Shapley value (interventional Tree SHAP; Lundberg et al., Nature
MI 2020): exact attributions at a cost linear in leaves x background rows,
with no 2^F coalition enumeration.  One pass over every tree's leaves at once
(ExtraTreesModel.leaf_boxes) explains an instance; a box's admission of a row
is one bit per feature, packed along the feature axis into a leading axis of
bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import STREAM_BACKGROUND, STREAM_EXPLAIN, derive_rng
from .learn import DimensionMismatchError, ExtraTreesModel, routable


class EmptyBackgroundError(ValueError):
    pass


@dataclass(frozen=True)
class ExplainConfig:
    """How many training rows form the background, and how many instances are explained."""

    background_size: int = 100
    max_instances: int = 200

    def __post_init__(self):
        if min(self.background_size, self.max_instances) < 1:
            raise ValueError("background_size and max_instances must be >= 1")


@dataclass(frozen=True)
class ShapExplanation:
    """Per-feature attribution of one instance's class probability."""

    base_value: float  # mean model output over the background set
    phi: np.ndarray  # one attribution per feature, model-output units

    @property
    def prediction(self) -> float:
        return self.base_value + float(self.phi.sum())


@dataclass(frozen=True)
class ImportanceReport:
    feature_names: tuple[str, ...]
    global_mean_abs: np.ndarray
    per_state_mean_abs: dict[str, np.ndarray]
    ranking: tuple[str, ...]  # descending global mean |phi|, ties by feature index
    points: tuple  # (instance_id, state, feature, phi, feature_value)
    n_explained: int


def _pair_weights(n_features: int) -> np.ndarray:
    """w[a, b] = (a-1)! b! / (a+b)!: the weight of a player in A; w[b, a] is B's."""
    fact = math.factorial
    w = np.zeros((n_features + 1, n_features + 1))
    for a in range(1, n_features + 1):
        for b in range(n_features + 1 - a):
            w[a, b] = fact(a - 1) * fact(b) / fact(a + b)
    return w


def _admits(model: ExtraTreesModel, row: np.ndarray) -> np.ndarray:
    """(bytes, leaves): whether each leaf box admits a routable row, one bit
    per feature, packed along the first axis."""
    _, lo, hi = model.leaf_boxes
    return np.packbits(((row > lo) & (row <= hi)).T, axis=0)


def _background_in(model: ExtraTreesModel, background: np.ndarray) -> np.ndarray:
    """(bytes, rows, leaves): _admits for each background row.  It does not
    depend on the instance explained."""
    background = np.asarray(background, dtype=np.float64)
    if background.ndim != 2 or background.shape[0] == 0:
        raise EmptyBackgroundError("background must be a non-empty (n, features) matrix")
    if background.shape[1] != len(model.feature_names):
        raise DimensionMismatchError(
            f"instance/background must have {len(model.feature_names)} features"
        )
    return np.stack([_admits(model, row) for row in routable(background)], axis=1)


def _explain(
    model: ExtraTreesModel,
    x: np.ndarray,
    background_in: np.ndarray,
    class_label: str,
) -> ShapExplanation:
    x = np.asarray(x, dtype=np.float64).ravel()
    n_features = len(model.feature_names)
    if x.size != n_features:
        raise DimensionMismatchError(
            f"instance/background must have {n_features} features"
        )
    class_index = model.classes.index(class_label)
    x_in = _admits(model, routable(x))
    # The byte axis leads, so the reduction over it runs on whole planes.
    every = np.packbits(np.ones(n_features, dtype=bool))[:, None, None]
    rows, cols = np.nonzero(((x_in[:, None, :] | background_in) == every).all(axis=0))
    x_in, r_in = x_in[:, cols], background_in[:, rows, cols]  # (bytes, pairs)
    only_x, only_r = x_in & ~r_in, r_in & ~x_in
    a = np.bitwise_count(only_x).sum(axis=0)
    b = np.bitwise_count(only_r).sum(axis=0)
    value = model.forest.probs[model.leaf_boxes[0][cols], class_index]
    weights = _pair_weights(n_features)
    phi = (
        np.unpackbits(only_x, axis=0, count=n_features) @ (value * weights[a, b])
        - np.unpackbits(only_r, axis=0, count=n_features) @ (value * weights[b, a])
    )
    n_pairs = model.forest.roots.size * background_in.shape[1]
    return ShapExplanation(base_value=float(value[a == 0].sum()) / n_pairs, phi=phi / n_pairs)


def shapley_explain(
    model: ExtraTreesModel,
    x: np.ndarray,
    background: np.ndarray,
    class_label: str,
) -> ShapExplanation:
    """Exact Shapley attributions for one instance and one class.

    For a leaf box and a background row r, A holds the features whose edges
    admit only x and B those admitting only r; if a feature admits neither the
    leaf is unreachable.  Its value v adds v(|A|-1)!|B|!/(|A|+|B|)! to each i
    in A and -v|A|!(|B|-1)!/(|A|+|B|)! to each i in B, averaged over trees and
    rows; base_value, v(empty set), is the mean v over the pairs with A empty.
    By the Shapley identity, base_value + sum(phi) equals the probability on x.
    """
    return _explain(model, x, _background_in(model, background), class_label)


def sample_background(X: np.ndarray, size: int, seed: int = 0) -> np.ndarray:
    """Seeded background subsample; all rows when fewer than `size`."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise EmptyBackgroundError("no rows to sample background from")
    if X.shape[0] <= size:
        return X.copy()
    rng = derive_rng(seed, STREAM_BACKGROUND)
    return X[rng.choice(X.shape[0], size=size, replace=False)]


def feature_order(means) -> list[int]:
    """Feature indices by descending mean |phi|, ties by feature index."""
    return sorted(range(len(means)), key=lambda i: (-means[i], i))


def global_importance(
    model: ExtraTreesModel,
    X: np.ndarray,
    y,
    instance_ids,
    train_X: np.ndarray,
    config: ExplainConfig,
    seed: int,
) -> ImportanceReport:
    """Mean |phi| per feature, globally and per state, over at most
    config.max_instances sampled instances, against a background of at most
    config.background_size rows of train_X.

    Each instance is explained for its own true label so the per-state
    grouping reflects what drives that state's probability.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    instance_ids = list(instance_ids)
    if X.shape[0] == 0:
        raise EmptyBackgroundError("no instances to explain")
    indices = np.arange(X.shape[0])
    if indices.size > config.max_instances:
        rng = derive_rng(seed, STREAM_EXPLAIN)
        indices = np.sort(rng.choice(indices, size=config.max_instances, replace=False))

    background_in = _background_in(model, sample_background(train_X, config.background_size, seed))
    states = [str(label) for label in y[indices]]
    phi = np.array([
        _explain(model, X[idx], background_in, state).phi for idx, state in zip(indices, states)
    ])  # (instances, features)
    abs_phi = np.abs(phi)
    global_mean = abs_phi.sum(axis=0) / indices.size
    of_state = np.array(states)
    return ImportanceReport(
        feature_names=model.feature_names,
        global_mean_abs=global_mean,
        per_state_mean_abs={
            state: abs_phi[of_state == state].sum(axis=0) / np.count_nonzero(of_state == state)
            for state in sorted(set(states))
        },
        ranking=tuple(model.feature_names[i] for i in feature_order(global_mean)),
        points=tuple(
            (instance_ids[idx], state, name, p, v)
            for idx, state, row in zip(indices, states, phi.tolist())
            for name, p, v in zip(model.feature_names, row, X[idx].tolist())
        ),
        n_explained=int(indices.size),
    )
