"""Exact Shapley attribution of the tree ensemble's per-class probability.

The value of a coalition S is the interventional expectation over a background
set: background rows with the features in S overwritten by the explained
instance's values, pushed through the model, averaged.  Each tree leaf is a
box of (lo, hi] edges, and per background row its share of that game has a
closed-form Shapley value (interventional Tree SHAP; Lundberg et al., Nature
MI 2020): exact attributions at a cost linear in leaves x background rows,
with no 2^F coalition enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import STREAM_BACKGROUND, STREAM_EXPLAIN, derive_rng
from .learn import DimensionMismatchError, ExtraTreesModel, routable

DEFAULT_BACKGROUND_SIZE = 100
DEFAULT_MAX_INSTANCES = 200


class EmptyBackgroundError(ValueError):
    pass


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


def _background_in(model: ExtraTreesModel, background: np.ndarray) -> list[np.ndarray]:
    """Per tree, (rows, leaves, features): where each leaf box admits each
    background row.  It does not depend on the instance explained."""
    background = np.asarray(background, dtype=np.float64)
    if background.ndim != 2 or background.shape[0] == 0:
        raise EmptyBackgroundError("background must be a non-empty (n, features) matrix")
    if background.shape[1] != len(model.feature_names):
        raise DimensionMismatchError(
            f"instance/background must have {len(model.feature_names)} features"
        )
    background = routable(background)[:, None, :]
    return [(background > lo) & (background <= hi) for _, lo, hi in model.leaf_boxes]


def _explain(
    model: ExtraTreesModel,
    x: np.ndarray,
    background_in: list[np.ndarray],
    class_label: str,
) -> ShapExplanation:
    x = np.asarray(x, dtype=np.float64).ravel()
    n_features = len(model.feature_names)
    if x.size != n_features:
        raise DimensionMismatchError(
            f"instance/background must have {n_features} features"
        )
    class_index = model.classes.index(class_label)
    x = routable(x)
    weights = _pair_weights(n_features)
    phi = np.zeros(n_features)
    base_value = 0.0
    for tree, (leaves, lo, hi), r_in in zip(model.trees, model.leaf_boxes, background_in):
        x_in = (x > lo) & (x <= hi)  # (leaves, features)
        rows, cols = np.nonzero((x_in | r_in).all(axis=2))
        only_x = x_in[cols] & ~r_in[rows, cols]
        only_r = r_in[rows, cols] & ~x_in[cols]
        a, b = only_x.sum(axis=1), only_r.sum(axis=1)
        value = tree.probs[leaves[cols], class_index]
        base_value += float(value[a == 0].sum())
        phi += (value * weights[a, b]) @ only_x - (value * weights[b, a]) @ only_r
    n_pairs = len(model.trees) * background_in[0].shape[0]
    return ShapExplanation(base_value=base_value / n_pairs, phi=phi / n_pairs)


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


def sample_background(X: np.ndarray, size: int = DEFAULT_BACKGROUND_SIZE, seed: int = 0) -> np.ndarray:
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
    background: np.ndarray,
    seed: int = 0,
    max_instances: int = DEFAULT_MAX_INSTANCES,
) -> ImportanceReport:
    """Mean |phi| per feature, globally and per state, over sampled instances.

    Each instance is explained for its own true label so the per-state
    grouping reflects what drives that state's probability.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    instance_ids = list(instance_ids)
    if X.shape[0] == 0:
        raise EmptyBackgroundError("no instances to explain")
    indices = np.arange(X.shape[0])
    if indices.size > max_instances:
        rng = derive_rng(seed, STREAM_EXPLAIN)
        indices = np.sort(rng.choice(indices, size=max_instances, replace=False))

    n_features = len(model.feature_names)
    abs_sum = np.zeros(n_features)
    state_sums: dict[str, np.ndarray] = {}
    state_counts: dict[str, int] = {}
    points = []
    background_in = _background_in(model, background)
    for idx in indices:
        explanation = _explain(model, X[idx], background_in, str(y[idx]))
        abs_phi = np.abs(explanation.phi)
        abs_sum += abs_phi
        state = str(y[idx])
        state_sums.setdefault(state, np.zeros(n_features))
        state_sums[state] += abs_phi
        state_counts[state] = state_counts.get(state, 0) + 1
        for f, name in enumerate(model.feature_names):
            points.append(
                (instance_ids[idx], state, name, float(explanation.phi[f]), float(X[idx, f]))
            )

    global_mean = abs_sum / indices.size
    return ImportanceReport(
        feature_names=model.feature_names,
        global_mean_abs=global_mean,
        per_state_mean_abs={
            state: state_sums[state] / state_counts[state] for state in sorted(state_sums)
        },
        ranking=tuple(model.feature_names[i] for i in feature_order(global_mean)),
        points=tuple(points),
        n_explained=int(indices.size),
    )
