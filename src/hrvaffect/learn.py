"""Classifiers, cross-validation and one-versus-rest ROC analysis.

The primary model is an extremely-randomized-trees ensemble built here rather
than borrowed: each tree trains on the full training set (no bootstrap), draws
k candidate features per node with one uniform threshold each inside that
feature's node-local range, and keeps the split with the largest Gini decrease
(Geurts, Ernst & Wehenkel, Mach. Learn. 2006).  All trees of a forest grow
together, level by level: one numpy pass splits every open node of every tree
at that depth.  Every pass over a fitted forest (prediction, the leaf boxes
that Shapley reads as one leaf set, the model.json check) goes the same way
over one flat node set.  Two simple baselines (kNN on z-scored features,
Gaussian naive Bayes) share the predict_proba contract for model selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import STREAM_FOLDS, STREAM_SPLIT, STREAM_TREES, derive_rng

DEFAULT_N_TREES = 100
DEFAULT_MIN_SAMPLES_LEAF = 2
FAMILY_NAMES = ("extra_trees", "knn", "gaussian_nb")
# (tree, row) pairs per forest pass: with 4 classes the leaf probabilities of
# one pass take 2 MB, whatever the number of rows or trees.
FOREST_CHUNK_PAIRS = 1 << 16


class SingleClassInputError(ValueError):
    pass


class EmptyMatrixError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


class ClassSmallerThanKError(ValueError):
    pass


def _check_matrix(X: np.ndarray, y: np.ndarray):
    if X.size == 0 or X.shape[0] == 0:
        raise EmptyMatrixError("feature matrix is empty")
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatchError(f"X has {X.shape[0]} rows, y has {y.shape[0]}")
    if not np.isfinite(X).all():
        raise ValueError("feature matrix contains non-finite values; drop those rows first")


def _encode_labels(y) -> tuple[tuple[str, ...], np.ndarray]:
    classes = tuple(sorted(set(y)))
    if len(classes) < 2:
        raise SingleClassInputError(f"need >= 2 classes, got {classes}")
    index = {c: i for i, c in enumerate(classes)}
    return classes, np.array([index[v] for v in y], dtype=np.int64)


# ---------------------------------------------------------------------------
# Extremely randomized trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tree:
    """One tree in flat arrays, the unit a model and model.json take; feature -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    probs: np.ndarray  # (n_nodes, n_classes); class distribution at every node

    def leaf_ids(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id per row of this tree alone, by the forest walk over
        this one tree; X must be C-contiguous float64."""
        return FlatForest.of((self,)).leaves(X)


@dataclass(frozen=True)
class FlatForest:
    """Every tree's nodes in one set of arrays: node i of tree t is node
    roots[t] + i, and children[2j] / children[2j+1] are node j's right / left
    child, so the boolean "goes left" indexes the pair directly."""

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    probs: np.ndarray
    roots: np.ndarray

    @classmethod
    def of(cls, trees: tuple[Tree, ...]) -> FlatForest:
        sizes = [tree.feature.size for tree in trees]
        roots = np.cumsum([0] + sizes[:-1])
        offset = np.repeat(roots, sizes)
        children = np.empty(2 * sum(sizes), dtype=np.int64)
        children[0::2] = np.concatenate([tree.right for tree in trees]) + offset
        children[1::2] = np.concatenate([tree.left for tree in trees]) + offset
        return cls(
            feature=np.concatenate([tree.feature for tree in trees]),
            threshold=np.concatenate([tree.threshold for tree in trees]),
            children=children,
            probs=np.concatenate([tree.probs for tree in trees]),
            roots=roots,
        )

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf reached by every (tree, row) pair, tree-major; X must be
        C-contiguous float64.  One numpy step moves every pair still at an
        internal node one depth down: x <= threshold goes left, so NaN and
        +inf go right at every finite split and -inf left."""
        n, n_features = X.shape
        flat = X.reshape(-1)
        nodes = np.repeat(self.roots, n)
        offsets = np.tile(np.arange(n) * n_features, self.roots.size)
        live = np.flatnonzero(self.feature[nodes] >= 0)
        while live.size:
            at = nodes[live]
            go_left = flat[offsets[live] + self.feature[at]] <= self.threshold[at]
            at = self.children[2 * at + go_left]
            nodes[live] = at
            live = live[self.feature[at] >= 0]
        return nodes


@dataclass(frozen=True)
class ExtraTreesParams:
    n_trees: int = DEFAULT_N_TREES
    k_features: int | None = None  # None -> ceil(sqrt(n_features))
    min_samples_leaf: int = DEFAULT_MIN_SAMPLES_LEAF

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.k_features is not None and self.k_features < 1:
            raise ValueError(f"k_features must be >= 1 when set, got {self.k_features}")
        if self.min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")


@dataclass(frozen=True)
class LearnConfig(ExtraTreesParams):
    """The evaluation protocol: model families, their settings, and the splits."""

    knn_k: int = 5
    cv_folds: int = 5
    holdout_fraction: float = 0.2
    families: tuple[str, ...] = FAMILY_NAMES
    subject_wise: bool = False

    def __post_init__(self):
        if self.knn_k < 1:
            raise ValueError(f"knn_k must be >= 1, got {self.knn_k}")
        if self.cv_folds < 2:
            raise ValueError(f"cv_folds must be >= 2, got {self.cv_folds}")
        if not 0 < self.holdout_fraction < 1:
            raise ValueError(f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}")
        if not self.families or not set(self.families) <= set(FAMILY_NAMES):
            raise ValueError(
                f"families must name one or more of {FAMILY_NAMES}, got {self.families}"
            )
        super().__post_init__()


@dataclass(frozen=True)
class ExtraTreesModel:
    trees: tuple[Tree, ...]
    params: ExtraTreesParams
    seed: int
    classes: tuple[str, ...]
    feature_names: tuple[str, ...]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf distribution over the trees; each row's trees are added
        in index order, whatever the chunking."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise DimensionMismatchError(
                f"expected (n, {len(self.feature_names)}) matrix, got {X.shape}"
            )
        forest = self.forest
        n_trees = len(self.trees)
        total = np.zeros((X.shape[0], len(self.classes)))
        step = max(1, FOREST_CHUNK_PAIRS // n_trees)
        for start in range(0, X.shape[0], step):
            chunk = X[start : start + step]
            block = forest.probs[forest.leaves(chunk)].reshape(n_trees, chunk.shape[0], -1)
            out = total[start : start + step]
            for tree_probs in block:
                out += tree_probs
        return total / n_trees

    @cached_property
    def forest(self) -> FlatForest:
        return FlatForest.of(self.trees)

    @cached_property
    def leaf_boxes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(leaves, lo, hi) over every tree's leaves, tree-major: a row reaches
        forest node leaves[j] iff lo[j] < routable(row) <= hi[j].  Built a
        depth at a time for all trees: a child takes its parent's box, cut at
        the threshold, where x <= threshold goes left as in predict_proba."""
        forest = self.forest
        shape = (forest.feature.size, len(self.feature_names))
        lo, hi = np.full(shape, -np.inf), np.full(shape, np.inf)
        nodes = forest.roots[forest.feature[forest.roots] >= 0]
        while nodes.size:
            f, thr = forest.feature[nodes], forest.threshold[nodes]
            right, left = forest.children[2 * nodes], forest.children[2 * nodes + 1]
            lo[left] = lo[right] = lo[nodes]
            hi[left] = hi[right] = hi[nodes]
            hi[left, f] = np.fmin(hi[nodes, f], thr)
            lo[right, f] = np.fmax(lo[nodes, f], thr)
            nodes = np.concatenate([left, right])
            nodes = nodes[forest.feature[nodes] >= 0]
        leaves = np.flatnonzero(forest.feature < 0)
        return leaves, lo[leaves], hi[leaves]


def routable(values: np.ndarray) -> np.ndarray:
    """Values as leaf boxes must see them to route them as the forest walk
    of ExtraTreesModel.predict_proba does: NaN and +inf go right at every
    finite split, -inf left."""
    return np.nan_to_num(values, nan=np.inf, posinf=np.inf, neginf=np.finfo(np.float64).min)


def _grow_forest(
    X: np.ndarray, y_enc: np.ndarray, n_classes: int, k: int, min_leaf: int,
    rngs: list[np.random.Generator],
) -> tuple[Tree, ...]:
    """Grow one tree per generator, all of them together one depth at a time.

    The open nodes of a depth are held in (tree, node id) order, and the rows
    that reach the splittable ones are sorted by node, so each node owns one
    run of `rows`.  Node ids are given depth by depth, so they follow that
    order.  Tree t's nodes at a depth draw, in node id order, from rngs[t]
    alone: a tree never depends on the trees built beside it.
    """
    n_rows, n_features = X.shape
    n_trees = len(rngs)
    k = min(k, n_features)
    flat = X.reshape(-1)
    # The open nodes of the current depth.
    tree_of = np.arange(n_trees)
    counts = np.tile(np.bincount(y_enc, minlength=n_classes), (n_trees, 1))
    rows = np.tile(np.arange(n_rows), n_trees)
    slot = np.repeat(np.arange(n_trees), n_rows)  # open node of each entry of rows
    next_id = np.ones(n_trees, dtype=np.int64)
    depths = []  # (tree_of, counts, feature, threshold, left) per depth
    while tree_of.size:
        feature = np.full(tree_of.size, -1, dtype=np.int64)
        threshold = np.full(tree_of.size, np.nan)
        left = np.full(tree_of.size, -1, dtype=np.int64)
        depths.append((tree_of, counts, feature, threshold, left))

        sizes = counts.sum(axis=1)
        splittable = (sizes >= 2 * min_leaf) & ((counts > 0).sum(axis=1) > 1)
        nodes = np.flatnonzero(splittable)
        if nodes.size == 0:
            break
        keep = splittable[slot]
        rows, slot = rows[keep], (np.cumsum(splittable) - 1)[slot[keep]]
        per_tree = np.bincount(tree_of[nodes], minlength=n_trees)

        # Per node: k distinct features (the first k of a random order) and
        # one uniform for each candidate's threshold.
        draws = np.concatenate([
            rngs[t].random((m, n_features + k)) for t, m in enumerate(per_tree) if m
        ])
        candidates = np.argsort(draws[:, :n_features], axis=1, kind="stable")[:, :k]
        values = flat[rows[:, None] * n_features + candidates[slot]]  # (entries, k)
        starts = np.concatenate([[0], np.cumsum(sizes[nodes])[:-1]])
        lo = np.minimum.reduceat(values, starts)
        hi = np.maximum.reduceat(values, starts)
        thresholds = lo + draws[:, n_features:] * (hi - lo)
        goes_left = values <= thresholds[slot]

        # Class counts left of each candidate split: one bincount over
        # (node, candidate, class).
        key = (slot[:, None] * k + np.arange(k)) * n_classes + y_enc[rows][:, None]
        left_counts = np.bincount(
            key[goes_left], minlength=nodes.size * k * n_classes
        ).reshape(nodes.size, k, n_classes)
        right_counts = counts[nodes][:, None, :] - left_counts
        n_left, n_right = left_counts.sum(axis=2), right_counts.sum(axis=2)
        valid = (
            (lo < thresholds) & (thresholds < hi)
            & (n_left >= min_leaf) & (n_right >= min_leaf)
        )
        # The Gini decrease of a split is (this score / node size) plus a
        # per-node constant, so its largest value picks the same candidate.
        with np.errstate(divide="ignore", invalid="ignore"):
            score = (
                (left_counts ** 2).sum(axis=2) / n_left
                + (right_counts ** 2).sum(axis=2) / n_right
            )
        best = np.argmax(np.where(valid, score, -np.inf), axis=1)  # first of ties
        split = np.flatnonzero(valid.any(axis=1))
        best_split = best[split]
        parents = nodes[split]

        # Children take the next ids of their tree, in parent order.
        parent_tree = tree_of[parents]
        splits = np.bincount(parent_tree, minlength=n_trees)
        rank = np.arange(split.size) - (np.cumsum(splits) - splits)[parent_tree]
        left_id = next_id[parent_tree] + 2 * rank
        next_id += 2 * splits
        feature[parents] = candidates[split, best_split]
        threshold[parents] = thresholds[split, best_split]
        left[parents] = left_id

        # Rows move to their children; children of split s sit at 2s and 2s+1.
        child = np.full(nodes.size, -1)
        child[split] = 2 * np.arange(split.size)
        moved = child[slot] >= 0
        went_right = ~goes_left[np.arange(slot.size), best[slot]]
        slot = (child[slot] + went_right)[moved]
        order = np.argsort(slot, kind="stable")
        rows, slot = rows[moved][order], slot[order]
        tree_of = np.repeat(parent_tree, 2)
        counts = np.stack(
            [left_counts[split, best_split], right_counts[split, best_split]], axis=1
        ).reshape(-1, n_classes)

    tree_of, counts, feature, threshold, left = (
        np.concatenate(parts) for parts in zip(*depths)
    )
    order = np.argsort(tree_of, kind="stable")
    bounds = np.cumsum(np.bincount(tree_of, minlength=n_trees))[:-1]
    probs = counts / counts.sum(axis=1, keepdims=True)
    right = np.where(left >= 0, left + 1, -1)
    return tuple(
        Tree(feature=f, threshold=thr, left=lft, right=rgt, probs=p)
        for f, thr, lft, rgt, p in zip(*(
            np.split(a[order], bounds) for a in (feature, threshold, left, right, probs)
        ))
    )


def train_extra_trees(
    X: np.ndarray,
    y,
    feature_names: tuple[str, ...],
    params: ExtraTreesParams = ExtraTreesParams(),
    seed: int = 0,
    fold: int | None = None,
) -> ExtraTreesModel:
    """Train the ensemble; deterministic given (X, y, params, seed, fold).

    All trees grow together, one depth at a time (see _grow_forest).  Every
    tree owns an independent random stream derived from the seed and its
    index, so a tree is the same however many trees are built beside it.  A
    model for CV fold `fold` keys its streams by the fold as well, so it never
    shares a stream with the model refit on the whole training partition.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    _check_matrix(X, y)
    classes, y_enc = _encode_labels(y)
    k = params.k_features if params.k_features is not None else math.ceil(math.sqrt(X.shape[1]))
    stream = (STREAM_TREES,) if fold is None else (STREAM_TREES, fold)
    trees = _grow_forest(
        X, y_enc, len(classes), k, params.min_samples_leaf,
        [derive_rng(seed, *stream, t) for t in range(params.n_trees)],
    )
    return ExtraTreesModel(
        trees=trees,
        # Only the forest's own fields, as model_from_dict rebuilds them, even
        # when params is a whole LearnConfig.
        params=ExtraTreesParams(params.n_trees, params.k_features, params.min_samples_leaf),
        seed=seed, classes=classes, feature_names=tuple(feature_names),
    )


_TREE_FIELDS = {"feature": np.int64, "threshold": np.float64, "left": np.int64,
                "right": np.int64, "probs": np.float64}


def model_to_dict(model: ExtraTreesModel) -> dict:
    """Self-describing JSON-ready document; each tree is its Tree node arrays."""
    return {
        "model_type": "extra_trees",
        "n_trees": model.params.n_trees,
        "k_features": model.params.k_features,
        "min_samples_leaf": model.params.min_samples_leaf,
        "seed": model.seed,
        "classes": list(model.classes),
        "feature_names": list(model.feature_names),
        "trees": [{key: getattr(t, key).tolist() for key in _TREE_FIELDS} for t in model.trees],
    }


def model_from_dict(doc: dict) -> ExtraTreesModel:
    """Inverse of model_to_dict; ValueError for any malformed document."""
    if not isinstance(doc, dict) or doc.get("model_type") != "extra_trees":
        raise ValueError("not an extra_trees model document")
    try:
        classes = tuple(doc["classes"])
        feature_names = tuple(doc["feature_names"])
        params = ExtraTreesParams(int(doc["n_trees"]), doc["k_features"], int(doc["min_samples_leaf"]))
        trees = tuple(
            Tree(**{key: np.asarray(t[key], dtype=dtype) for key, dtype in _TREE_FIELDS.items()})
            for t in doc["trees"]
        )
        seed = int(doc["seed"])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed model document ({type(exc).__name__}: {exc})") from None
    if len(trees) != params.n_trees:
        raise ValueError(f"model has {len(trees)} trees, n_trees says {params.n_trees}")
    for tree in trees:
        n = tree.feature.size
        if any(a.shape != (n,) for a in (tree.feature, tree.threshold, tree.left, tree.right)):
            raise ValueError("tree node arrays must be one-dimensional and of one length")
        if tree.probs.shape != (n, len(classes)):
            raise ValueError(f"tree probs must be ({n}, {len(classes)}), got {tree.probs.shape}")
    # Child ids above their parent's and below their tree's end rule out
    # cycles and walks into the next tree; distinct ones, shared subtrees.
    forest = FlatForest.of(trees)
    if ((forest.feature < -1) | (forest.feature >= len(feature_names))).any():
        raise ValueError(f"tree feature ids must be -1 (leaf) or below {len(feature_names)}")
    parents = np.flatnonzero(forest.feature >= 0)
    if not np.isfinite(forest.threshold[parents]).all():
        raise ValueError("tree thresholds must be finite at every split")
    probs = forest.probs
    if not (np.isfinite(probs).all() and (probs >= 0).all()
            and (np.abs(probs.sum(axis=1) - 1.0) <= 1e-6).all()):
        raise ValueError("tree probs rows must be finite, non-negative and sum to 1")
    ends = np.append(forest.roots[1:], forest.feature.size)
    ends = np.tile(ends[np.searchsorted(forest.roots, parents, side="right") - 1], 2)
    children = forest.children[np.concatenate([2 * parents, 2 * parents + 1])]
    misplaced = (children <= np.tile(parents, 2)) | (children >= ends)
    if misplaced.any() or np.unique(children).size != children.size:
        raise ValueError("tree child ids must be distinct, above their parent's and in range")
    return ExtraTreesModel(trees, params, seed, classes, feature_names)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnnModel:
    X_train: np.ndarray  # z-scored
    y_enc: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    k: int
    classes: tuple[str, ...]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.X_train.shape[1]:
            raise DimensionMismatchError(f"expected (n, {self.X_train.shape[1]}), got {X.shape}")
        Xz = (X - self.mean) / self.std
        out = np.zeros((X.shape[0], len(self.classes)))
        for i, row in enumerate(Xz):
            dist = np.sqrt(((self.X_train - row) ** 2).sum(axis=1))
            neighbors = np.argsort(dist, kind="stable")[: self.k]
            counts = np.bincount(self.y_enc[neighbors], minlength=len(self.classes))
            out[i] = counts / counts.sum()
        return out


def zscore_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean/std; zero-variance features get std 1 to stay inert."""
    mean = X.mean(axis=0)
    std = np.std(X, axis=0)
    std = np.where(std > 0, std, 1.0)
    return mean, std


def train_knn(X: np.ndarray, y, k: int) -> KnnModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    _check_matrix(X, y)
    classes, y_enc = _encode_labels(y)
    mean, std = zscore_fit(X)
    return KnnModel(
        X_train=(X - mean) / std, y_enc=y_enc, mean=mean, std=std,
        k=min(k, X.shape[0]), classes=classes,
    )


@dataclass(frozen=True)
class GaussianNbModel:
    class_log_prior: np.ndarray
    means: np.ndarray  # (n_classes, n_features)
    variances: np.ndarray
    classes: tuple[str, ...]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.means.shape[1]:
            raise DimensionMismatchError(f"expected (n, {self.means.shape[1]}), got {X.shape}")
        log_post = np.empty((X.shape[0], len(self.classes)))
        for c in range(len(self.classes)):
            log_like = -0.5 * (
                np.log(2.0 * np.pi * self.variances[c])
                + (X - self.means[c]) ** 2 / self.variances[c]
            ).sum(axis=1)
            log_post[:, c] = self.class_log_prior[c] + log_like
        log_post -= log_post.max(axis=1, keepdims=True)
        post = np.exp(log_post)
        return post / post.sum(axis=1, keepdims=True)


def train_gaussian_nb(X: np.ndarray, y) -> GaussianNbModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    _check_matrix(X, y)
    classes, y_enc = _encode_labels(y)
    n_classes = len(classes)
    means = np.empty((n_classes, X.shape[1]))
    variances = np.empty((n_classes, X.shape[1]))
    priors = np.empty(n_classes)
    # Variance smoothing keeps degenerate (constant) features finite.
    eps = 1e-9 * max(float(np.var(X, axis=0).max()), 1e-12)
    for c in range(n_classes):
        rows = X[y_enc == c]
        means[c] = rows.mean(axis=0)
        variances[c] = np.var(rows, axis=0) + eps
        priors[c] = rows.shape[0] / X.shape[0]
    return GaussianNbModel(
        class_log_prior=np.log(priors), means=means, variances=variances, classes=classes
    )


def train_family(
    family: str, X, y, feature_names, config: LearnConfig, seed: int, fold: int | None = None
):
    if family == "extra_trees":
        return train_extra_trees(X, y, feature_names, config, seed, fold)
    if family == "knn":
        return train_knn(X, y, config.knn_k)
    if family == "gaussian_nb":
        return train_gaussian_nb(X, y)
    raise ValueError(f"unknown model family {family!r}; known: {FAMILY_NAMES}")


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def stratified_kfold(y, k: int, seed: int = 0) -> np.ndarray:
    """Fold assignment per row; per-class counts across folds differ by <= 1."""
    y = np.asarray(y)
    rng = derive_rng(seed, STREAM_FOLDS)
    folds = np.full(y.shape[0], -1, dtype=np.int64)
    for c in sorted(set(y)):
        idx = np.flatnonzero(y == c)
        if idx.size < k:
            raise ClassSmallerThanKError(f"class {str(c)!r} has {idx.size} rows < k={k}")
        idx = rng.permutation(idx)
        base, extra = divmod(idx.size, k)
        start = 0
        for fold in range(k):
            size = base + (1 if fold < extra else 0)
            folds[idx[start : start + size]] = fold
            start += size
    return folds


def holdout_split(y, fraction: float, seed: int = 0):
    """Stratified (train_ids, test_ids); deterministic in seed."""
    y = np.asarray(y)
    rng = derive_rng(seed, STREAM_SPLIT)
    test_idx = []
    for c in sorted(set(y)):
        idx = rng.permutation(np.flatnonzero(y == c))
        n_test = min(int(round(fraction * idx.size)), idx.size - 1)
        test_idx.extend(idx[:n_test])
    test = np.array(sorted(test_idx), dtype=np.int64)
    train = np.setdiff1d(np.arange(y.shape[0]), test)
    return train, test


def subject_holdout_split(y, subjects, fraction: float, seed: int = 0):
    """Hold out whole subjects until roughly `fraction` of rows are reserved."""
    subjects = np.asarray(subjects)
    uniq = sorted(set(subjects))
    if len(uniq) < 2:
        raise ValueError("subject-wise split needs at least 2 subjects")
    rng = derive_rng(seed, STREAM_SPLIT)
    order = rng.permutation(len(uniq))
    target = fraction * subjects.shape[0]
    held, held_rows = [], 0
    for i in order:
        if held_rows >= target and held:
            break
        held.append(uniq[i])
        held_rows += int((subjects == uniq[i]).sum())
    if len(held) == len(uniq):
        held = held[:-1]
    mask = np.isin(subjects, held)
    return np.flatnonzero(~mask), np.flatnonzero(mask)


def subject_kfold(subjects, k: int, seed: int = 0) -> np.ndarray:
    """Fold assignment keeping each subject's rows together."""
    subjects = np.asarray(subjects)
    uniq = sorted(set(subjects))
    if len(uniq) < k:
        raise ClassSmallerThanKError(f"{len(uniq)} subjects < k={k} folds")
    rng = derive_rng(seed, STREAM_FOLDS)
    order = rng.permutation(len(uniq))
    folds = np.full(subjects.shape[0], -1, dtype=np.int64)
    for pos, i in enumerate(order):
        folds[subjects == uniq[i]] = pos % k
    return folds


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RocCurve:
    label: str
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc_binary(scores: np.ndarray, positives: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """ROC points and trapezoidal AUC for one binary problem.

    Thresholds sweep the distinct score values from high to low; tied scores
    fall at a single threshold, producing diagonal segments whose trapezoids
    count tied pairs one half, matching the Mann-Whitney statistic.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassInputError("ROC needs at least one positive and one negative")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = positives[order]
    # Indices where a run of tied scores ends.
    boundary = np.flatnonzero(np.diff(sorted_scores) != 0)
    ends = np.concatenate([boundary, [scores.size - 1]])
    tp = np.concatenate([[0], np.cumsum(sorted_pos)[ends]])
    fp = np.concatenate([[0], np.cumsum(~sorted_pos)[ends]])
    tpr = tp / n_pos
    fpr = fp / n_neg
    auc = float(np.trapezoid(tpr, fpr))
    return fpr, tpr, auc


def roc_ovr(scores: np.ndarray, y, classes: tuple[str, ...]) -> dict[str, RocCurve]:
    """One-versus-rest ROC per class from a (n, n_classes) score matrix."""
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y)
    curves = {}
    for i, label in enumerate(classes):
        positives = y == label
        if positives.all() or not positives.any():
            continue
        fpr, tpr, auc = roc_binary(scores[:, i], positives)
        curves[label] = RocCurve(label=label, fpr=fpr, tpr=tpr, auc=auc)
    return curves


# ---------------------------------------------------------------------------
# Evaluation protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyCvResult:
    family: str
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    std_accuracy: float


@dataclass(frozen=True)
class EvalReport:
    folds: int
    families: dict[str, FamilyCvResult]
    selected_family: str
    holdout_accuracy: float
    confusion_labels: tuple[str, ...]
    confusion_matrix: np.ndarray
    roc: dict[str, RocCurve]
    n_train: int
    n_holdout: int
    train_ids: np.ndarray
    holdout_ids: np.ndarray


def accuracy(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    return float((y_true == y_pred).mean())


def most_probable(classes: tuple[str, ...], proba: np.ndarray) -> np.ndarray:
    """Label of the most probable class per row of a (n, n_classes) matrix."""
    return np.array(classes)[np.argmax(proba, axis=1)]


def evaluate(
    X: np.ndarray,
    y,
    feature_names: tuple[str, ...],
    config: LearnConfig,
    seed: int,
    subjects=None,
) -> tuple[EvalReport, dict]:
    """Hold out config.holdout_fraction of the rows (whole subjects when
    config.subject_wise), cross-validate each family on the rest in
    config.cv_folds folds, and refit the winner.

    Selection is highest mean CV accuracy, ties broken by lower standard
    deviation then family order.  The winner refits on the full training
    partition and scores the holdout once, including per-class OVR ROC.
    Returns the report plus the fitted winner and extra_trees, which
    downstream explanation requires; no other family is refitted.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    _check_matrix(X, y)
    folds, families = config.cv_folds, config.families
    if config.subject_wise:
        if subjects is None:
            raise ValueError("subject_wise evaluation requires subjects")
        train_ids, holdout_ids = subject_holdout_split(y, subjects, config.holdout_fraction, seed)
        fold_of = subject_kfold(np.asarray(subjects)[train_ids], folds, seed)
    else:
        train_ids, holdout_ids = holdout_split(y, config.holdout_fraction, seed)
        fold_of = stratified_kfold(y[train_ids], folds, seed)
    unseen = sorted(set(y[holdout_ids].tolist()) - set(y[train_ids].tolist()))
    if unseen:
        raise ValueError(f"no training row has the held-out class {', '.join(map(repr, unseen))}")
    X_train, y_train = X[train_ids], y[train_ids]
    X_hold, y_hold = X[holdout_ids], y[holdout_ids]

    cv_results: dict[str, FamilyCvResult] = {}
    for family in families:
        fold_acc = []
        for fold in range(folds):
            val = fold_of == fold
            model = train_family(
                family, X_train[~val], y_train[~val], feature_names, config, seed, fold
            )
            predicted = most_probable(model.classes, model.predict_proba(X_train[val]))
            fold_acc.append(accuracy(y_train[val], predicted))
        cv_results[family] = FamilyCvResult(
            family=family,
            fold_accuracies=tuple(fold_acc),
            mean_accuracy=float(np.mean(fold_acc)),
            std_accuracy=float(np.std(fold_acc)),
        )

    selected = min(
        cv_results.values(),
        key=lambda r: (-r.mean_accuracy, r.std_accuracy, families.index(r.family)),
    ).family

    fitted = {
        family: train_family(family, X_train, y_train, feature_names, config, seed)
        for family in sorted({selected, "extra_trees"})
    }
    best_model = fitted[selected]
    holdout_proba = best_model.predict_proba(X_hold)
    y_pred = most_probable(best_model.classes, holdout_proba)

    classes = best_model.classes
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    class_index = {c: i for i, c in enumerate(classes)}
    for true, pred in zip(y_hold, y_pred):
        confusion[class_index[true], class_index[pred]] += 1

    report = EvalReport(
        folds=folds,
        families=cv_results,
        selected_family=selected,
        holdout_accuracy=accuracy(y_hold, y_pred),
        confusion_labels=classes,
        confusion_matrix=confusion,
        roc=roc_ovr(holdout_proba, y_hold, classes),
        n_train=int(train_ids.size),
        n_holdout=int(holdout_ids.size),
        train_ids=train_ids,
        holdout_ids=holdout_ids,
    )
    return report, fitted
