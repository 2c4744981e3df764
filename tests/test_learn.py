import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hrvaffect import learn as learn_mod
from hrvaffect.core import STREAM_TREES, derive_rng
from hrvaffect.learn import (
    ClassSmallerThanKError,
    DimensionMismatchError,
    EmptyMatrixError,
    ExtraTreesModel,
    ExtraTreesParams,
    LearnConfig,
    SingleClassInputError,
    Tree,
    accuracy,
    evaluate,
    holdout_split,
    model_from_dict,
    model_to_dict,
    most_probable,
    routable,
    roc_binary,
    roc_ovr,
    stratified_kfold,
    subject_holdout_split,
    subject_kfold,
    train_extra_trees,
    train_knn,
)
from oracles import oracle_auc, per_tree_leaf_ids, per_tree_proba

FEATURES = tuple(f"f{i}" for i in range(13))


def separable_fixture(n=200, seed=0, n_classes=2):
    """Classes fully separable on feature 0: class c occupies [c, c + 0.4]."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 13))
    y = np.array([f"c{i % n_classes}" for i in range(n)])
    for c in range(n_classes):
        rows = y == f"c{c}"
        X[rows, 0] = c + rng.uniform(0.0, 0.4, size=rows.sum())
    return X, y


class TestExtraTrees:
    def test_single_class_rejected(self):
        X = np.zeros((10, 13))
        with pytest.raises(SingleClassInputError):
            train_extra_trees(X, ["a"] * 10, FEATURES)

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrixError):
            train_extra_trees(np.zeros((0, 13)), [], FEATURES)

    def test_separable_data_perfect_holdout(self):
        X, y = separable_fixture()
        report, _ = evaluate(
            X, y, FEATURES, LearnConfig(n_trees=25, families=("extra_trees",)), seed=3,
        )
        assert report.holdout_accuracy == 1.0

    def test_same_seed_identical_trees(self):
        X, y = separable_fixture(n=80)
        a = train_extra_trees(X, y, FEATURES, ExtraTreesParams(n_trees=10), seed=5)
        b = train_extra_trees(X, y, FEATURES, ExtraTreesParams(n_trees=10), seed=5)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
            assert np.array_equal(ta.left, tb.left)
            assert np.array_equal(ta.probs, tb.probs)

    def test_different_seed_different_trees_same_separable_accuracy(self):
        X, y = separable_fixture()
        tr, te = holdout_split(y, 0.2, seed=0)
        a = train_extra_trees(X[tr], y[tr], FEATURES, ExtraTreesParams(n_trees=25), seed=1)
        b = train_extra_trees(X[tr], y[tr], FEATURES, ExtraTreesParams(n_trees=25), seed=2)
        assert not all(
            np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
            for ta, tb in zip(a.trees, b.trees)
        )
        assert accuracy(y[te], most_probable(a.classes, a.predict_proba(X[te]))) == 1.0
        assert accuracy(y[te], most_probable(b.classes, b.predict_proba(X[te]))) == 1.0

    def test_thresholds_strictly_inside_node_ranges(self):
        X, y = separable_fixture(n=60)
        model = train_extra_trees(X, y, FEATURES, ExtraTreesParams(n_trees=5), seed=1)
        lo, hi = X.min(axis=0), X.max(axis=0)
        for tree in model.trees:
            for node, f in enumerate(tree.feature):
                if f >= 0:
                    # Node-local ranges are nested in the global range.
                    assert lo[f] < tree.threshold[node] < hi[f]

    def test_leaf_probabilities_sum_to_one(self):
        X, y = separable_fixture(n=60, n_classes=3)
        model = train_extra_trees(X, y, FEATURES, ExtraTreesParams(n_trees=5), seed=1)
        for tree in model.trees:
            leaves = tree.feature < 0
            assert np.allclose(tree.probs[leaves].sum(axis=1), 1.0, atol=1e-9)

    def test_predict_proba_sums_to_one(self):
        X, y = separable_fixture(n=60, n_classes=4)
        model = train_extra_trees(X, y, FEATURES, ExtraTreesParams(n_trees=10), seed=1)
        proba = model.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        X, y = separable_fixture(n=40)
        model = train_extra_trees(X, y, FEATURES, ExtraTreesParams(n_trees=2), seed=1)
        with pytest.raises(DimensionMismatchError):
            model.predict_proba(np.zeros((3, 7)))

    def test_rank_preserving_perturbation_keeps_predictions(self):
        X, y = separable_fixture(n=80)
        model = train_extra_trees(X, y, FEATURES, ExtraTreesParams(n_trees=10), seed=4)
        thresholds: dict[int, list[float]] = {}
        for tree in model.trees:
            for node, f in enumerate(tree.feature):
                if f >= 0:
                    thresholds.setdefault(int(f), []).append(float(tree.threshold[node]))
        X_test = X[:20]
        perturbed = X_test.copy()
        for f, thrs in thresholds.items():
            gaps = np.abs(X_test[:, f][:, None] - np.array(thrs)[None, :])
            shift = gaps.min() / 2.0
            if shift > 0:
                perturbed[:, f] += shift * 1e-3
        assert np.array_equal(model.predict_proba(X_test), model.predict_proba(perturbed))

    def test_json_round_trip(self):
        X, y = separable_fixture(n=60, n_classes=3)
        model = train_extra_trees(X, y, FEATURES, ExtraTreesParams(n_trees=5), seed=1)
        doc = json.loads(json.dumps(model_to_dict(model)))
        restored = model_from_dict(doc)
        assert restored.classes == model.classes
        assert np.array_equal(restored.predict_proba(X), model.predict_proba(X))


def node_rows(tree, X):
    """Training rows reaching each node, routed as the forest walk of
    ExtraTreesModel.predict_proba routes them: x <= threshold goes left."""
    reach = {0: np.arange(X.shape[0])}
    for node in range(tree.feature.size):  # children follow their parent
        f = tree.feature[node]
        if f >= 0:
            rows = reach[node]
            go_left = X[rows, f] <= tree.threshold[node]
            reach[int(tree.left[node])] = rows[go_left]
            reach[int(tree.right[node])] = rows[~go_left]
    return reach


def tied_fixture(n=90, seed=0):
    """Three classes on coarse values: many ties, constant nodes and pure runs."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, 13)), 1)
    X[:, 3] = 1.0  # a feature constant everywhere
    y = np.array([f"c{i % 3}" for i in range(n)])
    X[y == "c0", 0] += 3.0
    return X, y


class TestBuilderInvariants:
    CASES = [
        (separable_fixture, 1, 4),
        (separable_fixture, 2, 4),
        (tied_fixture, 1, None),
        (tied_fixture, 3, 13),
        (tied_fixture, 7, 2),
    ]

    @pytest.mark.parametrize("fixture, min_leaf, k", CASES)
    def test_every_split_obeys_the_split_rules(self, fixture, min_leaf, k):
        X, y = fixture()
        model = train_extra_trees(
            X, y, FEATURES, ExtraTreesParams(n_trees=6, k_features=k, min_samples_leaf=min_leaf),
            seed=2,
        )
        y_enc = np.searchsorted(model.classes, y)
        for tree in model.trees:
            reach = node_rows(tree, X)
            assert sorted(reach) == list(range(tree.feature.size))
            for node, rows in reach.items():
                counts = np.bincount(y_enc[rows], minlength=len(model.classes))
                assert np.array_equal(tree.probs[node], counts / counts.sum())
                f = tree.feature[node]
                if np.count_nonzero(counts) == 1 or rows.size < 2 * min_leaf:
                    assert f == -1
                if f < 0:
                    continue
                col = X[rows, f]
                assert col.min() < tree.threshold[node] < col.max()
                assert reach[int(tree.left[node])].size >= min_leaf
                assert reach[int(tree.right[node])].size >= min_leaf

    @pytest.mark.parametrize("fold", [None, 1])
    def test_tree_does_not_depend_on_forest_size(self, fold):
        X, y = tied_fixture()
        small = train_extra_trees(X, y, FEATURES, ExtraTreesParams(n_trees=3), seed=8, fold=fold)
        large = train_extra_trees(X, y, FEATURES, ExtraTreesParams(n_trees=10), seed=8, fold=fold)
        for ts, tl in zip(small.trees, large.trees):
            assert np.array_equal(ts.feature, tl.feature)
            assert np.array_equal(ts.threshold, tl.threshold, equal_nan=True)
            assert np.array_equal(ts.left, tl.left)
            assert np.array_equal(ts.right, tl.right)
            assert np.array_equal(ts.probs, tl.probs)


@functools.cache
def tied_forest():
    X, y = tied_fixture()
    return train_extra_trees(X, y, FEATURES, ExtraTreesParams(n_trees=10), seed=3)


@st.composite
def rows_on_the_edges(draw, model=None):
    """Rows of NaN, +-inf, finite values and each column's split thresholds
    in `model` (tied_forest by default) themselves, where a tie goes left."""
    model = model or tied_forest()
    columns = []
    for f in range(len(model.feature_names)):
        ties = sorted({float(t.threshold[i])
                       for t in model.trees for i in np.flatnonzero(t.feature == f)})
        columns.append(st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf]),
            st.sampled_from(ties or [0.0]),
            st.floats(-5.0, 5.0),
        ))
    rows = draw(st.lists(st.tuples(*columns), min_size=1, max_size=30))
    return np.array(rows, dtype=np.float64)


@given(rows_on_the_edges())
def test_exactly_one_leaf_box_admits_each_row_the_leaf_leaf_ids_gives(X):
    """Over the forest's one leaf set: per tree, exactly one of its boxes
    admits each row, and it is the leaf the oracle walk of that tree gives."""
    routed = routable(X)[:, None, :]
    for model in (tied_forest(), forests_to_check()["root_leaf"]):
        leaves, lo, hi = model.leaf_boxes
        roots = model.forest.roots
        admits = ((routed > lo) & (routed <= hi)).all(axis=2)  # (rows, leaves)
        tree_of = np.searchsorted(roots, leaves, side="right") - 1
        for t, tree in enumerate(model.trees):
            mine = admits[:, tree_of == t]
            assert (mine.sum(axis=1) == 1).all()
            walked = per_tree_leaf_ids(tree, X)
            assert np.array_equal(leaves[tree_of == t][mine.argmax(axis=1)], roots[t] + walked)
            assert np.array_equal(tree.leaf_ids(X), walked)


def forests_to_check():
    """tied_forest, its first tree alone, and the forest with a bare root
    leaf inserted among its trees."""
    model = tied_forest()
    with_leaf = model.trees[:4] + (leaf([0.25, 0.5, 0.25]),) + model.trees[4:]
    return {
        "tied": model,
        "one_tree": dataclasses.replace(
            model, trees=model.trees[:1], params=ExtraTreesParams(n_trees=1)
        ),
        "root_leaf": dataclasses.replace(
            model, trees=with_leaf, params=ExtraTreesParams(n_trees=len(with_leaf))
        ),
    }


@pytest.mark.parametrize("chunk_pairs", [learn_mod.FOREST_CHUNK_PAIRS, 16])
@pytest.mark.parametrize("forest", ["tied", "one_tree", "root_leaf"])
@given(X=rows_on_the_edges())
@example(X=np.empty((0, len(FEATURES))))
def test_forest_pass_is_bit_equal_to_the_per_tree_sum(forest, chunk_pairs, X):
    model = forests_to_check()[forest]
    with pytest.MonkeyPatch.context() as patch:
        # 16 pairs hold one row of a 10- or 11-tree forest, 16 of one tree.
        patch.setattr(learn_mod, "FOREST_CHUNK_PAIRS", chunk_pairs)
        proba = model.predict_proba(X)
    assert proba.tobytes() == per_tree_proba(model, X).tobytes()


def test_forest_pass_does_not_call_the_per_tree_walk(monkeypatch):
    model = tied_forest()
    X, _ = tied_fixture(n=30, seed=5)
    expected = per_tree_proba(model, X)

    def refuse(self, X):
        raise AssertionError("Tree.leaf_ids called")

    monkeypatch.setattr(Tree, "leaf_ids", refuse)
    assert model.predict_proba(X).tobytes() == expected.tobytes()


def hand_model(trees, n_features=2, classes=("a", "b")):
    return ExtraTreesModel(
        trees=tuple(trees),
        params=ExtraTreesParams(n_trees=len(trees)),
        seed=0,
        classes=classes,
        feature_names=tuple(f"f{i}" for i in range(n_features)),
    )


def leaf(probs):
    return Tree(
        feature=np.array([-1]),
        threshold=np.array([math.nan]),
        left=np.array([-1]),
        right=np.array([-1]),
        probs=np.array([probs], dtype=np.float64),
    )


class TestPredictProba:
    def test_single_leaf_model_is_constant(self):
        model = hand_model([leaf([1.0, 0.0])])
        proba = model.predict_proba(np.array([[5.0, -3.0], [0.0, 0.0]]))
        assert np.array_equal(proba, [[1.0, 0.0], [1.0, 0.0]])

    def test_two_trees_voting_average(self):
        model = hand_model([leaf([1.0, 0.0]), leaf([0.0, 1.0])])
        proba = model.predict_proba(np.zeros((1, 2)))
        assert np.array_equal(proba, [[0.5, 0.5]])

    def test_stump_routes_rows_by_threshold(self):
        stump = Tree(
            feature=np.array([0, -1, -1]),
            threshold=np.array([0.5, math.nan, math.nan]),
            left=np.array([1, -1, -1]),
            right=np.array([2, -1, -1]),
            probs=np.array([[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]]),
        )
        model = hand_model([stump])
        proba = model.predict_proba(np.array([[0.4, 0.0], [0.6, 0.0], [0.5, 0.0]]))
        assert np.array_equal(proba[0], [0.9, 0.1])  # 0.4 <= 0.5 routes left
        assert np.array_equal(proba[1], [0.2, 0.8])
        assert np.array_equal(proba[2], [0.9, 0.1])  # boundary value routes left


class TestBaselines:
    def test_knn_exact_match(self):
        X, y = separable_fixture(n=40)
        model = train_knn(X, y, k=1)
        proba = model.predict_proba(X[:5])
        for i in range(5):
            assert proba[i, model.classes.index(y[i])] == 1.0

    def test_gaussian_nb_well_separated(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(400, 13))
        y = np.array(["a"] * 200 + ["b"] * 200)
        X[:200, 0] -= 3.0
        X[200:, 0] += 3.0
        report, _ = evaluate(
            X, y, FEATURES, LearnConfig(n_trees=5, families=("gaussian_nb",)), seed=0,
        )
        assert report.holdout_accuracy >= 0.95

    def test_zscore_uses_training_statistics_only(self):
        X, y = separable_fixture(n=50)
        model = train_knn(X, y, k=5)
        z = (X - model.mean) / model.std
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.array_equal(model.X_train, z)


class TestSplits:
    def test_balanced_folds(self):
        y = np.array([f"c{i % 4}" for i in range(100)])
        folds = stratified_kfold(y, k=5, seed=0)
        for fold in range(5):
            for c in range(4):
                assert ((folds == fold) & (y == f"c{c}")).sum() == 5

    def test_class_smaller_than_k(self):
        y = np.array(["a"] * 50 + ["amusement"] * 3)
        with pytest.raises(ClassSmallerThanKError, match="^class 'amusement' has 3 rows < k=5$"):
            stratified_kfold(y, k=5, seed=0)

    def test_determinism(self):
        y = np.array([f"c{i % 3}" for i in range(60)])
        assert np.array_equal(stratified_kfold(y, 5, seed=9), stratified_kfold(y, 5, seed=9))
        tr1, te1 = holdout_split(y, 0.2, seed=9)
        tr2, te2 = holdout_split(y, 0.2, seed=9)
        assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)

    def test_folds_partition_index_set(self):
        y = np.array([f"c{i % 4}" for i in range(101)])
        folds = stratified_kfold(y, k=5, seed=1)
        assert (folds >= 0).all() and (folds < 5).all()
        assert folds.size == 101

    def test_holdout_fraction_and_stratification(self):
        y = np.array(["a"] * 50 + ["b"] * 50)
        train, test = holdout_split(y, 0.2, seed=4)
        assert test.size == 20
        assert (y[test] == "a").sum() == 10
        assert np.intersect1d(train, test).size == 0
        assert np.union1d(train, test).size == 100

    def test_subject_wise_split_keeps_subjects_whole(self):
        y = np.array([f"c{i % 2}" for i in range(60)])
        subjects = np.array([f"s{i // 10}" for i in range(60)])
        train, test = subject_holdout_split(y, subjects, 0.2, seed=0)
        assert set(subjects[train]) & set(subjects[test]) == set()
        folds = subject_kfold(subjects[train], k=2, seed=0)
        for fold in range(2):
            fold_subjects = set(subjects[train][folds == fold])
            assert fold_subjects & set(subjects[train][folds != fold]) == set()


class TestRoc:
    def test_perfect_ranking(self):
        fpr, tpr, auc = roc_binary(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0], bool))
        assert auc == 1.0
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0

    def test_constant_scores_give_half(self):
        fpr, tpr, auc = roc_binary(np.full(10, 0.5), np.array([1, 0] * 5, bool))
        assert auc == pytest.approx(0.5)
        assert len(fpr) == 2  # single diagonal segment

    def test_worked_example(self):
        _, _, auc = roc_binary(np.array([0.9, 0.8, 0.4, 0.3]), np.array([1, 0, 1, 0], bool))
        assert auc == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassInputError):
            roc_binary(np.array([0.1, 0.2]), np.array([True, True]))

    def test_monotone_curve(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=50)
        labels = rng.uniform(size=50) > 0.5
        fpr, tpr, _ = roc_binary(scores, labels)
        assert np.all(np.diff(fpr) >= 0)
        assert np.all(np.diff(tpr) >= 0)

    @given(
        st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]), min_size=4, max_size=60),
        st.integers(min_value=0, max_value=2**30),
    )
    def test_auc_equals_pair_statistic(self, scores, label_seed):
        rng = np.random.default_rng(label_seed)
        labels = rng.uniform(size=len(scores)) > 0.5
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        _, _, auc = roc_binary(np.array(scores), labels)
        assert auc == pytest.approx(oracle_auc(scores, labels), abs=1e-9)

    def test_ovr_covers_all_present_classes(self):
        X, y = separable_fixture(n=120, n_classes=3)
        model = train_extra_trees(X, y, FEATURES, ExtraTreesParams(n_trees=10), seed=0)
        curves = roc_ovr(model.predict_proba(X), y, model.classes)
        assert set(curves) == {"c0", "c1", "c2"}


class TestEvaluate:
    def test_report_always_five_folds(self):
        X, y = separable_fixture(n=150, n_classes=3)
        report, _ = evaluate(X, y, FEATURES, LearnConfig(n_trees=10), seed=0)
        assert report.folds == 5
        for res in report.families.values():
            assert len(res.fold_accuracies) == 5

    def test_label_shuffled_fixture_near_chance(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(400, 13))
        y = np.array([f"c{i % 4}" for i in range(400)])
        report, _ = evaluate(
            X, y, FEATURES, LearnConfig(n_trees=25, families=("extra_trees",)), seed=7,
        )
        assert 0.15 <= report.holdout_accuracy <= 0.35

    def test_selection_prefers_higher_mean_cv(self):
        X, y = separable_fixture(n=200, n_classes=2)
        report, fitted = evaluate(X, y, FEATURES, LearnConfig(n_trees=10), seed=0)
        best = max(report.families.values(), key=lambda r: r.mean_accuracy)
        assert report.families[report.selected_family].mean_accuracy == best.mean_accuracy
        assert "extra_trees" in fitted  # always fitted for downstream explanation

    def test_confusion_matrix_row_sums(self):
        X, y = separable_fixture(n=150, n_classes=3)
        report, _ = evaluate(X, y, FEATURES, LearnConfig(n_trees=10), seed=0)
        assert report.confusion_matrix.sum() == report.n_holdout
        per_class = {c: (y[report.holdout_ids] == c).sum() for c in report.confusion_labels}
        for i, c in enumerate(report.confusion_labels):
            assert report.confusion_matrix[i].sum() == per_class[c]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fold_tree_streams_never_reuse_a_refit_stream(self, seed, monkeypatch):
        """Refit trees draw from (seed, STREAM_TREES, t); no CV fold model may
        draw from that stream for this seed or any other."""
        keys = []

        def recording_rng(*key):
            keys.append(key)
            return derive_rng(*key)

        monkeypatch.setattr(learn_mod, "derive_rng", recording_rng)
        X, y = separable_fixture(n=60, n_classes=2)
        n_trees, folds = 3, 2
        evaluate(X, y, FEATURES, LearnConfig(n_trees=n_trees, cv_folds=folds,
                 families=("extra_trees",)), seed=seed)
        tree_keys = [k for k in keys if k[1:2] == (STREAM_TREES,)]
        fold_keys, refit_keys = tree_keys[:-n_trees], tree_keys[-n_trees:]
        assert refit_keys == [(seed, STREAM_TREES, t) for t in range(n_trees)]
        assert len(fold_keys) == folds * n_trees
        any_refit = {(s, STREAM_TREES, t) for s in range(seed * folds + folds) for t in range(n_trees)}
        assert not any_refit & set(fold_keys)
        assert len(set(fold_keys)) == len(fold_keys)
