import math

import numpy as np
import pytest

from hrvaffect.explain import (
    EmptyBackgroundError,
    ExplainConfig,
    global_importance,
    sample_background,
    shapley_explain,
)
from hrvaffect.learn import (
    DimensionMismatchError,
    ExtraTreesModel,
    ExtraTreesParams,
    Tree,
    train_extra_trees,
)
from oracles import oracle_shapley_permutations


def leaf_tree(probs):
    return Tree(
        feature=np.array([-1]),
        threshold=np.array([math.nan]),
        left=np.array([-1]),
        right=np.array([-1]),
        probs=np.array([probs], dtype=np.float64),
    )


def stump_tree(feature, threshold, left_probs, right_probs):
    return Tree(
        feature=np.array([feature, -1, -1]),
        threshold=np.array([threshold, math.nan, math.nan]),
        left=np.array([1, -1, -1]),
        right=np.array([2, -1, -1]),
        probs=np.array([[0.5, 0.5], left_probs, right_probs], dtype=np.float64),
    )


def make_model(trees, n_features, classes=("a", "b")):
    return ExtraTreesModel(
        trees=tuple(trees),
        params=ExtraTreesParams(n_trees=len(trees)),
        seed=0,
        classes=tuple(classes),
        feature_names=tuple(f"f{i}" for i in range(n_features)),
    )


class TestShapleyExplain:
    def test_constant_model_all_zero(self):
        model = make_model([leaf_tree([0.7, 0.3])], n_features=4)
        background = np.zeros((5, 4))
        explanation = shapley_explain(model, np.ones(4), background, "a")
        assert np.array_equal(explanation.phi, np.zeros(4))
        assert explanation.base_value == pytest.approx(0.7)

    def test_stump_routing_opposite_to_background(self):
        # x routes right (prob 0.9 for class a); every background row routes
        # left (prob 0.2): the single split feature carries the whole gap.
        model = make_model([stump_tree(0, 0.5, [0.2, 0.8], [0.9, 0.1])], n_features=3)
        background = np.zeros((4, 3))
        x = np.array([1.0, 0.0, 0.0])
        explanation = shapley_explain(model, x, background, "a")
        assert explanation.base_value == pytest.approx(0.2)
        assert explanation.phi[0] == pytest.approx(0.7)
        assert explanation.phi[1] == pytest.approx(0.0)
        assert explanation.phi[2] == pytest.approx(0.0)

    def test_local_accuracy_identity(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 5))
        y = np.where(X[:, 0] + X[:, 1] > 0, "a", "b")
        model = train_extra_trees(
            X, y, tuple(f"f{i}" for i in range(5)), ExtraTreesParams(n_trees=10), seed=2
        )
        background = X[:20]
        for i in (0, 7, 13):
            explanation = shapley_explain(model, X[i], background, "a")
            direct = model.predict_proba(X[i : i + 1])[0][model.classes.index("a")]
            assert explanation.prediction == pytest.approx(direct, abs=1e-6)

    def test_dummy_feature_exactly_zero(self):
        # Feature 2 is never split on: every coalition value is unchanged by
        # toggling it, so its attribution is exactly zero.
        model = make_model(
            [stump_tree(0, 0.5, [0.2, 0.8], [0.9, 0.1]),
             stump_tree(1, 0.0, [0.4, 0.6], [0.5, 0.5])],
            n_features=3,
        )
        rng = np.random.default_rng(1)
        background = rng.normal(size=(8, 3))
        explanation = shapley_explain(model, np.array([2.0, 1.0, -3.0]), background, "a")
        assert explanation.phi[2] == 0.0

    def test_symmetric_features_equal_phi(self):
        # Two stumps, one per feature, identical geometry: interchangeable
        # players must receive equal attribution.
        model = make_model(
            [stump_tree(0, 0.5, [0.2, 0.8], [0.9, 0.1]),
             stump_tree(1, 0.5, [0.2, 0.8], [0.9, 0.1])],
            n_features=2,
        )
        background = np.zeros((3, 2))
        explanation = shapley_explain(model, np.array([1.0, 1.0]), background, "a")
        assert explanation.phi[0] == pytest.approx(explanation.phi[1], abs=1e-9)

    @pytest.mark.parametrize("n_features", [2, 3, 5])
    def test_matches_permutation_enumeration(self, n_features):
        rng = np.random.default_rng(n_features)
        X = rng.normal(size=(40, n_features))
        y = np.where(X.sum(axis=1) > 0, "a", "b")
        model = train_extra_trees(
            X, y, tuple(f"f{i}" for i in range(n_features)),
            ExtraTreesParams(n_trees=8), seed=1,
        )
        background = X[:10]
        x = X[25]
        class_index = model.classes.index("a")

        def value_fn(coalition):
            composite = background.copy()
            cols = sorted(coalition)
            if cols:
                composite[:, cols] = x[cols]
            return float(model.predict_proba(composite)[:, class_index].mean())

        expected = oracle_shapley_permutations(value_fn, n_features)
        explanation = shapley_explain(model, x, background, "a")
        assert np.allclose(explanation.phi, expected, atol=1e-9)

    def test_empty_background_rejected(self):
        model = make_model([leaf_tree([1.0, 0.0])], n_features=2)
        with pytest.raises(EmptyBackgroundError):
            shapley_explain(model, np.zeros(2), np.zeros((0, 2)), "a")

    def test_dimension_mismatch(self):
        model = make_model([leaf_tree([1.0, 0.0])], n_features=3)
        with pytest.raises(DimensionMismatchError):
            shapley_explain(model, np.zeros(2), np.zeros((4, 2)), "a")


class TestSampleBackground:
    def test_returns_all_rows_when_small(self):
        X = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(sample_background(X, 10, seed=0), X)

    def test_seeded_subsample(self):
        X = np.arange(300.0).reshape(100, 3)
        a = sample_background(X, 10, seed=5)
        b = sample_background(X, 10, seed=5)
        assert np.array_equal(a, b)
        assert a.shape == (10, 3)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(120, 4))
    y = np.where(X[:, 0] > 0, "hi", "lo")
    model = train_extra_trees(
        X, y, ("f0", "f1", "f2", "f3"), ExtraTreesParams(n_trees=10), seed=3
    )
    return model, X, y


class TestGlobalImportance:

    def test_driving_feature_ranks_first(self, fitted):
        model, X, y = fitted
        report = global_importance(
            model, X[:30], y[:30], list(range(30)), X[30:60],
            ExplainConfig(max_instances=12), seed=0,
        )
        assert report.ranking[0] == "f0"
        assert report.n_explained == 12
        assert len(report.ranking) == 4

    def test_per_state_groups_cover_labels(self, fitted):
        model, X, y = fitted
        report = global_importance(
            model, X[:30], y[:30], list(range(30)), X[30:60],
            ExplainConfig(max_instances=12), seed=0,
        )
        assert set(report.per_state_mean_abs) <= {"hi", "lo"}
        for means in report.per_state_mean_abs.values():
            assert means.shape == (4,)
            assert (means >= 0).all()

    def test_points_carry_feature_values(self, fitted):
        model, X, y = fitted
        report = global_importance(
            model, X[:10], y[:10], list(range(10)), X[30:60],
            ExplainConfig(max_instances=5), seed=0,
        )
        assert len(report.points) == 5 * 4
        instance_id, state, feature, phi, value = report.points[0]
        assert feature == "f0"
        assert isinstance(phi, float) and isinstance(value, float)

    def test_points_equal_per_instance_explanations_exactly(self, fitted):
        model, X, y = fitted
        X_nan = X[:20].copy()
        X_nan[3, 1] = np.nan
        X_nan[7, 2] = -np.inf
        report = global_importance(
            model, X_nan, y[:20], [f"w{i}" for i in range(20)], X[30:60],
            ExplainConfig(max_instances=9), seed=1,
        )
        by_instance = {}
        for instance_id, state, feature, phi, value in report.points:
            by_instance.setdefault(instance_id, {})[feature] = phi
        assert len(by_instance) == 9
        for instance_id, phis in by_instance.items():
            i = int(instance_id[1:])
            alone = shapley_explain(model, X_nan[i], X[30:60], str(y[i]))
            assert [phis[name] for name in model.feature_names] == alone.phi.tolist()

    def test_duplicated_feature_importance_splits_but_sums(self):
        # Duplicating the informative feature should leave the pair's summed
        # importance near the original single-feature importance.  Every
        # feature is a split candidate at every node (k = n_features) so the
        # two models face the same selection pressure and differ only in the
        # duplication itself.
        rng = np.random.default_rng(4)
        X_single = rng.normal(size=(150, 3))
        y = np.where(X_single[:, 0] > 0, "a", "b")
        X_double = np.column_stack([X_single[:, 0], X_single])  # f0 duplicated

        single = train_extra_trees(
            X_single, y, ("f0", "f1", "f2"),
            ExtraTreesParams(n_trees=60, k_features=3), seed=5,
        )
        double = train_extra_trees(
            X_double, y, ("f0a", "f0b", "f1", "f2"),
            ExtraTreesParams(n_trees=60, k_features=4), seed=5,
        )
        rep_single = global_importance(
            single, X_single[:40], y[:40], list(range(40)), X_single[60:110],
            ExplainConfig(max_instances=20), seed=1,
        )
        rep_double = global_importance(
            double, X_double[:40], y[:40], list(range(40)), X_double[60:110],
            ExplainConfig(max_instances=20), seed=1,
        )
        lone = rep_single.global_mean_abs[0]
        pair = rep_double.global_mean_abs[0] + rep_double.global_mean_abs[1]
        assert pair == pytest.approx(lone, rel=0.10)
