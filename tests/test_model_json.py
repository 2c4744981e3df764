"""model.json: each tree is stored as its Tree node arrays and loaded checked."""

import copy

import numpy as np
import pytest

from hrvaffect.learn import (
    ExtraTreesParams,
    LearnConfig,
    model_from_dict,
    model_to_dict,
    train_extra_trees,
    train_family,
)
from hrvaffect.serialize import read_json, write_json

FEATURES = tuple(f"f{i}" for i in range(13))


def three_class_fixture(n=90, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 13))
    y = np.array([f"c{i % 3}" for i in range(n)])
    X[:, 0] += np.array([int(label[1]) for label in y])
    return X, y


@pytest.fixture(scope="module")
def model():
    X, y = three_class_fixture()
    return train_extra_trees(X, y, FEATURES, ExtraTreesParams(n_trees=8), seed=3)


def round9(a):
    return np.array([float(f"{v:.9g}") for v in np.ravel(a)]).reshape(np.shape(a))


def test_saved_model_loads_node_for_node(model, tmp_path):
    write_json(tmp_path / "model.json", model_to_dict(model))
    restored = model_from_dict(read_json(tmp_path / "model.json"))
    assert restored.params == model.params
    assert (restored.seed, restored.classes, restored.feature_names) == (
        model.seed, model.classes, model.feature_names
    )
    assert len(restored.trees) == len(model.trees)
    for before, after in zip(model.trees, restored.trees):
        for name in ("feature", "left", "right"):
            np.testing.assert_array_equal(getattr(after, name), getattr(before, name))
        # write_json keeps 9 significant digits; a leaf's NaN threshold survives.
        for name in ("threshold", "probs"):
            np.testing.assert_array_equal(getattr(after, name), round9(getattr(before, name)))


def test_forest_fitted_under_a_learn_config_keeps_its_params_through_json():
    X, y = three_class_fixture()
    fitted = train_family("extra_trees", X, y, FEATURES, LearnConfig(n_trees=3), 0)
    assert model_from_dict(model_to_dict(fitted)).params == fitted.params


@pytest.mark.parametrize("params", [
    {"n_trees": 0},
    {"k_features": 0},
    {"k_features": -1},
    {"min_samples_leaf": 0},
], ids=["no_trees", "zero_k", "negative_k", "zero_min_leaf"])
def test_forest_settings_that_break_training_are_rejected(params):
    with pytest.raises(ValueError, match=next(iter(params))):
        ExtraTreesParams(**params)


def stump_doc():
    """A one-split tree in model.json's layout, with three classes."""
    return {
        "model_type": "extra_trees",
        "n_trees": 1,
        "k_features": None,
        "min_samples_leaf": 1,
        "seed": 0,
        "classes": ["a", "b", "c"],
        "feature_names": list(FEATURES),
        "trees": [{
            "feature": [2, -1, -1],
            "threshold": [0.5, None, None],
            "left": [1, -1, -1],
            "right": [2, -1, -1],
            "probs": [[0.4, 0.4, 0.2], [1.0, 0.0, 0.0], [0.0, 0.8, 0.2]],
        }],
    }


def test_stump_document_loads():
    model = model_from_dict(stump_doc())
    proba = model.predict_proba(np.array([[0.0] * 13, [1.0] * 13]))
    np.testing.assert_array_equal(proba, [[1.0, 0.0, 0.0], [0.0, 0.8, 0.2]])


def test_two_tree_document_loads():
    doc = stump_doc()
    _two_trees(lambda first, second: None)(doc)
    model = model_from_dict(doc)
    proba = model.predict_proba(np.array([[0.0] * 13, [1.0] * 13]))
    np.testing.assert_array_equal(proba, [[1.0, 0.0, 0.0], [0.0, 0.8, 0.2]])


def _tree(doc):
    return doc["trees"][0]


def _two_trees(edit):
    """The stump document with a copy of its tree as a second tree, then `edit`
    applied to the two trees."""
    def mutate(doc):
        doc["n_trees"] = 2
        doc["trees"].append(copy.deepcopy(_tree(doc)))
        edit(*doc["trees"])
    return mutate


MALFORMED = {
    "missing_tree_key": lambda doc: _tree(doc).pop("feature"),
    "missing_model_key": lambda doc: doc.pop("classes"),
    "lengths_differ": lambda doc: _tree(doc)["right"].append(-1),
    "probs_too_wide": lambda doc: [row.append(0.0) for row in _tree(doc)["probs"]],
    "probs_rows_missing": lambda doc: _tree(doc)["probs"].pop(),
    "feature_out_of_range": lambda doc: _tree(doc)["feature"].__setitem__(0, 13),
    "feature_below_leaf_mark": lambda doc: _tree(doc)["feature"].__setitem__(1, -2),
    "cycle": lambda doc: _tree(doc)["left"].__setitem__(0, 0),
    "child_past_last_node": lambda doc: _tree(doc)["right"].__setitem__(0, 3),
    "shared_child": lambda doc: _tree(doc)["right"].__setitem__(0, 1),
    "no_nodes": lambda doc: doc.__setitem__("trees", [{key: [] for key in _tree(doc)}]),
    "tree_count_differs": lambda doc: doc.__setitem__("n_trees", 2),
    "saved_params_invalid": lambda doc: doc.__setitem__("min_samples_leaf", 0),
    "non_numeric_array": lambda doc: _tree(doc).__setitem__("left", ["x", -1, -1]),
    "tree_not_an_object": lambda doc: doc.__setitem__("trees", [[2, -1, -1]]),
    "nested_layout": lambda doc: doc.__setitem__("trees", [{
        "feature": 2, "threshold": 0.5,
        "left": {"probs": [1.0, 0.0, 0.0]}, "right": {"probs": [0.0, 0.8, 0.2]},
    }]),
    # Node ids 0-2 of the second tree are 3-5 of the forest's one node set.
    "child_in_next_tree": _two_trees(lambda first, second: first["right"].__setitem__(0, 3)),
    "probs_rows_traded": _two_trees(
        lambda first, second: (first["probs"].pop(), second["probs"].append([1.0, 0.0, 0.0]))
    ),
    "cycle_in_second_tree": _two_trees(lambda first, second: second["left"].__setitem__(0, 0)),
    # A split compares against a number; only a leaf stores NaN.
    "nan_threshold_at_split": lambda doc: _tree(doc)["threshold"].__setitem__(0, None),
    "inf_threshold_at_split": lambda doc: _tree(doc)["threshold"].__setitem__(0, float("inf")),
    # Each probs row, at a leaf or a split, is a distribution over the classes.
    "probs_not_finite": lambda doc: _tree(doc)["probs"].__setitem__(1, [None, -3.0, 7.0]),
    "probs_negative": lambda doc: _tree(doc)["probs"].__setitem__(2, [-0.5, 1.0, 0.5]),
    "probs_sum_short": lambda doc: _tree(doc)["probs"].__setitem__(2, [0.0, 0.8, 0.19]),
    "probs_sum_over_at_split": lambda doc: _tree(doc)["probs"].__setitem__(0, [0.4, 0.4, 0.3]),
}


def test_probs_rows_off_one_by_rounding_load():
    """write_json keeps 9 digits, which moves a row's sum by about 1e-9."""
    doc = stump_doc()
    _tree(doc)["probs"] = [[1 / 3, 1 / 3, 0.333333333], [1.0, 0.0, 0.0], [0.0, 0.8, 0.2000001]]
    model_from_dict(doc)


@pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_document_is_a_value_error(mutate):
    doc = stump_doc()
    mutate(doc)
    with pytest.raises(ValueError):
        model_from_dict(doc)
