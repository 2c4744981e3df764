"""The compact model.json writer holds the document write_json would, and
read_csv reports where each row of a derived CSV is."""

import numpy as np
import pytest

from hrvaffect.learn import ExtraTreesParams, model_to_dict, train_extra_trees
from hrvaffect.serialize import (
    read_csv, read_json, round9, round9_array, write_compact_json, write_csv, write_json,
)


def test_round9_array_is_round9_over_the_array():
    rng = np.random.default_rng(4)
    a = rng.normal(scale=1e3, size=(40, 3)) ** 3
    a[0, 0], a[1, 1], a[2, 2], a[3, 0] = np.nan, np.inf, -np.inf, 0.1 + 0.2
    assert round9_array(a) == round9(a.tolist())
    assert round9_array(a[:, 0]) == round9(a[:, 0].tolist())


def test_compact_model_json_loads_as_the_indented_document(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 5))
    y = np.array(["a", "b", "c"] * 20)
    doc = model_to_dict(train_extra_trees(X, y, "vwxyz", ExtraTreesParams(n_trees=4), seed=1))
    write_json(tmp_path / "indented.json", doc, "abc")
    for tree in doc["trees"]:
        for key in ("threshold", "probs"):
            tree[key] = round9_array(tree[key])
    write_compact_json(tmp_path / "compact.json", doc, "abc")
    text = (tmp_path / "compact.json").read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert read_json(tmp_path / "compact.json") == read_json(tmp_path / "indented.json")


def test_read_csv_numbers_rows_by_their_line(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [["1", "x"], ["2", ""]], "abc")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n# note\n3,z\n")
    assert read_csv(path) == (
        ["a", "b"],
        [(3, {"a": "1", "b": "x"}), (4, {"a": "2", "b": ""}), (7, {"a": "3", "b": "z"})],
    )


@pytest.mark.parametrize("row", ["1", "1,2,3"])
def test_read_csv_row_of_another_width_names_its_line(tmp_path, row):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [["1", "x"], row.split(",")], "abc")
    with pytest.raises(ValueError, match=f"t.csv:4: expected 2 fields, got {row.count(',') + 1}"):
        read_csv(path)
