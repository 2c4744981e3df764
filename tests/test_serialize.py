"""The compact model.json writer holds the document write_json would,
read_csv reports where each row of a derived CSV is, and config.json, the
synthetic spec and the manifest are decoded under one rule."""

import copy
import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from hrvaffect.cli import main
from hrvaffect.dsp import FilterSpec, WindowSpec
from hrvaffect.ingest import (
    MAX_RENDERED_SAMPLES, InvalidSpecError, ParseError, StateSpec, SubjectFiles, SyntheticSpec,
    load_manifest, load_synthetic_spec,
)
from hrvaffect.learn import ExtraTreesParams, model_to_dict, train_extra_trees
from hrvaffect.pipeline import (
    ConfigInvalidError, ExplainConfig, LearnConfig, config_from_dict, run_hash,
)
from hrvaffect.serialize import (
    read_csv, read_json, round9, round9_array, write_compact_json, write_csv, write_json,
)


def test_round9_array_is_round9_over_the_array():
    rng = np.random.default_rng(4)
    a = rng.normal(scale=1e3, size=(40, 3)) ** 3
    a[0, 0], a[1, 1], a[2, 2], a[3, 0] = np.nan, np.inf, -np.inf, 0.1 + 0.2
    assert round9_array(a) == round9(a.tolist())
    assert round9_array(a[:, 0]) == round9(a[:, 0].tolist())


@pytest.mark.parametrize("value", [np.array([1.0, 2.0]), np.bool_(True), object()],
                         ids=["array", "numpy_bool", "object"])
def test_write_json_refuses_an_object_json_cannot_hold(tmp_path, value):
    """round9 passes such an object through, so json refuses it rather than
    writing its text or a number made from it."""
    assert round9([value])[0] is value
    with pytest.raises(TypeError):
        write_json(tmp_path / "doc.json", {"value": value})


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
        "abc", ["a", "b"], [(3, ["1", "x"]), (4, ["2", ""]), (7, ["3", "z"])],
    )


@pytest.mark.parametrize("row", ["1", "1,2,3"])
def test_read_csv_row_of_another_width_names_its_line(tmp_path, row):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [["1", "x"], row.split(",")], "abc")
    with pytest.raises(ValueError, match=f"t.csv:4: expected 2 fields, got {row.count(',') + 1}"):
        read_csv(path)


SPEC = {
    "duration_s": 30.0,
    "ecg_rate_hz": 350.0,
    "ppg_rate_hz": 64.0,
    "states": [
        {"label": "baseline", "mean_bpm": 65.0, "bpm_jitter_ms": 10.0, "duration_s": 15.0},
        {"label": "stress", "mean_bpm": 90.0, "bpm_jitter_ms": 10.0, "duration_s": 15.0},
    ],
    "seed": 3,
}
MANIFEST = {
    "dataset_name": "d",
    "label_scheme": "discrete_state",
    "subjects": [{
        "subject_id": "s1", "ecg_file": "e.csv", "ppg_file": "p.csv",
        "annotation_file": "a.csv", "ecg_rate_hz": 350.0, "ppg_rate_hz": 64.0,
        "annotation_rate_hz": 350.0,
    }],
}
DROP = object()

# One bad value (or, for DROP, a key taken away) at a path of each loader's
# valid document: config, spec, manifest; then the field ConfigInvalid names.
DECODE_CASES = {
    "bool_for_number": (
        (("window", "window_len_s"), True), (("states", 0, "bpm_jitter_ms"), True),
        (("subjects", 0, "ecg_rate_hz"), True), "window",
    ),
    "string_for_number": (
        (("learn", "holdout_fraction"), "0.3"), (("duration_s",), "30"),
        (("subjects", 0, "ecg_rate_hz"), "350"), "learn",
    ),
    "huge_number": (
        (("window", "overlap_s"), 10**400), (("noise_std",), 10**400),
        (("subjects", 0, "annotation_rate_hz"), 10**400), "window",
    ),
    "number_for_string": (
        (("box_feature",), 5), (("states", 0, "label"), 5), (("dataset_name",), 5), "box_feature",
    ),
    "string_for_list": (
        (("learn", "families"), "knn"), (("states",), "baseline"), (("subjects",), "s1"), "learn",
    ),
    "unknown_key": (
        (("extra_key",), 1), (("noise_sd",), 0.5), (("subjects", 0, "ecg_rate"), 350.0),
        "extra_key",
    ),
    # Every config key has a default; without its one input, the config is
    # refused by config_from_dict instead.
    "missing_key": (
        (("synthetic_spec_path",), DROP), (("duration_s",), DROP),
        (("subjects", 0, "ppg_rate_hz"), DROP), "manifest_path",
    ),
    "null_for_a_value": (
        (("seed",), None), (("noise_std",), None), (("subjects", 0, "ppg_file"), None), "seed",
    ),
    "unknown_label_scheme": (
        (("label_scheme",), "valence"), (("label_scheme",), "valence"),
        (("label_scheme",), "valence"), "label_scheme",
    ),
}


def _edited(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    section = doc
    for key in path[:-1]:
        section = section[key] if isinstance(section, list) else section.setdefault(key, {})
    if value is DROP:
        del section[path[-1]]
    else:
        section[path[-1]] = value
    return doc


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("config_edit, spec_edit, manifest_edit, field",
                         DECODE_CASES.values(), ids=DECODE_CASES.keys())
def test_every_loader_refuses_a_document_off_the_rule(
    tmp_path, config_edit, spec_edit, manifest_edit, field
):
    config = _edited({"synthetic_spec_path": "spec.json", "out_dir": str(tmp_path / "run")},
                     *config_edit)
    with pytest.raises(ConfigInvalidError) as info:
        config_from_dict(config)
    assert info.value.fieldname == field
    spec_path = _write(tmp_path / "spec.json", _edited(SPEC, *spec_edit))
    with pytest.raises(InvalidSpecError):
        load_synthetic_spec(spec_path)
    manifest_path = _write(tmp_path / "manifest.json", _edited(MANIFEST, *manifest_edit))
    with pytest.raises(ParseError):
        load_manifest(manifest_path)

    for args, error in [
        (["extract", "--config", _write(tmp_path / "config.json", config)], "ConfigInvalid"),
        (["synth", "--spec", spec_path, "--out", str(tmp_path / "data")], "InvalidSpec"),
        (["extract", "--manifest", manifest_path, "--out", str(tmp_path / "run")], "Parse"),
    ]:
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        payload = json.loads(result.output)
        assert payload["error"] == error
        if error == "ConfigInvalid":
            assert payload["field"] == field


STAGES = ["extract", "variance", "train-eval", "importance", "report"]

# One case per value rule a dataclass checks when it is built: a value that
# breaks it at a path (or a list of paths) of the config, spec or manifest;
# the error code; the field a ConfigInvalid names, or for a spec or manifest
# what its message names; and a direct construction the dataclass refuses.
RULE_CASES = {
    "filter_order": (
        "config", ("ecg_filter", "order"), 0, "ConfigInvalid", "ecg_filter",
        lambda: FilterSpec(0, 0.67, 40.0),
    ),
    "filter_order_above_cap": (
        "config", ("ppg_filter", "order"), 101, "ConfigInvalid", "ppg_filter",
        lambda: FilterSpec(101, 0.5, 8.0),
    ),
    "filter_band": (
        "config", ("ppg_filter", "low_cut_hz"), 9.0, "ConfigInvalid", "ppg_filter",
        lambda: FilterSpec(3, 9.0, 8.0),
    ),
    "window": (
        "config", ("window", "overlap_s"), 10.0, "ConfigInvalid", "window",
        lambda: WindowSpec(10.0, 10.0),
    ),
    "learn": (
        "config", ("learn", "cv_folds"), 1, "ConfigInvalid", "learn",
        lambda: LearnConfig(cv_folds=1),
    ),
    "knn_k": (
        "config", ("learn", "knn_k"), 0, "ConfigInvalid", "learn",
        lambda: LearnConfig(knn_k=0),
    ),
    "explain": (
        "config", ("explain", "max_instances"), 0, "ConfigInvalid", "explain",
        lambda: ExplainConfig(max_instances=0),
    ),
    "state_bpm": (
        "spec", ("states", 1, "mean_bpm"), 250.0, "InvalidSpec", "states[1] mean_bpm",
        lambda: StateSpec("stress", 250.0, 10.0, 15.0),
    ),
    "spec_durations": (
        "spec", ("duration_s",), 40.0, "InvalidSpec", "state durations sum to 30.0",
        lambda: SyntheticSpec(40.0, 350.0, 64.0, (StateSpec("baseline", 65.0, 10.0, 30.0),)),
    ),
    "spec_stream_counts": (
        "spec", ("ppg_rate_hz",), 0.55, "InvalidSpec", "ppg_rate_hz 0.55 renders 29.09s",
        lambda: SyntheticSpec(12.5, 100.0, 1.0, (StateSpec("baseline", 65.0, 10.0, 12.5),)),
    ),
    "spec_streams_far_from_duration": (
        "spec", [("ecg_rate_hz",), ("ppg_rate_hz",)], 0.001, "InvalidSpec",
        "ecg_rate_hz 0.001 renders 0.00s of duration_s 30.0",
        lambda: SyntheticSpec(30.0, 0.001, 0.001, (StateSpec("baseline", 65.0, 10.0, 30.0),)),
    ),
    "spec_rate_overflows": (
        "spec", ("ecg_rate_hz",), 1e308, "InvalidSpec", "ecg_rate_hz 1e+308 renders a sample count",
        lambda: SyntheticSpec(30.0, 1e308, 64.0, (StateSpec("baseline", 65.0, 10.0, 30.0),)),
    ),
    # A finite count above MAX_RENDERED_SAMPLES: 5.4e9 samples (43 GB per
    # array) at 1e7 Hz over 540 s, and far beyond numpy's limit at 1e20 Hz.
    "spec_rate_above_cap": (
        "spec", ("ecg_rate_hz",), 1e7, "InvalidSpec", "ecg_rate_hz 10000000.0 renders more than",
        lambda: SyntheticSpec(540.0, 1e7, 64.0, (StateSpec("baseline", 65.0, 10.0, 540.0),)),
    ),
    "spec_rate_far_above_cap": (
        "spec", ("ppg_rate_hz",), 1e20, "InvalidSpec", "ppg_rate_hz 1e+20 renders more than",
        lambda: SyntheticSpec(540.0, 350.0, 1e20, (StateSpec("baseline", 65.0, 10.0, 540.0),)),
    ),
    "manifest_rate": (
        "manifest", ("subjects", 0, "ppg_rate_hz"), 0.0, "Parse", "subjects[0] ecg_rate_hz",
        lambda: SubjectFiles("s1", "e.csv", "p.csv", "a.csv", 350.0, 0.0, 350.0),
    ),
    "subject_id": (
        "manifest", ("subjects", 0, "subject_id"), "", "Parse", "subjects[0] subject_id",
        lambda: SubjectFiles("", "e.csv", "p.csv", "a.csv", 350.0, 64.0, 350.0),
    ),
}


@pytest.mark.parametrize("document, where, value, error, field, build",
                         RULE_CASES.values(), ids=RULE_CASES.keys())
def test_each_value_rule_is_checked_on_its_dataclass(
    tmp_path, document, where, value, error, field, build
):
    with pytest.raises(ValueError):
        build()
    if document == "config":
        config = _edited({"synthetic_spec_path": "spec.json", "out_dir": str(tmp_path / "run")},
                         where, value)
        runs = [[stage, "--config", _write(tmp_path / "config.json", config)] for stage in STAGES]
    elif document == "spec":
        spec = SPEC
        for path in where if isinstance(where, list) else [where]:
            spec = _edited(spec, path, value)
        spec_path = _write(tmp_path / "spec.json", spec)
        runs = [["synth", "--spec", spec_path, "--out", str(tmp_path / "data")]]
    else:
        manifest_path = _write(tmp_path / "manifest.json", _edited(MANIFEST, where, value))
        runs = [["extract", "--manifest", manifest_path, "--out", str(tmp_path / "run")]]
    for args in runs:
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        payload = json.loads(result.output)
        assert payload["error"] == error
        if error == "ConfigInvalid":
            assert payload["field"] == field
            assert payload["message"].startswith(f"{field} ")
        else:
            assert field in payload["message"]
    # No stage that fails leaves an out_dir it made.
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("rate", [1e7, 1e20])
def test_rate_above_the_sample_cap_is_refused_before_anything_is_allocated(tmp_path, rate):
    spec_path = _write(tmp_path / "spec.json", dict(
        SPEC, duration_s=540.0, ecg_rate_hz=rate,
        states=[{"label": "baseline", "mean_bpm": 65.0, "bpm_jitter_ms": 10.0,
                 "duration_s": 540.0}],
    ))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidSpecError, match=f"more than {MAX_RENDERED_SAMPLES} samples"):
            load_synthetic_spec(spec_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_integral_number_loads_as_int():
    config = config_from_dict({"synthetic_spec_path": "s.json", "seed": 3.0,
                               "learn": {"k_features": 2.0}})
    assert (config.seed, config.learn.k_features) == (3, 2)
    assert type(config.seed) is int and type(config.learn.k_features) is int


def test_int_for_a_float_field_hashes_as_the_float(tmp_path):
    def config(window_len_s):
        return {"synthetic_spec_path": _write(tmp_path / "spec.json", SPEC),
                "out_dir": str(tmp_path / "run"), "window": {"window_len_s": window_len_s}}

    assert run_hash(config_from_dict(config(10))) == run_hash(config_from_dict(config(10.0)))
    for args in [
        ["extract", "--config", _write(tmp_path / "int.json", config(10))],
        ["variance", "--config", _write(tmp_path / "float.json", config(10.0)),
         "--window-len-s", "10"],
    ]:
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
