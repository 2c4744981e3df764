import json
import shutil
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from hrvaffect import ingest, pipeline
from hrvaffect.cli import main
from hrvaffect.core import Modality
from hrvaffect.dsp import DEFAULT_ECG_FILTER, DEFAULT_PPG_FILTER
from hrvaffect.pipeline import (
    ConfigInvalidError,
    config_from_dict,
    config_to_dict,
    run_hash,
    validate_schema,
)
from helpers import package_env, readme_json_blocks

SYNTH_SPEC = {
    "duration_s": 360.0,
    "ecg_rate_hz": 350.0,
    "ppg_rate_hz": 64.0,
    "states": [
        {"label": "baseline", "mean_bpm": 65.0, "bpm_jitter_ms": 25.0, "duration_s": 120.0},
        {"label": "stress", "mean_bpm": 92.0, "bpm_jitter_ms": 25.0, "duration_s": 120.0},
        {"label": "amusement", "mean_bpm": 75.0, "bpm_jitter_ms": 25.0, "duration_s": 120.0},
    ],
    "respiratory_rate_hz": 0.25,
    "respiratory_rr_modulation_ms": 30.0,
    "noise_std": 0.02,
    "seed": 11,
}


def write_config(tmp_path: Path, out_name="run", **overrides) -> Path:
    spec_path = tmp_path / "synth_spec.json"
    spec_path.write_text(json.dumps(SYNTH_SPEC))
    doc = {
        "synthetic_spec_path": str(spec_path),
        "out_dir": str(tmp_path / out_name),
        "seed": 5,
        "learn": {"n_trees": 15, "cv_folds": 4},
        "explain": {"background_size": 8, "max_instances": 3},
    }
    doc.update(overrides)
    config_path = tmp_path / f"config_{out_name}.json"
    config_path.write_text(json.dumps(doc))
    return config_path


def run_cli(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    config_path = write_config(tmp_path)
    for command in ("extract", "variance", "train-eval", "importance", "report"):
        result = run_cli(command, "--config", str(config_path))
        assert result.exit_code == 0, result.output
    return tmp_path / "run"


class TestStages:
    def test_outputs_exist(self, full_run):
        expected = [
            "config.json", "features.csv", "extract_stats.json",
            "variance.csv", "variance_summary.csv", "state_stats.csv",
            "variance_series.svg", "state_box_bpm.svg",
            "metrics.json", "model.json", "roc_points.csv", "roc_ECG.svg", "roc_PPG.svg",
            "importance.csv", "shap_points.csv", "importance_ECG.svg", "importance_PPG.svg",
            "report.json",
        ]
        for name in expected:
            assert (full_run / name).exists(), name

    def test_config_hash_stamped_everywhere(self, full_run):
        config_hash = json.loads((full_run / "config.json").read_text())["config_hash"]
        for name in ("features.csv", "variance.csv", "roc_points.csv"):
            first = (full_run / name).read_text().splitlines()[0]
            assert first == f"# config_hash={config_hash}"
        for name in ("metrics.json", "model.json", "report.json"):
            assert json.loads((full_run / name).read_text())["config_hash"] == config_hash
        for name in ("roc_ECG.svg", "importance_PPG.svg"):
            assert f"<!-- config_hash={config_hash} -->" in (full_run / name).read_text()

    def test_metrics_shape(self, full_run):
        metrics = json.loads((full_run / "metrics.json").read_text())
        for modality in ("ECG", "PPG"):
            entry = metrics["modalities"][modality]
            assert entry["folds"] == 4
            assert set(entry["families"]) == {"extra_trees", "knn", "gaussian_nb"}
            assert 0.0 <= entry["holdout_accuracy"] <= 1.0

    def test_separable_states_classified_accurately(self, full_run):
        # Three states 10+ BPM apart with modest jitter are easy: the pipeline
        # must deliver near-perfect holdout accuracy on both signals.
        metrics = json.loads((full_run / "metrics.json").read_text())
        for modality in ("ECG", "PPG"):
            assert metrics["modalities"][modality]["holdout_accuracy"] >= 0.95

    def test_importance_rankings_cover_all_features(self, full_run):
        doc = json.loads((full_run / "report.json").read_text())
        for modality in ("ECG", "PPG"):
            ranking = doc["importance"]["rankings"][modality]
            assert len(ranking) == 13
            assert sorted(ranking) == sorted(
                ["bpm", "ibi", "sdnn", "sdsd", "rmssd", "pnn20", "pnn50", "mad",
                 "br", "sd1", "sd2", "s", "sd1_sd2"]
            )

    def test_state_overlaps_emitted(self, full_run):
        doc = json.loads((full_run / "state_overlaps.json").read_text())
        assert doc["feature"] == "bpm"
        assert set(doc["flagged_pairs"]) == {"ECG", "PPG"}

    def test_report_matches_shipped_schema(self, full_run):
        from hrvaffect.pipeline import report_schema

        doc = json.loads((full_run / "report.json").read_text())
        assert validate_schema(doc, report_schema()) == []

    def test_features_csv_schema(self, full_run):
        header = (full_run / "features.csv").read_text().splitlines()[1]
        assert header.startswith("window_id,subject_id,modality,label,bpm,ibi,")


class TestErrorPaths:
    def test_variance_without_extract(self, tmp_path):
        config_path = write_config(tmp_path, out_name="fresh")
        result = run_cli("variance", "--config", str(config_path))
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "MissingInput"
        assert payload["input"] == "features.csv"

    def test_importance_without_model(self, tmp_path):
        config_path = write_config(tmp_path, out_name="partial")
        assert run_cli("extract", "--config", str(config_path)).exit_code == 0
        result = run_cli("importance", "--config", str(config_path))
        assert result.exit_code == 1
        assert json.loads(result.output.strip().splitlines()[-1])["error"] == "MissingInput"

    def test_config_invalid_field(self, tmp_path):
        config_path = write_config(tmp_path, out_name="bad", box_feature="nope")
        result = run_cli("extract", "--config", str(config_path))
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "ConfigInvalid"
        assert payload["field"] == "box_feature"

    def test_unknown_config_key(self, tmp_path):
        config_path = write_config(tmp_path, out_name="odd", extra_key=1)
        result = run_cli("extract", "--config", str(config_path))
        assert result.exit_code == 1
        assert json.loads(result.output.strip().splitlines()[-1])["error"] == "ConfigInvalid"

    @pytest.mark.parametrize("text, flags, field", [
        ('{"out_dir": "x",', [], "config"),
        ("[1]", [], "config"),
        ('{"synthetic_spec_path": "s.json", "window": {"window_len_s": "abc"}}', [], "window"),
        ('{"synthetic_spec_path": "s.json", "learn": 5}', ["--n-trees", "3"], "learn"),
    ], ids=["invalid_json", "not_an_object", "wrong_typed_value", "section_not_an_object"])
    def test_malformed_config_file(self, tmp_path, text, flags, field):
        config_path = tmp_path / "c.json"
        config_path.write_text(text)
        result = CliRunner().invoke(main, ["extract", "--config", str(config_path), *flags])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "ConfigInvalid"
        assert payload["field"] == field

    def test_hash_guard_requires_force(self, tmp_path):
        config_path = write_config(tmp_path, out_name="guarded")
        assert run_cli("extract", "--config", str(config_path)).exit_code == 0
        changed = run_cli("extract", "--config", str(config_path), "--seed", "99")
        assert changed.exit_code == 1
        assert json.loads(changed.output.strip().splitlines()[-1])["error"] == "ConfigHashMismatch"
        forced = run_cli("extract", "--config", str(config_path), "--seed", "99", "--force")
        assert forced.exit_code == 0

    @pytest.mark.parametrize("case", ["spec_in_config", "config", "manifest", "manifest_csv",
                                      "synth_spec"])
    def test_missing_dataset_input(self, tmp_path, case):
        """A missing input of any kind is MissingInput naming its path."""
        absent = tmp_path / "absent.json"
        args = ["extract", "--out", str(tmp_path / "o")]
        if case == "spec_in_config":
            config_path = tmp_path / "c.json"
            config_path.write_text(json.dumps({"synthetic_spec_path": str(absent)}))
            args += ["--config", str(config_path)]
        elif case == "config":
            args += ["--config", str(absent)]
        elif case == "manifest":
            args += ["--manifest", str(absent)]
        elif case == "manifest_csv":
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps(FLAG_SPEC))
            assert run_cli("synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")).exit_code == 0
            absent = tmp_path / "data" / "synthetic_ppg.csv"
            absent.unlink()
            args += ["--manifest", str(tmp_path / "data" / "manifest.json")]
        else:
            args = ["synth", "--spec", str(absent), "--out", str(tmp_path / "data")]
        result = run_cli(*args)
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "MissingInput"
        assert payload["input"] == str(absent)

    def test_failed_stage_removes_the_directories_it_made(self, tmp_path):
        """Only the empty directories the stage made go: an out_dir that was
        there before, and its parents, stay."""
        (tmp_path / "kept").mkdir()
        for out_dir, gone in [("kept/a/b/run", "kept/a"), ("kept", None)]:
            config_path = tmp_path / "c.json"
            config_path.write_text(json.dumps({
                "synthetic_spec_path": str(tmp_path / "absent.json"),
                "out_dir": str(tmp_path / out_dir),
            }))
            result = run_cli("extract", "--config", str(config_path))
            assert json.loads(result.output.strip().splitlines()[-1])["error"] == "MissingInput"
            assert (tmp_path / "kept").is_dir()
            assert gone is None or not (tmp_path / gone).exists()
        assert list((tmp_path / "kept").iterdir()) == []

    def test_subject_id_with_comma_is_a_parse_error(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FLAG_SPEC))
        assert run_cli("synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")).exit_code == 0
        manifest_path = tmp_path / "data" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["subjects"][0]["subject_id"] = "S1,visit2"
        manifest_path.write_text(json.dumps(manifest))
        result = run_cli("extract", "--manifest", str(manifest_path), "--out", str(tmp_path / "run"))
        assert result.exit_code == 1
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "Parse"
        assert "subject_id" in payload["message"]
        assert not (tmp_path / "run" / "features.csv").exists()

    def test_annotation_label_outside_int64_is_a_parse_error(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(FLAG_SPEC))
        assert run_cli("synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")).exit_code == 0
        annotations = tmp_path / "data" / "synthetic_annotations.csv"
        lines = annotations.read_text().splitlines()
        lines[3] = "2,99999999999999999999999"
        annotations.write_text("\n".join(lines) + "\n")
        result = run_cli(
            "extract", "--manifest", str(tmp_path / "data" / "manifest.json"),
            "--out", str(tmp_path / "run"),
        )
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["error"] == "Parse"
        assert f"{annotations}:4: malformed annotation row" in payload["message"]


def test_importing_the_cli_leaves_scipy_signal_unloaded():
    probe = "import sys, hrvaffect.cli, hrvaffect.pipeline; print('scipy.signal' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=package_env(), capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def _ecg(doc):
    return doc["modalities"]["ECG"]


def _tree(doc, modality="ECG"):
    return doc["modalities"][modality]["model"]["trees"][0]


# Each edit leaves model.json valid JSON that the importance stage cannot use.
BROKEN_MODEL_JSON = {
    "missing_modality": lambda doc: doc["modalities"].pop("PPG"),
    "negative_row_number": lambda doc: _ecg(doc)["holdout_ids"].append(-1),
    "row_number_past_end": lambda doc: _ecg(doc)["train_ids"].append(10**6),
    "missing_tree_key": lambda doc: _tree(doc).pop("feature"),
    "feature_out_of_range": lambda doc: _tree(doc)["feature"].__setitem__(0, 13),
    "cycle": lambda doc: _tree(doc)["left"].__setitem__(0, 0),
    "probs_wrong_width": lambda doc: [row.append(0.0) for row in _tree(doc)["probs"]],
    "ppg_feature_out_of_range": lambda doc: _tree(doc, "PPG")["feature"].__setitem__(0, 13),
}
IMPORTANCE_OUTPUTS = ("importance.csv", "shap_points.csv", "importance_ECG.svg", "importance_PPG.svg")


@pytest.mark.parametrize("mutate", BROKEN_MODEL_JSON.values(), ids=BROKEN_MODEL_JSON.keys())
def test_broken_model_json_is_one_json_error(full_run, tmp_path, mutate):
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    doc = json.loads((run / "model.json").read_text())
    mutate(doc)
    (run / "model.json").write_text(json.dumps(doc))
    # Stale outputs stand in for the last good run, so that any write the
    # failed stage makes shows.
    for name in IMPORTANCE_OUTPUTS:
        (run / name).write_text("stale\n")
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    # A child process with a time limit, so a tree walk that never ends fails
    # the test instead of hanging the suite.
    proc = subprocess.run(
        [sys.executable, "-m", "hrvaffect", "importance",
         "--config", str(full_run.parent / "config_run.json"), "--out", str(run)],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stderr)
    assert "model.json" in payload["message"]
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before


def test_model_json_that_is_not_json_names_the_file(full_run, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    (run / "model.json").write_text("{")
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    result = run_cli("importance", "--config", str(full_run.parent / "config_run.json"),
                     "--out", str(run))
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["error"] == "PipelineError"
    assert f"{run / 'model.json'}: Expecting" in payload["message"]
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before


def test_window_that_holds_no_sample_is_no_complete_window(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(FLAG_SPEC))
    result = run_cli("extract", "--synthetic-spec", str(spec_path), "--out", str(tmp_path / "run"),
                     "--window-len-s", "0.01", "--overlap-s", "0")
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["error"] == "NoCompleteWindow"
    assert "no PPG sample at 64.0 Hz" in payload["message"]


def test_empty_window_fails_before_scipy_signal_is_imported(tmp_path):
    """The window check needs only rates and lengths, so extract fails before it
    filters anything, and so before the slow scipy.signal import."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(FLAG_SPEC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hrvaffect", "extract",
         "--synthetic-spec", str(spec_path), "--out", str(tmp_path / "run"),
         "--window-len-s", "0.01", "--overlap-s", "0"],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert '"NoCompleteWindow"' in proc.stderr
    assert "scipy.signal" not in proc.stderr


def test_spec_rate_that_overflows_is_one_json_error(tmp_path):
    """A rate whose sample count over duration_s is not finite is refused as
    InvalidSpec before anything is rendered, not raised as an OverflowError."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(FLAG_SPEC, ecg_rate_hz=1e308)))
    proc = subprocess.run(
        [sys.executable, "-m", "hrvaffect", "extract",
         "--synthetic-spec", str(spec_path), "--out", str(tmp_path / "run")],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"] == "InvalidSpec"
    assert "ecg_rate_hz" in payload["message"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags, field", [
    (["--ecg-order", "0"], "ecg_filter"),
    (["--ppg-low-hz", "9"], "ppg_filter"),
    (["--ecg-order", "1000000"], "ecg_filter"),
], ids=["filter_order", "filter_band", "filter_order_above_cap"])
def test_bad_filter_fails_before_scipy_signal_is_imported(tmp_path, flags, field):
    """FilterSpec checks its order and band when the config is decoded, so
    extract refuses them before it reads data or imports scipy.signal."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(FLAG_SPEC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hrvaffect", "extract",
         "--synthetic-spec", str(spec_path), "--out", str(tmp_path / "run"), *flags],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert f'"field": "{field}"' in proc.stderr and '"ConfigInvalid"' in proc.stderr
    assert "scipy.signal" not in proc.stderr
    assert not (tmp_path / "run").exists()


def _edit_rows(text, edit):
    """The CSV text with its data rows, as lists of cells, passed through edit."""
    lines = text.splitlines(keepends=True)
    rows = edit([line.rstrip("\n").split(",") for line in lines[2:]])
    return "".join(lines[:2] + [",".join(cells) + "\n" for cells in rows])


def _edit_first_row(text, edit):
    return _edit_rows(text, lambda rows: [edit(rows[0]), *rows[1:]])


# Each edit leaves an out_dir input that the variance stage cannot use; the
# error names the file, and the line where one is at fault.
CORRUPT_OUT_DIR = {
    "config_not_an_object": ("config.json", lambda text: "[]\n", ": expected a JSON object"),
    "feature_row_cut_short": (
        "features.csv", lambda text: _edit_first_row(text, lambda cells: cells[:5]),
        ":3: expected 17 fields, got 5",
    ),
    "unknown_modality": (
        "features.csv", lambda text: _edit_first_row(text, lambda c: [*c[:2], "EEG", *c[3:]]),
        ":3: 'EEG' is not a valid Modality",
    ),
    "non_numeric_feature": (
        "features.csv", lambda text: _edit_first_row(text, lambda c: [*c[:4], "fast", *c[5:]]),
        ":3: could not convert string to float: 'fast'",
    ),
    "renamed_column": (
        "features.csv", lambda text: text.replace(",ibi,", ",IBI,", 1), ": expected columns",
    ),
    "blank_label": (
        "features.csv", lambda text: _edit_first_row(text, lambda c: [*c[:3], "", *c[4:]]),
        ":3: empty cell in a text column",
    ),
    "blank_subject_id": (
        "features.csv", lambda text: _edit_first_row(text, lambda c: [c[0], "", *c[2:]]),
        ":3: empty cell in a text column",
    ),
    # Line 5 is the ECG row of window 1; its copy lands on line 6.
    "feature_row_repeated": (
        "features.csv", lambda text: _edit_rows(text, lambda r: [*r[:3], r[2], *r[3:]]),
        ":6: repeated ECG row for window 1 of subject 'synthetic'",
    ),
}


@pytest.mark.parametrize("name, edit, where", CORRUPT_OUT_DIR.values(), ids=CORRUPT_OUT_DIR.keys())
def test_corrupt_out_dir_input_is_one_json_error(full_run, tmp_path, name, edit, where):
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    (run / name).write_text(edit((run / name).read_text()))
    proc = subprocess.run(
        [sys.executable, "-m", "hrvaffect", "variance",
         "--config", str(full_run.parent / "config_run.json"), "--out", str(run)],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"] == "PipelineError"
    assert f"{run / name}{where}" in payload["message"]


# Each edit leaves an input of the report stage that it cannot use.
CORRUPT_REPORT_INPUT = {
    "overlaps_not_an_object": ("state_overlaps.json", lambda text: "[]\n", ": expected a JSON object"),
    "metrics_not_an_object": ("metrics.json", lambda text: "[]\n", ": expected a JSON object"),
    "extract_stats_not_json": ("extract_stats.json", lambda text: "{\n", ": Expecting"),
    "summary_non_numeric": (
        "variance_summary.csv", lambda text: _edit_first_row(text, lambda c: [c[0], c[1], "x", *c[3:]]),
        ":3: could not convert string to float: 'x'",
    ),
    "summary_row_cut_short": (
        "variance_summary.csv", lambda text: _edit_first_row(text, lambda cells: cells[:3]),
        ":3: expected 7 fields, got 3",
    ),
    "summary_renamed_column": (
        "variance_summary.csv", lambda text: text.replace(",max_abs_diff,", ",max,", 1),
        ": expected columns",
    ),
    # The summary rows are bpm, ibi, sdnn, ... on lines 3, 4, 5, ...
    "summary_feature_missing": (
        "variance_summary.csv", lambda text: _edit_rows(text, lambda rows: rows[1:]),
        ": no row for feature 'bpm'",
    ),
    "summary_feature_unknown": (
        "variance_summary.csv",
        lambda text: _edit_rows(text, lambda r: [*r[:2], ["xyz", *r[2][1:]], *r[3:]]),
        ":5: unknown or repeated feature 'xyz'",
    ),
    "summary_feature_repeated": (
        "variance_summary.csv",
        lambda text: _edit_rows(text, lambda r: [r[0], ["bpm", *r[1][1:]], *r[2:]]),
        ":4: unknown or repeated feature 'bpm'",
    ),
    "rank_not_an_integer": (
        "importance.csv", lambda text: _edit_first_row(text, lambda c: [*c[:4], "first"]),
        ":3: invalid literal for int() with base 10: 'first'",
    ),
    "rank_out_of_range": (
        "importance.csv", lambda text: _edit_first_row(text, lambda c: [*c[:4], "0"]),
        ":3: rank 0 outside 1-13",
    ),
    # The first two rows are the ECG global rows of bpm and ibi.
    "rank_repeated": (
        "importance.csv",
        lambda text: _edit_rows(text, lambda r: [r[0], [*r[1][:4], r[0][4]], *r[2:]]),
        ":4: repeated rank",
    ),
    "feature_repeated": (
        "importance.csv",
        lambda text: _edit_rows(text, lambda r: [r[0], [r[1][0], r[0][1], *r[1][2:]], *r[2:]]),
        ":4: unknown or repeated feature 'bpm'",
    ),
    "feature_unknown": (
        "importance.csv", lambda text: _edit_first_row(text, lambda c: [c[0], "hr", *c[2:]]),
        ":3: unknown or repeated feature 'hr'",
    ),
    "global_row_missing": (
        "importance.csv", lambda text: _edit_rows(text, lambda rows: rows[1:]),
        ": no ECG global row has rank",
    ),
    "unknown_modality": (
        "importance.csv", lambda text: _edit_first_row(text, lambda c: ["EEG", *c[1:]]),
        ":3: 'EEG' is not a valid Modality",
    ),
    "modality_missing": (
        "importance.csv", lambda text: _edit_rows(text, lambda rows: [r for r in rows if r[0] != "ECG"]),
        ": no ECG global row has rank 1",
    ),
}


@pytest.mark.parametrize(
    "name, edit, where", CORRUPT_REPORT_INPUT.values(), ids=CORRUPT_REPORT_INPUT.keys()
)
def test_corrupt_report_input_is_one_json_error(full_run, tmp_path, name, edit, where):
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    (run / name).write_text(edit((run / name).read_text()))
    proc = subprocess.run(
        [sys.executable, "-m", "hrvaffect", "report",
         "--config", str(full_run.parent / "config_run.json"), "--out", str(run)],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"] == "PipelineError"
    assert f"{run / name}{where}" in payload["message"]


@pytest.mark.parametrize(
    "name, index, column",
    [("variance_summary.csv", 2, "n_windows"), ("importance.csv", -1, "rank")],
    ids=["summary_n_windows", "per_state_rank"],
)
def test_report_reads_every_cell_of_its_tables(full_run, tmp_path, name, index, column):
    """A cell the report has no use for (a count, the rank of a per-state row)
    is still read by its column's kind, and a bad one names its file and line."""
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    lines = (run / name).read_text().splitlines(keepends=True)
    cells = lines[index].rstrip("\n").split(",")
    assert name != "importance.csv" or cells[2] != "global"
    cells[lines[1].rstrip("\n").split(",").index(column)] = "x"
    lines[index] = ",".join(cells) + "\n"
    (run / name).write_text("".join(lines))
    result = run_cli("report", "--config", str(full_run.parent / "config_run.json"), "--out", str(run))
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["error"] == "PipelineError"
    line = range(1, len(lines) + 1)[index]
    assert f"{run / name}:{line}: invalid literal for int() with base 10: 'x'" in payload["message"]


def test_every_table_reads_and_writes_back_byte_for_byte(full_run, tmp_path):
    tables = [t for t in vars(pipeline).values() if isinstance(t, pipeline.Table)]
    assert sorted(t.name for t in tables) == sorted(p.name for p in full_run.glob("*.csv"))
    stamp = json.loads((full_run / "config.json").read_text())["config_hash"]
    for table in tables:
        rows = table.read(full_run, stamp)
        table.write(tmp_path, [row for _, row in rows], stamp)
        assert (tmp_path / table.name).read_bytes() == (full_run / table.name).read_bytes(), table.name


def _snapshot(run: Path) -> dict:
    """Every entry of an out_dir, with a file's bytes; a directory maps to None."""
    return {path.name: path.read_bytes() if path.is_file() else None for path in run.iterdir()}


def _restamp(text, stamp):
    return text.replace(stamp, "0123456789ab")


def _blank_ppg_features(text, stamp):
    return "".join(
        ",".join(line.split(",")[:4] + [""] * 13) + "\n" if ",PPG," in line else line
        for line in text.splitlines(keepends=True)
    )


STAGE_OUTPUTS = {
    "extract": ("features.csv", "extract_stats.json"),
    "variance": ("variance.csv", "variance_summary.csv", "state_stats.csv", "state_overlaps.json",
                 "variance_series.svg", "state_box_bpm.svg"),
    "train-eval": ("metrics.json", "model.json", "roc_points.csv", "roc_ECG.svg", "roc_PPG.svg"),
    "importance": IMPORTANCE_OUTPUTS,
    "report": ("report.json",),
}
# (stage, input to edit or None, edit(text, stamp), extra flags, error).  A
# stale stamp is a file of the right shape written under another config.
FAILING_STAGES = {
    "extract_window_without_samples": (
        "extract", None, None, ["--force", "--window-len-s", "0.01", "--overlap-s", "0"],
        "NoCompleteWindow",
    ),
    "variance_stale_features": ("variance", "features.csv", _restamp, [], "ConfigHashMismatch"),
    "train_eval_stale_features": ("train-eval", "features.csv", _restamp, [], "ConfigHashMismatch"),
    "train_eval_fails_after_ecg": ("train-eval", "features.csv", _blank_ppg_features, [], "EmptyMatrix"),
    "importance_stale_model": ("importance", "model.json", _restamp, [], "ConfigHashMismatch"),
    "report_stale_importance": ("report", "importance.csv", _restamp, [], "ConfigHashMismatch"),
    "report_stale_metrics": ("report", "metrics.json", _restamp, [], "ConfigHashMismatch"),
    "report_metrics_only_a_stamp": (
        "report", "metrics.json", lambda text, stamp: json.dumps({"config_hash": stamp}), [], "PipelineError",
    ),
}


@pytest.mark.parametrize(
    "stage, name, edit, flags, error", FAILING_STAGES.values(), ids=FAILING_STAGES.keys()
)
def test_failed_stage_leaves_out_dir_as_it_was(full_run, tmp_path, stage, name, edit, flags, error):
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    stamp = json.loads((run / "config.json").read_text())["config_hash"]
    if name is not None:
        (run / name).write_text(edit((run / name).read_text(), stamp))
    # Stale outputs stand in for the last good run, so that any write shows.
    for output in STAGE_OUTPUTS[stage]:
        (run / output).write_text("stale\n")
    before = _snapshot(run)
    result = run_cli(stage, "--config", str(full_run.parent / "config_run.json"),
                     "--out", str(run), *flags)
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["error"] == error
    if error == "ConfigHashMismatch":
        assert f"{run / name} holds outputs for config 0123456789ab" in payload["message"]
    assert _snapshot(run) == before
    assert not list(run.glob(".stage-*"))


def test_failed_extract_leaves_no_stale_features_to_read(tmp_path):
    """A failed extract under new flags keeps the old config stamp, and a later
    stage under those flags refuses the old features, with or without --force."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(FLAG_SPEC))
    run = tmp_path / "run"
    base = ["--synthetic-spec", str(spec_path), "--out", str(run)]
    assert run_cli("extract", *base).exit_code == 0
    assert run_cli("variance", *base).exit_code == 0
    before = _snapshot(run)
    window = ["--window-len-s", "0.01", "--overlap-s", "0"]
    failed = run_cli("extract", *base, *window, "--force")
    assert failed.exit_code == 1
    assert json.loads(failed.output)["error"] == "NoCompleteWindow"
    assert _snapshot(run) == before
    for force, stale in (([], run / "config.json"), (["--force"], run / "features.csv")):
        result = run_cli("variance", *base, *window, *force)
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["error"] == "ConfigHashMismatch"
        assert f"{stale} holds outputs for config" in payload["message"]
    assert _snapshot(run) == before


def test_bad_file_in_the_last_subject_fails_after_the_others(tmp_path, monkeypatch):
    """Subjects load one at a time: a bad ECG file in the last of three fails
    extract after the first two are featurized, naming the file and line, and
    out_dir keeps the last good run."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(FLAG_SPEC))
    spec = ingest.load_synthetic_spec(spec_path)
    subjects = [ingest.generate_synthetic(replace(spec, seed=i), f"S{i}")[0] for i in (1, 2, 3)]
    manifest_path = ingest.write_canonical(subjects, "three", tmp_path / "data")
    run = tmp_path / "run"
    args = ["extract", "--manifest", str(manifest_path), "--out", str(run)]
    assert run_cli(*args).exit_code == 0
    before = _snapshot(run)
    ecg = tmp_path / "data" / "S3_ecg.csv"
    lines = ecg.read_text().splitlines(keepends=True)
    lines[5] = "4,x\n"
    ecg.write_text("".join(lines))
    filtered = []

    def filter_signal(record, spec, original=pipeline.filter_signal):
        filtered.append(record.subject_id)
        return original(record, spec)

    monkeypatch.setattr(pipeline, "filter_signal", filter_signal)
    result = run_cli(*args)
    assert result.exit_code == 1
    assert json.loads(result.output) == {"error": "Parse", "message": f"{ecg}:6: non-numeric value 'x'"}
    assert filtered == ["S1", "S1", "S2", "S2"]
    assert _snapshot(run) == before
    assert not list(run.glob(".stage-*"))


def test_ecg_whose_band_pass_overflows_is_one_json_error(tmp_path):
    """An ECG file of finite samples at +-1e308 overflows in the band-pass;
    extract names the subject, signal, band and first non-finite output
    sample instead of reporting a non-finite input, and out_dir keeps the
    last good run."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(FLAG_SPEC))
    subject = ingest.generate_synthetic(ingest.load_synthetic_spec(spec_path), "S1")[0]
    manifest_path = ingest.write_canonical([subject], "one", tmp_path / "data")
    run = tmp_path / "run"
    args = ["extract", "--manifest", str(manifest_path), "--out", str(run)]
    assert run_cli(*args).exit_code == 0
    before = _snapshot(run)
    ecg = tmp_path / "data" / "S1_ecg.csv"
    header, *rows = ecg.read_text().splitlines()
    ecg.write_text(header + "\n" + "".join(f"{i},{(-1) ** i * 1e308!r}\n" for i in range(len(rows))))
    proc = subprocess.run(
        [sys.executable, "-m", "hrvaffect", *args],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    payload = json.loads(proc.stderr)
    assert payload == {
        "error": "FilterOverflow",
        "message": "0.67-40.0 Hz band-pass of subject 'S1' ECG overflows to a non-finite "
                   "output at sample 0",
    }
    assert _snapshot(run) == before


def test_band_pass_whose_design_overflows_is_one_json_error(tmp_path):
    """An order-50 PPG band-pass with its high cutoff just under the 32 Hz
    Nyquist overflows in scipy's design; extract reports the band, order and
    rate instead of a traceback, and out_dir keeps the last good run."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(FLAG_SPEC))
    run = tmp_path / "run"
    args = ["extract", "--synthetic-spec", str(spec_path), "--out", str(run)]
    assert run_cli(*args).exit_code == 0
    before = _snapshot(run)
    proc = subprocess.run(
        [sys.executable, "-m", "hrvaffect", *args, "--force",
         "--ppg-order", "50", "--ppg-high-hz", "31.99999"],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert json.loads(proc.stderr) == {
        "error": "FilterDesign",
        "message": "order-50 0.5-31.99999 Hz band-pass at 64.0 Hz overflows in design",
    }
    assert _snapshot(run) == before


@pytest.mark.parametrize("case", ["spec_is_a_directory", "spec_not_utf8", "manifest_not_utf8",
                                  "manifest_csv_is_a_directory", "csv_not_utf8"])
def test_unreadable_input_file_is_one_json_error_naming_it(tmp_path, case):
    """A spec, manifest or manifest CSV that is a directory, or not UTF-8
    text, is one Parse error naming the file: at line 1 for a directory,
    else at the line of the first bad byte."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(FLAG_SPEC))
    data = tmp_path / "data"
    assert run_cli("synth", "--spec", str(spec_path), "--out", str(data)).exit_code == 0
    manifest, ecg, ppg = data / "manifest.json", data / "synthetic_ecg.csv", data / "synthetic_ppg.csv"
    source = ["--manifest", str(manifest)]
    if case == "spec_is_a_directory":
        spec_path.unlink()
        spec_path.mkdir()
        source = ["--synthetic-spec", str(spec_path)]
        message = f"{spec_path}:1: is a directory, not a file"
    elif case == "spec_not_utf8":
        spec_path.write_bytes(b'{\n"seed": "\xff"}')
        source = ["--synthetic-spec", str(spec_path)]
        message = f"{spec_path}:2: not UTF-8 text: invalid start byte"
    elif case == "manifest_not_utf8":
        text = manifest.read_bytes()
        manifest.write_bytes(text + b"\xff\n")
        line = text.count(b"\n") + 1
        message = f"{manifest}:{line}: not UTF-8 text: invalid start byte"
    elif case == "manifest_csv_is_a_directory":
        ppg.unlink()
        ppg.mkdir()
        message = f"{ppg}:1: is a directory, not a file"
    else:
        text = ecg.read_bytes()
        ecg.write_bytes(text + b"5000,0.5\xfe\n")
        line = text.count(b"\n") + 1
        message = f"{ecg}:{line}: non-numeric value '0.5\\udcfe'"
    out = tmp_path / "run"
    result = run_cli("extract", *source, "--out", str(out))
    assert result.exit_code == 1
    assert len(result.stderr.strip().splitlines()) == 1
    assert json.loads(result.stderr) == {"error": "Parse", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("source", ["spec", "manifest"])
def test_raw_ecg_is_freed_before_ppg_is_filtered(tmp_path, monkeypatch, source):
    """extract holds a subject's raw ECG only until its filtered record
    exists, so the raw samples are gone when the PPG filter starts, and the
    last subject's filtered records are gone when the next subject loads.
    A list of subjects passed to featurize keeps the raw ones, which shows
    the check bites."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(FLAG_SPEC))
    spec = ingest.load_synthetic_spec(spec_path)
    if source == "spec":
        args, n_checks = ["--synthetic-spec", str(spec_path)], 1
    else:
        subjects = [ingest.generate_synthetic(replace(spec, seed=i), f"S{i}")[0] for i in (1, 2)]
        manifest_path = ingest.write_canonical(subjects, "two", tmp_path / "data")
        del subjects
        args, n_checks = ["--manifest", str(manifest_path)], 4  # two loads, two PPG filters
    raw_ecg, filtered, gone = [], [], []

    def load_dataset(manifest, base_dir, original=ingest.load_dataset):
        gone.append(all(ref() is None for ref in filtered))
        return original(manifest, base_dir)

    def filter_signal(record, spec, original=pipeline.filter_signal):
        if record.modality is Modality.ECG:
            raw_ecg.append(weakref.ref(record.samples))
        else:
            gone.append(raw_ecg[-1]() is None)
        out = original(record, spec)
        filtered.append(weakref.ref(out.samples))
        return out

    monkeypatch.setattr(ingest, "load_dataset", load_dataset)
    monkeypatch.setattr(pipeline, "filter_signal", filter_signal)
    assert run_cli("extract", *args, "--out", str(tmp_path / "run")).exit_code == 0
    assert gone == [True] * n_checks
    pipeline.featurize([ingest.generate_synthetic(spec)[0]], pipeline.PipelineConfig())
    assert gone[-1] is False


class TestSynthCommand:
    def test_synth_writes_canonical_dataset(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(SYNTH_SPEC, duration_s=30.0, states=[
            {"label": "baseline", "mean_bpm": 65.0, "bpm_jitter_ms": 10.0, "duration_s": 30.0}
        ])))
        result = run_cli("synth", "--spec", str(spec_path), "--out", str(tmp_path / "data"))
        assert result.exit_code == 0
        assert (tmp_path / "data" / "manifest.json").exists()
        assert (tmp_path / "data" / "ground_truth.json").exists()
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            "manifest_path": str(tmp_path / "data" / "manifest.json"),
            "out_dir": str(tmp_path / "run"),
            "learn": {"n_trees": 5},
        }))
        assert run_cli("extract", "--config", str(config_path)).exit_code == 0
        assert (tmp_path / "run" / "features.csv").exists()

    def test_synth_invalid_spec(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(SYNTH_SPEC, duration_s=-1.0)))
        result = run_cli("synth", "--spec", str(spec_path), "--out", str(tmp_path / "d"))
        assert result.exit_code == 1
        assert json.loads(result.output.strip().splitlines()[-1])["error"] == "InvalidSpec"


class TestConfigRoundTrip:
    def test_dict_round_trip(self, tmp_path):
        config = config_from_dict({
            "synthetic_spec_path": "spec.json",
            "out_dir": "somewhere",
            "seed": 3,
            "window": {"window_len_s": 8.0, "overlap_s": 2.0},
            "learn": {"families": ["extra_trees"]},
        })
        again = config_from_dict(config_to_dict(config))
        assert again == config
        assert run_hash(again) == run_hash(config)

    def test_out_dir_not_in_hash(self):
        a = config_from_dict({"synthetic_spec_path": "s.json", "out_dir": "a"})
        b = config_from_dict({"synthetic_spec_path": "s.json", "out_dir": "b"})
        assert run_hash(a) == run_hash(b)

    def test_mutually_exclusive_inputs(self):
        with pytest.raises(ConfigInvalidError):
            config_from_dict({
                "synthetic_spec_path": "s.json",
                "manifest_path": "m.json",
                "out_dir": "x",
            })

    @pytest.mark.parametrize("learn", [
        {"families": []},
        {"n_trees": 0},
        {"k_features": 0},
        {"k_features": -1},
        {"min_samples_leaf": 0},
    ], ids=["no_families", "no_trees", "zero_k", "negative_k", "zero_min_leaf"])
    def test_learn_settings_that_break_training_are_rejected(self, learn):
        with pytest.raises(ConfigInvalidError) as info:
            config_from_dict({"synthetic_spec_path": "s.json", "learn": learn})
        assert info.value.fieldname == "learn"

    def test_partial_section_keeps_that_sections_defaults(self):
        config = config_from_dict({"synthetic_spec_path": "s.json", "ppg_filter": {"order": 4}})
        assert config.ppg_filter == replace(DEFAULT_PPG_FILTER, order=4)
        assert config.ecg_filter == DEFAULT_ECG_FILTER

    def test_flag_override_beats_file(self, tmp_path):
        config_path = write_config(tmp_path, out_name="override")
        result = run_cli("extract", "--config", str(config_path),
                         "--out", str(tmp_path / "elsewhere"), "--n-trees", "7")
        assert result.exit_code == 0
        stamped = json.loads((tmp_path / "elsewhere" / "config.json").read_text())
        assert stamped["config"]["learn"]["n_trees"] == 7


def test_stamped_config_json_reruns_a_stage(tmp_path, monkeypatch):
    """An out_dir's config.json, {"config": ..., "config_hash": ...}, is a
    valid --config: the stage runs under the same hash, and flags still apply."""
    spec, config = readme_json_blocks()[:2]
    monkeypatch.chdir(tmp_path)
    Path("synth_spec.json").write_text(spec)
    Path("config.json").write_text(config)
    assert run_cli("extract", "--config", "config.json").exit_code == 0
    stamp = Path("run/config.json").read_text()
    assert json.loads(stamp)["config_hash"] == run_hash(config_from_dict(json.loads(config)))

    result = run_cli("variance", "--config", "run/config.json")
    assert result.exit_code == 0, result.output
    assert Path("run/config.json").read_text() == stamp
    changed = run_cli("variance", "--config", "run/config.json", "--seed", "99")
    assert json.loads(changed.output.strip().splitlines()[-1])["error"] == "ConfigHashMismatch"


@pytest.mark.parametrize("misspell, field", [
    (lambda doc: doc["config"].update(sed=doc["config"].pop("seed")), "sed"),
    (lambda doc: doc.update(config_hsh=doc.pop("config_hash")), "config"),
], ids=["inner_key", "outer_key"])
def test_misspelt_key_in_a_stamped_config_is_one_json_error(full_run, tmp_path, misspell, field):
    doc = json.loads((full_run / "config.json").read_text())
    misspell(doc)
    config_path = tmp_path / "stamped.json"
    config_path.write_text(json.dumps(doc))
    result = run_cli("variance", "--config", str(config_path))
    assert result.exit_code == 1
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["error"] == "ConfigInvalid"
    assert payload["field"] == field


def test_cli_help_lists_subcommands():
    result = run_cli("--help")
    for command in ("synth", "adapt-wesad", "adapt-case", "extract", "variance",
                    "train-eval", "importance", "report"):
        assert command in result.output


FLAG_SPEC = dict(SYNTH_SPEC, duration_s=30.0, states=[
    {"label": "baseline", "mean_bpm": 65.0, "bpm_jitter_ms": 10.0, "duration_s": 15.0},
    {"label": "stress", "mean_bpm": 90.0, "bpm_jitter_ms": 10.0, "duration_s": 15.0},
])

# (flags, config path the value must land at, expected value, base-config overlay)
FLAG_CASES = [
    (["--seed", "42"], ("seed",), 42, {}),
    (["--box-feature", "ibi"], ("box_feature",), "ibi", {}),
    (["--window-len-s", "8"], ("window", "window_len_s"), 8.0, {}),
    (["--overlap-s", "2"], ("window", "overlap_s"), 2.0, {}),
    (["--ecg-order", "2"], ("ecg_filter", "order"), 2, {}),
    (["--ecg-low-hz", "1.0"], ("ecg_filter", "low_cut_hz"), 1.0, {}),
    (["--ecg-high-hz", "30"], ("ecg_filter", "high_cut_hz"), 30.0, {}),
    (["--ecg-causal"], ("ecg_filter", "zero_phase"), False, {}),
    (["--ecg-zero-phase"], ("ecg_filter", "zero_phase"), True,
     {"ecg_filter": {"zero_phase": False}}),
    (["--ppg-order", "2"], ("ppg_filter", "order"), 2, {}),
    (["--ppg-low-hz", "0.6"], ("ppg_filter", "low_cut_hz"), 0.6, {}),
    (["--ppg-high-hz", "6"], ("ppg_filter", "high_cut_hz"), 6.0, {}),
    (["--ppg-causal"], ("ppg_filter", "zero_phase"), False, {}),
    (["--ppg-zero-phase"], ("ppg_filter", "zero_phase"), True,
     {"ppg_filter": {"zero_phase": False}}),
    (["--n-trees", "9"], ("learn", "n_trees"), 9, {}),
    (["--k-features", "3"], ("learn", "k_features"), 3, {}),
    (["--min-samples-leaf", "3"], ("learn", "min_samples_leaf"), 3, {}),
    (["--knn-k", "4"], ("learn", "knn_k"), 4, {}),
    (["--cv-folds", "3"], ("learn", "cv_folds"), 3, {}),
    (["--holdout-fraction", "0.3"], ("learn", "holdout_fraction"), 0.3, {}),
    (["--families", "extra_trees, knn"], ("learn", "families"), ["extra_trees", "knn"], {}),
    (["--subject-wise"], ("learn", "subject_wise"), True, {}),
    (["--background-size", "7"], ("explain", "background_size"), 7, {}),
    (["--max-instances", "4"], ("explain", "max_instances"), 4, {}),
]


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    (root / "spec.json").write_text(json.dumps(FLAG_SPEC))
    assert run_cli("synth", "--spec", str(root / "spec.json"),
                   "--out", str(root / "data")).exit_code == 0
    return root


def _flag_base(root: Path, spec_path: Path | None, **overlay) -> dict:
    doc = {
        "out_dir": str(root / "run"),
        "synthetic_spec_path": str(spec_path) if spec_path else None,
        "ecg_filter": {"order": 3, "low_cut_hz": 0.67, "high_cut_hz": 40.0, "zero_phase": True},
        "ppg_filter": {"order": 3, "low_cut_hz": 0.5, "high_cut_hz": 8.0, "zero_phase": True},
    }
    for key, value in overlay.items():
        doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
    return {key: value for key, value in doc.items() if value is not None}


def _stamp_with_flags(root: Path, base: dict, flags: list[str], out_dir: str | None = None):
    """Run extract on `base` plus `flags`; returns the stamped config and the
    config `base` alone would stamp."""
    config_path = root / "base.json"
    config_path.write_text(json.dumps(base))
    result = run_cli("extract", "--config", str(config_path), *flags)
    assert result.exit_code == 0, result.output
    stamped = json.loads((Path(out_dir or base["out_dir"]) / "config.json").read_text())
    return stamped["config"], config_to_dict(config_from_dict(base))


@pytest.mark.parametrize(
    "flags, path, expected, overlay", FLAG_CASES, ids=[" ".join(c[0]) for c in FLAG_CASES]
)
def test_config_flag_lands_at_its_field(flag_inputs, tmp_path, flags, path, expected, overlay):
    base = _flag_base(tmp_path, flag_inputs / "spec.json", **overlay)
    stamped, want = _stamp_with_flags(tmp_path, base, flags)
    section = want
    for key in path[:-1]:
        section = section[key]
    assert section[path[-1]] != expected, "the flag must change its field"
    section[path[-1]] = expected
    assert stamped == want


@pytest.mark.parametrize("flag, key, name, other", [
    ("--manifest", "manifest_path", "data/manifest.json", "synthetic_spec_path"),
    ("--synthetic-spec", "synthetic_spec_path", "spec.json", "manifest_path"),
])
def test_input_flags_land_at_their_field(flag_inputs, tmp_path, flag, key, name, other):
    value = str(flag_inputs / name)
    base = _flag_base(tmp_path, None)
    config_path = tmp_path / "base.json"
    config_path.write_text(json.dumps(base))
    result = run_cli("extract", "--config", str(config_path), flag, value)
    assert result.exit_code == 0, result.output
    stamped = json.loads((tmp_path / "run" / "config.json").read_text())["config"]
    assert stamped[key] == value
    assert stamped[other] is None


def test_out_flag_lands_at_out_dir(flag_inputs, tmp_path):
    base = _flag_base(tmp_path, flag_inputs / "spec.json")
    elsewhere = str(tmp_path / "elsewhere")
    stamped, want = _stamp_with_flags(tmp_path, base, ["--out", elsewhere], elsewhere)
    assert want["out_dir"] != elsewhere
    want["out_dir"] = elsewhere
    assert stamped == want
