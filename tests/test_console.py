"""Console-script checks, on the README's quick-start documents or on specs
of their own.  The quick-start chain runs as processes of the `hrvaffect`
console script when one is on PATH, else of `python -m hrvaffect`; the other
checks invoke the click command in this process.  The README's "Library use"
block runs here too, so the documented calls keep up with the signatures."""

import json
import pickle
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from hrvaffect import pipeline
from hrvaffect.cli import main
from hrvaffect.explain import global_importance
from hrvaffect.hrv import FEATURE_NAMES
from hrvaffect.learn import evaluate, model_from_dict
from hrvaffect.serialize import fmt9, read_json, round9
from helpers import README, flat_wesad_pickle, package_env, readme_json_blocks

ENTRY_POINT = shutil.which("hrvaffect")
CONSOLE = [ENTRY_POINT] if ENTRY_POINT else [sys.executable, "-m", "hrvaffect"]


def spec_doc(duration_s, ecg_rate_hz, ppg_rate_hz, states, **rest):
    """A synthetic spec document; each state is (label, mean_bpm, bpm_jitter_ms, duration_s)."""
    keys = ("label", "mean_bpm", "bpm_jitter_ms", "duration_s")
    return {"duration_s": duration_s, "ecg_rate_hz": ecg_rate_hz, "ppg_rate_hz": ppg_rate_hz,
            "states": [dict(zip(keys, state)) for state in states], **rest}


AV_SPEC = spec_doc(240.0, 350.0, 64.0, [
    ("LALV", 62.0, 25.0, 60.0), ("LAHV", 68.0, 25.0, 60.0),
    ("HALV", 90.0, 25.0, 60.0), ("HAHV", 84.0, 25.0, 60.0),
], noise_std=0.02, seed=3)
# ECG at 2000 Hz puts one 10 s window in a detection block; PPG at 25 Hz
# puts 131 windows in its first block, and the rest in a second.
BLOCK_SPEC = spec_doc(1260.0, 2000.0, 25.0, [
    ("baseline", 65.0, 25.0, 630.0), ("stress", 90.0, 25.0, 630.0),
], noise_std=0.02, seed=5)
DECODE_SPEC = spec_doc(60.0, 350.0, 64.0, [
    ("baseline", 65.0, 25.0, 30.0), ("stress", 90.0, 25.0, 30.0),
], seed=4)
# The second state's beats overlap: 200 BPM with 80 ms jitter.
RENDER_SPEC = spec_doc(120.0, 2000.0, 25.0, [
    ("baseline", 65.0, 25.0, 60.0), ("stress", 200.0, 80.0, 60.0),
], respiratory_rr_modulation_ms=30.0, noise_std=0.02, seed=6)


@pytest.fixture
def cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def readme(cwd):
    """A working directory holding the README's spec and config."""
    spec, config = readme_json_blocks()[:2]
    Path("synth_spec.json").write_text(spec)
    Path("config.json").write_text(config)
    return cwd


def invoke(*args):
    """Run a subcommand in this process; fail on any exception it lets out."""
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def error_of(result):
    assert result.exit_code == 1, result.output
    return json.loads(result.output)["error"]


def write_spec(doc, path="spec.json"):
    Path(path).write_text(json.dumps(doc))
    return path


def test_readme_quick_start_through_the_console_script(readme):
    for stage in ("extract", "variance", "train-eval", "importance", "report"):
        proc = subprocess.run(
            [*CONSOLE, stage, "--config", "config.json"],
            cwd=readme, env=package_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, f"{stage}: {proc.stderr}"
    assert Path("run/report.json").stat().st_size > 0


def test_each_stage_passes_its_whole_config_section(readme):
    """The quick-start under a learn and an explain section off their
    defaults: per modality, metrics.json holds what evaluate returns on the
    learn section, and importance.csv what global_importance returns on the
    explain section, so no stage drops a setting or adds one."""
    doc = json.loads(Path("config.json").read_text())
    doc["learn"] = {"families": ["knn", "extra_trees"], "cv_folds": 3, "knn_k": 3}
    doc["explain"] = {"background_size": 20, "max_instances": 7}
    Path("config.json").write_text(json.dumps(doc))
    for stage in ("extract", "variance", "train-eval", "importance", "report"):
        assert invoke(stage, "--config", "config.json").exit_code == 0
    config = pipeline.config_from_dict(doc)
    h = pipeline.run_hash(config)
    out = Path(config.out_dir)
    rows = pipeline.read_feature_rows(out, h)
    metrics = read_json(out / pipeline.METRICS_JSON)["modalities"]
    models = read_json(out / pipeline.MODEL_JSON)["modalities"]
    importance = pipeline.IMPORTANCE.read(out, h)
    for modality in ("ECG", "PPG"):
        X, y, ids, subjects, _ = pipeline.modality_matrix(rows, modality)
        report, _ = evaluate(X, y, FEATURE_NAMES, config.learn, config.seed, subjects)
        expected = round9({
            "folds": report.folds,
            "families": {
                name: {"fold_accuracies": list(res.fold_accuracies),
                       "mean_cv_accuracy": res.mean_accuracy, "std_cv_accuracy": res.std_accuracy}
                for name, res in report.families.items()
            },
            "selected_family": report.selected_family,
            "holdout_accuracy": report.holdout_accuracy,
            "n_train": report.n_train,
            "n_holdout": report.n_holdout,
            "confusion": {"labels": list(report.confusion_labels),
                          "matrix": report.confusion_matrix.tolist()},
            "roc_auc": {label: curve.auc for label, curve in report.roc.items()},
        })
        assert {key: metrics[modality][key] for key in expected} == expected
        assert expected["folds"] == 3 and set(expected["families"]) == {"knn", "extra_trees"}

        hold = report.holdout_ids
        explained = global_importance(
            model_from_dict(models[modality]["model"]), X[hold], y[hold],
            [ids[i] for i in hold], X[report.train_ids], config.explain, config.seed,
        )
        assert explained.n_explained == 7 < hold.size
        means = {"global": explained.global_mean_abs, **explained.per_state_mean_abs}
        assert sorted(
            (scope, feature, mean) for _, (m, feature, scope, mean, _) in importance
            if m == modality
        ) == sorted(
            (scope, feature, float(fmt9(values[i])))
            for scope, values in means.items() for i, feature in enumerate(FEATURE_NAMES)
        )


def test_library_use_block_of_the_readme_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_synth_writes_the_canonical_csv_extract_reads(readme):
    assert invoke("synth", "--spec", "synth_spec.json", "--out", "data").exit_code == 0
    assert invoke("extract", "--manifest", "data/manifest.json", "--out", "run").exit_code == 0
    assert Path("run/features.csv").stat().st_size > 0


def test_arousal_valence_csv_written_by_synth_and_read_by_extract(cwd):
    assert invoke("synth", "--spec", write_spec(AV_SPEC), "--out", "data").exit_code == 0
    with open("data/synthetic_annotations.csv") as fh:
        assert fh.readline() == "index,arousal,valence\n"
    assert invoke("extract", "--manifest", "data/manifest.json", "--out", "run").exit_code == 0
    stats = json.loads(Path("run/extract_stats.json").read_text())
    assert stats["label_scheme"] == "arousal_valence"
    features = Path("run/features.csv").read_text()
    for quadrant in ("LALV", "LAHV", "HALV", "HAHV"):
        assert f",{quadrant}," in features


def test_beat_detection_in_blocks_of_one_window_and_of_131(cwd):
    """From the spec: the canonical CSV round trip at these rates is bit for
    bit (test_write_then_load_preserves_samples_exactly), so a manifest
    would give extract the same recording."""
    spec = write_spec(BLOCK_SPEC)
    assert invoke("extract", "--synthetic-spec", spec, "--out", "run").exit_code == 0
    windows = json.loads(Path("run/extract_stats.json").read_text())["windows_labeled"]
    with open("run/features.csv") as fh:
        rows = sum(1 for line in fh if not line.startswith("#")) - 1
    assert windows > 131 and rows == 2 * windows


def test_spec_and_config_are_decoded_under_one_rule(cwd):
    write_spec(DECODE_SPEC)
    misspelt = write_spec(dict(DECODE_SPEC, noise_sd=0.5), "misspelt.json")
    assert error_of(invoke("synth", "--spec", misspelt, "--out", "data")) == "InvalidSpec"
    Path("c.json").write_text(json.dumps(
        {"synthetic_spec_path": "spec.json", "out_dir": "run", "window": {"window_len_s": 10}}
    ))
    assert invoke("extract", "--config", "c.json").exit_code == 0
    assert invoke("variance", "--config", "c.json", "--window-len-s", "10").exit_code == 0


def test_synth_twice_gives_byte_identical_files(cwd):
    """synth into a new directory, and again over the dataset there, gives the
    same files each time, with no .stage-* directory left behind."""
    spec = write_spec(RENDER_SPEC)

    def files(out):
        return {path.name: path.read_bytes() if path.is_file() else None
                for path in Path(out).iterdir()}

    for out in ("first", "second"):
        assert invoke("synth", "--spec", spec, "--out", out).exit_code == 0
    first = files("first")
    assert invoke("synth", "--spec", spec, "--out", "first").exit_code == 0
    assert files("first") == first == files("second")
    assert sorted(first) == ["ground_truth.json", "manifest.json", "synthetic_annotations.csv",
                             "synthetic_ecg.csv", "synthetic_ppg.csv"]


def test_variance_refuses_a_bad_filter_flag_before_reading_features(readme):
    result = invoke("variance", "--config", "config.json", "--ppg-low-hz", "9")
    assert error_of(result) == "ConfigInvalid"


def test_adapt_wesad_on_an_export_the_loader_would_refuse_writes_no_manifest(cwd):
    ecg = np.zeros((7000, 1))
    ecg[100, 0] = np.nan
    label = np.ones(7000, dtype=np.int64)
    label[50] = 9
    payload = {"signal": {"chest": {"ECG": ecg}, "wrist": {"BVP": np.zeros((640, 1))}},
               "label": label}
    Path("raw/S2").mkdir(parents=True)
    with open("raw/S2/S2.pkl", "wb") as fh:
        pickle.dump(payload, fh, protocol=2)
    assert error_of(invoke("adapt-wesad", "--raw", "raw", "--out", "data")) == "NonFiniteSample"
    assert not Path("data/manifest.json").exists()


def test_adapt_wesad_refuses_two_pickles_of_one_subject_id(cwd):
    """S2/S2.pkl and S2x/S2.pkl would both be subject S2, whose CSV files and
    feature rows would collide, so the manifest refuses the second."""
    for folder in ("S2", "S2x"):
        flat_wesad_pickle(Path("raw", folder, "S2.pkl"))
    result = invoke("adapt-wesad", "--raw", "raw", "--out", "data")
    assert result.exit_code == 1
    assert result.output.count("\n") == 1
    assert json.loads(result.output) == {
        "error": "Value", "message": "subject_id 'S2' is listed more than once",
    }
    assert not Path("data").exists()
