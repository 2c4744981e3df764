"""End-to-end flows: published-layout exports -> adapter -> full pipeline.

The raw exports are fabricated from the synthetic generator, so the signals
carry real beat structure and the whole chain (adapt, extract, variance,
train-eval, importance, report) runs meaningfully without restricted data.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hrvaffect.adapters import adapt_case, adapt_wesad
from hrvaffect.ingest import (
    StateSpec,
    SyntheticSpec,
    generate_synthetic,
    load_manifest,
    write_canonical,
    write_manifest,
)
from hrvaffect.pipeline import (
    config_from_dict,
    extract_features,
    stage_extract,
    stage_importance,
    stage_report,
    stage_train_eval,
    stage_variance,
)
from helpers import synthetic_subject, synthetic_wesad_export
import run_wesad


def run_all_stages(config):
    stage_extract(config)
    stage_variance(config)
    metrics = stage_train_eval(config)
    stage_importance(config)
    report_path = stage_report(config)
    return metrics, report_path


@pytest.mark.parametrize("scheme", ["wesad", "case"])
def test_adapter_to_report(tmp_path, scheme):
    raw = tmp_path / "raw"
    if scheme == "wesad":
        manifest = adapt_wesad(synthetic_wesad_export(raw), tmp_path / "data")
    else:
        (raw / "physiological").mkdir(parents=True)
        (raw / "annotations").mkdir()
        for i, seed in ((1, 41), (2, 42)):
            subject = synthetic_subject(1000.0, 1000.0, seed, labels=("LALV", "HAHV"))
            with open(raw / "physiological" / f"sub_{i}.csv", "w") as fh:
                fh.write("daqtime,ecg,bvp\n")
                for t, (e, p) in enumerate(zip(subject.ecg.samples, subject.ppg.samples)):
                    fh.write(f"{t},{float(e)!r},{float(p)!r}\n")
            # Joystick-range annotations at 20 Hz, un-normalized on purpose.
            step = int(subject.annotations.sample_rate_hz / 20.0)
            av = np.asarray(subject.annotations.values)[::step]
            raw_av = (av - 0.5) / 9.0 * 52450.0 - 26225.0
            with open(raw / "annotations" / f"sub_{i}.csv", "w") as fh:
                fh.write("jstime,valence,arousal\n")
                for t, (arousal, valence) in enumerate(raw_av):
                    fh.write(f"{t},{float(valence)!r},{float(arousal)!r}\n")
        manifest = adapt_case(raw, tmp_path / "data")

    config = config_from_dict({
        "manifest_path": str(manifest),
        "out_dir": str(tmp_path / "run"),
        "seed": 3,
        "learn": {"n_trees": 15, "cv_folds": 3},
        "explain": {"background_size": 8, "max_instances": 2},
    })
    metrics, report_path = run_all_stages(config)

    expected_labels = {"baseline", "stress"} if scheme == "wesad" else {"LALV", "HAHV"}
    for modality in ("ECG", "PPG"):
        entry = metrics["modalities"][modality]
        assert set(entry["confusion"]["labels"]) == expected_labels
        # Two states 27 BPM apart: anything resembling learning succeeds.
        assert entry["holdout_accuracy"] >= 0.8
    report = json.loads(report_path.read_text())
    assert report["extract"]["n_subjects"] == 2
    assert set(report["importance"]["rankings"]) == {"ECG", "PPG"}


def test_run_wesad_script_end_to_end(tmp_path, capsys):
    """scripts/run_wesad.py parses its flags, commits the adapted export into
    out/data and runs every stage into out/run."""
    out = tmp_path / "wesad_run"
    argv = ["--raw", str(synthetic_wesad_export(tmp_path / "raw")), "--out", str(out),
            "--n-trees", "10", "--max-instances", "5"]
    assert run_wesad.main(argv) == 0
    assert f"full report: {out / 'run' / 'report.json'}" in capsys.readouterr().out
    assert sorted(path.name for path in (out / "data").iterdir()) == sorted(
        [f"S{i}_{kind}.csv" for i in (2, 3) for kind in ("ecg", "ppg", "annotations")]
        + ["manifest.json"]
    )
    report = json.loads((out / "run" / "report.json").read_text())
    assert report["extract"]["n_subjects"] == 2
    assert report["config"]["learn"]["n_trees"] == 10
    assert report["config"]["explain"]["max_instances"] == 5
    for modality in ("ECG", "PPG"):
        assert report["metrics"]["modalities"][modality]["holdout_accuracy"] >= 0.8


def test_subject_wise_split_through_pipeline(tmp_path):
    raw_subjects = []
    for i in range(6):
        subject = synthetic_subject(350.0, 64.0, seed=50 + i)
        raw_subjects.append(
            type(subject)(
                subject_id=f"s{i:02d}",
                ecg=subject.ecg,
                ppg=subject.ppg,
                annotations=subject.annotations,
            )
        )
    from hrvaffect.ingest import write_canonical

    manifest = write_canonical(raw_subjects, "multi", tmp_path / "data")
    config = config_from_dict({
        "manifest_path": str(manifest),
        "out_dir": str(tmp_path / "run"),
        "seed": 1,
        "learn": {"n_trees": 10, "cv_folds": 3, "subject_wise": True,
                  "families": ["extra_trees"]},
    })
    stage_extract(config)
    metrics = stage_train_eval(config)
    for modality in ("ECG", "PPG"):
        assert 0.0 <= metrics["modalities"][modality]["holdout_accuracy"] <= 1.0


def test_features_csv_round_trip(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "duration_s": 60.0, "ecg_rate_hz": 350.0, "ppg_rate_hz": 64.0,
        "states": [{"label": "baseline", "mean_bpm": 70.0, "bpm_jitter_ms": 15.0,
                     "duration_s": 60.0}],
        "noise_std": 1.0,  # fails detection in some windows, and only br in others
        "seed": 5,
    }))
    config = config_from_dict({
        "synthetic_spec_path": str(spec_path),
        "out_dir": str(tmp_path / "run"),
    })
    from hrvaffect.pipeline import extract_features, read_feature_rows, run_hash

    stage_extract(config)
    direct, _ = extract_features(config)
    loaded = read_feature_rows(tmp_path / "run", run_hash(config))
    assert len(loaded) == len(direct)
    missing = [np.isnan(b.values) for b in direct]
    assert any(m.all() for m in missing) and any(m.any() and not m.all() for m in missing)
    for a, b in zip(loaded, direct):
        assert (a.window_id, a.subject_id, a.modality, a.label) == (
            b.window_id, b.subject_id, b.modality, b.label,
        )
        # All 13 values survive the 9-significant-digit serialization, and
        # NaN stays where it was.
        assert np.array_equal(np.isnan(a.values), np.isnan(b.values))
        np.testing.assert_allclose(a.values, b.values, rtol=1e-8, atol=0)


def test_extract_peak_memory_follows_one_subject(tmp_path):
    """A manifest's subjects are loaded one at a time, so extract's traced peak
    on 8 subjects exceeds that on 2 by less than one subject's arrays.  The
    subjects are shaped like the wearable-stress recordings: 240 s of ECG at
    700 Hz, PPG at 64 Hz and int64 labels at 700 Hz."""
    states = (("baseline", 70.0), ("stress", 88.0), ("amusement", 75.0), ("meditation", 66.0))
    subject, _ = generate_synthetic(SyntheticSpec(
        duration_s=240.0, ecg_rate_hz=700.0, ppg_rate_hz=64.0,
        states=tuple(StateSpec(label, bpm, 40.0, 60.0) for label, bpm in states),
        respiratory_rr_modulation_ms=30.0, noise_std=0.05, seed=3,
    ))
    one_subject = sum(a.nbytes for a in (subject.ecg.samples, subject.ppg.samples,
                                         subject.annotations.values))
    manifest = load_manifest(write_canonical([subject], "cohort", tmp_path))
    entry = manifest.subjects[0]

    def config(n_subjects):
        # Every subject reads the same files under its own id.
        path = tmp_path / f"manifest_{n_subjects}.json"
        write_manifest(replace(manifest, subjects=tuple(
            replace(entry, subject_id=f"S{i}") for i in range(n_subjects)
        )), path)
        return config_from_dict({"manifest_path": str(path), "out_dir": str(tmp_path / "run")})

    def traced_peak(n_subjects):
        tracemalloc.start()
        try:
            _, stats = extract_features(config(n_subjects))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats["n_subjects"] == n_subjects
        return peak

    extract_features(config(1))  # lazy imports and caches fill, untraced
    assert traced_peak(8) - traced_peak(2) < one_subject
