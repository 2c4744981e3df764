"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 10 needs a real wearable-stress export and is skipped unless the
WESAD_ROOT environment variable points at one.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hrvaffect.dsp import (
    DEFAULT_ECG_FILTER,
    DEFAULT_PPG_FILTER,
    WindowSpec,
    design_butterworth_bandpass,
    filter_signal,
    segment_windows,
)
from hrvaffect.experiments import holdout_gap, run_spec, twin_spec
from hrvaffect.explain import sample_background, shapley_explain
from hrvaffect.hrv import FEATURE_NAMES, compute_features, detect_beats
from hrvaffect.ingest import StateSpec, SyntheticSpec, generate_synthetic
from hrvaffect.learn import ExtraTreesParams, roc_binary, train_extra_trees
from helpers import beats_from_rr, package_env
from oracles import oracle_auc, oracle_features, oracle_shapley_permutations, sos_gain


_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    # Lets report() write past pytest's capture so the per-criterion lines
    # land in piped transcripts without requiring -s.
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[ACCEPTANCE] criterion {number:02d} {name}: {status}{suffix}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def matches(got: float, want: float, rel: float = 1e-9) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return got == pytest.approx(want, rel=rel, abs=1e-12)


def test_criterion_01_feature_formula_oracle(rr_series_pool):
    start = time.perf_counter()
    all_ok = True
    for rr in rr_series_pool:
        fv = compute_features(beats_from_rr(rr), 700.0)
        expected = oracle_features(rr)
        for name in FEATURE_NAMES:
            if not matches(getattr(fv, name), expected[name]):
                all_ok = False
    elapsed = time.perf_counter() - start
    report(1, "feature formula oracle equivalence", all_ok and elapsed < 5.0,
           f"100 series, {elapsed:.2f}s")


def test_criterion_02_poincare_identities(rr_series_pool):
    all_ok = True
    for rr in rr_series_pool:
        fv = compute_features(beats_from_rr(rr), 700.0)
        if not matches(fv.sd1, fv.rmssd / math.sqrt(2.0)):
            all_ok = False
        if not matches(fv.sd1**2 + fv.sd2**2, 2.0 * fv.sdnn**2):
            all_ok = False
    report(2, "poincare identities", all_ok, "sd1=rmssd/sqrt2; sd1^2+sd2^2=2*sdnn^2")


def test_criterion_03_beat_detection():
    start = time.perf_counter()
    worst_recall, worst_bpm_err = 1.0, 0.0
    for bpm in (50.0, 75.0, 120.0, 150.0):
        for ecg_rate, ppg_rate in ((700.0, 64.0), (1000.0, 1000.0)):
            spec = SyntheticSpec(
                duration_s=120.0, ecg_rate_hz=ecg_rate, ppg_rate_hz=ppg_rate,
                states=(StateSpec("baseline", bpm, 0.0, 120.0),),
                respiratory_rate_hz=0.25, respiratory_rr_modulation_ms=0.0,
                noise_std=0.0, seed=1,
            )
            subject, truth = generate_synthetic(spec)
            ecg = filter_signal(subject.ecg, DEFAULT_ECG_FILTER)
            ppg = filter_signal(subject.ppg, DEFAULT_PPG_FILTER)
            pairs = segment_windows(ecg, ppg, subject.annotations, WindowSpec())
            for idx, rate, gt_times in (
                (0, ecg_rate, truth.beat_times_s),
                (1, ppg_rate, truth.ppg_pulse_times_s),
            ):
                detected = []
                for pair in pairs:
                    segment = pair[idx]
                    beats = detect_beats(segment)
                    detected.extend(segment.window_start_s + beats.peak_indices / rate)
                    window_gt = gt_times[
                        (gt_times >= segment.window_start_s)
                        & (gt_times < segment.window_start_s + 10.0)
                    ]
                    fv = compute_features(beats, rate)
                    true_bpm = 60000.0 / (np.diff(window_gt) * 1000.0).mean()
                    worst_bpm_err = max(worst_bpm_err, abs(fv.bpm - true_bpm))
                detected = np.array(sorted(detected))
                lo = pairs[0][idx].window_start_s
                hi = pairs[-1][idx].window_start_s + 10.0
                covered = gt_times[(gt_times >= lo) & (gt_times < hi)]
                dist = np.abs(detected[None, :] - covered[:, None]).min(axis=1)
                worst_recall = min(worst_recall, float((dist <= 0.020).mean()))
    elapsed = time.perf_counter() - start
    report(
        3, "beat detection",
        worst_recall >= 0.99 and worst_bpm_err <= 2.0 and elapsed < 30.0,
        f"recall>={worst_recall:.4f}, bpm err<={worst_bpm_err:.3f}, {elapsed:.1f}s",
    )


def test_criterion_04_breathing_recovery():
    worst_fraction = 1.0
    for freq in (0.20, 0.25, 0.33):
        spec = SyntheticSpec(
            duration_s=600.0, ecg_rate_hz=700.0, ppg_rate_hz=64.0,
            states=(StateSpec("baseline", 70.0, 0.0, 600.0),),
            respiratory_rate_hz=freq, respiratory_rr_modulation_ms=40.0,
            noise_std=0.0, seed=3,
        )
        subject, _ = generate_synthetic(spec)
        ecg = filter_signal(subject.ecg, DEFAULT_ECG_FILTER)
        ppg = filter_signal(subject.ppg, DEFAULT_PPG_FILTER)
        pairs = segment_windows(ecg, ppg, subject.annotations, WindowSpec())
        rates = [compute_features(detect_beats(e), 700.0).br for e, _ in pairs]
        ok = [r for r in rates if not math.isnan(r) and abs(r - freq) <= 0.02]
        worst_fraction = min(worst_fraction, len(ok) / len(rates))
    report(4, "breathing rate recovery", worst_fraction >= 0.95,
           f"worst per-frequency fraction {worst_fraction:.3f}")


def test_criterion_05_filter_contract(clean_recording):
    sos = design_butterworth_bandpass(DEFAULT_ECG_FILTER, 700.0)
    # Zero-phase application squares the magnitude response.
    gain = {f: sos_gain(sos, f, 700.0) ** 2 for f in (5.0, 0.05, 60.0)}
    gains_ok = gain[5.0] >= 0.9 and gain[0.05] <= 0.1 and gain[60.0] <= 0.1

    subject, truth = clean_recording
    filtered = filter_signal(subject.ecg, DEFAULT_ECG_FILTER)
    shifts = []
    for beat in truth.beat_times_s[2:6]:
        idx = int(round(beat * 700.0))
        window = slice(idx - 20, idx + 21)
        raw_peak = int(np.argmax(subject.ecg.samples[window]))
        filt_peak = int(np.argmax(filtered.samples[window]))
        shifts.append(abs(filt_peak - raw_peak))
    report(
        5, "filter contract",
        gains_ok and max(shifts) <= 1,
        f"gain@5Hz={gain[5.0]:.3f}, @0.05Hz={gain[0.05]:.2e}, @60Hz={gain[60.0]:.3f}, "
        f"peak shift<={max(shifts)} samples",
    )


def test_criterion_06_auc_oracle():
    rng = np.random.default_rng(99)
    all_ok = True
    for i in range(50):
        n = int(rng.integers(6, 200))
        if i % 2 == 0:
            scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)  # heavy ties
        else:
            scores = rng.uniform(size=n)
        labels = rng.uniform(size=n) > rng.uniform(0.2, 0.8)
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        _, _, auc = roc_binary(scores, labels)
        if abs(auc - oracle_auc(scores, labels)) > 1e-9:
            all_ok = False
    report(6, "AUC pair-statistic oracle", all_ok, "50 fixtures incl. ties")


def test_criterion_07_shapley_axioms():
    rng = np.random.default_rng(17)

    # Local accuracy + runtime on the stated 13-feature / 100-background /
    # 50-tree workload.
    X = rng.normal(size=(400, 13))
    y = np.array([f"c{i % 4}" for i in range(400)])
    for c in range(4):
        X[y == f"c{c}", 0] += 2.0 * c
    model = train_extra_trees(X, y, FEATURE_NAMES, ExtraTreesParams(n_trees=50), seed=2)
    background = sample_background(X[:300], 100, seed=3)
    start = time.perf_counter()
    explanation = shapley_explain(model, X[350], background, str(y[350]))
    elapsed = time.perf_counter() - start
    direct = model.predict_proba(X[350:351])[0][model.classes.index(str(y[350]))]
    local_ok = abs(explanation.prediction - direct) <= 1e-6

    more_local_ok = True
    for idx in (301, 333, 377):
        exp_i = shapley_explain(model, X[idx], background, str(y[idx]))
        direct_i = model.predict_proba(X[idx : idx + 1])[0][model.classes.index(str(y[idx]))]
        if abs(exp_i.prediction - direct_i) > 1e-6:
            more_local_ok = False

    # Dummy property: feature 2 is never split on in a two-stump forest.
    from hrvaffect.learn import ExtraTreesModel, Tree

    def stump(feature, threshold):
        return Tree(
            feature=np.array([feature, -1, -1]),
            threshold=np.array([threshold, math.nan, math.nan]),
            left=np.array([1, -1, -1]),
            right=np.array([2, -1, -1]),
            probs=np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]]),
        )

    toy = ExtraTreesModel(
        trees=(stump(0, 0.5), stump(1, -0.25)),
        params=ExtraTreesParams(n_trees=2),
        seed=0,
        classes=("a", "b"),
        feature_names=("f0", "f1", "f2"),
    )
    toy_background = rng.normal(size=(12, 3))
    dummy_ok = True
    for _ in range(5):
        x = rng.normal(size=3)
        if shapley_explain(toy, x, toy_background, "a").phi[2] != 0.0:
            dummy_ok = False

    # Permutation enumeration equivalence for small games.
    perm_ok = True
    for n_features in (2, 3, 5):
        Xs = rng.normal(size=(40, n_features))
        ys = np.where(Xs.sum(axis=1) > 0, "a", "b")
        small = train_extra_trees(
            Xs, ys, tuple(f"f{i}" for i in range(n_features)),
            ExtraTreesParams(n_trees=8), seed=1,
        )
        bg = Xs[:10]
        x = Xs[30]
        class_index = small.classes.index("a")

        def value_fn(coalition):
            composite = bg.copy()
            cols = sorted(coalition)
            if cols:
                composite[:, cols] = x[cols]
            return float(small.predict_proba(composite)[:, class_index].mean())

        expected = oracle_shapley_permutations(value_fn, n_features)
        got = shapley_explain(small, x, bg, "a").phi
        if not np.allclose(got, expected, atol=1e-9):
            perm_ok = False

    report(
        7, "shapley axioms",
        local_ok and more_local_ok and dummy_ok and perm_ok and elapsed <= 10.0,
        f"local acc, dummy=0, permutations match; {elapsed:.2f}s/instance",
    )


DETERMINISM_SPEC = {
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

DETERMINISM_CONFIG = {
    "manifest_path": "data/manifest.json",
    "out_dir": "out",
    "seed": 5,
    "learn": {"n_trees": 15, "cv_folds": 4},
    "explain": {"background_size": 8, "max_instances": 3},
}


def _run_chain(root: Path):
    root.mkdir()
    (root / "spec.json").write_text(json.dumps(DETERMINISM_SPEC))
    (root / "config.json").write_text(json.dumps(DETERMINISM_CONFIG))
    commands = [
        ["synth", "--spec", "spec.json", "--out", "data"],
        ["extract", "--config", "config.json"],
        ["variance", "--config", "config.json"],
        ["train-eval", "--config", "config.json"],
        ["importance", "--config", "config.json"],
    ]
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "hrvaffect", *command],
            cwd=root, env=package_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, f"{command}: {proc.stderr}"


def test_criterion_08_pipeline_determinism(tmp_path):
    _run_chain(tmp_path / "a")
    _run_chain(tmp_path / "b")
    mismatched = []
    for sub in ("data", "out"):
        files_a = sorted((tmp_path / "a" / sub).iterdir())
        files_b = sorted((tmp_path / "b" / sub).iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            if fa.read_bytes() != fb.read_bytes():
                mismatched.append(f"{sub}/{fa.name}")
    n_compared = len(list((tmp_path / "a" / "data").iterdir())) + len(
        list((tmp_path / "a" / "out").iterdir())
    )
    report(8, "pipeline determinism", not mismatched,
           f"{n_compared} files byte-compared" + (f"; differ: {mismatched}" if mismatched else ""))


def test_criterion_09_fidelity_twins(tmp_path):
    start = time.perf_counter()
    high, low = (run_spec(twin_spec(name), tmp_path / name) for name in ("high", "low"))
    elapsed = time.perf_counter() - start

    high_var, low_var = (twin["variance"]["mean_normalized_variance"] for twin in (high, low))
    a_ok = low_var > high_var
    high_gap, low_gap = holdout_gap(high), holdout_gap(low)
    b_ok = low_gap > high_gap
    c_ok = all(
        aucs["stress"] > max(auc for label, auc in aucs.items() if label != "stress")
        for twin in (high, low)
        for aucs in (twin["metrics"]["modalities"][modality]["roc_auc"] for modality in ("ECG", "PPG"))
    )
    report(
        9, "fidelity twins directional reproduction",
        a_ok and b_ok and c_ok and elapsed < 180.0,
        f"norm var {high_var:.3f}->{low_var:.3f}, "
        f"gap {high_gap:+.3f}->{low_gap:+.3f}, distinct-state AUC dominant={c_ok}, "
        f"{elapsed:.0f}s",
    )


@pytest.mark.skipif(
    "WESAD_ROOT" not in os.environ,
    reason="set WESAD_ROOT to a local wearable-stress export to run",
)
def test_criterion_10_wesad_passthrough(tmp_path):
    from hrvaffect.adapters import adapt_wesad
    from hrvaffect.pipeline import (
        config_from_dict,
        stage_extract,
        stage_importance,
        stage_report,
        stage_train_eval,
        stage_variance,
    )

    manifest = adapt_wesad(os.environ["WESAD_ROOT"], tmp_path / "data")
    config = config_from_dict({
        "manifest_path": str(manifest),
        "out_dir": str(tmp_path / "run"),
        "seed": 0,
        "explain": {"background_size": 50, "max_instances": 20},
    })
    stage_extract(config)
    stage_variance(config)
    metrics = stage_train_eval(config)
    stage_importance(config)
    stage_report(config)
    accuracies = {
        modality: metrics["modalities"][modality]["holdout_accuracy"]
        for modality in ("ECG", "PPG")
    }
    report(10, "dataset pass-through sanity", all(a > 0.4 for a in accuracies.values()),
           f"holdout accuracies {accuracies}")
