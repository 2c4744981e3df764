"""Adapter tests run against miniature fabricated exports, never real data."""

import json
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hrvaffect.adapters import UnrecognizedLayoutError, _minmax_to_av, adapt_case, adapt_wesad
from hrvaffect.core import AV_RANGE, LabelScheme, NonFiniteSampleError, ValidationError
from hrvaffect.ingest import RateMismatchError, load_dataset, load_manifest
from helpers import package_env


def fake_wesad_export(root, n_subjects=2, duration_s=12.0, edit=None):
    """Subject pickles S2, S3, ...; edit(payload) may spoil the last one."""
    rng = np.random.default_rng(0)
    for i in range(2, 2 + n_subjects):
        subject_dir = root / f"S{i}"
        subject_dir.mkdir()
        n_ecg = int(700 * duration_s)
        n_bvp = int(64 * duration_s)
        payload = {
            "subject": f"S{i}",
            "signal": {
                "chest": {"ECG": rng.normal(size=(n_ecg, 1))},
                "wrist": {"BVP": rng.normal(size=(n_bvp, 1))},
            },
            "label": np.ones(n_ecg, dtype=np.int64),
        }
        if edit is not None and i == 1 + n_subjects:
            edit(payload)
        with open(subject_dir / f"S{i}.pkl", "wb") as fh:
            pickle.dump(payload, fh, protocol=2)


def _nan_ecg_sample(payload):
    payload["signal"]["chest"]["ECG"][100, 0] = np.nan


def _code_9(payload):
    payload["label"][50] = 9


def _short_bvp(payload):
    payload["signal"]["wrist"]["BVP"] = payload["signal"]["wrist"]["BVP"][:-64]


class TestWesadAdapter:
    def test_rates_declared_from_export_layout(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        fake_wesad_export(raw)
        manifest = load_manifest(adapt_wesad(raw, tmp_path / "canonical"))
        assert manifest.label_scheme is LabelScheme.DISCRETE_STATE
        assert len(manifest.subjects) == 2
        for entry in manifest.subjects:
            assert entry.ecg_rate_hz == 700.0
            assert entry.ppg_rate_hz == 64.0
            assert entry.annotation_rate_hz == 700.0

    def test_round_trip_load(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        fake_wesad_export(raw, n_subjects=1)
        out = tmp_path / "canonical"
        subjects = load_dataset(load_manifest(adapt_wesad(raw, out)), out)
        assert subjects[0].ecg.sample_rate_hz == 700.0
        assert subjects[0].ppg.n_samples == int(64 * 12.0)

    def test_unrecognized_layout(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        with pytest.raises(UnrecognizedLayoutError):
            adapt_wesad(raw, tmp_path / "out")

    @pytest.mark.parametrize("edit, error, message", [
        (_nan_ecg_sample, NonFiniteSampleError, "^non-finite sample at index 100$"),
        (_code_9, ValidationError, "^unknown annotation code 9 at index 50$"),
        (_short_bvp, RateMismatchError, "^subject S3: stream durations disagree > 1%: "),
    ], ids=["nan_ecg", "code_9", "short_bvp"])
    def test_export_the_loader_would_refuse_writes_nothing(self, tmp_path, edit, error, message):
        raw = tmp_path / "raw"
        raw.mkdir()
        fake_wesad_export(raw, edit=edit)
        with pytest.raises(error, match=message):
            adapt_wesad(raw, tmp_path / "canonical")
        assert not (tmp_path / "canonical").exists()

    def test_malformed_pickle_structure(self, tmp_path):
        raw = tmp_path / "raw"
        (raw / "S2").mkdir(parents=True)
        with open(raw / "S2" / "S2.pkl", "wb") as fh:
            pickle.dump({"signal": {"chest": {}}}, fh)
        with pytest.raises(UnrecognizedLayoutError):
            adapt_wesad(raw, tmp_path / "out")

    @pytest.mark.parametrize("keep, error", [(0.5, "UnpicklingError"), (0.0, "EOFError")],
                             ids=["truncated", "empty"])
    def test_unreadable_pickle_names_the_file(self, tmp_path, keep, error):
        raw = tmp_path / "raw"
        raw.mkdir()
        fake_wesad_export(raw, n_subjects=1)
        pkl = raw / "S2" / "S2.pkl"
        data = pkl.read_bytes()
        pkl.write_bytes(data[: int(len(data) * keep)])
        with pytest.raises(UnrecognizedLayoutError,
                           match=f"^{re.escape(str(pkl))}: not a readable pickle: {error}"):
            adapt_wesad(raw, tmp_path / "canonical")
        assert not (tmp_path / "canonical").exists()

    def test_empty_pickle_is_one_json_error_from_the_console(self, tmp_path):
        """click turns an EOFError that leaves a command into "Aborted!"."""
        pkl = tmp_path / "raw" / "S2" / "S2.pkl"
        pkl.parent.mkdir(parents=True)
        pkl.write_bytes(b"")
        out = tmp_path / "canonical"
        proc = subprocess.run(
            [sys.executable, "-m", "hrvaffect", "adapt-wesad", "--raw", str(tmp_path / "raw"),
             "--out", str(out)],
            env=package_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert json.loads(proc.stderr) == {
            "error": "UnrecognizedLayout",
            "message": f"{pkl}: not a readable pickle: EOFError('Ran out of input')",
        }
        assert not out.exists()


def fake_case_export(root, n_subjects=2, duration_s=5.0):
    rng = np.random.default_rng(1)
    (root / "physiological").mkdir(parents=True)
    (root / "annotations").mkdir()
    for i in range(1, 1 + n_subjects):
        n_phys = int(1000 * duration_s)
        n_ann = int(20 * duration_s)
        daq = np.arange(n_phys)
        ecg = rng.normal(size=n_phys)
        bvp = rng.normal(size=n_phys)
        with open(root / "physiological" / f"sub_{i}.csv", "w") as fh:
            fh.write("daqtime,ecg,bvp,gsr\n")
            for row in zip(daq, ecg, bvp):
                fh.write(f"{row[0]},{float(row[1])!r},{float(row[2])!r},0.0\n")
        jstime = np.arange(n_ann)
        valence = rng.uniform(-26225, 26225, size=n_ann)
        arousal = rng.uniform(-26225, 26225, size=n_ann)
        with open(root / "annotations" / f"sub_{i}.csv", "w") as fh:
            fh.write("jstime,valence,arousal\n")
            for row in zip(jstime, valence, arousal):
                fh.write(f"{row[0]},{float(row[1])!r},{float(row[2])!r}\n")


class TestCaseAdapter:
    def test_rates_and_normalization(self, tmp_path):
        raw = tmp_path / "raw"
        fake_case_export(raw)
        out = tmp_path / "canonical"
        manifest = load_manifest(adapt_case(raw, out))
        assert manifest.label_scheme is LabelScheme.AROUSAL_VALENCE
        for entry in manifest.subjects:
            assert entry.ecg_rate_hz == 1000.0
            assert entry.ppg_rate_hz == 1000.0
            assert entry.annotation_rate_hz == 20.0
        subjects = load_dataset(manifest, out)
        for subject in subjects:
            values = subject.annotations.values
            # Per-subject min-max normalization fills the full target range.
            assert values.min() == pytest.approx(0.5)
            assert values.max() == pytest.approx(9.5)

    def test_missing_annotations_rejected(self, tmp_path):
        raw = tmp_path / "raw"
        fake_case_export(raw, n_subjects=1)
        (raw / "annotations" / "sub_1.csv").unlink()
        with pytest.raises(UnrecognizedLayoutError):
            adapt_case(raw, tmp_path / "out")

    def test_wrong_columns_rejected(self, tmp_path):
        raw = tmp_path / "raw"
        fake_case_export(raw, n_subjects=1)
        (raw / "physiological" / "sub_1.csv").write_text("daqtime,foo\n0,1\n")
        with pytest.raises(UnrecognizedLayoutError):
            adapt_case(raw, tmp_path / "out")

    @pytest.mark.parametrize("folder, edit, message", [
        ("physiological", lambda text: text + "5000,0.5\n",
         ":5002: expected a number in column 'bvp', got None"),
        ("physiological", lambda text: text + "5000,x,0.5,0.0\n",
         ":5002: expected a number in column 'ecg', got 'x'"),
        ("physiological", lambda text: text + "5000,0.5,,0.0\n",
         ":5002: expected a number in column 'bvp', got ''"),
        ("physiological", lambda text: text + "5000,0.5\udce9,0.5,0.0\n",
         ":5002: expected a number in column 'ecg', got '0.5\\udce9'"),
        ("physiological", lambda text: text.splitlines(keepends=True)[0],
         ": no data rows under the header"),
        ("annotations", lambda text: text.splitlines(keepends=True)[0],
         ": no data rows under the header"),
    ], ids=["missing_cell", "non_numeric_cell", "empty_cell", "not_utf8_cell",
            "header_only_physiological", "header_only_annotations"])
    def test_malformed_csv_names_the_file(self, tmp_path, folder, edit, message):
        raw = tmp_path / "raw"
        fake_case_export(raw, n_subjects=1)
        path = raw / folder / "sub_1.csv"
        path.write_text(edit(path.read_text()), errors="surrogateescape")
        with pytest.raises(UnrecognizedLayoutError, match=f"^{re.escape(str(path) + message)}$"):
            adapt_case(raw, tmp_path / "canonical")
        assert not (tmp_path / "canonical").exists()


def test_minmax_to_av_stays_inside_the_range():
    # Unclipped, rounding carries this vector's top to 9.500000000000002.
    assert _minmax_to_av(np.array([-4.1, -3.6])).tolist() == [0.5, 9.5]


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8))
def test_minmax_to_av_clips_only_what_leaves_the_range(raw):
    values = np.array(raw)
    av = _minmax_to_av(values)
    lo, hi = AV_RANGE
    assert ((av >= lo) & (av <= hi)).all()
    if values.max() > values.min():
        unclipped = lo + (values - values.min()) * (hi - lo) / (values.max() - values.min())
        inside = (unclipped >= lo) & (unclipped <= hi)
        assert av[inside].tobytes() == unclipped[inside].tobytes()
