import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrvaffect.core import (
    AnnotationTrack, LabelScheme, Modality, NonFiniteSampleError, SignalRecord,
)
from hrvaffect.ingest import (
    InvalidSpecError,
    ParseError,
    RateMismatchError,
    StateSpec,
    SubjectData,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_manifest,
    load_synthetic_spec,
    write_canonical,
)


def simple_spec(**overrides):
    base = dict(
        duration_s=60.0,
        ecg_rate_hz=700.0,
        ppg_rate_hz=64.0,
        states=(StateSpec("baseline", 60.0, 0.0, 60.0),),
        respiratory_rate_hz=0.25,
        respiratory_rr_modulation_ms=0.0,
        noise_std=0.0,
        seed=7,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSyntheticSpecValidation:
    def test_valid(self):
        assert simple_spec().states

    def test_bpm_out_of_range(self):
        with pytest.raises(InvalidSpecError):
            simple_spec(states=(StateSpec("baseline", 20.0, 0.0, 60.0),))

    def test_durations_must_sum(self):
        with pytest.raises(InvalidSpecError):
            simple_spec(states=(StateSpec("baseline", 60.0, 0.0, 30.0),))

    def test_mixed_label_schemes_rejected(self):
        with pytest.raises(InvalidSpecError):
            simple_spec(
                states=(
                    StateSpec("baseline", 60.0, 0.0, 30.0),
                    StateSpec("LAHV", 60.0, 0.0, 30.0),
                )
            )


class TestGenerateSynthetic:
    def test_degenerate_beats_exactly_one_second_apart(self):
        subject, truth = generate_synthetic(simple_spec())
        assert np.allclose(np.diff(truth.beat_times_s), 1.0)
        assert np.allclose(truth.rr_ms, 1000.0)
        # ECG spike maxima land on the beat samples
        for bt in truth.beat_times_s[:5]:
            idx = int(round(bt * 700))
            window = subject.ecg.samples[idx - 10 : idx + 11]
            assert np.argmax(window) == 10

    def test_respiratory_modulation_in_rr_series(self):
        spec = simple_spec(
            states=(StateSpec("baseline", 75.0, 0.0, 60.0),),
            respiratory_rate_hz=0.25,
            respiratory_rr_modulation_ms=40.0,
        )
        _, truth = generate_synthetic(spec)
        rr = truth.rr_ms - truth.rr_ms.mean()
        t = truth.beat_times_s[:-1]
        # Correlate against the generating sinusoid: strong match at 0.25 Hz.
        ref = np.sin(2 * np.pi * 0.25 * t)
        corr = float(np.dot(rr, ref) / (np.linalg.norm(rr) * np.linalg.norm(ref)))
        assert corr > 0.95

    def test_same_seed_bit_identical(self):
        spec = simple_spec(
            states=(StateSpec("baseline", 70.0, 20.0, 60.0),), noise_std=0.05
        )
        a_subject, a_truth = generate_synthetic(spec)
        b_subject, b_truth = generate_synthetic(spec)
        assert a_subject.ecg == b_subject.ecg
        assert a_subject.ppg == b_subject.ppg
        assert np.array_equal(a_truth.beat_times_s, b_truth.beat_times_s)

    def test_noise_does_not_move_ground_truth(self):
        quiet = simple_spec(states=(StateSpec("baseline", 70.0, 20.0, 60.0),), noise_std=0.0)
        noisy = simple_spec(states=(StateSpec("baseline", 70.0, 20.0, 60.0),), noise_std=0.05)
        _, t_quiet = generate_synthetic(quiet)
        s_noisy, t_noisy = generate_synthetic(noisy)
        assert np.array_equal(t_quiet.beat_times_s, t_noisy.beat_times_s)
        assert s_noisy.ecg.samples.std() > 0.0

    def test_ppg_delay_constant(self):
        _, truth = generate_synthetic(simple_spec())
        assert np.allclose(truth.ppg_pulse_times_s - truth.beat_times_s, 0.25)

    def test_state_annotation_codes(self):
        spec = simple_spec(
            states=(
                StateSpec("baseline", 60.0, 0.0, 30.0),
                StateSpec("stress", 90.0, 0.0, 30.0),
            )
        )
        subject, truth = generate_synthetic(spec)
        ann = subject.annotations
        assert ann.scheme is LabelScheme.DISCRETE_STATE
        assert ann.values[0] == 1
        assert ann.values[-1] == 2
        assert truth.state_spans == (("baseline", 0.0, 30.0), ("stress", 30.0, 60.0))

    def test_av_scheme_annotations(self):
        spec = simple_spec(
            states=(
                StateSpec("LALV", 60.0, 0.0, 30.0),
                StateSpec("HAHV", 80.0, 0.0, 30.0),
            )
        )
        subject, _ = generate_synthetic(spec)
        ann = subject.annotations
        assert ann.scheme is LabelScheme.AROUSAL_VALENCE
        assert tuple(ann.values[0]) == (2.75, 2.75)
        assert tuple(ann.values[-1]) == (7.25, 7.25)


class TestCanonicalRoundTrip:
    def test_write_then_load_preserves_samples_exactly(self, tmp_path):
        for ecg_rate, ppg_rate in ((700.0, 64.0), (2000.0, 25.0)):
            spec = simple_spec(
                duration_s=20.0, ecg_rate_hz=ecg_rate, ppg_rate_hz=ppg_rate,
                states=(StateSpec("baseline", 70.0, 15.0, 20.0),),
                noise_std=0.01,
            )
            subject, _ = generate_synthetic(spec)
            out = tmp_path / f"{ecg_rate:g}"
            manifest = load_manifest(write_canonical([subject], "roundtrip", out))
            assert manifest.dataset_name == "roundtrip"
            (loaded,) = load_dataset(manifest, out)
            assert loaded.ecg == subject.ecg
            assert loaded.ppg == subject.ppg
            for got, want in [(loaded.ecg.samples, subject.ecg.samples),
                              (loaded.ppg.samples, subject.ppg.samples),
                              (loaded.annotations.values, subject.annotations.values)]:
                assert got.tobytes() == want.tobytes()

    def test_av_round_trip(self, tmp_path):
        spec = simple_spec(
            duration_s=20.0, states=(StateSpec("LAHV", 70.0, 5.0, 20.0),)
        )
        subject, _ = generate_synthetic(spec)
        manifest = load_manifest(write_canonical([subject], "avtrip", tmp_path))
        (loaded,) = load_dataset(manifest, tmp_path)
        assert np.array_equal(loaded.annotations.values, subject.annotations.values)

    def test_missing_file(self, tmp_path):
        spec = simple_spec(duration_s=20.0, states=(StateSpec("baseline", 70.0, 0.0, 20.0),))
        subject, _ = generate_synthetic(spec)
        manifest_path = write_canonical([subject], "broken", tmp_path)
        (tmp_path / "synthetic_ppg.csv").unlink()
        with pytest.raises(FileNotFoundError):
            load_dataset(load_manifest(manifest_path), tmp_path)

    def test_parse_error_reports_row(self, tmp_path):
        spec = simple_spec(duration_s=20.0, states=(StateSpec("baseline", 70.0, 0.0, 20.0),))
        subject, _ = generate_synthetic(spec)
        manifest_path = write_canonical([subject], "corrupt", tmp_path)
        path = tmp_path / "synthetic_ecg.csv"
        lines = path.read_text().splitlines()
        lines[5] = "4,not_a_number"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(load_manifest(manifest_path), tmp_path)
        assert err.value.line == 6

    def test_annotation_row_with_extra_fields_is_a_parse_error(self, tmp_path):
        spec = simple_spec(duration_s=20.0, states=(StateSpec("baseline", 70.0, 0.0, 20.0),))
        subject, _ = generate_synthetic(spec)
        manifest_path = write_canonical([subject], "corrupt", tmp_path)
        path = tmp_path / "synthetic_annotations.csv"
        lines = path.read_text().splitlines()
        lines[5] = "4,1,9,9"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(load_manifest(manifest_path), tmp_path)
        assert err.value.line == 6

    def test_rate_mismatch(self, tmp_path):
        spec = simple_spec(duration_s=20.0, states=(StateSpec("baseline", 70.0, 0.0, 20.0),))
        subject, _ = generate_synthetic(spec)
        manifest_path = write_canonical([subject], "ratebad", tmp_path)
        doc = json.loads(manifest_path.read_text())
        doc["subjects"][0]["ppg_rate_hz"] = 80.0  # declared vs inferred now differ
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(RateMismatchError):
            load_dataset(load_manifest(manifest_path), tmp_path)

    def test_stream_rule_is_reported_before_rate_mismatch(self, tmp_path):
        spec = simple_spec(duration_s=20.0, states=(StateSpec("baseline", 70.0, 0.0, 20.0),))
        subject, _ = generate_synthetic(spec)
        manifest_path = write_canonical([subject], "both", tmp_path)
        doc = json.loads(manifest_path.read_text())
        doc["subjects"][0]["ppg_rate_hz"] = 80.0
        manifest_path.write_text(json.dumps(doc))
        path = tmp_path / "synthetic_ppg.csv"
        lines = path.read_text().splitlines()
        lines[5] = "4,nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonFiniteSampleError) as err:
            load_dataset(load_manifest(manifest_path), tmp_path)
        assert err.value.index == 4

    def test_two_subject_manifest(self, tmp_path):
        spec = simple_spec(duration_s=20.0, states=(StateSpec("baseline", 70.0, 10.0, 20.0),))
        a, _ = generate_synthetic(spec, subject_id="s01")
        b, _ = generate_synthetic(simple_spec(
            duration_s=20.0, states=(StateSpec("baseline", 72.0, 10.0, 20.0),), seed=9
        ), subject_id="s02")
        manifest_path = write_canonical([a, b], "duo", tmp_path)
        loaded = load_dataset(load_manifest(manifest_path), tmp_path)
        assert [s.subject_id for s in loaded] == ["s01", "s02"]

    def test_manifest_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "nope.json")

    def test_manifest_bad_field(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"dataset_name": "x", "label_scheme": "discrete_state"}))
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_manifest_rate_positive(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_doc("s", ppg_rate_hz=0.0)))
        with pytest.raises(ParseError):
            load_manifest(path)

    @pytest.mark.parametrize("subject_id", ["s,1", "s\n1", "s\r1", "s/1", "s\\1"])
    def test_manifest_rejects_ids_csv_cannot_hold(self, tmp_path, subject_id):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_doc(subject_id)))
        with pytest.raises(ParseError, match="subject_id"):
            load_manifest(path)


def manifest_doc(subject_id, **rates):
    """A one-subject manifest document, written by hand: SubjectFiles refuses
    the values these tests need load_manifest to see."""
    subject = {
        "subject_id": subject_id, "ecg_file": "a.csv", "ppg_file": "b.csv",
        "annotation_file": "c.csv", "ecg_rate_hz": 700.0, "ppg_rate_hz": 64.0,
        "annotation_rate_hz": 700.0, **rates,
    }
    return {"dataset_name": "x", "label_scheme": "discrete_state", "subjects": [subject]}


def test_load_synthetic_spec_round_trip(tmp_path):
    doc = {
        "duration_s": 30.0,
        "ecg_rate_hz": 700.0,
        "ppg_rate_hz": 64.0,
        "states": [
            {"label": "baseline", "mean_bpm": 65.0, "bpm_jitter_ms": 10.0, "duration_s": 30.0}
        ],
        "respiratory_rate_hz": 0.2,
        "respiratory_rr_modulation_ms": 25.0,
        "noise_std": 0.01,
        "seed": 3,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    spec = load_synthetic_spec(path)
    assert spec.states[0].label == "baseline"
    assert spec.respiratory_rate_hz == 0.2
    bad = dict(doc, states=[])
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidSpecError):
        load_synthetic_spec(path)


# Values whose shortest repr is easy to get wrong: signed zero, the smallest
# subnormal, an exponent form, and a float that is not what it prints as.
TINY_VALUES = [-0.0, 5e-324, 1e16, 0.1, -2.5e-10, 1 / 3]
TINY_ECG = b"index,value\n0,-0.0\n1,5e-324\n2,1e+16\n3,0.1\n4,-2.5e-10\n5,0.3333333333333333\n"
TINY_PPG = b"index,value\n0,-0.0\n1,1e+16\n2,-2.5e-10\n"


def tiny_manifest(scheme, annotation_rate):
    return (
        '{\n  "dataset_name": "tiny",\n  "label_scheme": "%s",\n  "subjects": [\n    {\n'
        '      "annotation_file": "t1_annotations.csv",\n      "annotation_rate_hz": %s,\n'
        '      "ecg_file": "t1_ecg.csv",\n      "ecg_rate_hz": 6.0,\n'
        '      "ppg_file": "t1_ppg.csv",\n      "ppg_rate_hz": 3.0,\n'
        '      "subject_id": "t1"\n    }\n  ]\n}\n' % (scheme, annotation_rate)
    ).encode()


# Annotations must be known codes and pairs inside the 0.5-9.5 range; the
# pairs hold its ends and floats whose shortest repr is long.
@pytest.mark.parametrize("scheme, rate, values, annotations", [
    (
        LabelScheme.DISCRETE_STATE, 6.0, [0, 1, 3, 2, 7, 5],
        b"index,label\n0,0\n1,1\n2,3\n3,2\n4,7\n5,5\n",
    ),
    (
        LabelScheme.AROUSAL_VALENCE, 3.0, [[2.75, 0.5], [1 + 1 / 3, 9.5], [5.000000000000001, 7.25]],
        b"index,arousal,valence\n0,2.75,0.5\n1,1.3333333333333333,9.5\n2,5.000000000000001,7.25\n",
    ),
], ids=["discrete", "arousal_valence"])
def test_write_canonical_bytes(tmp_path, scheme, rate, values, annotations):
    subject = SubjectData(
        "t1",
        SignalRecord("t1", Modality.ECG, 6.0, TINY_VALUES),
        SignalRecord("t1", Modality.PPG, 3.0, TINY_VALUES[::2]),
        AnnotationTrack(scheme, rate, values),
    )
    write_canonical([subject], "tiny", tmp_path)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == {
        "t1_ecg.csv": TINY_ECG,
        "t1_ppg.csv": TINY_PPG,
        "t1_annotations.csv": annotations,
        "manifest.json": tiny_manifest(scheme.value, rate),
    }


SPEC_DOC = {
    "duration_s": 30.0,
    "ecg_rate_hz": 700.0,
    "ppg_rate_hz": 64.0,
    "states": [{"label": "baseline", "mean_bpm": 65.0, "bpm_jitter_ms": 10.0, "duration_s": 30.0}],
}


def test_spec_without_optional_keys_takes_the_dataclass_defaults(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_DOC))
    assert load_synthetic_spec(path) == SyntheticSpec(
        30.0, 700.0, 64.0, (StateSpec("baseline", 65.0, 10.0, 30.0),)
    )


@pytest.mark.parametrize("seed", [1.5, True, float("inf")], ids=["fraction", "bool", "inf"])
def test_seed_must_be_an_integer(tmp_path, seed):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(SPEC_DOC, seed=seed)))
    with pytest.raises(InvalidSpecError, match="seed must be an integer"):
        load_synthetic_spec(path)


@pytest.mark.parametrize("seed", [3, 3.0])
def test_integral_seed_loads(tmp_path, seed):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(SPEC_DOC, seed=seed)))
    assert load_synthetic_spec(path).seed == 3


def test_spec_that_is_not_an_object_is_invalid(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("[]")
    with pytest.raises(InvalidSpecError, match="expected a JSON object"):
        load_synthetic_spec(path)


def test_write_canonical_checks_every_entry_before_writing(tmp_path):
    def subject(sid):
        return SubjectData(
            sid,
            SignalRecord(sid, Modality.ECG, 6.0, TINY_VALUES),
            SignalRecord(sid, Modality.PPG, 3.0, TINY_VALUES[::2]),
            AnnotationTrack(LabelScheme.DISCRETE_STATE, 6.0, [1] * 6),
        )

    for bad_id in ("a,b", "a/b", "a\\b"):
        with pytest.raises(ValueError, match="subject_id"):
            write_canonical([subject("s1"), subject(bad_id)], "x", tmp_path / "data")
        assert not (tmp_path / "data").exists()


@st.composite
def subjects(draw):
    """A SubjectData of short streams whose durations agree: each stream's
    rate is its sample count over one drawn duration."""
    duration = draw(st.floats(1e-3, 1e4))
    counts = draw(st.lists(st.integers(1, 20), min_size=3, max_size=3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    scheme = draw(st.sampled_from(LabelScheme))
    if scheme is LabelScheme.DISCRETE_STATE:
        labels = draw(st.lists(st.integers(0, 7), min_size=counts[2], max_size=counts[2]))
    else:
        pair = st.tuples(st.floats(0.5, 9.5), st.floats(0.5, 9.5))
        labels = draw(st.lists(pair, min_size=counts[2], max_size=counts[2]))
    sid = draw(st.from_regex(r"[A-Za-z0-9_-]{1,8}", fullmatch=True))
    ecg, ppg = (draw(st.lists(finite, min_size=n, max_size=n)) for n in counts[:2])
    return SubjectData(
        sid,
        SignalRecord(sid, Modality.ECG, counts[0] / duration, ecg),
        SignalRecord(sid, Modality.PPG, counts[1] / duration, ppg),
        AnnotationTrack(scheme, counts[2] / duration, labels),
    )


@settings(max_examples=60, deadline=None)
@given(subjects())
def test_every_subject_that_builds_loads_back_bit_for_bit(subject):
    with tempfile.TemporaryDirectory() as name:
        manifest = load_manifest(write_canonical([subject], "prop", name))
        (loaded,) = load_dataset(manifest, Path(name))
    assert loaded.subject_id == subject.subject_id
    assert loaded.annotations.scheme is subject.annotations.scheme
    for got, want in [(loaded.ecg, subject.ecg), (loaded.ppg, subject.ppg)]:
        assert got.sample_rate_hz == want.sample_rate_hz
        assert got.samples.tobytes() == want.samples.tobytes()
    assert loaded.annotations.sample_rate_hz == subject.annotations.sample_rate_hz
    assert loaded.annotations.values.dtype == subject.annotations.values.dtype
    assert loaded.annotations.values.tobytes() == subject.annotations.values.tobytes()
