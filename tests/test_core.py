import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hrvaffect.core import (
    AnnotationTrack,
    EmptySignalError,
    LabelScheme,
    Modality,
    NonFiniteSampleError,
    NonPositiveRateError,
    SignalRecord,
    ValidationError,
    ValueOutOfRangeError,
    av_quadrant,
    derive_rng,
    validate_record,
    validate_track,
)


def make_record(samples, rate=700.0):
    return SignalRecord("s1", Modality.ECG, rate, samples)


class TestValidateRecord:
    def test_minimal_valid_record(self):
        rec = make_record([0.1, 0.2])
        assert validate_record(rec) is rec

    def test_nan_reports_first_offending_index(self):
        rec = make_record([0.0, 1.0, 2.0, math.nan, math.nan])
        with pytest.raises(NonFiniteSampleError) as err:
            validate_record(rec)
        assert err.value.index == 3

    def test_infinity_is_non_finite(self):
        with pytest.raises(NonFiniteSampleError):
            validate_record(make_record([0.0, math.inf]))

    def test_zero_rate(self):
        with pytest.raises(NonPositiveRateError):
            validate_record(make_record([0.1], rate=0.0))

    def test_empty_signal(self):
        with pytest.raises(EmptySignalError):
            validate_record(make_record([]))

    def test_validation_idempotent(self):
        rec = make_record([0.5, 0.6, 0.7])
        assert validate_record(validate_record(rec)) == rec


class TestRecordEquality:
    def test_bitwise_equality_over_fields(self):
        a = make_record([0.1, 0.2])
        b = make_record([0.1, 0.2])
        assert a == b

    def test_differs_on_any_field(self):
        base = make_record([0.1, 0.2])
        assert base != make_record([0.1, 0.3])
        assert base != SignalRecord("s2", Modality.ECG, 700.0, [0.1, 0.2])
        assert base != SignalRecord("s1", Modality.PPG, 700.0, [0.1, 0.2])
        assert base != SignalRecord("s1", Modality.ECG, 64.0, [0.1, 0.2])

    def test_samples_immutable(self):
        rec = make_record([0.1, 0.2])
        with pytest.raises(ValueError):
            rec.samples[0] = 9.0


class TestAnnotationTrack:
    def test_discrete_codes_validated(self):
        track = AnnotationTrack(LabelScheme.DISCRETE_STATE, 700.0, [0, 1, 2, 3, 4])
        assert validate_track(track) is track
        with pytest.raises(ValidationError):
            validate_track(AnnotationTrack(LabelScheme.DISCRETE_STATE, 700.0, [1, 9]))

    @pytest.mark.parametrize("code", [-1, 8, 2**40])
    def test_unknown_code_at_a_late_index_is_named(self, code):
        """An 1800 s track at 1000 Hz is checked with boolean temporaries only,
        less than one int64 copy of its labels."""
        values = np.zeros(1_800_000, dtype=np.int64)
        values[-3] = code
        track = AnnotationTrack(LabelScheme.DISCRETE_STATE, 1000.0, values)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"^unknown annotation code {code} at index 1799997$"):
                validate_track(track)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes

    def test_av_range_validated(self):
        ok = AnnotationTrack(LabelScheme.AROUSAL_VALENCE, 20.0, [[0.5, 9.5], [5.0, 5.0]])
        assert validate_track(ok) is ok
        with pytest.raises(ValueOutOfRangeError):
            validate_track(
                AnnotationTrack(LabelScheme.AROUSAL_VALENCE, 20.0, [[1.0, 9.6]])
            )

    def test_av_shape_enforced(self):
        with pytest.raises(ValidationError):
            AnnotationTrack(LabelScheme.AROUSAL_VALENCE, 20.0, [1.0, 2.0])


def test_av_quadrant_labels():
    assert av_quadrant(True, True) == "LALV"
    assert av_quadrant(True, False) == "LAHV"
    assert av_quadrant(False, True) == "HALV"
    assert av_quadrant(False, False) == "HAHV"


def test_time_of_sample_index():
    rec = SignalRecord("s1", Modality.ECG, 700.0, np.zeros(7000), start_time_s=3.0)
    assert rec.duration_s == pytest.approx(10.0)


class TestDeriveRng:
    def test_same_key_same_stream(self):
        a = derive_rng(42, 1).normal(size=5)
        b = derive_rng(42, 1).normal(size=5)
        assert np.array_equal(a, b)

    def test_different_streams_independent(self):
        a = derive_rng(42, 1).normal(size=5)
        b = derive_rng(42, 2).normal(size=5)
        assert not np.array_equal(a, b)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_any_64_bit_seed_accepted(self, seed):
        assert derive_rng(seed, 0).integers(0, 10) in range(10)
