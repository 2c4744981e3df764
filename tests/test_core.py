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
)


def make_record(samples, rate=700.0):
    return SignalRecord("s1", Modality.ECG, rate, samples)


class TestValidateRecord:
    """A record is validated when it is built."""

    def test_minimal_valid_record(self):
        assert make_record([0.1, 0.2]).n_samples == 2

    def test_nan_reports_first_offending_index(self):
        with pytest.raises(NonFiniteSampleError) as err:
            make_record([0.0, 1.0, 2.0, math.nan, math.nan])
        assert err.value.index == 3

    def test_infinity_is_non_finite(self):
        with pytest.raises(NonFiniteSampleError):
            make_record([0.0, math.inf])

    def test_zero_rate(self):
        with pytest.raises(NonPositiveRateError, match="^sample_rate_hz must be positive, got 0.0$"):
            make_record([0.1], rate=0.0)

    def test_rate_is_checked_before_emptiness(self):
        with pytest.raises(NonPositiveRateError):
            make_record([], rate=-1.0)

    def test_empty_signal(self):
        with pytest.raises(EmptySignalError, match="^record s1/.*ECG has no samples$"):
            make_record([])


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
        assert AnnotationTrack(LabelScheme.DISCRETE_STATE, 700.0, [0, 1, 2, 3, 4]).n_samples == 5
        with pytest.raises(ValidationError, match="^unknown annotation code 9 at index 1$"):
            AnnotationTrack(LabelScheme.DISCRETE_STATE, 700.0, [1, 9])

    @pytest.mark.parametrize("code", [-1, 8, 2**40])
    def test_unknown_code_at_a_late_index_is_named(self, code):
        """An 1800 s track at 1000 Hz is checked with boolean temporaries only.
        The peak holds the constructor's one int64 copy of the labels plus less
        than one more for the check."""
        values = np.zeros(1_800_000, dtype=np.int64)
        values[-3] = code
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"^unknown annotation code {code} at index 1799997$"):
                AnnotationTrack(LabelScheme.DISCRETE_STATE, 1000.0, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * values.nbytes

    def test_av_range_validated(self):
        ok = AnnotationTrack(LabelScheme.AROUSAL_VALENCE, 20.0, [[0.5, 9.5], [5.0, 5.0]])
        assert ok.n_samples == 2
        with pytest.raises(ValueOutOfRangeError) as err:
            AnnotationTrack(LabelScheme.AROUSAL_VALENCE, 20.0, [[1.0, 5.0], [1.0, 9.6]])
        assert (err.value.index, err.value.value) == (1, 9.6)

    def test_av_non_finite_is_named_before_the_range(self):
        with pytest.raises(NonFiniteSampleError) as err:
            AnnotationTrack(LabelScheme.AROUSAL_VALENCE, 20.0, [[0.0, 5.0], [5.0, math.nan]])
        assert err.value.index == 1

    @pytest.mark.parametrize("scheme, values", [
        (LabelScheme.DISCRETE_STATE, [1]), (LabelScheme.AROUSAL_VALENCE, [[5.0, 5.0]]),
    ])
    def test_track_rate_and_emptiness(self, scheme, values):
        with pytest.raises(NonPositiveRateError, match="^annotation rate must be positive, got 0.0$"):
            AnnotationTrack(scheme, 0.0, values)
        with pytest.raises(EmptySignalError, match="^annotation track has no samples$"):
            AnnotationTrack(scheme, 20.0, np.empty((0,) + np.shape(values)[1:]))

    def test_av_shape_enforced(self):
        with pytest.raises(ValidationError):
            AnnotationTrack(LabelScheme.AROUSAL_VALENCE, 20.0, [1.0, 2.0])


def _frozen(arr):
    arr.setflags(write=False)
    return arr


class TestArraySharing:
    """A record or track holds an array that is already frozen: the right
    dtype, C-contiguous, and neither it nor any array it views writeable.
    Anything else is copied, so writing the source later changes nothing."""

    def test_frozen_owner_is_held(self):
        samples = _frozen(np.arange(5.0))
        assert make_record(samples).samples is samples
        codes = _frozen(np.array([1, 2, 3], dtype=np.int64))
        assert AnnotationTrack(LabelScheme.DISCRETE_STATE, 700.0, codes).values is codes
        pairs = _frozen(np.full((3, 2), 5.0))
        assert AnnotationTrack(LabelScheme.AROUSAL_VALENCE, 20.0, pairs).values is pairs

    def test_read_only_view_of_a_frozen_owner_is_held(self):
        view = _frozen(np.arange(10.0))[2:7]
        assert make_record(view).samples is view

    @pytest.mark.parametrize("source", [
        lambda base: base,
        lambda base: _frozen(base[1:]),
        lambda base: _frozen(base.astype(np.float32)),
        lambda base: _frozen(base[::2]),
    ], ids=["writeable", "read_only_view_of_writeable", "float32", "strided"])
    def test_anything_else_is_copied(self, source):
        base = np.arange(6.0)
        held = source(base)
        record = make_record(held)
        expected = record.samples.tolist()
        assert record.samples.dtype == np.float64
        assert not np.shares_memory(record.samples, held)
        assert not np.shares_memory(record.samples, base)
        assert not record.samples.flags.writeable
        base[:] = -1.0
        assert record.samples.tolist() == expected

    def test_writeable_codes_are_copied(self):
        codes = np.array([1, 2, 3], dtype=np.int64)
        track = AnnotationTrack(LabelScheme.DISCRETE_STATE, 700.0, codes)
        codes[:] = 4
        assert track.values.tolist() == [1, 2, 3]


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
