import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hrvaffect.core import (
    DISCARDED_CODES, DISCRETE_CODE_LABELS, AnnotationTrack, LabelScheme, Modality, SignalRecord,
    ValueOutOfRangeError,
)
from hrvaffect.dsp import (
    DEFAULT_ECG_FILTER,
    FILTER_CHUNK_SAMPLES,
    MAX_FILTER_ORDER,
    CutoffAboveNyquistError,
    FilterDesignError,
    FilterSpec,
    NoCompleteWindowError,
    WindowSpec,
    design_butterworth_bandpass,
    filter_signal,
    resolve_label_av,
    resolve_label_discrete,
    segment_windows,
)
from oracles import sine_amplitude, sos_gain, zero_phase


def sine_record(freq_hz, rate=700.0, duration_s=30.0, amplitude=1.0):
    t = np.arange(int(duration_s * rate)) / rate
    return SignalRecord("s1", Modality.ECG, rate, amplitude * np.sin(2 * np.pi * freq_hz * t))


class TestFilterDesign:
    def test_ecg_band_gains_on_frequency_grid(self):
        sos = design_butterworth_bandpass(DEFAULT_ECG_FILTER, 700.0)
        assert sos_gain(sos, 5.0, 700.0) >= 0.9
        assert sos_gain(sos, 0.05, 700.0) <= 0.1

    def test_ppg_band_fits_under_nyquist_at_64hz(self):
        sos = design_butterworth_bandpass(FilterSpec(3, 0.5, 8.0), 64.0)
        assert sos.shape[1] == 6

    def test_cutoff_above_nyquist(self):
        with pytest.raises(CutoffAboveNyquistError):
            design_butterworth_bandpass(FilterSpec(3, 0.5, 40.0), 64.0)

    @pytest.mark.parametrize("order, low, high", [(50, 0.5, 31.99999), (50, 31.0, 31.9999)],
                             ids=["overflows", "not_finite"])
    def test_design_that_overflows_is_a_design_error(self, order, low, high, recwarn):
        """scipy raises OverflowError for the first band and returns
        non-finite sections, with numpy warnings, for the second."""
        with pytest.raises(FilterDesignError, match=rf"^order-{order} {low}-{high} Hz band-pass at 64.0 Hz"):
            design_butterworth_bandpass(FilterSpec(order, low, high), 64.0)
        assert not recwarn.list

    def test_order_cap(self):
        sos = design_butterworth_bandpass(FilterSpec(MAX_FILTER_ORDER, 0.67, 40.0), 700.0)
        assert np.isfinite(sos).all()
        with pytest.raises(ValueError, match=r"order must lie in \[1, 100\], got 101"):
            FilterSpec(MAX_FILTER_ORDER + 1, 0.67, 40.0)

    def test_monotone_magnitude_in_stop_and_pass_regions(self):
        sos = design_butterworth_bandpass(DEFAULT_ECG_FILTER, 700.0)
        below = [sos_gain(sos, f, 700.0) for f in (0.01, 0.05, 0.1, 0.3, 0.67)]
        assert all(a < b for a, b in zip(below, below[1:]))
        above = [sos_gain(sos, f, 700.0) for f in (40.0, 60.0, 100.0, 200.0)]
        assert all(a > b for a, b in zip(above, above[1:]))


class TestFilterSignal:
    def test_passband_sine_amplitude_and_peak_time(self):
        rec = sine_record(5.0)
        out = filter_signal(rec, DEFAULT_ECG_FILTER)
        assert out.n_samples == rec.n_samples
        assert sine_amplitude(out.samples) >= 0.9
        mid = slice(7000, 14000)
        in_peak = 7000 + int(np.argmax(rec.samples[mid]))
        near = out.samples[in_peak - 3 : in_peak + 4]
        assert abs(int(np.argmax(near)) - 3) <= 1

    def test_dc_offset_killed(self):
        rec = SignalRecord("s1", Modality.ECG, 700.0, np.full(7000, 2.5))
        out = filter_signal(rec, DEFAULT_ECG_FILTER)
        assert np.max(np.abs(out.samples)) < 1e-6

    def test_60hz_attenuated(self):
        rec = sine_record(60.0)
        out = filter_signal(rec, DEFAULT_ECG_FILTER)
        assert sine_amplitude(out.samples) <= 0.1

    def test_zero_phase_time_reversal_symmetry(self):
        # The symmetry holds once the 0.67 Hz band edge's startup transient
        # has decayed, so compare away from the record ends.
        rng = np.random.default_rng(5)
        rec = SignalRecord("s1", Modality.ECG, 700.0, rng.normal(size=70000))
        forward = filter_signal(rec, DEFAULT_ECG_FILTER).samples
        reversed_rec = SignalRecord("s1", Modality.ECG, 700.0, rec.samples[::-1])
        back = filter_signal(reversed_rec, DEFAULT_ECG_FILTER).samples[::-1]
        margin = int(15 * 700)
        assert np.max(np.abs(forward[margin:-margin] - back[margin:-margin])) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(6)
        x = SignalRecord("s1", Modality.ECG, 700.0, rng.normal(size=2048))
        y = SignalRecord("s1", Modality.ECG, 700.0, rng.normal(size=2048))
        a, b = 2.5, -1.25
        combined = SignalRecord("s1", Modality.ECG, 700.0, a * x.samples + b * y.samples)
        lhs = filter_signal(combined, DEFAULT_ECG_FILTER).samples
        rhs = (
            a * filter_signal(x, DEFAULT_ECG_FILTER).samples
            + b * filter_signal(y, DEFAULT_ECG_FILTER).samples
        )
        scale = np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-9

    def test_causal_mode_preserves_length(self):
        rec = sine_record(5.0, duration_s=5.0)
        out = filter_signal(rec, FilterSpec(3, 0.67, 40.0, zero_phase=False))
        assert out.n_samples == rec.n_samples


# Lengths around the pad and the chunk edges, written in terms of the order.
EDGE_LENGTHS = {
    "one": lambda order: 1,
    "two": lambda order: 2,
    "pad_plus_one": lambda order: 3 * order + 1,
    "chunk_minus_one": lambda order: FILTER_CHUNK_SAMPLES - 1,
    "chunk": lambda order: FILTER_CHUNK_SAMPLES,
    "chunk_plus_one": lambda order: FILTER_CHUNK_SAMPLES + 1,
    "two_chunks_and_seven": lambda order: 2 * FILTER_CHUNK_SAMPLES + 7,
}


@pytest.mark.parametrize("length", EDGE_LENGTHS.values(), ids=EDGE_LENGTHS.keys())
@given(
    order=st.integers(1, 8),
    band=st.sampled_from([(700.0, 0.67, 40.0), (64.0, 0.5, 8.0), (1000.0, 0.67, 40.0)]),
    kind=st.sampled_from(["constant", "step", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_filter_is_scipy_bit_for_bit(length, order, band, kind, seed):
    """Both modes equal scipy's one-call filters exactly: zero-phase the
    oracle's sosfiltfilt, causal sosfilt from the step-matched state."""
    from scipy import signal as sps

    n = length(order)
    rng = np.random.default_rng(seed)
    if kind == "constant":
        x = np.full(n, rng.normal())
    elif kind == "step":
        x = np.where(np.arange(n) < rng.integers(0, n + 1), 0.0, rng.normal())
    else:
        x = rng.normal(size=n)
    rate, low, high = band
    record = SignalRecord("s1", Modality.ECG, rate, x)
    sos = design_butterworth_bandpass(FilterSpec(order, low, high), rate)
    streamed = filter_signal(record, FilterSpec(order, low, high)).samples
    assert streamed.tobytes() == zero_phase(sos, x, order).tobytes()
    causal = filter_signal(record, FilterSpec(order, low, high, zero_phase=False)).samples
    expected, _ = sps.sosfilt(sos, x, zi=sps.sosfilt_zi(sos) * x[0])
    assert causal.tobytes() == expected.tobytes()


def test_filter_allocates_little_beyond_its_output():
    """The streamed filter holds one n-sample buffer, which the record it
    returns shares, plus chunk-sized temporaries."""
    rng = np.random.default_rng(8)
    record = SignalRecord("s1", Modality.ECG, 1000.0, rng.normal(size=1_800_000))
    filter_signal(record, DEFAULT_ECG_FILTER)  # imports scipy.signal outside the trace
    tracemalloc.start()
    try:
        out = filter_signal(record, DEFAULT_ECG_FILTER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.samples.base is None and not out.samples.flags.writeable
    assert peak < 1.25 * record.samples.nbytes


class TestResolveLabelDiscrete:
    def test_constant_slice(self):
        assert resolve_label_discrete(np.full(700, 2)) == "stress"

    def test_mean_rounding(self):
        codes = np.array([1] * 60 + [2] * 40)
        assert resolve_label_discrete(codes) == "baseline"

    def test_transient_majority_drops_window(self):
        codes = np.array([0] * 70 + [2] * 30)
        assert resolve_label_discrete(codes) is None

    def test_exactly_half_retained_is_kept(self):
        codes = np.array([0] * 50 + [3] * 50)
        assert resolve_label_discrete(codes) == "amusement"

    def test_tie_resolves_to_larger_code(self):
        codes = np.array([1] * 50 + [2] * 50)  # mean 1.5
        assert resolve_label_discrete(codes) == "stress"

    def test_discarded_codes_excluded_from_mean(self):
        codes = np.array([5] * 30 + [4] * 70)
        assert resolve_label_discrete(codes) == "meditation"

    @given(st.lists(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7]), min_size=1, max_size=200))
    def test_permutation_invariant(self, codes):
        rng = np.random.default_rng(0)
        arr = np.array(codes)
        assert resolve_label_discrete(arr) == resolve_label_discrete(rng.permutation(arr))


def isin_resolve(codes):
    """resolve_label_discrete with the retained codes selected by np.isin."""
    if codes.size == 0:
        return None
    retained = codes[~np.isin(codes, sorted(DISCARDED_CODES))]
    if retained.size / codes.size < 0.5:
        return None
    mean = float(retained.mean())
    return DISCRETE_CODE_LABELS[min(DISCRETE_CODE_LABELS, key=lambda c: (abs(mean - c), -c))]


def test_code_table_agrees_with_isin():
    """Every multiset of the 8 codes up to size 4, plus windows that are all
    discarded or exactly half retained."""
    windows = [
        np.array(codes, dtype=np.int64)
        for size in range(5)
        for codes in itertools.combinations_with_replacement(range(8), size)
    ]
    windows += [np.array([d] * 6) for d in sorted(DISCARDED_CODES)]
    windows += [
        np.array([d] * 3 + [k, k + 1, k]) for d in sorted(DISCARDED_CODES) for k in (1, 2, 3)
    ]
    assert sum(isin_resolve(w) is None for w in windows) > 0
    for codes in windows:
        assert resolve_label_discrete(codes) == isin_resolve(codes), codes.tolist()


class TestResolveLabelAv:
    def test_low_arousal_high_valence(self):
        values = np.column_stack([np.full(10, 2.0), np.full(10, 8.0)])
        assert resolve_label_av(values) == "LAHV"

    def test_boundary_means_bin_low(self):
        values = np.column_stack([np.full(10, 5.0), np.full(10, 5.0)])
        assert resolve_label_av(values) == "LALV"

    def test_out_of_range_sample(self):
        values = np.array([[9.6, 5.0]])
        with pytest.raises(ValueOutOfRangeError):
            resolve_label_av(values)


def make_streams(duration_s, ecg_rate=700.0, ppg_rate=64.0, ann_rate=700.0, code=2):
    n_e = int(duration_s * ecg_rate)
    n_p = int(duration_s * ppg_rate)
    n_a = int(duration_s * ann_rate)
    ecg = SignalRecord("s1", Modality.ECG, ecg_rate, np.zeros(n_e))
    ppg = SignalRecord("s1", Modality.PPG, ppg_rate, np.zeros(n_p))
    ann = AnnotationTrack(LabelScheme.DISCRETE_STATE, ann_rate, np.full(n_a, code))
    return ecg, ppg, ann


class TestSegmentWindows:
    def test_window_count_formula(self):
        ecg, ppg, ann = make_streams(2400.0, ecg_rate=10.0, ppg_rate=10.0, ann_rate=10.0)
        pairs = segment_windows(ecg, ppg, ann, WindowSpec(10.0, 1.0))
        assert len(pairs) == 266

    def test_too_short_recording(self):
        ecg, ppg, ann = make_streams(8.0)
        with pytest.raises(NoCompleteWindowError):
            segment_windows(ecg, ppg, ann, WindowSpec(10.0, 1.0))

    def test_window_sample_counts_at_mixed_rates(self):
        ecg, ppg, ann = make_streams(30.0)
        pairs = segment_windows(ecg, ppg, ann, WindowSpec(10.0, 1.0))
        ecg_seg, ppg_seg = pairs[0]
        assert ecg_seg.samples.size == 7000
        assert ppg_seg.samples.size == 640

    def test_alignment_and_ids(self):
        ecg, ppg, ann = make_streams(40.0)
        for ecg_seg, ppg_seg in segment_windows(ecg, ppg, ann, WindowSpec(10.0, 1.0)):
            assert ecg_seg.window_start_s == ppg_seg.window_start_s
            assert ecg_seg.window_id == ppg_seg.window_id
            assert ecg_seg.label == ppg_seg.label

    def test_dropped_windows_keep_grid_ids(self):
        ecg, ppg, ann = make_streams(40.0)
        codes = np.array(ann.values, copy=True)
        codes[9 * 700 : 19 * 700] = 0  # window 1 becomes transient-majority
        ann = AnnotationTrack(LabelScheme.DISCRETE_STATE, 700.0, codes)
        ids = [pair[0].window_id for pair in segment_windows(ecg, ppg, ann, WindowSpec(10.0, 1.0))]
        assert 1 not in ids
        assert ids == sorted(ids)

    def test_annotation_coverage_bounds_window_count(self):
        # Annotations stop at 19 s: only windows fully inside [0, 19] survive.
        ecg, ppg, _ = make_streams(40.0)
        short_ann = AnnotationTrack(
            LabelScheme.DISCRETE_STATE, 700.0, np.full(int(19 * 700), 2)
        )
        pairs = segment_windows(ecg, ppg, short_ann, WindowSpec(10.0, 1.0))
        assert [p[0].window_id for p in pairs] == [0, 1]

    def test_windows_are_read_only_views_of_their_records(self):
        ecg, ppg, ann = make_streams(30.0)
        for ecg_seg, ppg_seg in segment_windows(ecg, ppg, ann, WindowSpec(10.0, 1.0)):
            for record, segment in ((ecg, ecg_seg), (ppg, ppg_seg)):
                assert np.shares_memory(segment.samples, record.samples)
                with pytest.raises(ValueError):
                    segment.samples.flags.writeable = True

    def test_mismatched_start_times_rejected(self):
        ecg, ppg, ann = make_streams(30.0)
        shifted = SignalRecord("s1", Modality.PPG, 64.0, ppg.samples, start_time_s=1.0)
        with pytest.raises(ValueError):
            segment_windows(ecg, shifted, ann, WindowSpec(10.0, 1.0))


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(10.0, 10.0)
    with pytest.raises(ValueError):
        WindowSpec(0.0, 0.0)
    assert WindowSpec(10.0, 1.0).stride_s == 9.0
