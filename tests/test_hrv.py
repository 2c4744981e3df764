import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hrvaffect.core import Modality, WindowedSegment
from hrvaffect.hrv import (
    FEATURE_NAMES,
    BeatSeries,
    InsufficientSpanError,
    NoPlausiblePeaksError,
    TooFewBeatsError,
    compute_features,
    detect_beats,
    estimate_breathing,
)
from helpers import beats_from_rr
from oracles import oracle_breathing, oracle_features


rr_values = st.floats(min_value=300.0, max_value=2000.0, allow_nan=False)
rr_lists = st.lists(rr_values, min_size=4, max_size=60)


class TestComputeFeatures:
    def test_constant_series(self):
        fv = compute_features(beats_from_rr([800.0] * 5), 700.0)
        assert fv.bpm == pytest.approx(75.0)
        assert fv.ibi == 800.0
        assert fv.sdnn == 0.0
        assert fv.rmssd == 0.0
        assert fv.pnn20 == 0.0
        assert fv.pnn50 == 0.0
        assert fv.mad == 0.0
        assert fv.sd1 == 0.0
        assert fv.sd2 == 0.0
        assert fv.s == 0.0
        assert math.isnan(fv.sd1_sd2)  # degenerate sd2 reported as missing

    def test_short_irregular_series(self):
        fv = compute_features(beats_from_rr([800.0, 810.0, 790.0, 805.0]), 700.0)
        assert fv.rmssd == pytest.approx(math.sqrt((10**2 + 20**2 + 15**2) / 3), rel=1e-12)
        assert fv.ibi == pytest.approx(801.25)
        assert fv.bpm == pytest.approx(60000.0 / 801.25, rel=1e-12)
        assert fv.sdnn == pytest.approx(math.sqrt(218.75 / 4), rel=1e-9)

    def test_pnn_thresholds(self):
        # |d| = {25, 25, 60}: all exceed 20 ms, one exceeds 50 ms.
        fv = compute_features(beats_from_rr([1000.0, 1025.0, 1000.0, 1060.0]), 700.0)
        assert fv.pnn20 == pytest.approx(1.0)
        assert fv.pnn50 == pytest.approx(1 / 3)

    def test_too_few_beats(self):
        with pytest.raises(TooFewBeatsError):
            compute_features(beats_from_rr([800.0, 810.0, 820.0]), 700.0)

    def test_rejected_intervals_excluded(self):
        rr = [800.0, 810.0, 2500.0, 805.0, 795.0]
        beats = BeatSeries(
            peak_indices=np.arange(6),
            rr_ms=np.array(rr),
            accepted=np.array([True, True, False, True, True]),
        )
        fv = compute_features(beats, 700.0)
        assert fv.ibi == pytest.approx(np.mean([800.0, 810.0, 805.0, 795.0]))

    @given(rr_lists)
    @example(rr=[819.7299528687735] * 5)
    def test_matches_direct_formula_oracle(self, rr):
        fv = compute_features(beats_from_rr(rr), 700.0)
        expected = oracle_features(rr)
        for name in FEATURE_NAMES:
            got = getattr(fv, name)
            want = expected[name]
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @given(rr_lists)
    def test_poincare_identities(self, rr):
        fv = compute_features(beats_from_rr(rr), 700.0)
        assert fv.sd1 == pytest.approx(fv.rmssd / math.sqrt(2), rel=1e-9, abs=1e-12)
        if fv.sd2 > 0.0:  # identity holds whenever the clamp is inactive
            assert fv.sd1**2 + fv.sd2**2 == pytest.approx(2 * fv.sdnn**2, rel=1e-9)
        assert fv.s == pytest.approx(math.pi * fv.sd1 * fv.sd2, rel=1e-12)

    @given(rr_lists)
    def test_peak_shift_invariance(self, rr):
        rr = np.asarray(rr)
        base = beats_from_rr(rr)
        shifted = BeatSeries(
            peak_indices=base.peak_indices + 1234,
            rr_ms=base.rr_ms,
            accepted=base.accepted,
        )
        a = compute_features(base, 700.0).as_array()
        b = compute_features(shifted, 700.0).as_array()
        assert np.array_equal(a, b, equal_nan=True)

    @given(rr_lists, st.floats(min_value=0.5, max_value=2.0))
    # sd2 is exactly 0 here; the scaled series once gave 1.5e-05 from rounding.
    @example(rr=[300.0, 1235.0, 300.0, 1235.0], scale=1.7985125990219464)
    def test_scale_relation(self, rr, scale):
        rr = np.asarray(rr)
        a = compute_features(beats_from_rr(rr), 700.0)
        b = compute_features(beats_from_rr(rr * scale), 700.0)
        for name in ("ibi", "sdnn", "sdsd", "rmssd", "mad", "sd1", "sd2"):
            assert getattr(b, name) == pytest.approx(scale * getattr(a, name), rel=1e-9, abs=1e-9)
        assert b.bpm == pytest.approx(a.bpm / scale, rel=1e-9)
        assert b.s == pytest.approx(a.s * scale * scale, rel=1e-9, abs=1e-9)
        if not math.isnan(a.sd1_sd2):
            assert b.sd1_sd2 == pytest.approx(a.sd1_sd2, rel=1e-9)

    def test_pure_function_bit_identical(self):
        beats = beats_from_rr([812.0, 799.5, 820.25, 805.0, 798.0])
        a = compute_features(beats, 700.0).as_array()
        b = compute_features(beats, 700.0).as_array()
        assert np.array_equal(a, b, equal_nan=True)


class TestEstimateBreathing:
    def modulated_rr(self, freq, n=40, base=850.0, amplitude=40.0):
        rr = []
        t = 0.0
        for _ in range(n):
            value = base + amplitude * math.sin(2 * math.pi * freq * t)
            rr.append(value)
            t += value / 1000.0
        return np.array(rr)

    @pytest.mark.parametrize("freq", [0.2, 0.25, 0.33])
    def test_recovers_modulation(self, freq):
        assert estimate_breathing(self.modulated_rr(freq)) == pytest.approx(freq, abs=0.02)

    def test_constant_series_flat_band(self):
        assert math.isnan(estimate_breathing(np.full(20, 850.0)))

    def test_insufficient_span(self):
        with pytest.raises(InsufficientSpanError):
            estimate_breathing(np.full(8, 400.0))  # 3.2 s of intervals

    def test_too_few_intervals(self):
        with pytest.raises(InsufficientSpanError):
            estimate_breathing(np.array([900.0, 900.0, 900.0]))

    @given(rr_lists)
    def test_matches_oracle_when_defined(self, rr):
        try:
            got = estimate_breathing(np.asarray(rr))
        except InsufficientSpanError:
            got = math.nan
        want = oracle_breathing(rr)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(want, rel=1e-9)


def make_window(samples, rate, window_id=0):
    return WindowedSegment(
        window_id=window_id,
        subject_id="s1",
        modality=Modality.ECG,
        sample_rate_hz=rate,
        samples=samples,
        label="baseline",
        window_start_s=0.0,
    )


class TestDetectBeats:
    def test_flat_signal_has_no_peaks(self):
        with pytest.raises(NoPlausiblePeaksError):
            detect_beats(make_window(np.zeros(7000), 700.0))

    def test_clean_ecg_peaks_within_tolerance(self, clean_windows):
        pairs, truth = clean_windows
        ecg_seg = pairs[0][0]
        beats = detect_beats(ecg_seg)
        detected = ecg_seg.window_start_s + beats.peak_indices / 700.0
        expected = truth.beat_times_s[
            (truth.beat_times_s >= ecg_seg.window_start_s)
            & (truth.beat_times_s < ecg_seg.window_start_s + 10.0)
        ]
        for beat in expected:
            assert np.abs(detected - beat).min() <= 0.020

    def test_clean_ppg_bpm(self, clean_windows):
        pairs, _ = clean_windows
        ppg_seg = pairs[0][1]
        fv = compute_features(detect_beats(ppg_seg), ppg_seg.sample_rate_hz)
        assert fv.bpm == pytest.approx(60.0, abs=2.0)

    def test_implausible_rr_rejected_not_deleted(self):
        # One missing pulse creates a 2.4 s gap: the interval is rejected but
        # stays visible in the series.
        rate = 250.0
        t = np.arange(int(12 * rate)) / rate
        signal = np.zeros(t.size)
        for beat in np.arange(0.6, 11.5, 1.2):
            if abs(beat - 6.6) < 0.3:
                continue
            signal += np.exp(-0.5 * ((t - beat) / 0.02) ** 2)
        beats = detect_beats(make_window(signal, rate))
        assert (~beats.accepted).sum() == 1
        assert beats.rr_ms[~beats.accepted][0] == pytest.approx(2400.0, abs=20.0)
