import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hrvaffect.hrv import FEATURE_NAMES, FeatureVector
from hrvaffect.pipeline import FeatureRow, feature_variance
from hrvaffect.variance import (
    NoAlignedWindowsError,
    flag_overlapping_pairs,
    inter_signal_variance,
    state_feature_stats,
    state_overlap_score,
)


def fv(bpm=60.0, **overrides) -> np.ndarray:
    """A features row: 1.0 for every feature but bpm and the overrides."""
    values = {name: 1.0 for name in FEATURE_NAMES}
    values["bpm"] = bpm
    values.update(overrides)
    return FeatureVector(**values).as_array()


class TestInterSignalVariance:
    def test_identical_sequences_zero(self):
        features = {0: fv(), 1: fv()}
        isv = inter_signal_variance(features, dict(features))
        assert np.all(isv.per_feature["bpm"].abs_diff == 0.0)
        assert isv.per_feature["bpm"].mean == 0.0

    def test_absolute_difference_series(self):
        ecg = {0: fv(bpm=60.0), 1: fv(bpm=62.0)}
        ppg = {0: fv(bpm=61.0), 1: fv(bpm=59.0)}
        series = inter_signal_variance(ecg, ppg).per_feature["bpm"]
        assert list(series.abs_diff) == [1.0, 3.0]
        assert series.mean == 2.0
        assert series.max == 3.0

    def test_missing_side_excluded_and_counted(self):
        ecg = {0: fv(), 5: fv(br=math.nan), 7: fv()}
        ppg = {0: fv(), 5: fv(), 7: fv()}
        series = inter_signal_variance(ecg, ppg).per_feature["br"]
        assert series.missing_count == 1
        assert 5 not in [k for k in series.window_keys]

    def test_unaligned_keys_ignored(self):
        series = inter_signal_variance({0: fv(), 2: fv()}, {0: fv(), 3: fv()})
        assert series.per_feature["bpm"].window_keys == (0,)

    def test_no_aligned_windows(self):
        with pytest.raises(NoAlignedWindowsError):
            inter_signal_variance({0: fv()}, {1: fv()})

    def test_symmetry(self):
        ecg = {i: fv(bpm=60.0 + i) for i in range(5)}
        ppg = {i: fv(bpm=63.0 - i) for i in range(5)}
        a = inter_signal_variance(ecg, ppg)
        b = inter_signal_variance(ppg, ecg)
        for name in FEATURE_NAMES:
            assert np.array_equal(a.per_feature[name].abs_diff, b.per_feature[name].abs_diff)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20), st.floats(0, 50))
    def test_shift_bounded_by_triangle_inequality(self, bpms, shift):
        ecg = {i: fv(bpm=b) for i, b in enumerate(bpms)}
        ppg = {i: fv(bpm=b + 1.0) for i, b in enumerate(bpms)}
        base = inter_signal_variance(ecg, ppg).per_feature["bpm"].abs_diff
        shifted_ecg = {i: fv(bpm=b + shift) for i, b in enumerate(bpms)}
        moved = inter_signal_variance(shifted_ecg, ppg).per_feature["bpm"].abs_diff
        assert np.all(np.abs(moved - base) <= shift + 1e-9)

    def test_feature_variance_leaves_out_windows_that_failed_detection(self):
        """A window where either side failed detection (NaN throughout) holds no
        key; one where only br is NaN keeps its key and counts as missing br."""
        failed = np.full(len(FEATURE_NAMES), np.nan)
        sides = {0: (fv(), fv()), 1: (failed, fv()), 2: (fv(), failed), 3: (fv(br=math.nan), fv())}
        rows = [
            FeatureRow(window_id, "s", modality, "baseline", values)
            for window_id, pair in sides.items() for modality, values in zip(("ECG", "PPG"), pair)
        ]
        isv = feature_variance(rows)
        assert isv.per_feature["bpm"].window_keys == (("s", 0), ("s", 3))
        assert isv.per_feature["bpm"].missing_count == 0
        assert isv.per_feature["br"].window_keys == (("s", 0),)
        assert isv.per_feature["br"].missing_count == 1

    def test_normalized_by_pooled_mean(self):
        ecg = {0: fv(bpm=100.0), 1: fv(bpm=100.0)}
        ppg = {0: fv(bpm=90.0), 1: fv(bpm=110.0)}
        series = inter_signal_variance(ecg, ppg).per_feature["bpm"]
        assert series.pooled_mean_abs == pytest.approx(100.0)
        assert series.normalized_mean == pytest.approx(0.1)


def rows_from_values(feature_values, state="baseline", modality="ECG"):
    return [
        (i, modality, state, fv(bpm=v))
        for i, v in enumerate(feature_values)
    ]


class TestStateFeatureStats:
    def find(self, stats, feature="bpm", state="baseline", modality="ECG"):
        for g in stats:
            if (g.feature, g.state, g.modality) == (feature, state, modality):
                return g
        raise AssertionError("group not found")

    def test_order_statistics(self):
        g = self.find(state_feature_stats(rows_from_values([1, 2, 3, 4, 5])))
        assert (g.minimum, g.maximum, g.mean, g.q2) == (1.0, 5.0, 3.0, 3.0)
        assert g.q1 == 2.0
        assert g.q3 == 4.0

    def test_constant_group(self):
        g = self.find(state_feature_stats(rows_from_values([7, 7, 7, 7])))
        assert g.std == 0.0
        assert g.iqr == 0.0
        assert g.outlier_count == 0

    def test_outlier_above_fence(self):
        g = self.find(state_feature_stats(rows_from_values([1, 2, 3, 4, 100])))
        assert g.outlier_count == 1
        assert g.outlier_keys == (4,)

    def test_insufficient_group_flagged(self):
        g = self.find(state_feature_stats(rows_from_values([1, 2, 3])))
        assert g.insufficient
        assert g.n == 3
        assert math.isnan(g.mean)

    def test_nan_values_excluded(self):
        rows = rows_from_values([1, 2, 3, 4])
        rows.append((9, "ECG", "baseline", fv(bpm=math.nan)))
        g = self.find(state_feature_stats(rows))
        assert g.n == 4

    @given(st.lists(st.floats(-1000, 1000), min_size=4, max_size=40))
    def test_outliers_permutation_invariant(self, values):
        base = self.find(state_feature_stats(rows_from_values(values)))
        rng = np.random.default_rng(0)
        perm = list(rng.permutation(len(values)))
        shuffled = [(i, "ECG", "baseline", fv(bpm=values[j])) for i, j in enumerate(perm)]
        other = self.find(state_feature_stats(shuffled))
        assert other.outlier_count == base.outlier_count
        # Keys follow the rows, so compare the outliers' values as multisets.
        assert sorted(values[perm[k]] for k in other.outlier_keys) == sorted(
            values[k] for k in base.outlier_keys
        )
        assert other.q1 == pytest.approx(base.q1, rel=1e-12, abs=1e-12)

    def test_removing_outliers_never_flags_former_inliers(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 50.0, -40.0]
        stats = self.find(state_feature_stats(rows_from_values(values)))
        inliers = [v for i, v in enumerate(values) if i not in stats.outlier_keys]
        assert sorted(inliers) == [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
        again = self.find(state_feature_stats(rows_from_values(inliers)))
        assert again.outlier_count == 0


class TestStateOverlap:
    def stats_for(self, groups):
        rows = []
        key = 0
        for state, values in groups.items():
            for v in values:
                rows.append((key, "ECG", state, fv(bpm=v)))
                key += 1
        return state_feature_stats(rows)

    def test_disjoint_boxes(self):
        stats = self.stats_for({"a": [0, 0.4, 0.6, 1], "b": [2, 2.4, 2.6, 3]})
        assert state_overlap_score(stats, "bpm", "ECG", "a", "b") == 0.0

    def test_identical_boxes(self):
        stats = self.stats_for({"a": [0, 1, 2, 3], "b": [0, 1, 2, 3]})
        assert state_overlap_score(stats, "bpm", "ECG", "a", "b") == 1.0

    def test_half_overlap(self):
        # Boxes [0, 2] and [1, 3] overlap half of the smaller box.
        stats = self.stats_for(
            {"a": [0.0, 0.0, 0.0, 2.0, 2.0, 2.0], "b": [1.0, 1.0, 1.0, 3.0, 3.0, 3.0]}
        )
        assert state_overlap_score(stats, "bpm", "ECG", "a", "b") == pytest.approx(0.5)

    def test_degenerate_box_contained(self):
        stats = self.stats_for({"a": [1, 1, 1, 1], "b": [0, 0.5, 1.5, 2]})
        assert state_overlap_score(stats, "bpm", "ECG", "a", "b") == 1.0

    def test_degenerate_box_outside(self):
        stats = self.stats_for({"a": [9, 9, 9, 9], "b": [0, 0.5, 1.5, 2]})
        assert state_overlap_score(stats, "bpm", "ECG", "a", "b") == 0.0

    def test_flagging_threshold(self):
        stats = self.stats_for(
            {
                "a": [0.0, 0.0, 0.0, 2.0, 2.0, 2.0],
                "b": [1.0, 1.0, 1.0, 3.0, 3.0, 3.0],
                "c": [10.0, 10.0, 11.0, 11.0],
            }
        )
        flagged = flag_overlapping_pairs(stats, "bpm", "ECG", threshold=0.5)
        assert [(a, b) for a, b, _ in flagged] == [("a", "b")]
