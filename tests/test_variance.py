import json
import math
import shutil
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import readme_json_blocks
from hrvaffect.hrv import FEATURE_NAMES, FeatureVector
from hrvaffect.pipeline import (
    STATE_STATS, VARIANCE, VARIANCE_SUMMARY, FeatureRow, config_from_dict, feature_variance,
    read_feature_rows, run_hash, stage_extract, stage_variance,
)
from hrvaffect.serialize import fmt9
from hrvaffect.variance import (
    FeatureVariance,
    GroupStats,
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


def finite_keys(isv, feature):
    """The keys where the feature's |ECG - PPG| is finite, in key order."""
    finite = np.isfinite(isv.abs_diff[:, FEATURE_NAMES.index(feature)])
    return tuple(k for k, ok in zip(isv.keys, finite) if ok)


def finite_column(isv, feature):
    """The feature's finite |ECG - PPG| values, in key order."""
    column = isv.abs_diff[:, FEATURE_NAMES.index(feature)]
    return column[np.isfinite(column)]


def summary_of(isv, feature):
    return isv.summary[FEATURE_NAMES.index(feature)]


class TestInterSignalVariance:
    def test_identical_sequences_zero(self):
        features = {0: fv(), 1: fv()}
        isv = inter_signal_variance(features, dict(features))
        assert np.all(finite_column(isv, "bpm") == 0.0)
        assert summary_of(isv, "bpm").mean_abs_diff == 0.0

    def test_absolute_difference_series(self):
        ecg = {0: fv(bpm=60.0), 1: fv(bpm=62.0)}
        ppg = {0: fv(bpm=61.0), 1: fv(bpm=59.0)}
        isv = inter_signal_variance(ecg, ppg)
        assert list(finite_column(isv, "bpm")) == [1.0, 3.0]
        assert summary_of(isv, "bpm").mean_abs_diff == 2.0
        assert summary_of(isv, "bpm").max_abs_diff == 3.0

    def test_missing_side_excluded_and_counted(self):
        ecg = {0: fv(), 5: fv(br=math.nan), 7: fv()}
        ppg = {0: fv(), 5: fv(), 7: fv()}
        isv = inter_signal_variance(ecg, ppg)
        assert summary_of(isv, "br").missing_count == 1
        assert 5 not in [k for k in finite_keys(isv, "br")]

    def test_unaligned_keys_ignored(self):
        series = inter_signal_variance({0: fv(), 2: fv()}, {0: fv(), 3: fv()})
        assert series.keys == (0,)

    def test_no_aligned_windows(self):
        with pytest.raises(NoAlignedWindowsError):
            inter_signal_variance({0: fv()}, {1: fv()})

    def test_symmetry(self):
        ecg = {i: fv(bpm=60.0 + i) for i in range(5)}
        ppg = {i: fv(bpm=63.0 - i) for i in range(5)}
        a = inter_signal_variance(ecg, ppg)
        b = inter_signal_variance(ppg, ecg)
        for name in FEATURE_NAMES:
            assert np.array_equal(finite_column(a, name), finite_column(b, name))

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20), st.floats(0, 50))
    def test_shift_bounded_by_triangle_inequality(self, bpms, shift):
        ecg = {i: fv(bpm=b) for i, b in enumerate(bpms)}
        ppg = {i: fv(bpm=b + 1.0) for i, b in enumerate(bpms)}
        base = finite_column(inter_signal_variance(ecg, ppg), "bpm")
        shifted_ecg = {i: fv(bpm=b + shift) for i, b in enumerate(bpms)}
        moved = finite_column(inter_signal_variance(shifted_ecg, ppg), "bpm")
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
        assert finite_keys(isv, "bpm") == (("s", 0), ("s", 3))
        assert summary_of(isv, "bpm").missing_count == 0
        assert finite_keys(isv, "br") == (("s", 0),)
        assert summary_of(isv, "br").missing_count == 1

    def test_normalized_by_pooled_mean(self):
        ecg = {0: fv(bpm=100.0), 1: fv(bpm=100.0)}
        ppg = {0: fv(bpm=90.0), 1: fv(bpm=110.0)}
        series = summary_of(inter_signal_variance(ecg, ppg), "bpm")
        assert series.pooled_mean_abs == pytest.approx(100.0)
        assert series.normalized_mean_abs_diff == pytest.approx(0.1)


def rows_from_values(feature_values, state="baseline", modality="ECG"):
    return [(modality, state, fv(bpm=v)) for v in feature_values]


def beyond_fences(g, values):
    """The values beyond g's Tukey fences, in their order."""
    iqr = g.q3 - g.q1
    return [v for v in values if v < g.q1 - 1.5 * iqr or v > g.q3 + 1.5 * iqr]


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
        assert g.q3 - g.q1 == 0.0
        assert g.outlier_count == 0

    def test_outlier_above_fence(self):
        values = [1, 2, 3, 4, 100]
        g = self.find(state_feature_stats(rows_from_values(values)))
        assert g.outlier_count == 1
        assert beyond_fences(g, values) == [100]

    def test_insufficient_group_flagged(self):
        g = self.find(state_feature_stats(rows_from_values([1, 2, 3])))
        assert g.insufficient
        assert g.n == 3
        assert math.isnan(g.mean)

    def test_nan_values_excluded(self):
        rows = rows_from_values([1, 2, 3, 4])
        rows.append(("ECG", "baseline", fv(bpm=math.nan)))
        g = self.find(state_feature_stats(rows))
        assert g.n == 4

    @given(st.lists(st.floats(-1000, 1000), min_size=4, max_size=40))
    def test_outliers_permutation_invariant(self, values):
        base = self.find(state_feature_stats(rows_from_values(values)))
        rng = np.random.default_rng(0)
        perm = list(rng.permutation(len(values)))
        shuffled = [values[j] for j in perm]
        other = self.find(state_feature_stats(rows_from_values(shuffled)))
        assert other.outlier_count == base.outlier_count
        assert sorted(beyond_fences(other, shuffled)) == sorted(beyond_fences(base, values))
        assert other.q1 == pytest.approx(base.q1, rel=1e-12, abs=1e-12)

    def test_removing_outliers_never_flags_former_inliers(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 50.0, -40.0]
        stats = self.find(state_feature_stats(rows_from_values(values)))
        outliers = beyond_fences(stats, values)
        assert len(outliers) == stats.outlier_count
        inliers = [v for v in values if v not in outliers]
        assert sorted(inliers) == [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
        again = self.find(state_feature_stats(rows_from_values(inliers)))
        assert again.outlier_count == 0

    @given(st.lists(
        st.tuples(
            st.sampled_from(["ECG", "PPG"]), st.sampled_from(["a", "b"]),
            st.lists(st.sampled_from([math.nan, -2.5, 0.0, 1.0, 3.25, 80.0]),
                     min_size=len(FEATURE_NAMES), max_size=len(FEATURE_NAMES)),
        ),
        max_size=30,
    ))
    def test_equals_grouping_value_by_value(self, rows):
        """The block grouping gives the bits of collecting each group's finite
        values one at a time, in row order."""
        rows = [(modality, state, np.array(values)) for modality, state, values in rows]
        groups = {}
        for modality, state, values in rows:
            for feature, value in zip(FEATURE_NAMES, values.tolist()):
                if math.isfinite(value):
                    groups.setdefault((feature, state, modality), []).append(value)
        got = state_feature_stats(rows)
        assert [(g.feature, g.state, g.modality) for g in got] == sorted(groups)
        for g in got:
            values = np.array(groups[g.feature, g.state, g.modality])
            assert g.n == values.size
            if g.insufficient:
                continue
            q1, q2, q3 = np.quantile(values, [0.25, 0.5, 0.75])
            expected = (values.min(), q1, q2, q3, values.max(), values.mean(), np.std(values))
            got_floats = (g.minimum, g.q1, g.q2, g.q3, g.maximum, g.mean, g.std)
            assert np.array(got_floats).tobytes() == np.array(expected).tobytes()
            assert g.outlier_count == len(beyond_fences(g, values.tolist()))


class TestStateOverlap:
    def stats_for(self, groups):
        return state_feature_stats(
            [("ECG", state, fv(bpm=v)) for state, values in groups.items() for v in values]
        )

    def test_missing_group_names_it_as_text(self):
        stats = self.stats_for({"a": [0, 1, 2, 3]})
        with pytest.raises(KeyError, match="feature 'bpm' modality 'ECG' states 'a'/'b'"):
            state_overlap_score(stats, *np.array(["bpm", "ECG", "a", "b"]))

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


def test_group_stats_fields_are_the_state_stats_columns():
    renamed = {"min": "minimum", "max": "maximum"}
    assert len(fields(GroupStats)) == len(STATE_STATS.columns)
    assert [f.name for f in fields(GroupStats)] == [renamed.get(c, c) for c in STATE_STATS.columns]


def test_state_stats_rows_read_back_as_group_stats(tmp_path, monkeypatch):
    """On the README quick-start, each state_stats.csv row read back is
    GroupStats(*cells), and those rows give the overlaps state_overlaps.json
    holds and, for every feature and state pair, the score of the stats the
    variance stage computed."""
    spec, config = readme_json_blocks()[:2]
    monkeypatch.chdir(tmp_path)
    Path("synth_spec.json").write_text(spec)
    config = config_from_dict(json.loads(config))
    stage_extract(config)
    stage_variance(config)
    out, h = Path(config.out_dir), run_hash(config)
    read_back = [GroupStats(*cells) for _, cells in STATE_STATS.read(out, h)]
    computed = state_feature_stats([(r.modality, r.label, r.values) for r in read_feature_rows(out, h)])
    assert [(g.feature, g.state, g.modality, g.n) for g in read_back] == [
        (g.feature, g.state, g.modality, g.n) for g in computed
    ]

    def assert_same_pairs(got, expected, rel):
        assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in expected]
        assert [s for *_, s in got] == pytest.approx([s for *_, s in expected], rel=rel)

    overlaps = json.loads((out / "state_overlaps.json").read_text())
    assert overlaps["feature"] == "bpm"
    for modality, pairs in overlaps["flagged_pairs"].items():
        assert_same_pairs(flag_overlapping_pairs(read_back, "bpm", modality), pairs, 1e-8)
    # Every pair scores; quartiles kept to 9 digits move a narrow box's score
    # by more than 1e-8 of itself.
    for feature in FEATURE_NAMES:
        for modality in ("ECG", "PPG"):
            assert_same_pairs(
                flag_overlapping_pairs(read_back, feature, modality, threshold=0.0),
                flag_overlapping_pairs(computed, feature, modality, threshold=0.0),
                1e-6,
            )


def test_feature_variance_fields_are_the_variance_summary_columns():
    assert [f.name for f in fields(FeatureVariance)] == list(VARIANCE_SUMMARY.columns)


@pytest.fixture(scope="module")
def quickstart_variance(tmp_path_factory):
    """The README quick-start through the variance stage: its out_dir, run
    hash, and the inter-signal variance of the features.csv it wrote."""
    spec, config = readme_json_blocks()[:2]
    folder = tmp_path_factory.mktemp("quickstart")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(folder)
        Path("synth_spec.json").write_text(spec)
        config = config_from_dict(json.loads(config))
        stage_extract(config)
        stage_variance(config)
    out, h = folder / config.out_dir, run_hash(config)
    return config, out, h, feature_variance(read_feature_rows(out, h))


def test_variance_summary_rows_read_back_as_feature_variance(quickstart_variance):
    """Each variance_summary.csv row read back is FeatureVariance(*cells), the
    in-memory summary to 9 significant digits."""
    _, out, h, isv = quickstart_variance

    def nine_digits(row):
        return [fmt9(v) if isinstance(v, float) else v for v in astuple(row)]

    read_back = [FeatureVariance(*cells) for _, cells in VARIANCE_SUMMARY.read(out, h)]
    assert [nine_digits(v) for v in read_back] == [nine_digits(v) for v in isv.summary]
    assert math.isfinite(isv.mean_normalized())


def test_variance_csv_rows_are_the_finite_cells_of_abs_diff(quickstart_variance, tmp_path):
    """variance.csv holds one row per finite |ECG - PPG| cell, walking the keys
    in order and, within a key, the FEATURE_NAMES in order; here one br cell
    of the quick-start features is blanked, so its cell is left out."""
    config, quickstart_out, h, _ = quickstart_variance
    out = tmp_path / "run"
    shutil.copytree(quickstart_out, out)
    lines = (out / "features.csv").read_text().splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[4 + FEATURE_NAMES.index("br")] = ""
    lines[2] = ",".join(cells)
    (out / "features.csv").write_text("".join(lines))
    stage_variance(replace(config, out_dir=str(out)))
    isv = feature_variance(read_feature_rows(out, h))
    assert np.isnan(isv.abs_diff).sum() == 1
    cells = [
        (subject_id, window_id, feature, diff)
        for (subject_id, window_id), row in zip(isv.keys, isv.abs_diff)
        for feature, diff in zip(FEATURE_NAMES, row)
        if np.isfinite(diff)
    ]
    rows = [row for _, row in VARIANCE.read(out, h)]
    assert [(s, w, f) for w, s, f, _ in rows] == [(s, w, f) for s, w, f, _ in cells]
    assert [fmt9(d) for *_, d in rows] == [fmt9(d) for *_, d in cells]
