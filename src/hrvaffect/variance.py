"""Inter-signal feature variance and per-state feature distribution statistics.

Inter-signal variance is the per-window absolute difference between a feature
derived from ECG and the same feature derived from the temporally aligned PPG;
large values flag unreliable computation in one of the signals.  Per-state
statistics summarize each feature's distribution within an affective state and
flag Tukey-fence outliers, which exposes hard-to-distinguish state pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from .hrv import FEATURE_NAMES

OVERLAP_FLAG_THRESHOLD = 0.5
MIN_GROUP_SIZE = 4


class NoAlignedWindowsError(ValueError):
    pass


@dataclass(frozen=True)
class FeatureVariance:
    """|ECG - PPG| of one feature over the aligned windows: one
    variance_summary.csv row, its fields in column order."""

    feature: str
    n_windows: int  # aligned windows where both sides are finite
    mean_abs_diff: float
    max_abs_diff: float
    missing_count: int  # aligned windows where either side is not finite
    pooled_mean_abs: float  # mean |value| over both signals, for normalization
    normalized_mean_abs_diff: float  # mean_abs_diff / pooled_mean_abs


def mean_normalized(summary) -> float:
    """Scale-free aggregate of FeatureVariance rows: the mean of their finite
    normalized variances, NaN when none is finite."""
    finite = [v for v in (row.normalized_mean_abs_diff for row in summary) if math.isfinite(v)]
    return float(np.mean(finite)) if finite else math.nan


@dataclass(frozen=True)
class InterSignalVariance:
    keys: tuple  # the window keys both mappings hold, sorted
    abs_diff: np.ndarray  # keys x FEATURE_NAMES, read-only; NaN where either side is not finite
    summary: tuple[FeatureVariance, ...]  # one per feature, in FEATURE_NAMES order

    def mean_normalized(self) -> float:
        return mean_normalized(self.summary)


def inter_signal_variance(
    ecg_features: Mapping[Hashable, np.ndarray],
    ppg_features: Mapping[Hashable, np.ndarray],
) -> InterSignalVariance:
    """Per-window |ECG - PPG| over the windows present in both mappings, each
    value a row of the FEATURE_NAMES, and its summary per feature.

    A window where either side of a feature is missing (NaN) is left out of
    that feature's summary and counted.  Symmetric in its two arguments.
    """
    keys = sorted(set(ecg_features) & set(ppg_features))
    if not keys:
        raise NoAlignedWindowsError("no window keys shared by ECG and PPG features")

    ecg = np.array([ecg_features[k] for k in keys], dtype=np.float64)
    ppg = np.array([ppg_features[k] for k in keys], dtype=np.float64)
    present = np.isfinite(ecg) & np.isfinite(ppg)
    abs_diff = np.where(present, np.abs(ecg - ppg), np.nan)
    summary = []
    for j, feature in enumerate(FEATURE_NAMES):
        both = present[:, j]
        diffs = abs_diff[both, j]
        pooled = np.concatenate([ecg[both, j], ppg[both, j]])
        pooled_mean_abs = float(np.mean(np.abs(pooled))) if pooled.size else math.nan
        mean = float(diffs.mean()) if diffs.size else math.nan
        summary.append(FeatureVariance(
            feature, diffs.size, mean, float(diffs.max()) if diffs.size else math.nan,
            int((~both).sum()), pooled_mean_abs,
            mean / pooled_mean_abs if pooled_mean_abs > 0 else math.nan,  # NaN when no window
        ))
    abs_diff.flags.writeable = False
    return InterSignalVariance(tuple(keys), abs_diff, tuple(summary))


@dataclass(frozen=True)
class GroupStats:
    """Distribution of one feature within one (state, modality) group: one
    state_stats.csv row, its fields in column order."""

    feature: str
    state: str
    modality: str
    n: int
    minimum: float
    q1: float
    q2: float
    q3: float
    maximum: float
    mean: float
    std: float
    outlier_count: int

    @property
    def insufficient(self) -> bool:
        return self.n < MIN_GROUP_SIZE


def state_feature_stats(rows: list[tuple[str, str, np.ndarray]]) -> list[GroupStats]:
    """Group (modality, state, values) rows, values a row of the FEATURE_NAMES,
    by (feature, state, modality), sorted so.

    Quartiles use linear interpolation between closest ranks; outliers are the
    values beyond the 1.5*IQR Tukey fences.  A group with fewer than 4 finite
    values is insufficient and holds NaN statistics; a feature with no finite
    value in a (state, modality) group has no group.
    """
    blocks: dict[tuple[str, str], list[np.ndarray]] = {}
    for modality, state, values in rows:
        blocks.setdefault((state, modality), []).append(values)

    out = []
    for (state, modality), block in blocks.items():
        X = np.array(block).reshape(-1, len(FEATURE_NAMES))
        for feature, column in zip(FEATURE_NAMES, X.T):
            values = column[np.isfinite(column)]
            if values.size == 0:
                continue
            if values.size < MIN_GROUP_SIZE:
                out.append(GroupStats(feature, state, modality, values.size, *(math.nan,) * 7, 0))
                continue
            q1, q2, q3 = (float(q) for q in np.quantile(values, [0.25, 0.5, 0.75]))
            iqr = q3 - q1
            outliers = (values < q1 - 1.5 * iqr) | (values > q3 + 1.5 * iqr)
            out.append(GroupStats(
                feature, state, modality, values.size, float(values.min()), q1, q2, q3,
                float(values.max()), float(values.mean()), float(np.std(values)),
                int(outliers.sum()),
            ))
    return sorted(out, key=lambda g: (g.feature, g.state, g.modality))


def state_overlap_score(
    stats: list[GroupStats], feature: str, modality: str, state_a: str, state_b: str
) -> float:
    """Overlap of the two states' interquartile boxes, in [0, 1].

    Defined as intersection length over the smaller box length; a degenerate
    box scores 1 when its point lies inside the other box, else 0.
    """
    groups = {(g.state, g.modality, g.feature): g for g in stats}
    a, b = (groups.get((state, modality, feature)) for state in (state_a, state_b))
    if a is None or b is None or a.insufficient or b.insufficient:
        raise KeyError(
            f"no stats for feature {str(feature)!r} modality {str(modality)!r} "
            f"states {str(state_a)!r}/{str(state_b)!r}"
        )
    lo = max(a.q1, b.q1)
    hi = min(a.q3, b.q3)
    intersection = max(0.0, hi - lo)
    smaller = min(a.q3 - a.q1, b.q3 - b.q1)
    if smaller == 0.0:
        return 1.0 if intersection == 0.0 and lo <= hi else 0.0
    return intersection / smaller


def flag_overlapping_pairs(
    stats: list[GroupStats],
    feature: str,
    modality: str,
    threshold: float = OVERLAP_FLAG_THRESHOLD,
) -> list[tuple[str, str, float]]:
    """State pairs whose IQR boxes overlap at least `threshold` for a feature."""
    states = sorted(
        {g.state for g in stats if g.feature == feature and g.modality == modality and not g.insufficient}
    )
    flagged = []
    for i, a in enumerate(states):
        for b in states[i + 1 :]:
            score = state_overlap_score(stats, feature, modality, a, b)
            if score >= threshold:
                flagged.append((a, b, score))
    return flagged
