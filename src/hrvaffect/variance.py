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
class FeatureVarianceSeries:
    """Aligned |ECG - PPG| series for one feature, with summary statistics."""

    feature: str
    window_keys: tuple  # keys where both sides are present
    abs_diff: np.ndarray
    missing_count: int  # aligned windows where either side is NaN
    mean: float
    max: float
    pooled_mean_abs: float  # mean |value| over both signals, for normalization
    normalized_mean: float  # mean / pooled_mean_abs


@dataclass(frozen=True)
class InterSignalVariance:
    per_feature: dict[str, FeatureVarianceSeries]

    def mean_normalized(self) -> float:
        """Scale-free aggregate: mean of normalized per-feature variance."""
        values = [
            series.normalized_mean
            for series in self.per_feature.values()
            if math.isfinite(series.normalized_mean)
        ]
        if not values:
            return math.nan
        return float(np.mean(values))


def inter_signal_variance(
    ecg_features: Mapping[Hashable, np.ndarray],
    ppg_features: Mapping[Hashable, np.ndarray],
) -> InterSignalVariance:
    """Per-feature |ECG - PPG| over windows present in both mappings, each
    value a row of the FEATURE_NAMES.

    Windows where either side is missing (NaN) are excluded from the series
    and counted.  Symmetric in its two arguments.
    """
    keys = sorted(set(ecg_features) & set(ppg_features))
    if not keys:
        raise NoAlignedWindowsError("no window keys shared by ECG and PPG features")

    ecg = np.array([ecg_features[k] for k in keys], dtype=np.float64)
    ppg = np.array([ppg_features[k] for k in keys], dtype=np.float64)
    present = np.isfinite(ecg) & np.isfinite(ppg)
    per_feature: dict[str, FeatureVarianceSeries] = {}
    for j, feature in enumerate(FEATURE_NAMES):
        both = present[:, j]
        ecg_vals, ppg_vals = ecg[both, j], ppg[both, j]
        diffs = np.abs(ecg_vals - ppg_vals)
        pooled = np.concatenate([ecg_vals, ppg_vals])
        pooled_mean_abs = float(np.mean(np.abs(pooled))) if pooled.size else math.nan
        mean = float(diffs.mean()) if diffs.size else math.nan
        per_feature[feature] = FeatureVarianceSeries(
            feature=feature,
            window_keys=tuple(k for k, ok in zip(keys, both) if ok),
            abs_diff=diffs,
            missing_count=int((~both).sum()),
            mean=mean,
            max=float(diffs.max()) if diffs.size else math.nan,
            pooled_mean_abs=pooled_mean_abs,
            normalized_mean=(
                mean / pooled_mean_abs
                if diffs.size and pooled_mean_abs and pooled_mean_abs > 0
                else math.nan
            ),
        )
    return InterSignalVariance(per_feature=per_feature)


@dataclass(frozen=True)
class GroupStats:
    """Distribution of one feature within one (state, modality) group."""

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
    iqr: float
    outlier_count: int
    outlier_keys: tuple
    insufficient: bool


def state_feature_stats(
    rows: list[tuple[Hashable, str, str, np.ndarray]],
) -> list[GroupStats]:
    """Group (key, modality, state, values) rows, values a row of the
    FEATURE_NAMES, by (feature, state, modality).

    Quartiles use linear interpolation between closest ranks; outliers are the
    values beyond the 1.5*IQR Tukey fences.  Groups with fewer than 4 finite
    values are reported with insufficient=True and NaN statistics.
    """
    groups: dict[tuple[str, str, str], list[tuple[Hashable, float]]] = {}
    for key, modality, state, values in rows:
        for feature, value in zip(FEATURE_NAMES, values.tolist()):
            if math.isfinite(value):
                groups.setdefault((feature, state, modality), []).append((key, value))

    out = []
    for (feature, state, modality), members in sorted(groups.items()):
        values = np.array([v for _, v in members])
        if values.size < MIN_GROUP_SIZE:
            out.append(
                GroupStats(
                    feature, state, modality, int(values.size),
                    *(math.nan,) * 8, 0, (), True,
                )
            )
            continue
        q1, q2, q3 = (float(q) for q in np.quantile(values, [0.25, 0.5, 0.75]))
        iqr = q3 - q1
        lo_fence = q1 - 1.5 * iqr
        hi_fence = q3 + 1.5 * iqr
        outlier_mask = (values < lo_fence) | (values > hi_fence)
        out.append(
            GroupStats(
                feature=feature,
                state=state,
                modality=modality,
                n=int(values.size),
                minimum=float(values.min()),
                q1=q1,
                q2=q2,
                q3=q3,
                maximum=float(values.max()),
                mean=float(values.mean()),
                std=float(np.std(values)),
                iqr=iqr,
                outlier_count=int(outlier_mask.sum()),
                outlier_keys=tuple(k for (k, _), bad in zip(members, outlier_mask) if bad),
                insufficient=False,
            )
        )
    return out


def _find_group(stats, feature, modality, state) -> GroupStats | None:
    for g in stats:
        if g.feature == feature and g.modality == modality and g.state == state:
            return g
    return None


def state_overlap_score(
    stats: list[GroupStats], feature: str, modality: str, state_a: str, state_b: str
) -> float:
    """Overlap of the two states' interquartile boxes, in [0, 1].

    Defined as intersection length over the smaller box length; a degenerate
    box scores 1 when its point lies inside the other box, else 0.
    """
    a = _find_group(stats, feature, modality, state_a)
    b = _find_group(stats, feature, modality, state_b)
    if a is None or b is None or a.insufficient or b.insufficient:
        raise KeyError(
            f"no stats for feature {feature!r} modality {modality!r} "
            f"states {state_a!r}/{state_b!r}"
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
