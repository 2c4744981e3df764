"""Beat detection and heart-rate-variability features for one window.

Detection uses adaptive moving-average thresholding: candidate peak sets are
generated for a ladder of threshold elevation factors and the factor whose
implied BPM is physiological with the steadiest RR series wins.  Features are
computed over the accepted RR intervals with population statistics throughout,
which makes the Poincare identities exact and testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import WindowedSegment

# Detection ladder and physiological plausibility bounds.
THRESHOLD_FACTORS = (1.05, 1.10, 1.20, 1.30, 1.50, 2.00, 2.50, 3.00)
ROLLING_MEAN_SPAN_S = 0.75
BPM_VALID_RANGE = (40.0, 180.0)
RR_PLAUSIBLE_MS = (300.0, 2000.0)

# Breathing-rate estimation: RR tachogram resampled to a uniform grid, then
# Welch PSD with zero padding for a fine frequency readout in the adult band.
TACHOGRAM_RATE_HZ = 4.0
WELCH_SEGMENT_S = 8.0
BREATH_BAND_HZ = (0.1, 0.4)
BREATH_NFFT = 4096
BREATH_MIN_SPAN_S = 8.0
_FLAT_POWER_EPS = 1e-10


class NoPlausiblePeaksError(ValueError):
    pass


class TooFewBeatsError(ValueError):
    pass


class InsufficientSpanError(ValueError):
    pass


@dataclass(frozen=True)
class BeatSeries:
    """Detected peaks and their RR intervals; accepted masks plausible RR."""

    peak_indices: np.ndarray  # ascending sample indices
    rr_ms: np.ndarray  # len(peak_indices) - 1 successive intervals
    accepted: np.ndarray  # bool per RR interval

    def accepted_rr_ms(self) -> np.ndarray:
        return self.rr_ms[self.accepted]


@dataclass(frozen=True)
class FeatureVector:
    """The 13 per-window HRV features; NaN marks a missing value."""

    bpm: float
    ibi: float
    sdnn: float
    sdsd: float
    rmssd: float
    pnn20: float
    pnn50: float
    mad: float
    br: float
    sd1: float
    sd2: float
    s: float
    sd1_sd2: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in FEATURE_NAMES}

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=np.float64)


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))


def _rolling_mean(x: np.ndarray, span: int) -> np.ndarray:
    """Centered rolling mean, median-padded so edge beats do not inflate it."""
    span = max(1, min(span, x.size))
    pad_left = span // 2
    pad_right = span - 1 - pad_left
    fill = float(np.median(x))
    padded = np.concatenate([np.full(pad_left, fill), x, np.full(pad_right, fill)])
    csum = np.cumsum(np.concatenate([[0.0], padded]))
    return (csum[span:] - csum[:-span]) / span


def _region_peaks(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Argmax of each contiguous True run in mask.

    Runs clipped by the window boundary whose maximum sits exactly on the
    boundary sample are truncated bumps from a beat outside the window; they
    are discarded rather than reported as spurious edge peaks.
    """
    if not mask.any():
        return np.array([], dtype=np.int64)
    rising = np.flatnonzero(~mask[:-1] & mask[1:]) + 1
    falling = np.flatnonzero(mask[:-1] & ~mask[1:]) + 1
    if mask[0]:
        rising = np.concatenate([[0], rising])
    if mask[-1]:
        falling = np.concatenate([falling, [mask.size]])
    peaks = []
    for a, b in zip(rising, falling):
        peak = a + int(np.argmax(x[a:b]))
        if (a == 0 and peak == 0) or (b == mask.size and peak == mask.size - 1):
            continue
        peaks.append(peak)
    return np.array(peaks, dtype=np.int64)


def detect_beats(window: WindowedSegment) -> BeatSeries:
    """Locate beats in a filtered window via adaptive threshold selection.

    The window is shifted non-negative and compared against elevation factors
    times its 0.75 s rolling mean; each contiguous suprathreshold region emits
    its argmax as a candidate peak.  The factor whose implied BPM falls inside
    the plausible range with minimal RR standard deviation wins (ties go to
    the smallest factor).  RR intervals outside 300-2000 ms are rejected but
    kept visible in the mask.
    """
    rate = window.sample_rate_hz
    x = window.samples - window.samples.min()
    rolling = _rolling_mean(x, int(round(ROLLING_MEAN_SPAN_S * rate)))
    # Amplitude floor so vanishing baselines cannot promote noise-floor
    # wiggles between beats into suprathreshold regions.
    floor = 1e-6 * float(x.max()) if x.size else 0.0

    best: tuple[float, float, np.ndarray] | None = None  # (rr_std, factor, peaks)
    for factor in THRESHOLD_FACTORS:
        peaks = _region_peaks(x, x > np.maximum(factor * rolling, floor))
        if peaks.size < 2:
            continue
        rr_ms = np.diff(peaks) / rate * 1000.0
        bpm = 60000.0 / rr_ms.mean()
        if not BPM_VALID_RANGE[0] <= bpm <= BPM_VALID_RANGE[1]:
            continue
        rr_std = float(np.std(rr_ms))
        if best is None or rr_std < best[0]:
            best = (rr_std, factor, peaks)
    if best is None:
        raise NoPlausiblePeaksError(
            f"no threshold factor yields BPM in {BPM_VALID_RANGE} "
            f"(window {window.window_id}, {window.modality.value})"
        )
    peaks = best[2]
    rr_ms = np.diff(peaks) / rate * 1000.0
    accepted = (rr_ms >= RR_PLAUSIBLE_MS[0]) & (rr_ms <= RR_PLAUSIBLE_MS[1])
    return BeatSeries(peak_indices=peaks, rr_ms=rr_ms, accepted=accepted)


def estimate_breathing(rr_ms: np.ndarray) -> float:
    """Dominant respiratory frequency (Hz) from an RR series.

    The tachogram (value r_n at the cumulative time of beat n) is linearly
    interpolated onto a uniform 4 Hz grid, mean-removed, and fed to a Welch
    PSD (8 s Hann segments, 50% overlap, zero-padded to a fine grid).  Returns
    the frequency of maximum power inside 0.1-0.4 Hz, or NaN when the band is
    flat, e.g. for a constant RR series.
    """
    rr_ms = np.asarray(rr_ms, dtype=np.float64)
    if rr_ms.size < 4:
        raise InsufficientSpanError("need at least 4 RR intervals")
    times_s = np.cumsum(rr_ms) / 1000.0
    span = times_s[-1]  # intervals laid end to end
    if span < BREATH_MIN_SPAN_S:
        raise InsufficientSpanError(f"RR series spans {span:.2f} s < {BREATH_MIN_SPAN_S} s")

    n_grid = int(np.floor((times_s[-1] - times_s[0]) * TACHOGRAM_RATE_HZ)) + 1
    grid = times_s[0] + np.arange(n_grid) / TACHOGRAM_RATE_HZ
    tachogram = np.interp(grid, times_s, rr_ms)
    tachogram = tachogram - tachogram.mean()

    nperseg = min(int(WELCH_SEGMENT_S * TACHOGRAM_RATE_HZ), n_grid)
    from scipy import signal as sps  # here, not at import time: see the dsp module

    freqs, power = sps.welch(
        tachogram,
        fs=TACHOGRAM_RATE_HZ,
        window="hann",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        nfft=max(BREATH_NFFT, nperseg),
        detrend=False,
    )
    band = (freqs >= BREATH_BAND_HZ[0]) & (freqs <= BREATH_BAND_HZ[1])
    band_power = power[band]
    if band_power.size == 0 or band_power.max() <= _FLAT_POWER_EPS:
        return math.nan
    return float(freqs[band][int(np.argmax(band_power))])


def compute_features(beats: BeatSeries, sample_rate_hz: float) -> FeatureVector:
    """All 13 features over the accepted RR sequence of one window.

    Population statistics throughout.  sd1/sd2 follow the rmssd/sdnn
    identities; when sd2 degenerates to zero the ratio is reported as NaN.
    Breathing rate falls back to NaN when the series is too short or flat.
    """
    r = beats.accepted_rr_ms()
    if r.size < 4:
        raise TooFewBeatsError(f"need >= 4 accepted RR intervals, got {r.size}")
    d = np.diff(r)

    ibi = float(r.mean())
    bpm = 60000.0 / ibi
    sdnn = float(np.std(r))
    sdsd = float(np.std(d))
    rmssd = float(np.sqrt(np.mean(d * d)))
    pnn20 = float(np.mean(np.abs(d) > 20.0))
    pnn50 = float(np.mean(np.abs(d) > 50.0))
    mad = float(np.median(np.abs(r - np.median(r))))
    sd1 = math.sqrt(max(0.0, 0.5 * rmssd * rmssd))
    sd2 = math.sqrt(max(0.0, 2.0 * sdnn * sdnn - 0.5 * rmssd * rmssd))
    s = math.pi * sd1 * sd2
    sd1_sd2 = sd1 / sd2 if sd2 > 0.0 else math.nan
    try:
        br = estimate_breathing(r)
    except InsufficientSpanError:
        br = math.nan

    return FeatureVector(
        bpm=bpm,
        ibi=ibi,
        sdnn=sdnn,
        sdsd=sdsd,
        rmssd=rmssd,
        pnn20=pnn20,
        pnn50=pnn50,
        mad=mad,
        br=br,
        sd1=sd1,
        sd2=sd2,
        s=s,
        sd1_sd2=sd1_sd2,
    )
