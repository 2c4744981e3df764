"""Band-pass filtering, sliding-window segmentation and label resolution.

The processing order is filter first, then window.  Defaults follow the
conventional HRV-preserving bands: ECG 0.67-40 Hz, PPG 0.5-8 Hz, third order,
zero-phase so beat timing survives filtering.  The filter streams both of
its passes through one n-sample buffer, a chunk at a time, and equals
scipy's sosfiltfilt (causal mode: sosfilt) bit for bit.  scipy.signal is
imported in the functions that filter: importing it takes several times as
long as the rest of the package, and the stages that never filter should
not pay that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    AV_LOW_MAX,
    DISCARDED_CODES,
    DISCRETE_CODE_LABELS,
    KNOWN_CODES,
    AnnotationTrack,
    LabelScheme,
    NonFiniteSampleError,
    SignalRecord,
    WindowedSegment,
    av_quadrant,
    check_av_range,
)


# The filter runs over this many samples per scipy call, so its temporaries
# stay at a few hundred kB whatever the record's length.
FILTER_CHUNK_SAMPLES = 2**16
# Design at this order takes about 10 ms; far higher orders take minutes.
MAX_FILTER_ORDER = 100


class CutoffAboveNyquistError(ValueError):
    pass


class FilterDesignError(ValueError):
    pass


class FilterOverflowError(ValueError):
    pass


class NoCompleteWindowError(ValueError):
    pass


@dataclass(frozen=True)
class FilterSpec:
    """Butterworth band-pass parameters; zero_phase doubles the effective order."""

    order: int
    low_cut_hz: float
    high_cut_hz: float
    zero_phase: bool = True

    def __post_init__(self):
        if not 1 <= self.order <= MAX_FILTER_ORDER:
            raise ValueError(f"order must lie in [1, {MAX_FILTER_ORDER}], got {self.order}")
        if not 0 < self.low_cut_hz < self.high_cut_hz:
            raise ValueError(f"band [{self.low_cut_hz}, {self.high_cut_hz}] must satisfy 0 < low < high")


DEFAULT_ECG_FILTER = FilterSpec(order=3, low_cut_hz=0.67, high_cut_hz=40.0)
DEFAULT_PPG_FILTER = FilterSpec(order=3, low_cut_hz=0.5, high_cut_hz=8.0)


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: consecutive windows share overlap_s seconds."""

    window_len_s: float = 10.0
    overlap_s: float = 1.0

    def __post_init__(self):
        if self.window_len_s <= 0:
            raise ValueError(f"window_len_s must be positive, got {self.window_len_s}")
        if not 0 <= self.overlap_s < self.window_len_s:
            raise ValueError(f"overlap_s must lie in [0, window_len_s), got {self.overlap_s}")

    @property
    def stride_s(self) -> float:
        return self.window_len_s - self.overlap_s


def design_butterworth_bandpass(spec: FilterSpec, sample_rate_hz: float) -> np.ndarray:
    """Second-order-section cascade for the requested band at this rate.

    Designed via the bilinear transform with frequency pre-warping; raises if
    the band does not fit under Nyquist, the one rule that needs the rate, and
    FilterDesignError if the design overflows or is not finite (a high order
    with a cutoff near Nyquist or near zero).
    """
    nyquist = sample_rate_hz / 2.0
    if spec.high_cut_hz >= nyquist:
        raise CutoffAboveNyquistError(
            f"high cutoff {spec.high_cut_hz} Hz >= Nyquist {nyquist} Hz"
        )
    from scipy import signal as sps

    try:
        with np.errstate(all="ignore"):
            sos = sps.butter(
                spec.order,
                [spec.low_cut_hz, spec.high_cut_hz],
                btype="bandpass",
                fs=sample_rate_hz,
                output="sos",
            )
    except OverflowError:
        sos = None
    if sos is None or not np.isfinite(sos).all():
        raise FilterDesignError(
            f"order-{spec.order} {spec.low_cut_hz}-{spec.high_cut_hz} Hz band-pass at "
            f"{sample_rate_hz} Hz overflows in design"
        )
    return sos


def _sosfilt_chunks(sos, x: np.ndarray, zi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Run the cascade over x from state zi into out (which may be x itself),
    FILTER_CHUNK_SAMPLES at a time; returns the final state.  The cascade
    carries its state from sample to sample, so chunking changes no bit."""
    from scipy import signal as sps

    for start in range(0, x.size, FILTER_CHUNK_SAMPLES):
        part = slice(start, start + FILTER_CHUNK_SAMPLES)
        out[part], zi = sps.sosfilt(sos, x[part], zi=zi)
    return zi


def filter_signal(record: SignalRecord, spec: FilterSpec) -> SignalRecord:
    """Apply the band-pass to a record, preserving length and metadata.

    Zero-phase mode runs the cascade forward and backward (squared magnitude
    response, no phase shift) over an even-reflection padding of 3 x order
    samples per end, with step-matched initial conditions.  Both passes write
    into one n-sample buffer, which the returned record shares.  Raises
    FilterOverflowError when a finite record filters to a non-finite sample.
    """
    from scipy import signal as sps

    sos = design_butterworth_bandpass(spec, record.sample_rate_hz)
    x = record.samples
    zi = sps.sosfilt_zi(sos)
    pad = min(3 * spec.order, x.size - 1) if spec.zero_phase else 0
    y, tail = np.empty(x.size), np.empty(pad)
    # Forward over the left pad (for its state only), the record and the
    # right pad; causal mode has no pad and stops here.
    state = _sosfilt_chunks(sos, x[pad:0:-1], zi * x[pad], tail)
    state = _sosfilt_chunks(sos, x, state, y)
    _sosfilt_chunks(sos, x[-2 : -pad - 2 : -1], state, tail)
    if spec.zero_phase:
        # Backward from the last forward output, over the right pad and then
        # the record in place.  The left pad's backward outputs are dropped,
        # so that pass is not run.
        state = _sosfilt_chunks(sos, tail[::-1], zi * (tail if pad else y)[-1], tail[::-1])
        _sosfilt_chunks(sos, y[::-1], state, y[::-1])
    y.setflags(write=False)
    try:
        return replace(record, samples=y)
    except NonFiniteSampleError as exc:
        raise FilterOverflowError(
            f"{spec.low_cut_hz}-{spec.high_cut_hz} Hz band-pass of subject "
            f"{record.subject_id!r} {record.modality.value} overflows to a non-finite "
            f"output at sample {exc.index}"
        ) from None


# Whether each known code is retained, indexed by code: an AnnotationTrack
# holds no other code.
_KEEP = np.array([code not in DISCARDED_CODES for code in KNOWN_CODES])


def resolve_label_discrete(codes: np.ndarray) -> str | None:
    """Resolve a window of discrete codes to one label, or None to drop.

    Codes 0 and 5-7 are discarded; if less than half the window survives the
    window is dropped.  Otherwise the mean of the retained codes rounds to the
    nearest code in 1-4, ties resolving to the larger code.
    """
    codes = np.asarray(codes)
    if codes.size == 0:
        return None
    retained = codes[_KEEP[codes]]
    if retained.size / codes.size < 0.5:
        return None
    mean = float(retained.mean())
    best_code, best_dist = None, None
    for code in sorted(DISCRETE_CODE_LABELS):
        dist = abs(mean - code)
        if best_dist is None or dist <= best_dist:
            best_code, best_dist = code, dist
    return DISCRETE_CODE_LABELS[best_code]


def resolve_label_av(values: np.ndarray) -> str:
    """Resolve a window of normalized (arousal, valence) pairs to a quadrant.

    Per-axis means bin low when <= 5.0, high otherwise.  Raises if any sample
    falls outside the normalized range.
    """
    values = np.asarray(values, dtype=np.float64)
    check_av_range(values)
    arousal_mean = float(values[:, 0].mean())
    valence_mean = float(values[:, 1].mean())
    return av_quadrant(arousal_mean <= AV_LOW_MAX, valence_mean <= AV_LOW_MAX)


def _sample_count(length_s: float, rate_hz: float) -> int:
    return int(np.floor(length_s * rate_hz + 1e-9))


def _slice_bounds(offset_s: float, length_s: float, rate_hz: float, n_total: int):
    start = int(round(offset_s * rate_hz))
    count = _sample_count(length_s, rate_hz)
    if start < 0 or start + count > n_total:
        return None
    return start, start + count


def covered_seconds(ecg: SignalRecord, ppg: SignalRecord, annotations: AnnotationTrack,
                    wspec: WindowSpec) -> float:
    """The seconds all three streams cover.  NoCompleteWindowError unless a window
    fits and holds a sample of each; it needs only rates and lengths, not samples."""
    covered_s = min(ecg.duration_s, ppg.duration_s, annotations.duration_s)
    if covered_s < wspec.window_len_s:
        raise NoCompleteWindowError(
            f"recording covers {covered_s:.3f} s < window {wspec.window_len_s} s"
        )
    for name, stream in (("ECG", ecg), ("PPG", ppg), ("annotations", annotations)):
        if _sample_count(wspec.window_len_s, stream.sample_rate_hz) == 0:
            raise NoCompleteWindowError(
                f"a {wspec.window_len_s} s window holds no {name} sample at "
                f"{stream.sample_rate_hz} Hz"
            )
    return covered_s


def segment_windows(
    ecg: SignalRecord,
    ppg: SignalRecord,
    annotations: AnnotationTrack,
    wspec: WindowSpec = WindowSpec(),
) -> list[tuple[WindowedSegment, WindowedSegment]]:
    """Cut aligned ECG/PPG windows and attach one resolved label per window.

    Windows start every stride_s seconds on the shared clock; each signal is
    sliced at its own rate.  Windows whose label resolution drops them are
    skipped; window_id keeps the grid index so aligned segments always agree.
    """
    if not (ecg.start_time_s == ppg.start_time_s == annotations.start_time_s):
        raise ValueError("ECG, PPG and annotations must share a start time")
    covered_s = covered_seconds(ecg, ppg, annotations, wspec)
    n_windows = int(np.floor((covered_s - wspec.window_len_s) / wspec.stride_s + 1e-9)) + 1

    pairs: list[tuple[WindowedSegment, WindowedSegment]] = []
    for k in range(n_windows):
        offset_s = k * wspec.stride_s
        bounds = [
            _slice_bounds(offset_s, wspec.window_len_s, stream.sample_rate_hz, stream.n_samples)
            for stream in (ecg, ppg, annotations)
        ]
        if any(b is None for b in bounds):
            continue
        (e0, e1), (p0, p1), (a0, a1) = bounds

        if annotations.scheme is LabelScheme.DISCRETE_STATE:
            label = resolve_label_discrete(annotations.values[a0:a1])
        else:
            label = resolve_label_av(annotations.values[a0:a1])
        if label is None:
            continue

        start_s = ecg.start_time_s + offset_s
        pairs.append(
            (
                WindowedSegment(
                    window_id=k,
                    subject_id=ecg.subject_id,
                    modality=ecg.modality,
                    sample_rate_hz=ecg.sample_rate_hz,
                    samples=ecg.samples[e0:e1],
                    label=label,
                    window_start_s=start_s,
                ),
                WindowedSegment(
                    window_id=k,
                    subject_id=ppg.subject_id,
                    modality=ppg.modality,
                    sample_rate_hz=ppg.sample_rate_hz,
                    samples=ppg.samples[p0:p1],
                    label=label,
                    window_start_s=start_s,
                ),
            )
        )
    return pairs
