"""Beat detection and heart-rate-variability features for a block of windows.

Detection uses adaptive moving-average thresholding: candidate peak sets are
generated for a ladder of threshold elevation factors and the factor whose
implied BPM is physiological with the steadiest RR series wins.  Features are
computed over the accepted RR intervals with population statistics throughout,
which makes the Poincare identities exact and testable.

Candidates are found for a block of equal-length windows at once
(_threshold_candidates), because numpy's per-call overhead, not arithmetic,
dominates a single window.  The eight threshold masks are nested: the rolling
mean r is never negative and rounding is monotone, so for factors f1 < f2,
fl(f1 * r) <= fl(f2 * r); taking the maximum with the amplitude floor keeps
that order, and every sample above the higher threshold is above the lower
one.  Only the lowest factor is therefore compared over the whole block; each
higher factor is compared on the previous factor's candidate samples alone,
and the runs of all factors and their first argmaxes are found in one pass.
A block's candidates are one table: (window, factor) starts and counts into
one flat array of peak indices.

choose_peaks, the one entry, cuts a sequence of windows into blocks of at
most BLOCK_SAMPLES samples (2^15, but at least one window), so temporaries
stay at a few MB at any rate, and chooses the factors of the pooled windows
whenever CHOICE_CHUNK_PEAKS candidate peaks are held.  The (window, factor)
sets of one peak count are gathered from the table as one C-contiguous array
and their RR mean and standard deviation reduced along its rows.  A row
reduces with the same pairwise blocking as the 1-D array, so every statistic,
and with it every near-tie, has the bits of the one-window loop; padding rows
to one width, or a segment reduction, would sum in another order, so there
is neither.  detect_beats only assembles a window's BeatSeries from its
chosen peaks.

The features and the breathing spectrum are likewise computed for a block of
windows (feature_block): the statistics for the windows of one accepted-RR
count at once, the Welch spectra for the tachograms of one segment length and
count at once.  compute_features and estimate_breathing are the block of one.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .core import WindowedSegment

# Detection ladder and physiological plausibility bounds.
THRESHOLD_FACTORS = (1.05, 1.10, 1.20, 1.30, 1.50, 2.00, 2.50, 3.00)
ROLLING_MEAN_SPAN_S = 0.75
BLOCK_SAMPLES = 2**15
# Candidate peaks pooled before their factors are chosen: 1 MB of int64.
CHOICE_CHUNK_PEAKS = 2**17
BPM_VALID_RANGE = (40.0, 180.0)
RR_PLAUSIBLE_MS = (300.0, 2000.0)

# Breathing-rate estimation: RR tachogram resampled to a uniform grid, then
# Welch PSD with zero padding for a fine frequency readout in the adult band.
TACHOGRAM_RATE_HZ = 4.0
WELCH_SEGMENT_S = 8.0
BREATH_BAND_HZ = (0.1, 0.4)
BREATH_NFFT = 4096
BREATH_MIN_SPAN_S = 8.0
# Segments per FFT call: the spectra of a chunk take about 1 MB each way.
WELCH_CHUNK_SEGMENTS = 32
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

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=np.float64)


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))


def _row_medians(x: np.ndarray) -> np.ndarray:
    """np.median(x, axis=1, keepdims=True) of a finite x, bit for bit, from one
    partition.

    An even width takes the lower half's maximum as the other middle value.
    np.median averages the middle values with a sum that starts at +0.0, so
    adding 0.0 gives its sign of zero too.
    """
    half = x.shape[1] // 2
    part = np.partition(x, half, axis=1)
    middle = part[:, half : half + 1]
    if x.shape[1] % 2 == 0:
        middle = (part[:, :half].max(axis=1, keepdims=True) + middle) / 2.0
    return middle + 0.0


def _rolling_mean(x: np.ndarray, span: int) -> np.ndarray:
    """Centered rolling mean along each row, median-padded so edge beats do not
    inflate it."""
    n = x.shape[1]
    span = max(1, min(span, n))
    pad_left = span // 2
    fill = _row_medians(x)
    # One leading zero, then the row padded to n + span - 1 samples.
    csum = np.empty((x.shape[0], n + span), dtype=np.float64)
    csum[:, :1] = 0.0
    csum[:, 1 : 1 + pad_left] = fill
    csum[:, 1 + pad_left : 1 + pad_left + n] = x
    csum[:, 1 + pad_left + n :] = fill
    np.cumsum(csum, axis=1, out=csum)
    return (csum[:, span:] - csum[:, :-span]) / span


def _first_argmax_of_runs(position: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the first maximum of each run of consecutive positions."""
    starts = np.flatnonzero(np.diff(position, prepend=position[:1] - 2) != 1)
    run_max = np.maximum.reduceat(values, starts)
    at_max = np.flatnonzero(values == np.repeat(run_max, np.diff(starts, append=values.size)))
    return at_max[np.searchsorted(at_max, starts)]


def _threshold_candidates(windows: np.ndarray, rate: float) -> tuple[np.ndarray, ...]:
    """The candidate table of a (W, N) block: (starts, counts, columns).

    Each window is shifted non-negative and compared against every factor of
    THRESHOLD_FACTORS times its 0.75 s rolling mean, floored at 1e-6 of its
    peak; each contiguous suprathreshold region yields its first argmax.  A
    region whose maximum sits on the window's first or last sample is a
    truncated bump from a beat outside the window and yields nothing.  Only
    the lowest factor is compared over the whole block: the masks are nested
    (see the module docstring), so each other factor is compared on the
    previous factor's candidate samples alone.  Window r's peaks at factor k
    are the ascending int64 sample indices columns[starts[r, k]:][:counts[r, k]],
    where starts and counts are (W, len(THRESHOLD_FACTORS)).
    """
    x = np.asarray(windows)
    x = x - x.min(axis=1, keepdims=True)
    w, n = x.shape
    rolling = _rolling_mean(x, int(round(ROLLING_MEAN_SPAN_S * rate)))
    # Amplitude floor so vanishing baselines cannot promote noise-floor
    # wiggles between beats into suprathreshold regions.
    floor = 1e-6 * x.max(axis=1)
    threshold = THRESHOLD_FACTORS[0] * rolling
    np.maximum(threshold, floor[:, None], out=threshold)
    flat = np.flatnonzero(x > threshold)

    # All factors in one sequence: factor k's candidates in flat order, at
    # positions (k * W + row) * (N + 1) + column, so no run crosses a row or
    # a factor.  Each factor filters the previous factor's candidates; every
    # one is above the floor, so a factor only needs x > f * rolling.
    candidate = flat + flat // n
    values = x.ravel()[flat]
    level = rolling.ravel()[flat]
    positions, peaks = [candidate], [values]
    for k, factor in enumerate(THRESHOLD_FACTORS[1:], start=1):
        keep = values > factor * level
        candidate, values, level = candidate[keep], values[keep], level[keep]
        positions.append(candidate + k * (w * (n + 1)))
        peaks.append(values)
    position = np.concatenate(positions)
    position = position[_first_argmax_of_runs(position, np.concatenate(peaks))]
    key, column = np.divmod(position, n + 1)
    inside = (column != 0) & (column != n - 1)
    counts = np.bincount(key[inside], minlength=len(THRESHOLD_FACTORS) * w)
    starts = np.cumsum(counts) - counts
    return starts.reshape(-1, w).T, counts.reshape(-1, w).T, column[inside]


def _choose(starts: np.ndarray, counts: np.ndarray, columns: np.ndarray, rate: float) -> list[np.ndarray]:
    """Each window's chosen peaks from a candidate table.

    The factor whose implied BPM falls inside the plausible range with
    minimal RR standard deviation wins; ties go to the smallest factor.  A
    window where no factor has at least 2 peaks and a plausible BPM gets an
    empty array.  The candidate sets of one peak count m are gathered as one
    C-contiguous (G, m) stack and reduced along its rows (see the module
    docstring), so a window's choice does not depend on the table it is in.
    """
    sizes, firsts = counts.ravel(), starts.ravel()
    rr_std = np.full(sizes.size, np.inf)
    for m in np.unique(sizes[sizes >= 2]):
        members = np.flatnonzero(sizes == m)
        rr_ms = np.diff(columns[firsts[members, None] + np.arange(m)], axis=1) / rate * 1000.0
        bpm = 60000.0 / rr_ms.mean(axis=1)
        plausible = (bpm >= BPM_VALID_RANGE[0]) & (bpm <= BPM_VALID_RANGE[1])
        rr_std[members] = np.where(plausible, np.std(rr_ms, axis=1), np.inf)
    best = np.argmin(rr_std.reshape(counts.shape), axis=1) + np.arange(0, sizes.size, counts.shape[1])
    size = np.where(np.isfinite(rr_std[best]), sizes[best], 0)
    return [columns[a : a + k] for a, k in zip(firsts[best].tolist(), size.tolist())]


def choose_peaks(windows: Sequence[np.ndarray], rate: float) -> list[np.ndarray]:
    """Each window's chosen peaks, for a sequence of equal-length windows;
    an empty array where no factor is plausible.

    Candidates are found one block of at most BLOCK_SAMPLES samples (but at
    least one window) at a time.  The block tables are pooled, their starts
    offset, until CHOICE_CHUNK_PEAKS candidate peaks are held, and the pool's
    factors are then chosen at once; a window's choice does not depend on the
    block or pool it falls in.
    """
    per_block = max(1, BLOCK_SAMPLES // max(1, len(windows[0]))) if len(windows) else 1
    chosen, held, n_held = [], [], 0
    for start in range(0, len(windows), per_block):
        block = np.stack(windows[start : start + per_block])
        starts, counts, columns = _threshold_candidates(block, rate)
        held.append((starts + n_held, counts, columns))
        n_held += columns.size
        if n_held >= CHOICE_CHUNK_PEAKS or start + per_block >= len(windows):
            chosen += _choose(*(np.concatenate(parts) for parts in zip(*held)), rate)
            held, n_held = [], 0
    return chosen


def detect_beats(window: WindowedSegment, peaks: np.ndarray | None = None) -> BeatSeries:
    """Locate beats in a filtered window via adaptive threshold selection.

    peaks are the window's chosen peaks from choose_peaks; when omitted they
    are chosen for this window alone.  An empty peaks array means no factor
    was plausible and raises NoPlausiblePeaksError.  RR intervals outside
    300-2000 ms are rejected but kept visible in the mask.
    """
    rate = window.sample_rate_hz
    if peaks is None:
        (peaks,) = choose_peaks([window.samples], rate)
    if peaks.size == 0:
        raise NoPlausiblePeaksError(
            f"no threshold factor yields BPM in {BPM_VALID_RANGE} "
            f"(window {window.window_id}, {window.modality.value})"
        )
    rr_ms = np.diff(peaks) / rate * 1000.0
    accepted = (rr_ms >= RR_PLAUSIBLE_MS[0]) & (rr_ms <= RR_PLAUSIBLE_MS[1])
    return BeatSeries(peak_indices=peaks, rr_ms=rr_ms, accepted=accepted)


def _tachogram(rr_ms: np.ndarray) -> np.ndarray:
    """The RR tachogram on a uniform 4 Hz grid, mean-removed.

    Beat n carries the value r_n at its cumulative time; the grid starts at
    the first beat and the values between beats are linearly interpolated.
    Raises InsufficientSpanError for fewer than 4 intervals or a span under
    BREATH_MIN_SPAN_S.
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
    return tachogram - tachogram.mean()


def _welch_segments(x: np.ndarray) -> np.ndarray:
    """The (S, nperseg) Welch segments of one series: 8 s, or the whole series
    when shorter, with 50% overlap."""
    nperseg = min(int(WELCH_SEGMENT_S * TACHOGRAM_RATE_HZ), x.size)
    return np.lib.stride_tricks.sliding_window_view(x, nperseg)[:: nperseg - nperseg // 2]


@functools.lru_cache(maxsize=None)  # one entry per nperseg, at most 32
def _hann(nperseg: int) -> np.ndarray:
    """Periodic Hann window, the same values as scipy's get_window("hann")."""
    window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])
    window.flags.writeable = False
    return window


def _welch_density(segments: np.ndarray, nfft: int) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch power spectral density at TACHOGRAM_RATE_HZ of each
    series of a (W, S, nperseg) stack of its Welch segments.

    Each segment is Hann-windowed, not detrended, zero-padded to nfft,
    density-scaled, and the S periodograms of a series averaged: what
    scipy.signal.welch computes, to a relative 1e-9, without importing
    scipy.signal.  Returns the frequencies and the (W, nfft // 2 + 1) powers.
    """
    from scipy import fft as sp_fft  # here, not at import time: see the dsp module

    window = _hann(segments.shape[2])
    spectrum = sp_fft.rfft(segments * window, n=nfft)
    power = (np.conjugate(spectrum) * spectrum).real
    power *= 1.0 / (TACHOGRAM_RATE_HZ * (window * window).sum())
    power[..., 1 : (nfft + 1) // 2] *= 2.0  # one-sided: all but DC and Nyquist
    return sp_fft.rfftfreq(nfft, 1.0 / TACHOGRAM_RATE_HZ), power.mean(axis=1)


def _breathing_rates(tachograms: list[np.ndarray]) -> np.ndarray:
    """Frequency of maximum Welch power inside 0.1-0.4 Hz of each tachogram,
    or NaN where the band is flat.

    Series with the same segment length and count are stacked, at most
    WELCH_CHUNK_SEGMENTS segments per FFT call, so the spectra of a block
    never sit in memory at once.
    """
    rates = np.full(len(tachograms), math.nan)
    groups: dict[tuple[int, int], list[int]] = {}
    segments = [_welch_segments(x) for x in tachograms]
    for i, s in enumerate(segments):
        groups.setdefault(s.shape, []).append(i)
    for (n_segments, nperseg), members in groups.items():
        per_chunk = max(1, WELCH_CHUNK_SEGMENTS // n_segments)
        for start in range(0, len(members), per_chunk):
            chunk = members[start : start + per_chunk]
            stack = np.stack([segments[i] for i in chunk])
            freqs, power = _welch_density(stack, max(BREATH_NFFT, nperseg))
            band = (freqs >= BREATH_BAND_HZ[0]) & (freqs <= BREATH_BAND_HZ[1])
            power = power[:, band]
            peak = freqs[band][np.argmax(power, axis=1)]
            rates[chunk] = np.where(power.max(axis=1) <= _FLAT_POWER_EPS, math.nan, peak)
    return rates


def estimate_breathing(rr_ms: np.ndarray) -> float:
    """Dominant respiratory frequency (Hz) from an RR series: the breathing
    rate of a block of one.

    The tachogram (value r_n at the cumulative time of beat n) is linearly
    interpolated onto a uniform 4 Hz grid, mean-removed, and fed to a Welch
    PSD (8 s Hann segments, 50% overlap, zero-padded to a fine grid).  Returns
    the frequency of maximum power inside 0.1-0.4 Hz, or NaN when the band is
    flat, e.g. for a constant RR series.  Raises InsufficientSpanError for
    fewer than 4 intervals or under 8 s of them.
    """
    return float(_breathing_rates([_tachogram(rr_ms)])[0])


def _exact_sd2(r: np.ndarray) -> float:
    """sd2 = sqrt(2·sdnn² − 0.5·rmssd²), exact on the RR values as integer
    multiples of their finest power of two and rounded once, so a degenerate
    series gives 0."""
    ratios = [x.as_integer_ratio() for x in r.tolist()]
    unit = max(den for _, den in ratios)
    v, n = [num * (unit // den) for num, den in ratios], r.size
    centred = 4 * (n - 1) * (n * sum(x * x for x in v) - sum(v) ** 2)  # 4n²(n − 1)·sdnn²·unit²
    steps = n * n * sum((b - a) ** 2 for a, b in zip(v, v[1:]))  # n²(n − 1)·rmssd²·unit²
    return math.sqrt(max(0.0, (centred - steps) / (2 * n * n * (n - 1) * unit * unit)))


def feature_block(beats: list[BeatSeries | None]) -> np.ndarray:
    """The 13 features of each window of a block, as a (W, 13) float64 matrix
    in FEATURE_NAMES order.

    None stands for a window whose detection failed; its row, and the row of
    a window with fewer than 4 accepted RR intervals, is NaN throughout.
    Population statistics throughout.  sd1/sd2 follow the rmssd/sdnn
    identities; when sd2 degenerates to zero the ratio is NaN.  br is NaN when
    the series spans under 8 s or its band is flat.

    Windows with the same accepted-RR count are stacked into one C-contiguous
    array and reduced along its rows, which gives the bits of the one-window
    reductions.  Padding to one width would change the summation grouping, so
    there is none.
    """
    out = np.full((len(beats), len(FEATURE_NAMES)), math.nan)
    rr = [b.accepted_rr_ms() if b is not None else np.empty(0) for b in beats]
    counts = np.array([r.size for r in rr], dtype=np.int64)
    for n in np.unique(counts[counts >= 4]):
        rows = np.flatnonzero(counts == n)
        r = np.stack([rr[i] for i in rows])
        d = np.diff(r, axis=1)
        ibi = r.mean(axis=1)
        rmssd = np.sqrt(np.mean(d * d, axis=1))
        sd1 = np.sqrt(0.5 * rmssd * rmssd)
        sd2 = np.array([_exact_sd2(x) for x in r])
        sd1_sd2 = np.divide(sd1, sd2, out=np.full(rows.size, math.nan), where=sd2 > 0.0)
        mad = np.median(np.abs(r - np.median(r, axis=1, keepdims=True)), axis=1)
        out[rows] = np.column_stack([
            60000.0 / ibi, ibi, np.std(r, axis=1), np.std(d, axis=1), rmssd,
            np.mean(np.abs(d) > 20.0, axis=1), np.mean(np.abs(d) > 50.0, axis=1), mad,
            np.full(rows.size, math.nan), sd1, sd2, np.pi * sd1 * sd2, sd1_sd2,
        ])

    spanned, tachograms = [], []
    for i in np.flatnonzero(counts >= 4):
        try:
            tachograms.append(_tachogram(rr[i]))
        except InsufficientSpanError:
            continue
        spanned.append(i)
    out[spanned, FEATURE_NAMES.index("br")] = _breathing_rates(tachograms)
    return out


def compute_features(beats: BeatSeries, sample_rate_hz: float) -> FeatureVector:
    """All 13 features over the accepted RR sequence of one window: the
    feature_block of a block of one.  Raises TooFewBeatsError for fewer than
    4 accepted RR intervals."""
    n = int(np.count_nonzero(beats.accepted))
    if n < 4:
        raise TooFewBeatsError(f"need >= 4 accepted RR intervals, got {n}")
    return FeatureVector(*feature_block([beats])[0].tolist())
