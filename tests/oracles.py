"""Independent reference implementations used only by the test suite.

Everything here is deliberately written from the defining formulas in plain
Python, separately from the library code it checks: feature statistics by
direct summation, the breathing spectrum by an explicit segment-and-window
loop, AUC by brute force over positive/negative pairs, Shapley values by full
permutation enumeration, and filter gains by evaluating the transfer function.

The per-window threshold-factor candidates and choice, the feature path, and
the per-tree forest walk, prediction and Shapley pass at the end are the
exceptions: each is the library's numpy code as it ran before it was batched,
one window or one tree at a time.  The block candidates, the grouped factor
choice and the batched prediction must give their bits exactly; the one
Shapley pass sums in another order, so it must agree to rounding.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from statistics import median

import numpy as np

from hrvaffect.explain import _pair_weights
from hrvaffect.hrv import (
    BPM_VALID_RANGE,
    ROLLING_MEAN_SPAN_S,
    RR_PLAUSIBLE_MS,
    THRESHOLD_FACTORS,
    BeatSeries,
    InsufficientSpanError,
    NoPlausiblePeaksError,
    TooFewBeatsError,
)
from hrvaffect.learn import routable

BREATH_BAND = (0.1, 0.4)
GRID_RATE = 4.0
SEGMENT_SAMPLES = 32
NFFT = 4096


def oracle_breathing(rr_ms) -> float:
    """Dominant 0.1-0.4 Hz frequency of the RR tachogram, or NaN.

    Explicit pipeline: linear interpolation of (cumulative beat time, RR) onto
    a 4 Hz grid, mean removal, Hann-windowed 8 s segments with 50% hop,
    zero-padded periodograms averaged, peak picked inside the band.
    """
    r = [float(v) for v in rr_ms]
    if len(r) < 4:
        return math.nan
    times = []
    acc = 0.0
    for v in r:
        acc += v / 1000.0
        times.append(acc)
    if times[-1] < 8.0:
        return math.nan

    n_grid = int(math.floor((times[-1] - times[0]) * GRID_RATE)) + 1
    grid = [times[0] + j / GRID_RATE for j in range(n_grid)]
    tach = []
    for t in grid:
        k = 0
        while k + 1 < len(times) and times[k + 1] < t:
            k += 1
        if t <= times[0]:
            tach.append(r[0])
        elif k + 1 >= len(times):
            tach.append(r[-1])
        else:
            t0, t1 = times[k], times[k + 1]
            frac = (t - t0) / (t1 - t0)
            tach.append(r[k] + frac * (r[k + 1] - r[k]))
    mean = sum(tach) / len(tach)
    x = [v - mean for v in tach]

    nperseg = min(SEGMENT_SAMPLES, len(x))
    step = nperseg - nperseg // 2
    window = [0.5 - 0.5 * math.cos(2.0 * math.pi * k / nperseg) for k in range(nperseg)]
    nfft = max(NFFT, nperseg)
    power = np.zeros(nfft // 2 + 1)
    n_segments = 0
    start = 0
    while start + nperseg <= len(x):
        seg = [x[start + k] * window[k] for k in range(nperseg)]
        spectrum = np.fft.rfft(seg, n=nfft)
        power += np.abs(spectrum) ** 2
        n_segments += 1
        start += step
    if n_segments == 0:
        return math.nan
    power /= n_segments
    freqs = np.fft.rfftfreq(nfft, d=1.0 / GRID_RATE)
    band = (freqs >= BREATH_BAND[0]) & (freqs <= BREATH_BAND[1])
    band_power = power[band]
    if band_power.size == 0 or band_power.max() <= 1e-10:
        return math.nan
    return float(freqs[band][int(np.argmax(band_power))])


def oracle_features(rr_ms) -> dict[str, float]:
    """All 13 features from the defining formulas, population statistics."""
    r = [float(v) for v in rr_ms]
    n = len(r)
    d = [r[i + 1] - r[i] for i in range(n - 1)]
    ibi = sum(r) / n
    sdnn = math.sqrt(sum((v - ibi) ** 2 for v in r) / n)
    d_mean = sum(d) / len(d)
    sdsd = math.sqrt(sum((v - d_mean) ** 2 for v in d) / len(d))
    rmssd = math.sqrt(sum(v * v for v in d) / len(d))
    med = median(r)
    sd1 = rmssd / math.sqrt(2.0)
    # sd2² = 2·sdnn² − 0.5·rmssd² in exact rational arithmetic, rounded once: in
    # floats the two terms of a constant series leave a residue of ~1e-13, and
    # sd1_sd2 would read 0 where the ratio is 0/0.
    q = [Fraction(v) for v in r]
    q_mean = sum(q) / n
    sd2_sq = 2 * sum((v - q_mean) ** 2 for v in q) / n - sum(
        (b - a) ** 2 for a, b in zip(q, q[1:])
    ) / (2 * (n - 1))
    sd2 = math.sqrt(max(0.0, float(sd2_sq)))
    return {
        "bpm": 60000.0 / ibi,
        "ibi": ibi,
        "sdnn": sdnn,
        "sdsd": sdsd,
        "rmssd": rmssd,
        "pnn20": sum(1 for v in d if abs(v) > 20.0) / len(d),
        "pnn50": sum(1 for v in d if abs(v) > 50.0) / len(d),
        "mad": median([abs(v - med) for v in r]),
        "br": oracle_breathing(r),
        "sd1": sd1,
        "sd2": sd2,
        "s": math.pi * sd1 * sd2,
        "sd1_sd2": sd1 / sd2 if sd2 > 0.0 else math.nan,
    }


def oracle_auc(scores, positives) -> float:
    """Mann-Whitney pair statistic: ties between classes count one half."""
    pos = [float(s) for s, p in zip(scores, positives) if p]
    neg = [float(s) for s, p in zip(scores, positives) if not p]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def oracle_shapley_permutations(value_fn, n_players: int) -> list[float]:
    """Exact Shapley values by averaging marginal contributions over all
    n! player orderings; feasible for n <= 5."""
    cache: dict[frozenset, float] = {}

    def value(coalition: frozenset) -> float:
        if coalition not in cache:
            cache[coalition] = value_fn(coalition)
        return cache[coalition]

    totals = [0.0] * n_players
    for perm in itertools.permutations(range(n_players)):
        members: set[int] = set()
        previous = value(frozenset())
        for player in perm:
            members.add(player)
            current = value(frozenset(members))
            totals[player] += current - previous
            previous = current
    n_perms = math.factorial(n_players)
    return [t / n_perms for t in totals]


def sos_gain(sos, freq_hz: float, sample_rate_hz: float) -> float:
    """|H(e^{j omega})| of a second-order-section cascade at one frequency."""
    z_inv = cmath.exp(-2j * math.pi * freq_hz / sample_rate_hz)
    h = complex(1.0, 0.0)
    for b0, b1, b2, a0, a1, a2 in np.asarray(sos):
        h *= (b0 + b1 * z_inv + b2 * z_inv**2) / (a0 + a1 * z_inv + a2 * z_inv**2)
    return abs(h)


def zero_phase(sos, x: np.ndarray, order: int) -> np.ndarray:
    """scipy's forward-backward cascade over an even padding of 3 x order
    samples per end (at most n - 1), as filter_signal defines it."""
    from scipy import signal as sps

    return sps.sosfiltfilt(sos, x, padtype="even", padlen=min(3 * order, x.size - 1))


def sine_amplitude(samples: np.ndarray) -> float:
    """Peak amplitude of an (assumed) sinusoid from interior samples."""
    interior = samples[len(samples) // 4 : -len(samples) // 4]
    return float(np.max(np.abs(interior)))


# ---------------------------------------------------------------------------
# The per-window feature path
# ---------------------------------------------------------------------------

def _window_welch_density(x, nperseg: int, nfft: int):
    from scipy import fft as sp_fft

    window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])
    segments = np.lib.stride_tricks.sliding_window_view(x, nperseg)[:: nperseg - nperseg // 2]
    spectrum = sp_fft.rfft(segments * window, n=nfft)
    power = (np.conjugate(spectrum) * spectrum).real
    power *= 1.0 / (GRID_RATE * (window * window).sum())
    power[:, 1 : (nfft + 1) // 2] *= 2.0
    return sp_fft.rfftfreq(nfft, 1.0 / GRID_RATE), power.mean(axis=0)


def window_breathing(rr_ms) -> float:
    """Breathing rate of one RR series; raises InsufficientSpanError."""
    rr_ms = np.asarray(rr_ms, dtype=np.float64)
    if rr_ms.size < 4:
        raise InsufficientSpanError("need at least 4 RR intervals")
    times_s = np.cumsum(rr_ms) / 1000.0
    span = times_s[-1]
    if span < 8.0:
        raise InsufficientSpanError(f"RR series spans {span:.2f} s < 8.0 s")

    n_grid = int(np.floor((times_s[-1] - times_s[0]) * GRID_RATE)) + 1
    grid = times_s[0] + np.arange(n_grid) / GRID_RATE
    tachogram = np.interp(grid, times_s, rr_ms)
    tachogram = tachogram - tachogram.mean()

    nperseg = min(SEGMENT_SAMPLES, n_grid)
    freqs, power = _window_welch_density(tachogram, nperseg, max(NFFT, nperseg))
    band = (freqs >= BREATH_BAND[0]) & (freqs <= BREATH_BAND[1])
    band_power = power[band]
    if band_power.size == 0 or band_power.max() <= 1e-10:
        return math.nan
    return float(freqs[band][int(np.argmax(band_power))])


def oracle_rolling_mean(x, span):
    span = max(1, min(span, x.size))
    pad_left = span // 2
    pad_right = span - 1 - pad_left
    fill = float(np.median(x))
    padded = np.concatenate([np.full(pad_left, fill), x, np.full(pad_right, fill)])
    csum = np.cumsum(np.concatenate([[0.0], padded]))
    return (csum[span:] - csum[:-span]) / span


def oracle_region_peaks(x, mask):
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


def oracle_candidates(samples, rate):
    """One window's candidate peaks per factor, as the detector found them one
    window at a time: one full threshold mask per factor, and a Python loop
    over the mask's runs."""
    x = samples - samples.min()
    rolling = oracle_rolling_mean(x, int(round(ROLLING_MEAN_SPAN_S * rate)))
    floor = 1e-6 * float(x.max()) if x.size else 0.0
    return [
        oracle_region_peaks(x, x > np.maximum(factor * rolling, floor))
        for factor in THRESHOLD_FACTORS
    ]


def per_window_detect(window, candidates=None) -> BeatSeries:
    """One window's beats, its threshold factor chosen by a loop over the
    factors: candidates are its per-factor peaks, from oracle_candidates when
    omitted.  The factor whose implied BPM falls inside the plausible range
    with minimal RR standard deviation wins (ties go to the smallest factor);
    raises NoPlausiblePeaksError."""
    rate = window.sample_rate_hz
    if candidates is None:
        candidates = oracle_candidates(window.samples, rate)

    best = None  # (rr_std, factor, peaks)
    for factor, peaks in zip(THRESHOLD_FACTORS, candidates):
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


def window_features(beats) -> np.ndarray:
    """The 13 features of one window's BeatSeries, in FEATURE_NAMES order;
    raises TooFewBeatsError."""
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
    ratios = [x.as_integer_ratio() for x in r.tolist()]
    unit = max(den for _, den in ratios)
    v, n = [num * (unit // den) for num, den in ratios], r.size
    centred = 4 * (n - 1) * (n * sum(x * x for x in v) - sum(v) ** 2)
    steps = n * n * sum((b - a) ** 2 for a, b in zip(v, v[1:]))
    sd2 = math.sqrt(max(0.0, (centred - steps) / (2 * n * n * (n - 1) * unit * unit)))
    s = math.pi * sd1 * sd2
    sd1_sd2 = sd1 / sd2 if sd2 > 0.0 else math.nan
    try:
        br = window_breathing(r)
    except InsufficientSpanError:
        br = math.nan
    return np.array(
        [bpm, ibi, sdnn, sdsd, rmssd, pnn20, pnn50, mad, br, sd1, sd2, s, sd1_sd2],
        dtype=np.float64,
    )


# ---------------------------------------------------------------------------
# The per-tree forest walk, prediction and Shapley pass
# ---------------------------------------------------------------------------

def per_tree_leaf_ids(tree, X) -> np.ndarray:
    """Leaf node id per row of one tree, walked on its own node arrays; X must
    be C-contiguous float64."""
    n, n_features = X.shape
    flat = X.reshape(-1)
    # children[2i] = right child of node i, children[2i+1] = left child,
    # so the boolean go_left indexes the pair directly.
    children = np.empty(2 * tree.feature.size, dtype=np.int64)
    children[0::2] = tree.right
    children[1::2] = tree.left
    internal = tree.feature >= 0
    out = np.zeros(n, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)
    nodes = np.zeros(n, dtype=np.int64)
    alive = internal[nodes]
    rows, nodes = rows[alive], nodes[alive]
    while rows.size:
        go_left = flat[rows * n_features + tree.feature[nodes]] <= tree.threshold[nodes]
        nodes = children[2 * nodes + go_left]
        alive = internal[nodes]
        if not alive.all():
            done = ~alive
            out[rows[done]] = nodes[done]
            rows, nodes = rows[alive], nodes[alive]
    return out


def per_tree_proba(model, X) -> np.ndarray:
    """ExtraTreesModel.predict_proba one tree at a time: each tree's leaf
    distributions, added in tree index order, over the tree count."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    total = np.zeros((X.shape[0], len(model.classes)))
    for tree in model.trees:
        total += tree.probs[per_tree_leaf_ids(tree, X)]
    return total / len(model.trees)


def per_tree_leaf_boxes(tree, n_features: int):
    """(leaves, lo, hi) of one tree by a depth-first walk: a row reaches
    leaves[j] iff lo[j] < routable(row) <= hi[j]."""
    lo = np.full((tree.feature.size, n_features), -np.inf)
    hi = np.full((tree.feature.size, n_features), np.inf)
    stack = [0]
    while stack:
        node = stack.pop()
        f = tree.feature[node]
        if f < 0:
            continue
        left, right, thr = tree.left[node], tree.right[node], tree.threshold[node]
        lo[[left, right]] = lo[node]
        hi[[left, right]] = hi[node]
        hi[left, f] = min(hi[node, f], thr)  # x <= threshold goes left
        lo[right, f] = max(lo[node, f], thr)
        stack += [left, right]
    leaves = np.flatnonzero(tree.feature < 0)
    return leaves, lo[leaves], hi[leaves]


def per_tree_shapley(model, x, background, class_label) -> tuple[float, np.ndarray]:
    """(base_value, phi) of shapley_explain one tree at a time, on boolean
    admission masks: per tree, sum each reachable (row, leaf) pair's share."""
    n_features = len(model.feature_names)
    class_index = model.classes.index(class_label)
    x = routable(np.asarray(x, dtype=np.float64).ravel())
    background = routable(np.asarray(background, dtype=np.float64))[:, None, :]
    weights = _pair_weights(n_features)
    phi = np.zeros(n_features)
    base_value = 0.0
    for tree in model.trees:
        leaves, lo, hi = per_tree_leaf_boxes(tree, n_features)
        r_in = (background > lo) & (background <= hi)  # (rows, leaves, features)
        x_in = (x > lo) & (x <= hi)  # (leaves, features)
        rows, cols = np.nonzero((x_in | r_in).all(axis=2))
        only_x = x_in[cols] & ~r_in[rows, cols]
        only_r = r_in[rows, cols] & ~x_in[cols]
        a, b = only_x.sum(axis=1), only_r.sum(axis=1)
        value = tree.probs[leaves[cols], class_index]
        base_value += float(value[a == 0].sum())
        phi += (value * weights[a, b]) @ only_x - (value * weights[b, a]) @ only_r
    n_pairs = len(model.trees) * background.shape[0]
    return base_value / n_pairs, phi / n_pairs
