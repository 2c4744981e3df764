"""Beat detection and features over a block of windows against the
per-window path.

The oracle candidates in tests/oracles.py are the detector as it ran one
window at a time: one full threshold mask per factor, and a Python loop over
the mask's runs.  The block's candidate table must give, for every window and
factor, exactly its peaks.  choose_peaks must choose, for every window, the
factor that the per-factor loop there chooses, and feature_block must give
the bytes of the per-window feature path there, NaN positions and signed
zeros included.
The breathing spectrum, which replaced scipy.signal.welch, is checked against
it at the end.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hrvaffect.core import Modality, WindowedSegment
from hrvaffect.dsp import DEFAULT_ECG_FILTER, DEFAULT_PPG_FILTER, WindowSpec, filter_signal, segment_windows
from hrvaffect import hrv, pipeline
from hrvaffect.experiments import twin_spec
from hrvaffect.hrv import (
    FEATURE_NAMES,
    ROLLING_MEAN_SPAN_S,
    THRESHOLD_FACTORS,
    BeatSeries,
    NoPlausiblePeaksError,
    TooFewBeatsError,
    _breathing_rates,
    _choose,
    _row_medians,
    _tachogram,
    _threshold_candidates,
    _welch_density,
    _welch_segments,
    choose_peaks,
    compute_features,
    detect_beats,
    feature_block,
)
from hrvaffect.ingest import StateSpec, SyntheticSpec, generate_synthetic, load_synthetic_spec
from hrvaffect.pipeline import PipelineConfig, featurize
from helpers import beats_from_rr, readme_json_blocks
from oracles import oracle_candidates, per_window_detect, window_features



def ladders(table):
    """Each window's per-factor peaks, read from a candidate table."""
    starts, counts, columns = table
    return [
        tuple(columns[a : a + k] for a, k in zip(first, size))
        for first, size in zip(starts.tolist(), counts.tolist())
    ]


def table(windows):
    """The candidate table (starts, counts, columns) of hand-built per-factor
    ladders, one window after another in columns."""
    peaks = [p for window in windows for p in window]
    counts = np.array([p.size for p in peaks], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    columns = np.concatenate([np.empty(0, dtype=np.int64), *peaks])
    shape = (len(windows), len(THRESHOLD_FACTORS))
    return starts.reshape(shape), counts.reshape(shape), columns


def assert_block_matches_oracle(windows, rate):
    starts, counts, columns = _threshold_candidates(windows, rate)
    assert starts.shape == counts.shape == (len(windows), len(THRESHOLD_FACTORS))
    assert columns.dtype == np.int64
    block = ladders((starts, counts, columns))
    assert len(block) == len(windows)
    for samples, candidates in zip(windows, block):
        assert len(candidates) == len(THRESHOLD_FACTORS)
        for got, want in zip(candidates, oracle_candidates(samples, rate)):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


def assert_same_beats(a, b):
    for name in ("peak_indices", "rr_ms", "accepted"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def detect_or_error(detect, segment, *args):
    try:
        return detect(segment, *args)
    except NoPlausiblePeaksError as exc:
        return str(exc)


def assert_detected_as_the_oracle(segment, *args):
    """detect_beats(segment, *args) gives the per-factor loop's beats, or its
    error message."""
    got, want = detect_or_error(detect_beats, segment, *args), detect_or_error(per_window_detect, segment)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_beats(got, want)


def segment(samples, rate, window_id=0):
    return WindowedSegment(
        window_id=window_id, subject_id="s", modality=Modality.ECG, sample_rate_hz=rate,
        samples=samples, label="baseline", window_start_s=0.0,
    )


def readme_spec(tmp_path_factory):
    spec = readme_json_blocks()[0]
    path = tmp_path_factory.mktemp("readme") / "synth_spec.json"
    path.write_text(spec)
    return load_synthetic_spec(path)


# Noisy enough that some ECG windows fail detection and one has too few beats.
NOISY_SPEC = SyntheticSpec(
    duration_s=120.0, ecg_rate_hz=350.0, ppg_rate_hz=64.0,
    states=(StateSpec("baseline", 70.0, 15.0, 120.0),), noise_std=0.5, seed=5,
)

RECORDINGS = {
    "readme_quickstart": readme_spec,
    "twin_high": lambda _: twin_spec("high", duration_s=120.0),
    "twin_low": lambda _: twin_spec("low", duration_s=120.0),
    "noisy": lambda _: NOISY_SPEC,
}


@pytest.fixture(scope="module", params=RECORDINGS, ids=RECORDINGS)
def recording(request, tmp_path_factory):
    subject, _ = generate_synthetic(RECORDINGS[request.param](tmp_path_factory))
    return subject


@pytest.fixture(scope="module")
def recording_windows(recording):
    """Every labeled window of one recording, as (ECG windows, PPG windows)."""
    ecg = filter_signal(recording.ecg, DEFAULT_ECG_FILTER)
    ppg = filter_signal(recording.ppg, DEFAULT_PPG_FILTER)
    return list(zip(*segment_windows(ecg, ppg, recording.annotations, WindowSpec())))


class TestRecordings:
    def test_every_window_matches_the_per_factor_oracle(self, recording_windows):
        for segments in recording_windows:
            windows = np.stack([s.samples for s in segments])
            assert_block_matches_oracle(windows, segments[0].sample_rate_hz)

    def test_rolling_fill_is_np_median_bit_for_bit(self, recording_windows):
        for segments in recording_windows:
            x = np.stack([s.samples for s in segments])
            x = x - x.min(axis=1, keepdims=True)
            assert _row_medians(x).tobytes() == np.median(x, axis=1, keepdims=True).tobytes()

    def test_detect_beats_with_block_candidates_equals_one_window(self, recording_windows):
        for segments in recording_windows:
            rate = segments[0].sample_rate_hz
            chosen = choose_peaks([s.samples for s in segments], rate)
            for seg, peaks in zip(segments, chosen):
                assert_detected_as_the_oracle(seg, peaks)
                assert_detected_as_the_oracle(seg)

    def test_feature_block_is_the_per_window_path_bit_for_bit(self, recording_windows):
        for segments in recording_windows:
            rate = segments[0].sample_rate_hz
            chosen = choose_peaks([s.samples for s in segments], rate)
            beats = [detect_or_none(detect_beats, seg, peaks) for seg, peaks in zip(segments, chosen)]
            want = [detect_or_none(per_window_detect, seg) for seg in segments]
            assert feature_block(beats).tobytes() == oracle_block(want).tobytes()

    def test_featurize_counts_what_the_per_window_path_counts(self, recording, recording_windows):
        rows, stats = featurize([recording], PipelineConfig())
        for segments in recording_windows:
            beats = [detect_or_none(per_window_detect, seg) for seg in segments]
            too_few = sum(b is not None and b.accepted.sum() < 4 for b in beats)
            counters = stats["modalities"][segments[0].modality.value]
            assert counters["detect_failures"] == beats.count(None)
            assert counters["too_few_beats"] == too_few
            assert counters["rows"] == len(segments)
            got = np.stack([r.values for r in rows if r.modality == segments[0].modality.value])
            assert got.tobytes() == oracle_block(beats).tobytes()


def test_the_noisy_recording_has_both_kinds_of_failed_window():
    _, stats = featurize([generate_synthetic(NOISY_SPEC)[0]], PipelineConfig())
    assert stats["modalities"]["ECG"]["detect_failures"] > 0
    assert stats["modalities"]["ECG"]["too_few_beats"] > 0


def detect_or_none(detect, segment, *args):
    try:
        return detect(segment, *args)
    except NoPlausiblePeaksError:
        return None


def oracle_block(beats):
    """The per-window path's rows: NaN throughout for a failed detection or
    fewer than 4 accepted RR intervals."""
    out = np.full((len(beats), len(FEATURE_NAMES)), np.nan)
    for i, b in enumerate(beats):
        if b is not None and b.accepted.sum() >= 4:
            out[i] = window_features(b)
    return out


def feature(row, name):
    return row[FEATURE_NAMES.index(name)]


# Each case names what it must show, so a case that stops showing it fails.
EDGE_SERIES = {
    "four_intervals": [1990.0, 1800.0, 2000.0, 2000.0],
    "constant": [800.0] * 14,
    "span_under_8s": [700.0, 720.0, 690.0, 710.0, 705.0, 695.0, 715.0, 700.0, 690.0, 710.0],
    "flat_band": [850.0] * 20,
    "rejected_interval": [800.0, 810.0, 2500.0, 805.0, 795.0, 790.0],
    "three_accepted": [800.0, 2500.0, 810.0, 820.0],
}


def edge_beats(rr):
    rr = np.asarray(rr)
    accepted = (rr >= 300.0) & (rr <= 2000.0)
    return BeatSeries(np.arange(rr.size + 1), rr, accepted)


class TestFeatureBlockEdges:
    def test_each_edge_case_shows_what_it_names(self):
        rows = {name: feature_block([edge_beats(rr)])[0] for name, rr in EDGE_SERIES.items()}
        br = FEATURE_NAMES.index("br")
        # Four plausible intervals span 8 s only when all are 2000 ms, a flat band.
        for name in ("four_intervals", "span_under_8s"):
            assert np.isfinite(np.delete(rows[name], [br])).all()
        assert feature(rows["constant"], "sd2") == 0.0
        assert math.isnan(feature(rows["constant"], "sd1_sd2"))
        for name in ("four_intervals", "span_under_8s", "flat_band", "constant"):
            assert math.isnan(feature(rows[name], "br"))
        assert np.isnan(rows["three_accepted"]).all()
        assert np.isfinite(feature(rows["rejected_interval"], "ibi"))

    @pytest.mark.parametrize("name", EDGE_SERIES)
    def test_block_of_one_is_the_per_window_path(self, name):
        beats = [edge_beats(EDGE_SERIES[name])]
        assert feature_block(beats).tobytes() == oracle_block(beats).tobytes()
        try:
            want = window_features(beats[0])
        except TooFewBeatsError:
            with pytest.raises(TooFewBeatsError):
                compute_features(beats[0], 700.0)
        else:
            assert compute_features(beats[0], 700.0).as_array().tobytes() == want.tobytes()

    def test_one_block_of_every_edge_case_and_several_counts(self):
        rng = np.random.default_rng(5)
        beats = [edge_beats(rr) for rr in EDGE_SERIES.values()]
        beats += [beats_from_rr(rng.uniform(600.0, 1100.0, n)) for n in (4, 9, 9, 13, 30, 4)]
        beats.insert(3, None)
        assert feature_block(beats).tobytes() == oracle_block(beats).tobytes()

    def test_a_block_where_every_window_fails(self):
        beats = [None, edge_beats(EDGE_SERIES["three_accepted"]), None]
        got = feature_block(beats)
        assert got.shape == (3, len(FEATURE_NAMES))
        assert got.tobytes() == oracle_block(beats).tobytes()
        assert feature_block([]).shape == (0, len(FEATURE_NAMES))

    @given(st.lists(
        st.lists(st.floats(min_value=250.0, max_value=2100.0), min_size=0, max_size=50),
        min_size=1, max_size=12,
    ))
    def test_any_block_is_the_per_window_path(self, series):
        beats = [edge_beats(rr) for rr in series]
        assert feature_block(beats).tobytes() == oracle_block(beats).tobytes()


def test_breathing_block_peak_memory_stays_small():
    """1,000 windows' spectra at once would take about 80 MB; chunked Welch
    keeps the peak of the whole block to a few MB."""
    rng = np.random.default_rng(3)
    beat = 800.0 + 40.0 * np.sin(0.9 * np.arange(14))
    tachograms = [_tachogram(beat + rng.normal(0.0, 5.0, 14)) for _ in range(1000)]
    tracemalloc.start()
    try:
        rates = _breathing_rates(tachograms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(rates).all()
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


@given(arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 40)),
    elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
))
def test_row_medians_are_np_median_bit_for_bit(x):
    """Odd and even widths, ties, signed zeros, negative values, 1-sample rows."""
    with np.errstate(over="ignore"):
        assert _row_medians(x).tobytes() == np.median(x, axis=1, keepdims=True).tobytes()


def test_featurize_at_one_and_many_windows_per_block():
    """ECG at 2000 Hz puts one 10 s window in a block, PPG at 25 Hz all of
    them; both must give what detection one window at a time gives."""
    spec = SyntheticSpec(
        duration_s=60.0, ecg_rate_hz=2000.0, ppg_rate_hz=25.0,
        states=(StateSpec("baseline", 70.0, 30.0, 60.0),),
        respiratory_rate_hz=0.25, respiratory_rr_modulation_ms=30.0, noise_std=0.02, seed=4,
    )
    subject, _ = generate_synthetic(spec)
    rows, stats = featurize([subject], PipelineConfig())
    assert len(rows) == 2 * stats["windows_labeled"] == 12
    ecg = filter_signal(subject.ecg, DEFAULT_ECG_FILTER)
    ppg = filter_signal(subject.ppg, DEFAULT_PPG_FILTER)
    want = {}
    for pair in segment_windows(ecg, ppg, subject.annotations, WindowSpec()):
        for seg in pair:
            try:
                values = compute_features(per_window_detect(seg), seg.sample_rate_hz).as_array()
            except (NoPlausiblePeaksError, TooFewBeatsError):
                values = np.full(len(FEATURE_NAMES), np.nan)
            want[(seg.window_id, seg.modality.value)] = values
    got = {(row.window_id, row.modality): row.values for row in rows}
    assert got.keys() == want.keys()
    for key, values in want.items():
        np.testing.assert_array_equal(got[key], values)


# ---------------------------------------------------------------------------
# Edge windows, 25-2000 Hz
# ---------------------------------------------------------------------------

@st.composite
def edge_windows(draw):
    rate = draw(st.floats(min_value=25.0, max_value=2000.0))
    n = draw(st.integers(min_value=1, max_value=max(1, int(2.0 * rate))))
    kind = draw(st.sampled_from(["flat", "spike_first", "spike_last", "plateau", "step", "pulses"]))
    level = draw(st.floats(min_value=-5.0, max_value=5.0))
    samples = np.full(n, level)
    if kind == "spike_first":
        samples[0] += 3.0
    elif kind == "spike_last":
        samples[-1] += 3.0
    elif kind == "plateau":
        # A clipped beat: the maximum is held over several samples, a tie the
        # first argmax must win.
        start = draw(st.integers(min_value=0, max_value=n - 1))
        width = draw(st.integers(min_value=1, max_value=n - start))
        samples[start : start + width] = level + 2.0
    elif kind == "step":
        # Everything from the first sample up to the step is above threshold.
        samples[: draw(st.integers(min_value=1, max_value=n))] += 2.0
    elif kind == "pulses":
        period = draw(st.integers(min_value=1, max_value=n))
        samples[draw(st.integers(min_value=0, max_value=period - 1)) :: period] += 1.5
        seed = draw(st.integers(min_value=0, max_value=2**16))
        samples += np.random.default_rng(seed).normal(0.0, 0.05, n)
    return rate, samples


@given(edge_windows())
def test_edge_window_matches_the_per_factor_oracle(window):
    rate, samples = window
    assert_block_matches_oracle(samples[None, :], rate)


@given(edge_windows())
def test_edge_window_detection_with_and_without_candidates(window):
    rate, samples = window
    seg = segment(samples, rate)
    (peaks,) = choose_peaks([samples], rate)
    assert_detected_as_the_oracle(seg, peaks)
    assert_detected_as_the_oracle(seg)


def test_a_sample_equal_to_its_threshold_is_not_a_candidate():
    """With a 4-sample rolling mean the sums are exact: at samples 1 and 3 the
    mean is half the sample, so factor 2.0 puts the threshold on the sample,
    which a strict comparison rejects; factor 1.5 keeps both."""
    rate = 4 / ROLLING_MEAN_SPAN_S
    samples = np.array([0.0, 1.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    (candidates,) = ladders(_threshold_candidates(samples[None, :], rate))
    by_factor = dict(zip(THRESHOLD_FACTORS, candidates))
    assert by_factor[1.5].tolist() == [1, 3]
    assert by_factor[2.0].tolist() == []
    assert_block_matches_oracle(samples[None, :], rate)


@given(
    rate=st.floats(min_value=25.0, max_value=2000.0),
    n=st.integers(min_value=1, max_value=400),
    n_windows=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
    cuts=st.sets(st.integers(min_value=1, max_value=7)),
)
def test_candidates_do_not_depend_on_the_block_split(rate, n, n_windows, seed, cuts):
    rng = np.random.default_rng(seed)
    windows = rng.normal(size=(n_windows, n))
    windows[:, :: max(1, n // 5)] += 4.0
    whole = ladders(_threshold_candidates(windows, rate))
    bounds = [0, *sorted(c for c in cuts if c < n_windows), n_windows]
    pieces = [
        candidates
        for start, stop in zip(bounds, bounds[1:])
        for candidates in ladders(_threshold_candidates(windows[start:stop], rate))
    ]
    assert len(pieces) == len(whole)
    for a, b in zip(whole, pieces):
        for got, want in zip(a, b):
            np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# The threshold-factor choice, one stack per peak count
# ---------------------------------------------------------------------------

def oracle_choice(candidates, rate):
    """The per-factor loop's peaks for each window's candidates, or an empty
    array where it finds no plausible factor."""
    chosen = []
    for window in candidates:
        beats = detect_or_none(per_window_detect, segment(np.zeros(2), rate), window)
        chosen.append(np.empty(0, dtype=np.int64) if beats is None else beats.peak_indices)
    return chosen


def assert_chosen_as_the_oracle(candidates, rate):
    got = _choose(*table(candidates), rate)
    assert len(got) == len(candidates)
    for a, b in zip(got, oracle_choice(candidates, rate)):
        assert a.dtype == np.int64
        np.testing.assert_array_equal(a, b)
    return got


def peaks_from(intervals):
    """Ascending int64 peak indices, 10 samples in, with these sample gaps."""
    return np.cumsum(np.concatenate([[10], intervals])).astype(np.int64)


def ladder(*peaks):
    """A window's candidates: the given per-factor peaks, then none."""
    none = np.empty(0, dtype=np.int64)
    return tuple(peaks) + (none,) * (len(THRESHOLD_FACTORS) - len(peaks))


def test_equal_std_goes_to_the_smallest_factor():
    """Both factors give a constant RR series at a plausible BPM, so both
    stds are 0.0: the first factor's peaks win, as the strict < keeps them."""
    steady, more = peaks_from([100] * 6), peaks_from([80] * 9)
    (got,) = assert_chosen_as_the_oracle([ladder(steady, more)], 100.0)
    np.testing.assert_array_equal(got, steady)
    (got,) = assert_chosen_as_the_oracle([ladder(more, steady)], 100.0)
    np.testing.assert_array_equal(got, more)


def test_permuted_rr_series_choose_as_the_loop_does():
    """An RR series and a permutation of it have equal stds in exact
    arithmetic, but not always in the bits np.std gives; the choice must
    follow those bits, whichever factor holds which order.  Some draws must
    show unequal bits, or the case shows nothing."""
    rng = np.random.default_rng(11)
    differing = 0
    for _ in range(200):
        n = int(rng.integers(3, 40))
        intervals = rng.integers(60, 110, n)
        a, b = peaks_from(intervals), peaks_from(rng.permutation(intervals))
        rr_a, rr_b = np.diff(a) / 100.0 * 1000.0, np.diff(b) / 100.0 * 1000.0
        differing += np.std(rr_a) != np.std(rr_b)
        assert_chosen_as_the_oracle([ladder(a, b), ladder(b, a), ladder(a, a, b)], 100.0)
    assert differing >= 20


@pytest.mark.parametrize("rate, inside, outside, bpm", [
    (300.0, 450, 451, 40.0), (300.0, 100, 99, 180.0),
], ids=["bpm_40", "bpm_180"])
def test_bpm_exactly_on_the_range_bounds_is_plausible(rate, inside, outside, bpm):
    on_bound, beyond = peaks_from([inside] * 5), peaks_from([outside] * 5)
    assert 60000.0 / (np.diff(on_bound) / rate * 1000.0).mean() == bpm
    (got,) = assert_chosen_as_the_oracle([ladder(beyond, on_bound)], rate)
    np.testing.assert_array_equal(got, on_bound)
    (got,) = assert_chosen_as_the_oracle([ladder(beyond)], rate)
    assert got.size == 0


def test_windows_without_a_plausible_factor_choose_nothing():
    """Fewer than 2 peaks at every factor, or only implausible BPMs, leave an
    empty choice, and detect_beats raises the loop's error for it."""
    none = np.empty(0, dtype=np.int64)
    one_peak = ladder(*([np.array([50], dtype=np.int64)] * len(THRESHOLD_FACTORS)))
    too_fast, too_slow = peaks_from([20] * 8), peaks_from([1000] * 3)
    windows = [
        ladder(), one_peak, ladder(too_fast, too_slow, np.array([5], dtype=np.int64)),
        ladder(none, too_fast, peaks_from([90, 95, 100])),
    ]
    got = assert_chosen_as_the_oracle(windows, 100.0)
    assert [c.size for c in got] == [0, 0, 0, 4]
    seg = segment(np.zeros(2), 100.0, window_id=3)
    with pytest.raises(NoPlausiblePeaksError, match=r"window 3, ECG\)$"):
        detect_beats(seg, got[0])
    assert choose_peaks([], 100.0) == []
    assert _choose(*table([]), 100.0) == []


@pytest.mark.parametrize("lengths", [range(1, 8), range(8, 129, 15), (129, 200, 513)],
                         ids=["rr_1_to_7", "rr_8_to_128", "rr_above_128"])
def test_every_pairwise_regime_chooses_as_the_loop_does(lengths):
    """numpy sums up to 7 values in a plain loop, 8-128 in eight partial sums
    and more in halves; many windows of each RR length share one stack.  The
    factors of a window hold permutations of one RR series, whose stds are
    equal but for their rounding, so the choice follows the last bits."""
    rng = np.random.default_rng(len(lengths))
    windows = []
    for n in lengths:
        for _ in range(6):
            base = rng.integers(60, 120, n)
            windows.append(ladder(*(peaks_from(rng.permutation(base)) for _ in THRESHOLD_FACTORS)))
    assert_chosen_as_the_oracle(windows, 100.0)


@st.composite
def candidate_blocks(draw):
    """Windows of random per-factor candidates, many of one peak count, and
    cuts splitting them into chunks."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n_windows = draw(st.integers(min_value=1, max_value=12))
    rng = np.random.default_rng(seed)
    windows = []
    for _ in range(n_windows):
        sizes = rng.integers(0, 6, len(THRESHOLD_FACTORS))
        windows.append(tuple(
            peaks_from(rng.integers(40, 160, max(0, k - 1)))[: k] for k in sizes.tolist()
        ))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=n_windows - 1))) if n_windows > 1 else set()
    return windows, sorted(cuts)


@given(candidate_blocks())
def test_the_choice_does_not_depend_on_the_chunk_split(block):
    windows, cuts = block
    whole = assert_chosen_as_the_oracle(windows, 100.0)
    bounds = [0, *cuts, len(windows)]
    pieces = [p for a, b in zip(bounds, bounds[1:]) for p in _choose(*table(windows[a:b]), 100.0)]
    assert len(pieces) == len(whole)
    for got, want in zip(pieces, whole):
        np.testing.assert_array_equal(got, want)


@given(
    rate=st.floats(min_value=25.0, max_value=400.0),
    bpm=st.floats(min_value=45.0, max_value=170.0),
    beats=st.integers(min_value=2, max_value=6),
    n_windows=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**16),
    per_block=st.integers(min_value=1, max_value=10),
    pool_peaks=st.integers(min_value=1, max_value=400),
)
def test_choose_peaks_does_not_depend_on_the_block_or_pool_split(
    rate, bpm, beats, n_windows, seed, per_block, pool_peaks
):
    """Pulse trains of uneven height and spacing, so the factors find
    different peaks: whatever the windows per block and the peaks per pool,
    choose_peaks gives every window the per-factor loop's peaks."""
    rng = np.random.default_rng(seed)
    period = round(60.0 * rate / bpm)
    n = period * beats + period // 2
    windows = rng.normal(0.0, 0.05, (n_windows, n))
    for x in windows:
        at = np.arange(period // 2, n, period) + rng.integers(-period // 8, period // 8 + 1, beats)
        x[np.clip(at, 0, n - 1)] += rng.uniform(1.0, 3.0, at.size)
    want = oracle_choice([oracle_candidates(x, rate) for x in windows], rate)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hrv, "BLOCK_SAMPLES", per_block * n)
        patch.setattr(hrv, "CHOICE_CHUNK_PEAKS", pool_peaks)
        chosen = choose_peaks(list(windows), rate)
    assert len(chosen) == len(want)
    for got, peaks in zip(chosen, want):
        np.testing.assert_array_equal(got, peaks)


def test_featurize_chooses_in_chunks_of_the_peak_bound(monkeypatch):
    """With a bound of one peak, extract chooses after every block, and with
    one window per block after every window; the rows are the bytes of one
    choice per signal."""
    subject = generate_synthetic(NOISY_SPEC)[0]
    want, want_stats = featurize([subject], PipelineConfig())
    calls = []

    def counted(starts, counts, columns, rate, original=hrv._choose):
        calls.append(len(counts))
        return original(starts, counts, columns, rate)

    monkeypatch.setattr(hrv, "_choose", counted)
    featurize([subject], PipelineConfig())
    assert calls.count(0) == 0 and len(calls) == 2
    calls.clear()
    monkeypatch.setattr(hrv, "CHOICE_CHUNK_PEAKS", 1)
    got, got_stats = featurize([subject], PipelineConfig())
    # 13 windows: nine 3,500-sample ECG windows fill a block, and the
    # 640-sample PPG windows all fit in one.
    assert calls == [9, 4, 13]
    assert got_stats == want_stats
    assert [r.values.tobytes() for r in got] == [r.values.tobytes() for r in want]
    calls.clear()
    monkeypatch.setattr(hrv, "BLOCK_SAMPLES", 1)
    got, got_stats = featurize([subject], PipelineConfig())
    assert calls == [1] * want_stats["windows_labeled"] * 2
    assert got_stats == want_stats
    assert [r.values.tobytes() for r in got] == [r.values.tobytes() for r in want]


def test_extract_detects_each_window_once(monkeypatch):
    """perfbench counts one detect_beats call per window and modality, and a
    failure per window without a plausible factor; the grouped choice keeps
    both counts."""
    calls, failures = {"ECG": 0, "PPG": 0}, {"ECG": 0, "PPG": 0}

    def counted(window, *args, original=pipeline.detect_beats):
        calls[window.modality.value] += 1
        try:
            return original(window, *args)
        except NoPlausiblePeaksError:
            failures[window.modality.value] += 1
            raise

    monkeypatch.setattr(pipeline, "detect_beats", counted)
    _, stats = featurize([generate_synthetic(NOISY_SPEC)[0]], PipelineConfig())
    for modality in ("ECG", "PPG"):
        assert calls[modality] == stats["windows_labeled"]
        assert failures[modality] == stats["modalities"][modality]["detect_failures"]
    assert failures["ECG"] > 0


# ---------------------------------------------------------------------------
# Breathing spectrum against scipy.signal.welch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_grid", [9, 20, 31, 32, 33, 48, 97, 161])
def test_welch_density_matches_scipy(n_grid):
    from scipy import signal as sps

    rng = np.random.default_rng(n_grid)
    t = np.arange(n_grid) / 4.0
    x = 40.0 * np.sin(2 * np.pi * 0.25 * t) + rng.normal(0.0, 10.0, n_grid)
    x = x - x.mean()
    nperseg = min(32, n_grid)
    freqs, (power,) = _welch_density(_welch_segments(x)[None], 4096)
    want_freqs, want = sps.welch(
        x, fs=4.0, window="hann", nperseg=nperseg, noverlap=nperseg // 2, nfft=4096,
        detrend=False,
    )
    np.testing.assert_array_equal(freqs, want_freqs)
    np.testing.assert_allclose(power, want, rtol=1e-9, atol=1e-9 * want.max())
    assert np.argmax(power) == np.argmax(want)
    band = (freqs >= 0.1) & (freqs <= 0.4)
    assert np.argmax(power[band]) == np.argmax(want[band])
