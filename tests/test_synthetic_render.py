"""Synthetic ECG/PPG rendered a chunk of beats at a time, against the loop.

The oracle below is the generator as it rendered one wave of one beat at a
time, adding each template into its slice of the signal.  generate_synthetic
must give byte-equal ECG and PPG and the same ground truth, whatever the
chunk size, and ingest._render the same samples for beats whose templates run
off either end of the recording.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hrvaffect import ingest
from hrvaffect.core import STREAM_BEATS, STREAM_NOISE, derive_rng
from hrvaffect.experiments import twin_spec
from hrvaffect.ingest import (
    PPG_TRANSIT_DELAY_S,
    StateSpec,
    SyntheticSpec,
    generate_synthetic,
    load_synthetic_spec,
)
from helpers import readme_json_blocks



def oracle_add_gaussian(samples, rate, center_s, amp, sigma_s):
    half = 4.0 * sigma_s
    i0 = max(0, int(math.ceil((center_s - half) * rate)))
    i1 = min(samples.size, int(math.floor((center_s + half) * rate)) + 1)
    if i0 >= i1:
        return
    t = np.arange(i0, i1) / rate
    samples[i0:i1] += amp * np.exp(-0.5 * ((t - center_s) / sigma_s) ** 2)


def oracle_add_ppg_pulse(samples, rate, peak_s, rise_s=0.15, decay_s=0.35):
    i0 = max(0, int(math.ceil((peak_s - rise_s) * rate)))
    i1 = min(samples.size, int(math.floor((peak_s + decay_s) * rate)) + 1)
    if i0 >= i1:
        return
    t = np.arange(i0, i1) / rate - peak_s
    shape = np.where(
        t < 0,
        0.5 * (1.0 + np.cos(np.pi * np.clip(t / rise_s, -1.0, 0.0))),
        0.5 * (1.0 + np.cos(np.pi * np.clip(t / decay_s, 0.0, 1.0))),
    )
    samples[i0:i1] += shape


def oracle_render(beat_times, n_ecg, ecg_rate, n_ppg, ppg_rate):
    ecg = np.zeros(n_ecg)
    ppg = np.zeros(n_ppg)
    for bt in beat_times:
        oracle_add_gaussian(ecg, ecg_rate, bt, 1.0, 0.010)
        oracle_add_gaussian(ecg, ecg_rate, bt - 0.030, -0.15, 0.010)
        oracle_add_gaussian(ecg, ecg_rate, bt + 0.030, -0.25, 0.012)
        oracle_add_gaussian(ecg, ecg_rate, bt - 0.18, 0.12, 0.025)
        oracle_add_gaussian(ecg, ecg_rate, bt + 0.22, 0.25, 0.050)
        oracle_add_ppg_pulse(ppg, ppg_rate, bt + PPG_TRANSIT_DELAY_S)
    return ecg, ppg


def oracle_generate(spec):
    """(ECG, PPG, beat times, state spans) as the per-beat loop made them."""
    rng_beats = derive_rng(spec.seed, STREAM_BEATS)
    rng_noise = derive_rng(spec.seed, STREAM_NOISE)
    spans = ingest._state_spans(spec)
    beat_times = []
    t = 0.5
    while t <= spec.duration_s - 0.5:
        beat_times.append(t)
        state = ingest._state_at(spans, spec, t)
        rr_ms = (
            60000.0 / state.mean_bpm
            + rng_beats.normal(0.0, state.bpm_jitter_ms)
            + spec.respiratory_rr_modulation_ms
            * math.sin(2.0 * math.pi * spec.respiratory_rate_hz * t)
        )
        t += max(250.0, rr_ms) / 1000.0
    beat_times = np.array(beat_times, dtype=np.float64)
    n_ecg = int(round(spec.duration_s * spec.ecg_rate_hz))
    n_ppg = int(round(spec.duration_s * spec.ppg_rate_hz))
    ecg, ppg = oracle_render(beat_times, n_ecg, spec.ecg_rate_hz, n_ppg, spec.ppg_rate_hz)
    ecg += rng_noise.normal(0.0, spec.noise_std, n_ecg)
    ppg += rng_noise.normal(0.0, spec.noise_std, n_ppg)
    return ecg, ppg, beat_times, spans


def assert_matches_oracle(spec):
    subject, truth = generate_synthetic(spec)
    ecg, ppg, beat_times, spans = oracle_generate(spec)
    assert subject.ecg.samples.tobytes() == ecg.tobytes()
    assert subject.ppg.samples.tobytes() == ppg.tobytes()
    assert truth.beat_times_s.tobytes() == beat_times.tobytes()
    assert truth.ppg_pulse_times_s.tobytes() == (beat_times + PPG_TRANSIT_DELAY_S).tobytes()
    assert truth.rr_ms.tobytes() == (np.diff(beat_times) * 1000.0).tobytes()
    assert truth.state_spans == spans
    assert truth.respiratory_rate_hz == spec.respiratory_rate_hz
    assert truth.respiratory_rr_modulation_ms == spec.respiratory_rr_modulation_ms


def readme_spec(tmp_path):
    path = tmp_path / "synth_spec.json"
    path.write_text(readme_json_blocks()[0])
    return load_synthetic_spec(path)


def one_state(duration_s, ecg_rate, ppg_rate, bpm, jitter_ms, noise_std=0.02, seed=4):
    return SyntheticSpec(
        duration_s=duration_s, ecg_rate_hz=ecg_rate, ppg_rate_hz=ppg_rate,
        states=(StateSpec("stress", bpm, jitter_ms, duration_s),),
        respiratory_rate_hz=0.25, respiratory_rr_modulation_ms=30.0,
        noise_std=noise_std, seed=seed,
    )


SPECS = {
    "readme_quickstart": readme_spec,
    "twin_high_seed0": lambda _: twin_spec("high", seed=22, duration_s=1800.0),
    "twin_low_seed0": lambda _: twin_spec("low", seed=22, duration_s=1800.0),
    "twin_high_seed1": lambda _: twin_spec("high", seed=23, duration_s=1800.0),
    "twin_low_seed1": lambda _: twin_spec("low", seed=23, duration_s=1800.0),
    "cohort_subject": lambda _: SyntheticSpec(
        duration_s=240.0, ecg_rate_hz=700.0, ppg_rate_hz=64.0,
        states=tuple(
            StateSpec(label, bpm - 6.0 + 12.0 * 5 / 7, 40.0, 60.0)
            for label, bpm in (("baseline", 70.0), ("stress", 88.0),
                               ("amusement", 75.0), ("meditation", 66.0))
        ),
        respiratory_rate_hz=0.25, respiratory_rr_modulation_ms=30.0, noise_std=0.05, seed=1003,
    ),
    "arousal_valence": lambda _: SyntheticSpec(
        duration_s=240.0, ecg_rate_hz=350.0, ppg_rate_hz=64.0,
        states=tuple(
            StateSpec(quadrant, bpm, 25.0, 60.0)
            for quadrant, bpm in (("LALV", 62.0), ("LAHV", 68.0), ("HALV", 90.0), ("HAHV", 84.0))
        ),
        noise_std=0.02, seed=3,
    ),
    "zero_noise": lambda _: one_state(120.0, 700.0, 64.0, 60.0, 0.0, noise_std=0.0, seed=1),
    # 3 s at 200 BPM: the last pulses run past the final sample.
    "short_25hz": lambda _: one_state(3.0, 25.0, 25.0, 200.0, 80.0),
    "short_2000hz": lambda _: one_state(3.0, 2000.0, 2000.0, 200.0, 80.0),
    # RR at its 250 ms floor: each ECG sample sums waves of up to three beats.
    "rr_250ms": lambda _: one_state(60.0, 2000.0, 25.0, 220.0, 80.0),
}


@pytest.mark.parametrize("name", SPECS)
def test_generate_synthetic_matches_the_per_beat_loop(name, tmp_path):
    assert_matches_oracle(SPECS[name](tmp_path))


@pytest.mark.parametrize("block", [1, 10_000, 50_000])
@pytest.mark.parametrize("name", ["readme_quickstart", "rr_250ms", "short_2000hz"])
def test_any_chunk_size_gives_the_same_bytes(name, block, tmp_path, monkeypatch):
    """One beat per chunk, and chunks that leave a partial last one."""
    monkeypatch.setattr(ingest, "RENDER_BLOCK_SAMPLES", block)
    assert_matches_oracle(SPECS[name](tmp_path))


@pytest.mark.parametrize("rate", [25.0, 2000.0])
def test_templates_clipped_at_both_ends(rate):
    """Beats before the start, at it, near the end and past it: their
    supports clip at sample 0 and at n, or hold no sample at all."""
    n = int(3.0 * rate)
    beats = np.array([-1.0, -0.2, 0.0, 0.03, 0.27, 1.5, 2.8, 2.95, 3.1, 4.0])
    ecg, ppg = oracle_render(beats, n, rate, n, rate)
    assert ingest._render(n, rate, beats, ingest._ECG_WAVES).tobytes() == ecg.tobytes()
    assert ingest._render(n, rate, beats, ingest._PPG_WAVES).tobytes() == ppg.tobytes()


@given(
    ecg_rate=st.floats(min_value=25.0, max_value=2000.0),
    ppg_rate=st.floats(min_value=25.0, max_value=2000.0),
    duration_s=st.floats(min_value=4.0, max_value=20.0),
    bpm=st.floats(min_value=30.0, max_value=220.0),
    jitter_ms=st.floats(min_value=0.0, max_value=80.0),
    seed=st.integers(min_value=0, max_value=2**32),
    block=st.integers(min_value=1, max_value=2**16),
)
def test_random_specs_match_the_per_beat_loop(
    ecg_rate, ppg_rate, duration_s, bpm, jitter_ms, seed, block
):
    spec = one_state(duration_s, ecg_rate, ppg_rate, bpm, jitter_ms, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "RENDER_BLOCK_SAMPLES", block)
        assert_matches_oracle(spec)
