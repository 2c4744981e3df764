"""Dataset loading, canonical on-disk format, and synthetic ground-truth data.

The canonical format keeps rates out of the data path: per-signal CSV files
(``index,value``), annotation CSVs (``index,label`` or
``index,arousal,valence``) and a JSON manifest carrying names and rates.

The synthetic generator stands in for access-restricted recordings: beats are
an inhomogeneous point process with optional Gaussian RR jitter and sinusoidal
respiratory modulation, with exact beat times kept as ground truth.  Each beat
is rendered as five Gaussian ECG waves (R, Q, S, P, T, in that order) and one
delayed half-cosine PPG pulse.  Beats are rendered a chunk at a time, but every
sample sums its terms in beat order, then wave order, so the signals are
byte-stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import (
    AV_QUADRANTS,
    DISCRETE_LABEL_CODES,
    STREAM_BEATS,
    STREAM_NOISE,
    AnnotationTrack,
    LabelScheme,
    Modality,
    SignalRecord,
    derive_rng,
)
from .serialize import DecodeError, decode

PPG_TRANSIT_DELAY_S = 0.25
_PPG_RISE_S = 0.15
_PPG_DECAY_S = 0.35
# Representative normalized arousal/valence values for each bin.
AV_LOW_VALUE = 2.75
AV_HIGH_VALUE = 7.25
# Beats are kept clear of the recording edges so templates render completely.
_EDGE_PAD_S = 0.5
# Floor keeps adversarial jitter from producing non-positive intervals.
_MIN_RR_MS = 250.0

BPM_RANGE = (30.0, 220.0)
RESPIRATORY_RANGE_HZ = (0.1, 0.4)
_INT64 = np.iinfo(np.int64)
# Beats are rendered in chunks of at most this many (beat, sample) cells, so
# the grids of one chunk stay at a few MB at any sample rate; noise is added
# in slices of this many samples.
RENDER_BLOCK_SAMPLES = 2**16
# No spec stream renders more samples than this: 1 GiB per float64 array, or
# about 37 h at 1 kHz.
MAX_RENDERED_SAMPLES = 2**27


class ParseError(ValueError):
    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = int(line)
        super().__init__(f"{path}:{line}: {message}")


class RateMismatchError(ValueError):
    pass


class InvalidSpecError(ValueError):
    pass


@dataclass(frozen=True)
class SubjectFiles:
    subject_id: str
    ecg_file: str
    ppg_file: str
    annotation_file: str
    ecg_rate_hz: float
    ppg_rate_hz: float
    annotation_rate_hz: float

    def __post_init__(self):
        if min(self.ecg_rate_hz, self.ppg_rate_hz, self.annotation_rate_hz) <= 0:
            raise ValueError("ecg_rate_hz, ppg_rate_hz and annotation_rate_hz must be positive")
        if not self.subject_id or any(ch in self.subject_id for ch in ",\r\n/\\"):
            # Derived CSVs are unquoted, so a comma or line break would shift
            # or blank their cells; a path separator would move the CSV files.
            raise ValueError(
                "subject_id must be non-empty with no comma, line break, / or \\, "
                f"got {self.subject_id!r}"
            )


@dataclass(frozen=True)
class DatasetManifest:
    dataset_name: str
    label_scheme: LabelScheme
    subjects: tuple[SubjectFiles, ...]

    def __post_init__(self):
        # Each subject's CSV files and derived rows are keyed by its id.
        seen = set()
        for entry in self.subjects:
            if entry.subject_id in seen:
                raise ValueError(f"subject_id {entry.subject_id!r} is listed more than once")
            seen.add(entry.subject_id)


def _durations_disagree(durations) -> bool:
    """Whether stream durations spread more than 1% of the longest."""
    longest = max(durations)
    return longest > 0 and (longest - min(durations)) / longest > 0.01


def _rendered_samples(duration_s: float, rate_hz: float) -> int:
    """The sample count the generator renders for a stream."""
    return int(round(duration_s * rate_hz))


@dataclass(frozen=True)
class SubjectData:
    """One subject's aligned streams.  Each stream checks itself when built;
    RateMismatchError when their durations (sample count over rate) disagree
    by more than 1%."""

    subject_id: str
    ecg: SignalRecord
    ppg: SignalRecord
    annotations: AnnotationTrack

    def __post_init__(self):
        durations = {"ecg": self.ecg.duration_s, "ppg": self.ppg.duration_s,
                     "annotations": self.annotations.duration_s}
        if _durations_disagree(durations.values()):
            raise RateMismatchError(
                f"subject {self.subject_id}: stream durations disagree > 1%: "
                + ", ".join(f"{k}={v:.2f}s" for k, v in sorted(durations.items()))
            )


@dataclass(frozen=True)
class StateSpec:
    label: str
    mean_bpm: float
    bpm_jitter_ms: float
    duration_s: float

    def __post_init__(self):
        if not BPM_RANGE[0] <= self.mean_bpm <= BPM_RANGE[1]:
            raise InvalidSpecError(f"mean_bpm {self.mean_bpm} outside {BPM_RANGE}")
        if self.bpm_jitter_ms < 0:
            raise InvalidSpecError(f"bpm_jitter_ms must be >= 0, got {self.bpm_jitter_ms}")
        if self.duration_s <= 0:
            raise InvalidSpecError(f"duration_s must be positive, got {self.duration_s}")


@dataclass(frozen=True)
class SyntheticSpec:
    duration_s: float
    ecg_rate_hz: float
    ppg_rate_hz: float
    states: tuple[StateSpec, ...]
    respiratory_rate_hz: float = 0.25
    respiratory_rr_modulation_ms: float = 0.0
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.duration_s, self.ecg_rate_hz, self.ppg_rate_hz) <= 0:
            raise InvalidSpecError("duration_s, ecg_rate_hz and ppg_rate_hz must be positive")
        if not self.states:
            raise InvalidSpecError("states must hold at least one state")
        total = sum(state.duration_s for state in self.states)
        if abs(total - self.duration_s) > 1e-6:
            raise InvalidSpecError(
                f"state durations sum to {total}, expected duration_s {self.duration_s}"
            )
        lo, hi = RESPIRATORY_RANGE_HZ
        if not lo <= self.respiratory_rate_hz <= hi:
            raise InvalidSpecError(f"respiratory_rate_hz outside [{lo}, {hi}]")
        if self.respiratory_rr_modulation_ms < 0:
            raise InvalidSpecError("respiratory_rr_modulation_ms must be >= 0")
        if self.noise_std < 0:
            raise InvalidSpecError("noise_std must be >= 0")
        rates = {"ecg_rate_hz": self.ecg_rate_hz, "ppg_rate_hz": self.ppg_rate_hz}
        for name, rate in rates.items():
            if not math.isfinite(self.duration_s * rate):
                raise InvalidSpecError(f"{name} {rate} renders a sample count that is not finite")
            if _rendered_samples(self.duration_s, rate) > MAX_RENDERED_SAMPLES:
                raise InvalidSpecError(
                    f"{name} {rate} renders more than {MAX_RENDERED_SAMPLES} samples "
                    f"over duration_s {self.duration_s}"
                )
        rendered = {name: _rendered_samples(self.duration_s, rate) / rate
                    for name, rate in rates.items()}
        if _durations_disagree([self.duration_s, *rendered.values()]):
            name = max(rendered, key=lambda k: abs(rendered[k] - self.duration_s))
            raise InvalidSpecError(
                f"{name} {rates[name]} renders {rendered[name]:.2f}s of duration_s "
                f"{self.duration_s}: the stream durations disagree > 1%"
            )
        labels = {state.label for state in self.states}
        if not (labels <= DISCRETE_LABEL_CODES.keys() or labels <= set(AV_QUADRANTS)):
            raise InvalidSpecError(
                f"state labels must all be discrete states {sorted(DISCRETE_LABEL_CODES)} "
                f"or all quadrants {list(AV_QUADRANTS)}"
            )


@dataclass(frozen=True)
class SyntheticGroundTruth:
    """Exact beat times and the generating parameters needed for oracles."""

    beat_times_s: np.ndarray
    ppg_pulse_times_s: np.ndarray
    rr_ms: np.ndarray
    state_spans: tuple[tuple[str, float, float], ...]  # (label, start_s, end_s)
    respiratory_rate_hz: float
    respiratory_rr_modulation_ms: float


def synthetic_label_scheme(spec: SyntheticSpec) -> LabelScheme:
    if all(state.label in DISCRETE_LABEL_CODES for state in spec.states):
        return LabelScheme.DISCRETE_STATE
    return LabelScheme.AROUSAL_VALENCE


def _state_spans(spec: SyntheticSpec) -> tuple[tuple[str, float, float], ...]:
    spans = []
    t = 0.0
    for state in spec.states:
        spans.append((state.label, t, t + state.duration_s))
        t += state.duration_s
    return tuple(spans)


def _state_at(spans, spec: SyntheticSpec, t: float) -> StateSpec:
    for state, (_, t0, t1) in zip(spec.states, spans):
        if t0 <= t < t1:
            return state
    return spec.states[-1]


def _render(n: int, rate: float, beat_times: np.ndarray, waves) -> np.ndarray:
    """n samples at rate holding every wave's template around every beat.

    waves holds (offset_s, before_s, after_s, shape): the wave centred offset_s
    from a beat covers the samples within [center - before_s, center +
    after_s], and shape maps their times from the center to its values.  Beats
    go in chunks whose (beat, sample) grids hold at most RENDER_BLOCK_SAMPLES
    cells.  np.add.at adds in index order, so each sample sums its terms in
    beat order, then wave order, whatever the chunking.
    """
    samples = np.zeros(n)
    supports = []
    width = 0
    for offset, before, after, shape in waves:
        center = beat_times + offset
        i0 = np.maximum(np.ceil((center - before) * rate).astype(np.int64), 0)
        i1 = np.minimum(np.floor((center + after) * rate).astype(np.int64) + 1, n)
        steps = np.arange(max(0, (i1 - i0).max()))
        width += steps.size
        supports.append((center, i0, i1, steps, shape))
    per_chunk = max(1, RENDER_BLOCK_SAMPLES // max(1, width))
    for start in range(0, beat_times.size, per_chunk):
        part = slice(start, start + per_chunk)
        index, inside, values = [], [], []
        for center, i0, i1, steps, shape in supports:
            grid = i0[part, None] + steps
            index.append(grid)
            inside.append(grid < i1[part, None])
            values.append(shape(grid / rate - center[part, None]))
        inside = np.hstack(inside)
        np.add.at(samples, np.hstack(index)[inside], np.hstack(values)[inside])
    return samples


def _gaussian(offset_s: float, amp: float, sigma_s: float):
    """A Gaussian wave of height amp centred offset_s from the beat, cut at 4 sigma."""
    def shape(t):
        return amp * np.exp(-0.5 * (t / sigma_s) ** 2)

    return offset_s, 4.0 * sigma_s, 4.0 * sigma_s, shape


def _ppg_pulse(t: np.ndarray) -> np.ndarray:
    # Half-cosine rise and decay meet smoothly at the peak and vanish outside
    # [peak - rise, peak + decay], so pulses at short RR do not shift peaks.
    return np.where(
        t < 0,
        0.5 * (1.0 + np.cos(np.pi * np.clip(t / _PPG_RISE_S, -1.0, 0.0))),
        0.5 * (1.0 + np.cos(np.pi * np.clip(t / _PPG_DECAY_S, 0.0, 1.0))),
    )


# Sharp R-spike flanked by Q/S dips and smaller P/T bumps; the S dip keeps the
# shifted baseline high enough that adaptive thresholding separates R from T,
# as it does on real band-passed ECG.
_ECG_WAVES = (
    _gaussian(0.0, 1.0, 0.010),
    _gaussian(-0.030, -0.15, 0.010),
    _gaussian(0.030, -0.25, 0.012),
    _gaussian(-0.18, 0.12, 0.025),
    _gaussian(0.22, 0.25, 0.050),
)
_PPG_WAVES = ((PPG_TRANSIT_DELAY_S, _PPG_RISE_S, _PPG_DECAY_S, _ppg_pulse),)


def generate_synthetic(
    spec: SyntheticSpec, subject_id: str = "synthetic"
) -> tuple[SubjectData, SyntheticGroundTruth]:
    """Generate one subject's ECG, PPG and annotations, plus exact ground truth.

    RR_n = 60000/mean_bpm + jitter_n + modulation * sin(2*pi*f_resp*t_n), with
    jitter drawn zero-mean Gaussian per beat.  Beat jitter and additive sample
    noise use independent streams of the seed, so turning noise on or off
    never moves the ground-truth beat times.  Deterministic given the seed.
    """
    rng_beats = derive_rng(spec.seed, STREAM_BEATS)
    rng_noise = derive_rng(spec.seed, STREAM_NOISE)
    spans = _state_spans(spec)

    beat_times = []
    t = _EDGE_PAD_S
    limit = spec.duration_s - _EDGE_PAD_S
    while t <= limit:
        beat_times.append(t)
        state = _state_at(spans, spec, t)
        jitter = rng_beats.normal(0.0, state.bpm_jitter_ms)
        rr_ms = (
            60000.0 / state.mean_bpm
            + jitter
            + spec.respiratory_rr_modulation_ms
            * math.sin(2.0 * math.pi * spec.respiratory_rate_hz * t)
        )
        t += max(_MIN_RR_MS, rr_ms) / 1000.0
    beat_times = np.array(beat_times, dtype=np.float64)
    if beat_times.size < 2:
        raise InvalidSpecError("duration too short to place at least two beats")

    n_ecg = _rendered_samples(spec.duration_s, spec.ecg_rate_hz)
    n_ppg = _rendered_samples(spec.duration_s, spec.ppg_rate_hz)
    ecg = _render(n_ecg, spec.ecg_rate_hz, beat_times, _ECG_WAVES)
    ppg = _render(n_ppg, spec.ppg_rate_hz, beat_times, _PPG_WAVES)
    for samples in (ecg, ppg):
        # Drawn a slice at a time, the noise takes the values one draw would.
        for start in range(0, samples.size, RENDER_BLOCK_SAMPLES):
            block = samples[start : start + RENDER_BLOCK_SAMPLES]
            block += rng_noise.normal(0.0, spec.noise_std, block.size)

    scheme = synthetic_label_scheme(spec)
    ann_rate = spec.ecg_rate_hz
    n_ann = _rendered_samples(spec.duration_s, ann_rate)
    if scheme is LabelScheme.DISCRETE_STATE:
        values = np.zeros(n_ann, dtype=np.int64)
        for label, t0, t1 in spans:
            values[int(round(t0 * ann_rate)) : int(round(t1 * ann_rate))] = (
                DISCRETE_LABEL_CODES[label]
            )
    else:
        values = np.zeros((n_ann, 2), dtype=np.float64)
        for label, t0, t1 in spans:
            arousal = AV_LOW_VALUE if label[0] == "L" else AV_HIGH_VALUE
            valence = AV_LOW_VALUE if label[2] == "L" else AV_HIGH_VALUE
            values[int(round(t0 * ann_rate)) : int(round(t1 * ann_rate))] = (arousal, valence)
    # Frozen arrays are shared by the records, not copied.
    for arr in (ecg, ppg, values):
        arr.setflags(write=False)

    subject = SubjectData(
        subject_id=subject_id,
        ecg=SignalRecord(subject_id, Modality.ECG, spec.ecg_rate_hz, ecg, 0.0),
        ppg=SignalRecord(subject_id, Modality.PPG, spec.ppg_rate_hz, ppg, 0.0),
        annotations=AnnotationTrack(scheme, ann_rate, values, 0.0),
    )
    truth = SyntheticGroundTruth(
        beat_times_s=beat_times,
        ppg_pulse_times_s=beat_times + PPG_TRANSIT_DELAY_S,
        rr_ms=np.diff(beat_times) * 1000.0,
        state_spans=spans,
        respiratory_rate_hz=spec.respiratory_rate_hz,
        respiratory_rr_modulation_ms=spec.respiratory_rr_modulation_ms,
    )
    return subject, truth


# ---------------------------------------------------------------------------
# Canonical on-disk format
# ---------------------------------------------------------------------------

# Table headers, keyed by table kind: "signal", or the annotations' scheme.
_HEADERS = {
    "signal": "index,value",
    LabelScheme.DISCRETE_STATE: "index,label",
    LabelScheme.AROUSAL_VALENCE: "index,arousal,valence",
}


def _write_table(path: Path, header: str, values: np.ndarray):
    """`header`, then one `index,value...` row per entry of `values`.  The repr
    of a Python float or int reads back as exactly that number."""
    rows = values.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        if values.ndim == 1:
            fh.writelines(f"{i},{v!r}\n" for i, v in enumerate(rows))
        else:
            fh.writelines(f"{i},{','.join(map(repr, row))}\n" for i, row in enumerate(rows))


def write_canonical(
    subjects: list[SubjectData], dataset_name: str, out_dir: str | Path
) -> Path:
    """Write subjects in the canonical format; returns the manifest path."""
    # The manifest, and so every entry, is built and checked before anything is written.
    manifest = DatasetManifest(dataset_name, subjects[0].annotations.scheme, tuple(
        SubjectFiles(s.subject_id, f"{s.subject_id}_ecg.csv", f"{s.subject_id}_ppg.csv",
                     f"{s.subject_id}_annotations.csv", s.ecg.sample_rate_hz,
                     s.ppg.sample_rate_hz, s.annotations.sample_rate_hz)
        for s in subjects
    ))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for subject, entry in zip(subjects, manifest.subjects):
        _write_table(out_dir / entry.ecg_file, _HEADERS["signal"], subject.ecg.samples)
        _write_table(out_dir / entry.ppg_file, _HEADERS["signal"], subject.ppg.samples)
        _write_table(out_dir / entry.annotation_file, _HEADERS[subject.annotations.scheme],
                     subject.annotations.values)
    manifest_path = out_dir / "manifest.json"
    write_manifest(manifest, manifest_path)
    return manifest_path


def _write_document(doc, path: str | Path):
    """doc as indented JSON with sorted keys, floats at full precision."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(manifest: DatasetManifest, path: str | Path):
    _write_document(asdict(manifest), path)


def _read_document(path: str | Path):
    """The JSON value a user-written file holds."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        # read_text decodes the whole file at once, so exc.object is all of it.
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line, f"not UTF-8 text: {exc.reason}") from None


def load_manifest(path: str | Path) -> DatasetManifest:
    try:
        return decode(DatasetManifest, _read_document(path))
    except DecodeError as exc:
        raise ParseError(path, 1, f"manifest field error: {exc}") from exc


def _loadtxt_body(path: Path, header: str, dtype) -> np.ndarray | None:
    """The value columns under `header`, from one np.loadtxt parse of every
    column, or None when the line loop must judge the file: a bad header, no
    rows, a field numpy rejects, or rows not all of the header's width.  One
    value column gives a 1-D array, more give one row per line."""
    n_fields = header.count(",") + 1
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # numpy warns on a body without rows.
            if fh.readline().strip() != header or not any(line.strip() for line in fh):
                return None
        rows = np.loadtxt(
            path, delimiter=",", dtype=dtype, comments=None, ndmin=2, skiprows=1,
            encoding="utf-8",
        )
    except ValueError:
        return None
    if rows.shape[1] != n_fields:
        return None
    return (rows[:, 1] if n_fields == 2 else rows[:, 1:]).copy()


def _read_table(path: Path, kind: str | LabelScheme) -> np.ndarray:
    """The canonical table of `kind` at `path`, in one numpy parse or, when
    that declines, in a line loop that accepts what Python's float and int
    accept and raises ParseError on the first bad line.  The array is frozen,
    so the record or track built from it holds it without a copy."""
    signal = kind == "signal"
    expected = _HEADERS[kind]
    dtype = np.int64 if kind is LabelScheme.DISCRETE_STATE else np.float64
    values = _loadtxt_body(path, expected, dtype)
    if values is not None:
        values.setflags(write=False)
        return values
    n_fields = expected.count(",") + 1
    parse = int if dtype is np.int64 else float
    rows = []
    # A byte that is not UTF-8 stays in its field as a lone surrogate, so it
    # fails that field's parse on its own line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().strip()
        if header != expected:
            raise ParseError(path, 1, f"expected header {expected!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n_fields:
                raise ParseError(path, lineno, f"expected {n_fields} fields, got {len(parts)}")
            try:
                row = [parse(p) for p in parts[1:]]
                if parse is int and not _INT64.min <= min(row) <= max(row) <= _INT64.max:
                    raise ValueError("label outside int64")
            except ValueError:
                message = (f"non-numeric value {parts[1]!r}" if signal
                           else f"malformed annotation row {line!r}")
                raise ParseError(path, lineno, message) from None
            rows.append(row)
    values = np.array(rows, dtype=dtype)
    values.setflags(write=False)
    return values.ravel() if n_fields == 2 else values


def load_dataset(
    manifest: DatasetManifest, base_dir: str | Path
) -> list[SubjectData]:
    """Load every subject of a canonical dataset; each stream and subject is
    checked as it is built (see SignalRecord, AnnotationTrack, SubjectData)."""
    base_dir = Path(base_dir)
    subjects = []
    for entry in manifest.subjects:
        sid = entry.subject_id
        subjects.append(
            SubjectData(
                subject_id=sid,
                ecg=SignalRecord(sid, Modality.ECG, entry.ecg_rate_hz,
                                 _read_table(base_dir / entry.ecg_file, "signal")),
                ppg=SignalRecord(sid, Modality.PPG, entry.ppg_rate_hz,
                                 _read_table(base_dir / entry.ppg_file, "signal")),
                annotations=AnnotationTrack(
                    manifest.label_scheme, entry.annotation_rate_hz,
                    _read_table(base_dir / entry.annotation_file, manifest.label_scheme),
                ),
            )
        )
    return subjects


def load_synthetic_spec(path: str | Path) -> SyntheticSpec:
    try:
        return decode(SyntheticSpec, _read_document(path))
    except DecodeError as exc:
        raise InvalidSpecError(f"synthetic spec field error: {exc}") from exc


def write_ground_truth(truth: SyntheticGroundTruth, path: str | Path):
    _write_document({
        "beat_times_s": [float(t) for t in truth.beat_times_s],
        "ppg_pulse_times_s": [float(t) for t in truth.ppg_pulse_times_s],
        "rr_ms": [float(v) for v in truth.rr_ms],
        "state_spans": [[label, t0, t1] for label, t0, t1 in truth.state_spans],
        "respiratory_rate_hz": truth.respiratory_rate_hz,
        "respiratory_rr_modulation_ms": truth.respiratory_rr_modulation_ms,
    }, path)
