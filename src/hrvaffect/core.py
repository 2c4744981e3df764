"""Core domain types shared by every stage of the ECG/PPG affect pipeline.

All types live on a per-subject shared clock: sample ``i`` of a stream sits at
``start_time_s + i / sample_rate_hz`` seconds.  Everything is immutable after
construction, so records, tracks and windows can be handed to parallel workers
without synchronization.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Modality(str, enum.Enum):
    ECG = "ECG"
    PPG = "PPG"


class LabelScheme(str, enum.Enum):
    DISCRETE_STATE = "discrete_state"
    AROUSAL_VALENCE = "arousal_valence"


# Discrete protocol codes: 0 is transient, 1-4 carry affect labels, 5-7 are
# auxiliary stages.  Codes 0 and 5-7 never survive label resolution.
DISCRETE_CODE_LABELS = {1: "baseline", 2: "stress", 3: "amusement", 4: "meditation"}
DISCRETE_LABEL_CODES = {label: code for code, label in DISCRETE_CODE_LABELS.items()}
DISCARDED_CODES = frozenset({0, 5, 6, 7})
KNOWN_CODES = range(8)

# Arousal/valence axes after normalization; means <= AV_LOW_MAX bin as "low".
AV_RANGE = (0.5, 9.5)
AV_LOW_MAX = 5.0
AV_QUADRANTS = ("LALV", "LAHV", "HALV", "HAHV")


def av_quadrant(arousal_low: bool, valence_low: bool) -> str:
    """Quadrant label for binned arousal/valence, e.g. (low, high) -> 'LAHV'."""
    return ("L" if arousal_low else "H") + "A" + ("L" if valence_low else "H") + "V"


class ValidationError(ValueError):
    """A record or annotation track violates a structural invariant."""


class EmptySignalError(ValidationError):
    pass


class NonPositiveRateError(ValidationError):
    pass


class NonFiniteSampleError(ValidationError):
    def __init__(self, index: int, message: str | None = None):
        self.index = int(index)
        super().__init__(message or f"non-finite sample at index {index}")


class ValueOutOfRangeError(ValidationError):
    def __init__(self, index: int, value: float, message: str | None = None):
        self.index = int(index)
        self.value = float(value)
        super().__init__(message or f"value {value} at index {index} outside {AV_RANGE}")


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    """values as a read-only C-contiguous array of dtype.  An array that
    already is one, and that views only arrays nobody can write, is shared;
    anything else is copied, so no caller can change a value held here."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.flags.c_contiguous):
        owner = values
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            owner = owner.base
        if owner is None:
            return values
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def check_av_range(values: np.ndarray):
    """Raise ValueOutOfRangeError at the first row of (arousal, valence) pairs
    holding a value outside AV_RANGE; NaN is outside."""
    lo, hi = AV_RANGE
    outside = np.argwhere(~((values >= lo) & (values <= hi)))
    if outside.size:
        row, col = outside[0]
        raise ValueOutOfRangeError(int(row), float(values[row, col]))


@dataclass(frozen=True, eq=False)
class SignalRecord:
    """One uniformly sampled waveform of one modality for one subject.

    Construction checks, in order: positive rate, non-empty, all samples
    finite; the finite check names the first offending index.
    """

    subject_id: str
    modality: Modality
    sample_rate_hz: float
    samples: np.ndarray
    start_time_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "modality", Modality(self.modality))
        object.__setattr__(self, "samples", _frozen_array(self.samples))
        if not self.sample_rate_hz > 0:
            raise NonPositiveRateError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if self.samples.size == 0:
            raise EmptySignalError(f"record {self.subject_id}/{self.modality} has no samples")
        finite = np.isfinite(self.samples)
        if not finite.all():
            raise NonFiniteSampleError(int(np.argmin(finite)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignalRecord):
            return NotImplemented
        return (
            self.subject_id == other.subject_id
            and self.modality == other.modality
            and self.sample_rate_hz == other.sample_rate_hz
            and self.start_time_s == other.start_time_s
            and self.samples.shape == other.samples.shape
            and bool(np.array_equal(self.samples, other.samples))
        )

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


@dataclass(frozen=True, eq=False)
class AnnotationTrack:
    """Time-indexed affect labels: integer codes or (arousal, valence) pairs.

    Construction checks the scheme's shape, a positive rate and at least one
    sample, then that every code is known, or every pair finite and in AV_RANGE.
    """

    scheme: LabelScheme
    sample_rate_hz: float
    values: np.ndarray  # (n,) int64 codes, or (n, 2) float64 arousal/valence
    start_time_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "scheme", LabelScheme(self.scheme))
        if self.scheme is LabelScheme.DISCRETE_STATE:
            arr = _frozen_array(self.values, np.int64)
            if arr.ndim != 1:
                raise ValidationError("discrete annotation values must be 1-D codes")
        else:
            arr = _frozen_array(self.values, np.float64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValidationError("arousal/valence values must have shape (n, 2)")
        object.__setattr__(self, "values", arr)
        if not self.sample_rate_hz > 0:
            raise NonPositiveRateError(f"annotation rate must be positive, got {self.sample_rate_hz}")
        if arr.shape[0] == 0:
            raise EmptySignalError("annotation track has no samples")
        if self.scheme is LabelScheme.DISCRETE_STATE:
            known = (arr >= KNOWN_CODES.start) & (arr < KNOWN_CODES.stop)
            if not known.all():
                idx = int(np.argmin(known))
                raise ValidationError(f"unknown annotation code {arr[idx]} at index {idx}")
        else:
            finite = np.isfinite(arr)
            if not finite.all():
                raise NonFiniteSampleError(int(np.argwhere(~finite)[0][0]))
            check_av_range(arr)

    @property
    def n_samples(self) -> int:
        return int(self.values.shape[0])

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


@dataclass(frozen=True, eq=False)
class WindowedSegment:
    """A fixed-length slice of one signal with its resolved affect label.

    Aligned ECG/PPG segments share window_id, subject_id and window_start_s;
    each carries samples at its own rate.
    """

    window_id: int
    subject_id: str
    modality: Modality
    sample_rate_hz: float
    samples: np.ndarray
    label: str
    window_start_s: float

    def __post_init__(self):
        object.__setattr__(self, "modality", Modality(self.modality))
        object.__setattr__(self, "samples", _frozen_array(self.samples))


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic child generator for (seed, stream key).

    Every stochastic operation draws from its own stream so that changing one
    knob (e.g. noise level) never perturbs the draws of another (e.g. beat
    jitter).  Seeds are treated as 64-bit unsigned.
    """
    entropy = int(seed) & 0xFFFFFFFFFFFFFFFF
    seq = np.random.SeedSequence(entropy=entropy, spawn_key=tuple(int(s) for s in stream))
    return np.random.default_rng(seq)


# Stream keys for derive_rng, one per stochastic subsystem.
STREAM_BEATS = 0
STREAM_NOISE = 1
STREAM_SPLIT = 2
STREAM_FOLDS = 3
STREAM_TREES = 4
STREAM_EXPLAIN = 5
STREAM_BACKGROUND = 6
