"""Best-effort adapters from published dataset exports to the canonical format.

Both adapters only re-encode what the exports already contain; they never ship
data.  The wearable-stress export keeps chest ECG at 700 Hz, wrist blood-volume
pulse at 64 Hz and label codes at 700 Hz.  The continuous-annotation export
keeps both physiological channels at 1000 Hz with joystick arousal/valence at
20 Hz, min-max normalized per subject onto the 0.5-9.5 scale.
"""

from __future__ import annotations

import csv
import pickle
from pathlib import Path

import numpy as np

from .core import AV_RANGE, AnnotationTrack, LabelScheme, Modality, SignalRecord
from .ingest import SubjectData, write_canonical

WESAD_ECG_RATE_HZ = 700.0
WESAD_PPG_RATE_HZ = 64.0
WESAD_LABEL_RATE_HZ = 700.0
CASE_SIGNAL_RATE_HZ = 1000.0
CASE_ANNOTATION_RATE_HZ = 20.0


class UnrecognizedLayoutError(ValueError):
    pass


# What pickle.load raises on a truncated or damaged file: the classes its
# documentation names, and the ValueError and TypeError of a damaged array.
_UNPICKLING_ERRORS = (
    pickle.UnpicklingError, AttributeError, EOFError, ImportError, IndexError, TypeError, ValueError,
)


def _wesad_subject_pickles(raw_root: Path) -> list[Path]:
    nested = sorted(raw_root.glob("S*/S*.pkl"))
    if nested:
        return nested
    flat = sorted(raw_root.glob("S*.pkl"))
    if flat:
        return flat
    raise UnrecognizedLayoutError(
        f"no S*/S*.pkl or S*.pkl subject pickles under {raw_root}"
    )


def adapt_wesad(raw_root: str | Path, out_dir: str | Path) -> Path:
    """Convert a wearable-stress export tree to canonical files + manifest."""
    raw_root = Path(raw_root)
    subjects = []
    for pkl_path in _wesad_subject_pickles(raw_root):
        with open(pkl_path, "rb") as fh:
            try:
                # Subject pickles were produced under Python 2.
                data = pickle.load(fh, encoding="latin1")
            except _UNPICKLING_ERRORS as exc:
                raise UnrecognizedLayoutError(f"{pkl_path}: not a readable pickle: {exc!r}") from exc
        try:
            ecg = np.asarray(data["signal"]["chest"]["ECG"], dtype=np.float64).reshape(-1)
            bvp = np.asarray(data["signal"]["wrist"]["BVP"], dtype=np.float64).reshape(-1)
            labels = np.asarray(data["label"], dtype=np.int64).reshape(-1)
        except (KeyError, TypeError, ValueError) as exc:
            raise UnrecognizedLayoutError(
                f"{pkl_path}: expected signal.chest.ECG, signal.wrist.BVP and label: {exc}"
            ) from exc
        sid = pkl_path.stem
        subjects.append(
            SubjectData(
                subject_id=sid,
                ecg=SignalRecord(sid, Modality.ECG, WESAD_ECG_RATE_HZ, ecg),
                ppg=SignalRecord(sid, Modality.PPG, WESAD_PPG_RATE_HZ, bvp),
                annotations=AnnotationTrack(
                    LabelScheme.DISCRETE_STATE, WESAD_LABEL_RATE_HZ, labels
                ),
            )
        )
    return write_canonical(subjects, "wesad", out_dir)


def _minmax_to_av(values: np.ndarray) -> np.ndarray:
    lo, hi = AV_RANGE
    vmin, vmax = float(values.min()), float(values.max())
    if vmax == vmin:
        return np.full(values.shape, (lo + hi) / 2.0)
    # Rounding can carry an end a few ulps past the range; clipping leaves
    # every value inside it bit for bit.
    return np.clip(lo + (values - vmin) * (hi - lo) / (vmax - vmin), lo, hi)


def _read_case_csv(path: Path, wanted: tuple[str, ...]) -> dict[str, np.ndarray]:
    # A byte that is not UTF-8 stays in its cell as a lone surrogate, so the
    # header check or that cell's float() refuses it, naming the file.
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(wanted) <= set(reader.fieldnames):
            raise UnrecognizedLayoutError(
                f"{path}: expected columns {wanted}, found {reader.fieldnames}"
            )
        columns: dict[str, list[float]] = {name: [] for name in wanted}
        for row in reader:
            for name in wanted:
                try:
                    # A short row holds None for the cells it lacks.
                    columns[name].append(float(row[name]))
                except (TypeError, ValueError):
                    raise UnrecognizedLayoutError(
                        f"{path}:{reader.line_num}: expected a number in column {name!r}, "
                        f"got {row[name]!r}"
                    ) from None
    if not columns[wanted[0]]:
        raise UnrecognizedLayoutError(f"{path}: no data rows under the header")
    return {name: np.array(vals, dtype=np.float64) for name, vals in columns.items()}


def adapt_case(raw_root: str | Path, out_dir: str | Path) -> Path:
    """Convert a continuous-annotation export tree to canonical files + manifest.

    Expects raw_root/physiological/sub_<n>.csv with ecg and bvp columns and
    raw_root/annotations/sub_<n>.csv with arousal and valence columns.
    """
    raw_root = Path(raw_root)
    phys_dir = raw_root / "physiological"
    ann_dir = raw_root / "annotations"
    phys_files = sorted(phys_dir.glob("sub_*.csv")) if phys_dir.is_dir() else []
    if not phys_files or not ann_dir.is_dir():
        raise UnrecognizedLayoutError(
            f"expected physiological/sub_*.csv and annotations/ under {raw_root}"
        )
    subjects = []
    for phys_path in phys_files:
        ann_path = ann_dir / phys_path.name
        if not ann_path.exists():
            raise UnrecognizedLayoutError(f"missing annotation file {ann_path}")
        phys = _read_case_csv(phys_path, ("ecg", "bvp"))
        ann = _read_case_csv(ann_path, ("arousal", "valence"))
        av = np.column_stack(
            [_minmax_to_av(ann["arousal"]), _minmax_to_av(ann["valence"])]
        )
        sid = phys_path.stem
        subjects.append(
            SubjectData(
                subject_id=sid,
                ecg=SignalRecord(sid, Modality.ECG, CASE_SIGNAL_RATE_HZ, phys["ecg"]),
                ppg=SignalRecord(sid, Modality.PPG, CASE_SIGNAL_RATE_HZ, phys["bvp"]),
                annotations=AnnotationTrack(
                    LabelScheme.AROUSAL_VALENCE, CASE_ANNOTATION_RATE_HZ, av
                ),
            )
        )
    return write_canonical(subjects, "case", out_dir)
