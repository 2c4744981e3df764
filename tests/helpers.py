"""Scaffolding that several test modules share: the README's JSON documents,
the environment of a child Python, beat series built from RR intervals,
synthetic subjects, and wearable-stress subject pickles."""

import os
import pickle
import re
from pathlib import Path

import numpy as np

import hrvaffect
from hrvaffect.hrv import BeatSeries
from hrvaffect.ingest import StateSpec, SyntheticSpec, generate_synthetic

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_json_blocks() -> list[str]:
    """The text of each ```json block in the README, in order: the quick-start
    synthetic spec first, then its config."""
    return re.findall(r"```json\n(.*?)```", README.read_text(), re.S)


def package_env() -> dict:
    """Environment whose Python finds the package this process imported, ahead
    of any installed copy, also from a directory where a relative PYTHONPATH
    such as `src` does not resolve."""
    package_root = str(Path(hrvaffect.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([package_root, inherited]) if inherited else package_root,
    }


def beats_from_rr(rr_ms) -> BeatSeries:
    """Beats one sample apart whose RR intervals are rr_ms, every one accepted."""
    rr_ms = np.asarray(rr_ms, dtype=np.float64)
    return BeatSeries(
        peak_indices=np.arange(rr_ms.size + 1),
        rr_ms=rr_ms,
        accepted=np.ones(rr_ms.size, dtype=bool),
    )


def synthetic_subject(ecg_rate, ppg_rate, seed, labels=("baseline", "stress")):
    """240 s of synthetic recording, 120 s in each of two states 27 BPM apart."""
    bpm = {"baseline": 65.0, "stress": 92.0, "LALV": 65.0, "HAHV": 92.0}
    spec = SyntheticSpec(
        duration_s=240.0,
        ecg_rate_hz=ecg_rate,
        ppg_rate_hz=ppg_rate,
        states=tuple(StateSpec(label, bpm[label], 20.0, 120.0) for label in labels),
        respiratory_rate_hz=0.25,
        respiratory_rr_modulation_ms=25.0,
        noise_std=0.02,
        seed=seed,
    )
    subject, _ = generate_synthetic(spec)
    return subject


def flat_wesad_pickle(path: Path):
    """A 1 s wearable-stress subject pickle at path: flat ECG and BVP at the
    export's rates, every label baseline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "signal": {"chest": {"ECG": np.zeros((700, 1))}, "wrist": {"BVP": np.zeros((64, 1))}},
        "label": np.ones(700, dtype=np.int64),
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=2)


def synthetic_wesad_export(raw: Path) -> Path:
    """raw holding a wearable-stress export of subjects S2 and S3, each a
    synthetic subject in the export's pickle layout and at its rates."""
    for i, seed in ((2, 31), (3, 32)):
        subject = synthetic_subject(700.0, 64.0, seed)
        subject_dir = raw / f"S{i}"
        subject_dir.mkdir(parents=True)
        payload = {
            "subject": f"S{i}",
            "signal": {
                "chest": {"ECG": np.asarray(subject.ecg.samples).reshape(-1, 1)},
                "wrist": {"BVP": np.asarray(subject.ppg.samples).reshape(-1, 1)},
            },
            "label": np.asarray(subject.annotations.values),
        }
        with open(subject_dir / f"S{i}.pkl", "wb") as fh:
            pickle.dump(payload, fh, protocol=2)
    return raw
