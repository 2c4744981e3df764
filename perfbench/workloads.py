"""The benchmark's workloads: seeded inputs, the stage chain, and output checks.

Each workload turns a seed into pipeline inputs under its work directory
(``prepare``), names the configs and stages a user would run on them
(``chain``), and judges one pass's outputs (``check``).  Seed 0 gives the
reference inputs (README spec seed 11 with config seed 5; twin spec seed 22
with config seed 7); any other seed gives other recordings of the same shape.
The pipeline config, its seed included, does not follow the seed: the model
seed moves the work of forest building and Shapley by several percent from
seed to seed, about twice as much as the recordings do, and that spread would
hide changes to the program.
Sizes are scaled so that a pass (the whole stage chain) takes about 7 s on
a 2-CPU machine and a run fits at least three: quickstart explains one
holdout instance per modality, the twins last 1800 s and grow 40 trees per
forest, and cohort has 8 subjects of 240 s and 50 trees per forest.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from hrvaffect import ingest, pipeline
from hrvaffect.ingest import StateSpec, SyntheticSpec

ALL_STAGES = ("extract", "variance", "train_eval", "importance", "report")
MODEL_STAGES = ("extract", "variance", "train_eval")


@dataclass(frozen=True)
class Step:
    """One pipeline config and the stages run on it, in order."""

    label: str
    config: pipeline.PipelineConfig
    stages: tuple[str, ...]


def _write_json(path: Path, doc: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _features_rows_ok(out_dir: Path) -> bool:
    """features.csv holds one row per modality for every labelled window."""
    stats = _read_json(out_dir / pipeline.EXTRACT_STATS_JSON)
    with open(out_dir / pipeline.FEATURES_CSV, encoding="utf-8") as fh:
        data_rows = sum(1 for line in fh if not line.startswith("#")) - 1
    return data_rows == 2 * stats["windows_labeled"]


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = Path(work_dir)

    def prepare(self):
        """Write the inputs the chain reads (timed as part of set-up)."""
        raise NotImplementedError

    def chain(self) -> list[Step]:
        raise NotImplementedError

    def out_dirs(self) -> list[Path]:
        return [Path(step.config.out_dir) for step in self.chain()]

    def check(self, results: dict) -> list[tuple[str, bool]]:
        """(check name, passed) for one pass; results[(label, stage)] holds
        each stage's return value."""
        checks = [
            (f"{step.label}.features_rows", _features_rows_ok(Path(step.config.out_dir)))
            for step in self.chain()
        ]
        return checks + self.extra_checks(results)

    def extra_checks(self, results: dict) -> list[tuple[str, bool]]:
        return []

    def input_size(self, results: dict) -> dict:
        """Samples, window pairs, training rows and instances explained of a
        finished pass."""
        size = {"samples": 0, "window_pairs": 0, "train_rows": 0, "explained": 0}
        for spec in self.specs():
            size["samples"] += round(spec["duration_s"] * spec["ecg_rate_hz"])
            size["samples"] += round(spec["duration_s"] * spec["ppg_rate_hz"])
        for step in self.chain():
            stats = _read_json(Path(step.config.out_dir) / pipeline.EXTRACT_STATS_JSON)
            size["window_pairs"] += stats["windows_labeled"]
            metrics = results[(step.label, "train_eval")]
            size["train_rows"] += sum(m["n_train"] for m in metrics["modalities"].values())
            explained = results.get((step.label, "importance"), {})
            size["explained"] += sum(m["n_explained"] for m in explained.values())
        return size

    def specs(self) -> list[dict]:
        """The synthetic spec of every recording, as a dict."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# quickstart: the README spec, all five stages
# ---------------------------------------------------------------------------

def quickstart_spec(seed: int, duration_s: float = 540.0) -> dict:
    third = duration_s / 3
    return {
        "duration_s": duration_s,
        "ecg_rate_hz": 700.0,
        "ppg_rate_hz": 64.0,
        "states": [
            {"label": "baseline", "mean_bpm": 65.0, "bpm_jitter_ms": 30.0, "duration_s": third},
            {"label": "stress", "mean_bpm": 90.0, "bpm_jitter_ms": 30.0, "duration_s": third},
            {"label": "amusement", "mean_bpm": 75.0, "bpm_jitter_ms": 30.0, "duration_s": third},
        ],
        "respiratory_rate_hz": 0.25,
        "respiratory_rr_modulation_ms": 30.0,
        "noise_std": 0.02,
        "seed": 11 + seed,
    }


class Quickstart(Workload):
    name = "quickstart"

    def __init__(self, seed, work_dir, duration_s: float = 540.0, max_instances: int = 1):
        super().__init__(seed, work_dir)
        self.duration_s = duration_s
        self.max_instances = max_instances

    def specs(self):
        return [quickstart_spec(self.seed, self.duration_s)]

    def prepare(self):
        _write_json(self.work_dir / "synth_spec.json", self.specs()[0])

    def chain(self):
        config = pipeline.config_from_dict({
            "synthetic_spec_path": str(self.work_dir / "synth_spec.json"),
            "out_dir": str(self.work_dir / "run"),
            "seed": 5,
            "explain": {"max_instances": self.max_instances},
        })
        return [Step("quickstart", config, ALL_STAGES)]

    def extra_checks(self, results):
        report = _read_json(self.work_dir / "run" / pipeline.REPORT_JSON)
        problems = pipeline.validate_schema(report, pipeline.report_schema())
        return [("quickstart.report_schema", not problems)]


# ---------------------------------------------------------------------------
# twins: the two fidelity twins, extract + variance + train-eval
# ---------------------------------------------------------------------------

TWIN_STATES = (("baseline", 65.0), ("amusement", 67.0), ("meditation", 69.0), ("stress", 90.0))
TWIN_FIDELITY = {"high": (1000.0, 1000.0, 0.01), "low": (700.0, 64.0, 0.3)}


def twin_spec(fidelity: str, seed: int, duration_s: float = 1800.0) -> dict:
    ecg_rate, ppg_rate, noise = TWIN_FIDELITY[fidelity]
    return {
        "duration_s": duration_s,
        "ecg_rate_hz": ecg_rate,
        "ppg_rate_hz": ppg_rate,
        "states": [
            {"label": label, "mean_bpm": bpm, "bpm_jitter_ms": 50.0,
             "duration_s": duration_s / len(TWIN_STATES)}
            for label, bpm in TWIN_STATES
        ],
        "respiratory_rate_hz": 0.25,
        "respiratory_rr_modulation_ms": 30.0,
        "noise_std": noise,
        "seed": 22 + seed,
    }


class Twins(Workload):
    name = "twins"

    def __init__(self, seed, work_dir, duration_s: float = 1800.0, n_trees: int = 40):
        super().__init__(seed, work_dir)
        self.duration_s = duration_s
        self.n_trees = n_trees

    def specs(self):
        return [twin_spec(f, self.seed, self.duration_s) for f in TWIN_FIDELITY]

    def prepare(self):
        for fidelity, spec in zip(TWIN_FIDELITY, self.specs()):
            _write_json(self.work_dir / f"spec_{fidelity}.json", spec)

    def chain(self):
        return [
            Step(
                fidelity,
                pipeline.config_from_dict({
                    "synthetic_spec_path": str(self.work_dir / f"spec_{fidelity}.json"),
                    "out_dir": str(self.work_dir / f"run_{fidelity}"),
                    "seed": 7,
                    "learn": {"families": ["extra_trees"], "n_trees": self.n_trees},
                }),
                MODEL_STAGES,
            )
            for fidelity in TWIN_FIDELITY
        ]

    def extra_checks(self, results):
        variance = {f: results[(f, "variance")]["mean_normalized_variance"] for f in TWIN_FIDELITY}
        checks = [("twins.low_fidelity_variance_higher", variance["low"] > variance["high"])]
        if self.seed == 0:
            gap = {}
            for fidelity in TWIN_FIDELITY:
                modalities = results[(fidelity, "train_eval")]["modalities"]
                gap[fidelity] = (
                    modalities["ECG"]["holdout_accuracy"] - modalities["PPG"]["holdout_accuracy"]
                )
            checks.append(("twins.gap_widens", gap["low"] > gap["high"]))
        return checks


# ---------------------------------------------------------------------------
# cohort: a many-subject canonical dataset on disk, loaded through a manifest
# ---------------------------------------------------------------------------

COHORT_STATES = (("baseline", 70.0), ("stress", 88.0), ("amusement", 75.0), ("meditation", 66.0))


def cohort_specs(seed: int, n_subjects: int = 8, duration_s: float = 240.0) -> list[SyntheticSpec]:
    """One spec per subject.  The seed deals out a fixed set of mean-BPM
    offsets, evenly spaced over +-6 BPM, so every seed has the same spread of
    subjects and only their order and noise change."""
    offsets = [-6.0 + 12.0 * i / max(n_subjects - 1, 1) for i in range(n_subjects)]
    random.Random(seed).shuffle(offsets)
    specs = []
    for i, offset in enumerate(offsets):
        specs.append(SyntheticSpec(
            duration_s=duration_s,
            ecg_rate_hz=700.0,
            ppg_rate_hz=64.0,
            states=tuple(
                StateSpec(label, bpm + offset, 40.0, duration_s / len(COHORT_STATES))
                for label, bpm in COHORT_STATES
            ),
            respiratory_rate_hz=0.25,
            respiratory_rr_modulation_ms=30.0,
            noise_std=0.05,
            seed=1000 * seed + i,
        ))
    return specs


class Cohort(Workload):
    name = "cohort"

    def __init__(self, seed, work_dir, n_subjects: int = 8, duration_s: float = 240.0,
                 n_trees: int = 50):
        super().__init__(seed, work_dir)
        self.n_subjects = n_subjects
        self.duration_s = duration_s
        self.n_trees = n_trees

    def specs(self):
        return [asdict(s) for s in cohort_specs(self.seed, self.n_subjects, self.duration_s)]

    def prepare(self):
        subjects = [
            ingest.generate_synthetic(spec, subject_id=f"S{i + 1:02d}")[0]
            for i, spec in enumerate(cohort_specs(self.seed, self.n_subjects, self.duration_s))
        ]
        ingest.write_canonical(subjects, "cohort", self.work_dir / "data")

    def chain(self):
        config = pipeline.config_from_dict({
            "manifest_path": str(self.work_dir / "data" / "manifest.json"),
            "out_dir": str(self.work_dir / "run"),
            "seed": 0,
            "learn": {"subject_wise": True, "n_trees": self.n_trees},
        })
        return [Step("cohort", config, MODEL_STAGES)]


WORKLOADS = {cls.name: cls for cls in (Quickstart, Twins, Cohort)}
