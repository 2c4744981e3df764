"""Synthetic experiments, run through the pipeline's own stages.

Each spec table is defined here once, and scripts and tests build its specs
by name:

  twins    four states (mean BPM 65/67/69/90, the first three deliberately
           overlapping) at high fidelity (ECG and PPG 1000 Hz, low noise) and
           at low fidelity (ECG 700 Hz, PPG 64 Hz, much higher noise). They
           vary the states on mean BPM alone.
  planted  four states that differ in one planted factor: jitter (every state
           at 70 BPM, beat jitter 10/40/80/120 ms), bpm (60/70/80/90 BPM) and
           jitter-low (the jitter states at low fidelity).

Usage: python -m hrvaffect.experiments {twins,planted} [--seed N] [--duration S] [--n-trees N]
"""

import argparse
import json
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

from . import pipeline
from .ingest import StateSpec, SyntheticSpec
from .learn import DEFAULT_N_TREES, LearnConfig

STATES = (("baseline", 65.0), ("amusement", 67.0), ("meditation", 69.0), ("stress", 90.0))
SEED = 22
DURATION_S = 2400.0
JITTER_MS = 50.0
EVAL_SEED = 7
# (ECG rate, PPG rate, noise_std) of each twin.
FIDELITY = {"high": (1000.0, 1000.0, 0.01), "low": (700.0, 64.0, 0.3)}
# The fidelity and the per-state (mean BPM, jitter ms) of each planted spec.
_JITTER_ONLY = ((70.0, 10.0), (70.0, 40.0), (70.0, 80.0), (70.0, 120.0))
PLANTED = {
    "jitter": ("high", _JITTER_ONLY),
    "bpm": ("high", tuple((bpm, JITTER_MS) for bpm in (60.0, 70.0, 80.0, 90.0))),
    "jitter-low": ("low", _JITTER_ONLY),
}


def _spec(fidelity: str, beats, seed: int, duration_s: float) -> SyntheticSpec:
    """A spec at `fidelity` whose states, labelled as the twins', take their
    (mean BPM, jitter ms) from `beats`."""
    ecg_rate, ppg_rate, noise_std = FIDELITY[fidelity]
    return SyntheticSpec(
        duration_s=duration_s,
        ecg_rate_hz=ecg_rate,
        ppg_rate_hz=ppg_rate,
        states=tuple(
            StateSpec(label, bpm, jitter_ms, duration_s / len(STATES))
            for (label, _), (bpm, jitter_ms) in zip(STATES, beats)
        ),
        respiratory_rate_hz=0.25,
        respiratory_rr_modulation_ms=30.0,
        noise_std=noise_std,
        seed=seed,
    )


def twin_spec(fidelity: str, seed: int = SEED, duration_s: float = DURATION_S) -> SyntheticSpec:
    """The twin named `fidelity`, a key of FIDELITY."""
    return _spec(fidelity, [(bpm, JITTER_MS) for _, bpm in STATES], seed, duration_s)


def planted_spec(name: str, seed: int = SEED, duration_s: float = DURATION_S) -> SyntheticSpec:
    """The planted spec named `name`, a key of PLANTED."""
    fidelity, beats = PLANTED[name]
    return _spec(fidelity, beats, seed, duration_s)


# Each table's spec builder and the names it takes.
TABLES = {"twins": (twin_spec, FIDELITY), "planted": (planted_spec, PLANTED)}


def run_spec(spec: SyntheticSpec, work_dir, n_trees: int = DEFAULT_N_TREES) -> dict:
    """Write spec as work_dir/spec.json, run the five model stages on it into
    work_dir/run with Extra-Trees alone, and return the report.json document."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    spec_path = work_dir / "spec.json"
    spec_path.write_text(json.dumps(asdict(spec)), encoding="utf-8")
    config = pipeline.PipelineConfig(
        out_dir=str(work_dir / "run"), synthetic_spec_path=str(spec_path), seed=EVAL_SEED,
        learn=LearnConfig(n_trees=n_trees, families=("extra_trees",)),
    )
    for stage in (pipeline.stage_extract, pipeline.stage_variance, pipeline.stage_train_eval,
                  pipeline.stage_importance):
        stage(config)
    return json.loads(pipeline.stage_report(config).read_text(encoding="utf-8"))


def holdout_gap(report: dict) -> float:
    """ECG minus PPG holdout accuracy."""
    modalities = report["metrics"]["modalities"]
    return modalities["ECG"]["holdout_accuracy"] - modalities["PPG"]["holdout_accuracy"]


def describe(name: str, report: dict):
    print(f"\n{name}: mean normalized inter-signal variance "
          f"{report['variance']['mean_normalized_variance']:.4f}, "
          f"ECG-minus-PPG holdout gap {holdout_gap(report):+.3f}")
    for modality, metrics in report["metrics"]["modalities"].items():
        cv = metrics["families"]["extra_trees"]["mean_cv_accuracy"]
        aucs = ", ".join(f"{label}={auc:.3f}" for label, auc in metrics["roc_auc"].items())
        print(f"  {modality}: holdout accuracy {metrics['holdout_accuracy']:.3f}   "
              f"CV accuracy {cv:.3f}   OVR AUC: {aucs}")
        print(f"       top 5 features: {', '.join(report['importance']['rankings'][modality][:5])}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("table", choices=TABLES)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--duration", type=float, default=DURATION_S)
    parser.add_argument("--n-trees", type=int, default=DEFAULT_N_TREES)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    build, names = TABLES[args.table]
    with tempfile.TemporaryDirectory() as work:
        for name in names:
            spec = build(name, args.seed, args.duration)
            describe(name, run_spec(spec, Path(work) / name, args.n_trees))
    print(f"\nelapsed {time.perf_counter() - start:.0f}s")


if __name__ == "__main__":
    main()
