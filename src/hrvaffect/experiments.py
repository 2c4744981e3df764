"""The fidelity twins: two synthetic recordings with identical affect
structure (four states, mean BPM 65/67/69/90, the first three deliberately
overlapping), acquired at high and at low fidelity:

  high: ECG and PPG both 1000 Hz, low additive noise
  low:  ECG 700 Hz, PPG 64 Hz, much higher additive noise

Scripts and tests build the twins from here by name, so there is one
definition of each.
"""

from .hrv import FEATURE_NAMES
from .ingest import StateSpec, SyntheticSpec, generate_synthetic
from .learn import LearnConfig, evaluate
from .pipeline import PipelineConfig, feature_variance, featurize, modality_matrix

STATES = (("baseline", 65.0), ("amusement", 67.0), ("meditation", 69.0), ("stress", 90.0))
SEED = 22
DURATION_S = 2400.0
JITTER_MS = 50.0
N_TREES = 100
EVAL_SEED = 7
# (ECG rate, PPG rate, noise_std) of each twin.
FIDELITY = {"high": (1000.0, 1000.0, 0.01), "low": (700.0, 64.0, 0.3)}


def twin_spec(fidelity: str, seed: int = SEED, duration_s: float = DURATION_S) -> SyntheticSpec:
    """The twin named `fidelity`, a key of FIDELITY."""
    ecg_rate, ppg_rate, noise_std = FIDELITY[fidelity]
    return SyntheticSpec(
        duration_s=duration_s,
        ecg_rate_hz=ecg_rate,
        ppg_rate_hz=ppg_rate,
        states=tuple(
            StateSpec(label, bpm, JITTER_MS, duration_s / len(STATES))
            for label, bpm in STATES
        ),
        respiratory_rate_hz=0.25,
        respiratory_rr_modulation_ms=30.0,
        noise_std=noise_std,
        seed=seed,
    )


def run_twin(spec: SyntheticSpec, n_trees: int = N_TREES):
    """The twin's inter-signal variance, and each modality's Extra-Trees report."""
    subject, _ = generate_synthetic(spec)
    rows, _ = featurize([subject], PipelineConfig())
    config = LearnConfig(n_trees=n_trees, families=("extra_trees",))
    reports = {}
    for modality in ("ECG", "PPG"):
        X, y, _, _, _ = modality_matrix(rows, modality)
        reports[modality], _ = evaluate(X, y, FEATURE_NAMES, config, EVAL_SEED)
    return feature_variance(rows), reports
