"""The experiment runner and its spec tables.

perfbench/workloads.py writes the twins as JSON documents of its own; one
test loads it by path and requires each of its specs to decode to the
library twin of the same name, so the two definitions cannot drift apart.
run_spec is checked against evaluate on featurize rows, the chain it
replaced, and the planted specs against the factor each of them varies.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from hrvaffect import experiments
from hrvaffect.hrv import FEATURE_NAMES
from hrvaffect.ingest import SyntheticSpec, generate_synthetic
from hrvaffect.learn import LearnConfig, evaluate
from hrvaffect.pipeline import IMPORTANCE, PipelineConfig, feature_variance, featurize, modality_matrix
from hrvaffect.serialize import decode, round9

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while they are built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(experiments.FIDELITY))
def test_perfbench_twins_are_the_library_twins(workloads, name, seed):
    assert decode(SyntheticSpec, workloads.twin_spec(name, seed)) == experiments.twin_spec(
        name, seed=experiments.SEED + seed, duration_s=1800.0
    )


def test_run_spec_reports_what_evaluate_gives_on_featurize_rows(tmp_path):
    spec = experiments.twin_spec("high", duration_s=300.0)
    report = experiments.run_spec(spec, tmp_path, n_trees=10)
    rows, _ = featurize([generate_synthetic(spec)[0]], PipelineConfig())
    assert report["variance"]["mean_normalized_variance"] == pytest.approx(
        feature_variance(rows).mean_normalized(), rel=1e-8
    )
    config = LearnConfig(n_trees=10, families=("extra_trees",))
    for modality in ("ECG", "PPG"):
        X, y, _, _, _ = modality_matrix(rows, modality)
        want, _ = evaluate(X, y, FEATURE_NAMES, config, experiments.EVAL_SEED)
        got = report["metrics"]["modalities"][modality]
        assert got["holdout_accuracy"] == round9(want.holdout_accuracy)
        assert got["families"]["extra_trees"]["mean_cv_accuracy"] == round9(
            want.families["extra_trees"].mean_accuracy
        )
        assert got["roc_auc"] == {label: round9(curve.auc) for label, curve in want.roc.items()}


VARIABILITY = {"sdnn", "sdsd", "rmssd", "pnn20", "pnn50", "mad", "sd1", "sd2", "s"}


def test_importance_ranks_the_planted_factor_first(tmp_path):
    reports = {
        name: experiments.run_spec(
            experiments.planted_spec(name, duration_s=1200.0), tmp_path / name, n_trees=50
        )
        for name in experiments.PLANTED
    }
    # The low-fidelity row is a finding to read, not a gate.
    experiments.describe("jitter-low", reports["jitter-low"])
    jitter = reports["jitter"]
    state_rows = IMPORTANCE.read(tmp_path / "jitter" / "run", jitter["config_hash"])
    for modality in ("ECG", "PPG"):
        ranking = jitter["importance"]["rankings"][modality]
        assert set(ranking[:3]) <= VARIABILITY, ranking
        assert not {"bpm", "ibi"} & set(ranking[:5]), ranking
        leaders = {
            scope: feature
            for _, (row_modality, feature, scope, _, rank) in state_rows
            if row_modality == modality and scope != "global" and rank == 1
        }
        assert sorted(leaders) == sorted(label for label, _ in experiments.STATES)
        assert set(leaders.values()) <= VARIABILITY, leaders
        assert set(reports["bpm"]["importance"]["rankings"][modality][:2]) == {"bpm", "ibi"}


def test_the_module_prints_each_spec_of_a_table(capsys):
    experiments.main(["planted", "--duration", "300", "--n-trees", "5"])
    out = capsys.readouterr().out
    for name in experiments.PLANTED:
        assert f"\n{name}: mean normalized inter-signal variance " in out
    assert out.count("top 5 features: ") == 2 * len(experiments.PLANTED)
