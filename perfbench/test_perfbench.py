"""Smoke tests for the benchmark itself, at tiny scale.

Run from the repository root:  python -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import calibrate
import run
import tracing
import workloads
from hrvaffect import ingest, pipeline

REPO = Path(__file__).resolve().parent.parent


def span(name, start, end, parent=None, run_id="pass0"):
    return tracing.Span(name, start, end, parent, run_id)


def test_merged_length_unions_overlaps_and_skips_empty():
    assert tracing.merged_length([]) == 0.0
    assert tracing.merged_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert tracing.merged_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.5)]) == 3.0
    assert tracing.merged_length([(1.0, 4.0), (0.0, 2.0), (2.0, 3.0)]) == 4.0


def test_self_time_is_span_minus_child_coverage():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 5.0, 9.0, parent=0),
        span("a.leaf", 2.0, 3.0, parent=1),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 4.0, 1.0]
    # Nested spans telescope: self times add up to the root's duration.
    assert sum(tracing.self_times(spans)) == 10.0


def test_self_time_clips_children_to_parent_and_merges_overlap():
    spans = [
        span("root", 0.0, 4.0),
        span("x", -1.0, 1.0, parent=0),
        span("y", 0.5, 2.0, parent=0),
    ]
    assert tracing.self_times(spans)[0] == 2.0


def test_tracer_records_nesting_failures_and_work():
    tracer = tracing.Tracer()
    tracer.run_id = "pass0"

    def inner(n):
        if n < 0:
            raise ValueError("negative")
        return list(range(n))

    traced_inner = tracer.wrap("inner", inner, lambda a, k, r: {"items": len(r)})
    outer = tracer.wrap("outer", lambda: traced_inner(3) + traced_inner(2))
    outer()
    with pytest.raises(ValueError):
        traced_inner(-1)
    table = tracing.aggregate(tracer.spans)["pass0"]
    assert table["inner"]["calls"] == 3
    assert table["inner"]["fails"] == 1
    assert table["inner"]["items"] == 5
    assert [s.parent for s in tracer.spans] == [None, 0, 0, None]
    assert table["outer"]["self_s"] <= table["outer"]["total_s"]


def test_median_tables_counts_missing_entries_as_zero():
    merged = tracing.median_tables([
        {"f": {"calls": 1, "self_s": 1.0}},
        {"f": {"calls": 3, "self_s": 3.0}},
        {},
    ])
    assert merged == {"f": {"calls": 1, "self_s": 1.0}}


def test_installed_wraps_every_target_and_restores_it():
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in tracing.targets()]
    with tracing.Installed(tracing.Tracer()):
        assert pipeline.detect_beats is not before[0][2]
        assert all(
            getattr(owner, attr).__wrapped__ is original for owner, attr, original in before
        )
    assert all(getattr(owner, attr) is original for owner, attr, original in before)


def test_workload_specs_follow_the_seed():
    assert workloads.quickstart_spec(0)["seed"] == 11
    assert workloads.quickstart_spec(3)["seed"] == 14
    assert workloads.twin_spec("low", 0)["ppg_rate_hz"] == 64.0
    assert workloads.cohort_specs(4, 3) == workloads.cohort_specs(4, 3)
    assert workloads.cohort_specs(4, 3) != workloads.cohort_specs(5, 3)
    offsets = {s.states[0].mean_bpm for s in workloads.cohort_specs(0, 8)}
    assert len(offsets) == 8
    for cls in workloads.WORKLOADS.values():
        configs = [step.config for seed in (0, 3) for step in cls(seed, Path("w")).chain()]
        assert len({config.seed for config in configs}) == 1


def test_cohort_prepare_writes_a_loadable_deterministic_dataset(tmp_path):
    digests = []
    for name in ("a", "b"):
        cohort = workloads.Cohort(1, tmp_path / name, n_subjects=2, duration_s=20.0)
        cohort.prepare()
        manifest_path = tmp_path / name / "data" / "manifest.json"
        manifest = ingest.load_manifest(manifest_path)
        subjects = ingest.load_dataset(manifest, manifest_path.parent)
        assert [s.subject_id for s in subjects] == ["S01", "S02"]
        assert subjects[0].ecg.samples.size == 20 * 700
        digests.append(run.tree_digest([tmp_path / name / "data"]))
    assert digests[0] == digests[1]


@pytest.fixture
def at_repo_root(monkeypatch):
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "SRC", REPO / "src")


def test_tiny_twins_traced_pass_checks_and_counts(tmp_path, at_repo_root):
    workload = workloads.Twins(0, tmp_path, duration_s=400.0, n_trees=3)
    tracer = tracing.Tracer()
    bench = run.Bench(workload)
    with tracing.Installed(tracer):
        bench.setup(tracer, "setup0")
        passes = [bench.run_pass(tracer, f"pass{k}") for k in range(2)]
    untraced = [bench.run_pass()]
    metrics = run.per_layer(bench, tracer, untraced, passes)
    assert bench.failed == 0, bench.problems
    assert metrics["learn.train_extra_trees.trees"][0] == 2 * 2 * 6 * 3
    assert metrics["hrv.detect_beats.calls"][0] == 2 * metrics["dsp.segment_windows.windows"][0]
    assert metrics["ingest.load_dataset.bytes"][0] == 0
    assert metrics["explain.shapley_explain.calls"][0] == 0
    names = {m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]}
    assert names == set(metrics)


def test_changed_output_fails_the_identity_check(tmp_path, at_repo_root):
    workload = workloads.Twins(1, tmp_path, duration_s=400.0, n_trees=3)
    bench = run.Bench(workload)
    bench.setup()
    bench.run_pass()
    bench.digest = "0" * 64
    bench.run_pass()
    assert bench.problems == ["outputs_identical"]


def test_failed_stage_is_counted_and_ends_the_pass(tmp_path):
    workload = workloads.Twins(0, tmp_path, duration_s=400.0, n_trees=3)
    bench = run.Bench(workload)  # no set-up: the spec files are missing
    result = bench.run_pass()
    assert not result["ok"]
    assert (bench.attempted, bench.failed, bench.problems) == (1, 1, ["high.extract"])


def test_sampler_times_the_kernel_and_restores_the_handler():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    sampler = calibrate.Sampler()
    with sampler:
        end = time.perf_counter() + 4 * calibrate.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2
    assert sampler.spent_s >= sum(sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_end_to_end_scales_each_pass_by_its_own_kernel_times():
    ref = calibrate.REFERENCE_S
    bench = run.Bench(workloads.Twins(0, Path("unused")))
    bench.sampler = calibrate.Sampler()
    bench.setup_speed = [ref, ref, 2 * ref, 2 * ref]
    passes = [
        {"wall_s": 2.0, "speed": [ref, ref, 9 * ref]},
        {"wall_s": 4.0, "speed": [2 * ref]},
        {"wall_s": 3.0, "speed": [3 * ref]},
    ]
    metrics = run.end_to_end(bench, passes, [1.0, 4.0])
    assert metrics["wall_s"] == (pytest.approx(2.0), "s")
    assert metrics["setup_s"] == (pytest.approx(1.5), "s")
