"""Pipeline benchmark: times the hrvaffect stage chain on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload quickstart --seed 0 --seconds 24 --trace 0

Workloads are listed in BENCHMARK.json and defined in perfbench/workloads.py.
One process runs one closed loop: a single caller runs one stage at a time, in
order.  A pass is the whole stage chain; passes repeat while the next one is
expected to end within --seconds (at least MIN_PASSES), and each timing is the
median over passes.  Set-up (package import in a fresh interpreter plus
writing the workload's inputs) is repeated SETUP_REPEATS times and reported
as a median.  wall_s and setup_s are seconds at a fixed reference speed of
the host: perfbench/calibrate.py times a fixed kernel during the stage calls
of each pass and before and after each set-up, each pass and each set-up is
scaled by the median kernel time it saw, and the medians of the scaled times are
reported, so that the host's drift in speed cancels out.  The raw times are
in the info line.  Every pass checks its outputs; failed stage calls and
failed checks are counted against all attempted.

--trace 0 reports the end-to-end metrics from untraced passes.  --trace 1
alternates traced and untraced passes and reports the per-layer metrics listed
in perfbench/layers.json; the spans go to
.perfbench_work/trace-<workload>-<seed>.jsonl, outside every pipeline out_dir.
The last line of standard output is the JSON result; the line before it
records the environment and input sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
MIN_PASSES = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hrvaffect.pipeline; "
    "print(time.perf_counter() - t)"
)
# Exact work counts: a traced pass that disagrees with another fails the run.
EXACT_COUNTS = (
    ("learn.Tree.leaf_ids", "rows"),
    ("learn.train_extra_trees", "trees"),
    ("hrv.detect_beats", "calls"),
    ("ingest.load_dataset", "bytes"),
)


def pin_blas_threads() -> int:
    """One BLAS thread: the pipeline's matrices are small, and one thread keeps
    runs steady.  Must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return 1


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hrvaffect").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def tree_digest(dirs: list[Path]) -> str:
    """Hash of every file's relative path and bytes under the out dirs."""
    digest = hashlib.sha256()
    for base in dirs:
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(f"{base.name}/{path.relative_to(base).as_posix()}".encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def time_import() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


class Bench:
    """Runs one workload's set-ups and passes and counts failed calls and checks."""

    def __init__(self, workload):
        self.workload = workload
        self.steps = workload.chain()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = None
        self.last_results: dict = {}
        # Kernel times around the set-ups and during the untraced passes.
        self.setup_speed: list[float] = []
        self.sampler = None

    def record(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(name)

    def setup(self, tracer=None, run_id: str = "") -> float:
        """One set-up: import in a fresh interpreter, then write the inputs.
        Samples the host's speed before and after it."""
        import calibrate

        self.setup_speed.append(calibrate.sample())
        import_s = time_import()
        shutil.rmtree(self.workload.work_dir, ignore_errors=True)
        self.workload.work_dir.mkdir(parents=True)
        if tracer is not None:
            tracer.run_id = run_id
            root = tracer.begin("bench.setup")
        start = time.perf_counter()
        self.workload.prepare()
        prepare_s = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root)
        self.setup_speed.append(calibrate.sample())
        return import_s + prepare_s

    def run_pass(self, tracer=None, run_id: str = "") -> dict:
        """One closed-loop pass of the whole stage chain; returns its timings.

        An untraced pass samples the host's speed during its stage calls
        with a calibrate.Sampler, leaves the sampler's time out of the stage
        times and returns the kernel times it saw as ``speed``."""
        from hrvaffect import pipeline

        for out_dir in self.workload.out_dirs():
            shutil.rmtree(out_dir, ignore_errors=True)
        stage_s = {}
        results = {}
        chain_ok = True
        sampler = self.sampler if tracer is None else None
        first_sample = len(sampler.samples) if sampler else 0
        if tracer is not None:
            tracer.run_id = run_id
            root = tracer.begin("bench.chain")
        start = time.perf_counter()
        for step, stage in ((step, stage) for step in self.steps for stage in step.stages):
            spent = sampler.spent_s if sampler else 0.0
            t0 = time.perf_counter()
            try:
                with sampler or contextlib.nullcontext():
                    results[(step.label, stage)] = getattr(pipeline, f"stage_{stage}")(step.config)
            except Exception as exc:  # a failed stage is counted and ends the pass
                print(f"{step.label} {stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
                chain_ok = False
            elapsed = time.perf_counter() - t0 - ((sampler.spent_s - spent) if sampler else 0.0)
            stage_s[stage] = stage_s.get(stage, 0.0) + elapsed
            self.record(f"{step.label}.{stage}", chain_ok)
            if not chain_ok:
                break
        wall = sum(stage_s.values()) if sampler else time.perf_counter() - start
        if tracer is not None:
            tracer.end(root)
            wall = tracer.spans[root].end - tracer.spans[root].start
        if chain_ok:
            self.last_results = results
            for name, ok in self.workload.check(results):
                self.record(name, ok)
            digest = tree_digest(self.workload.out_dirs())
            if self.digest is None:
                self.digest = digest
            else:
                self.record("outputs_identical", digest == self.digest)
        speed = sampler.samples[first_sample:] if sampler else []
        return {"wall_s": wall, "stage_s": stage_s, "ok": chain_ok, "speed": speed}


def stage_medians(passes: list[dict]) -> dict:
    """Median wall time of each stage over the passes."""
    stages = sorted({stage for p in passes for stage in p["stage_s"]})
    return {
        stage: statistics.median(p["stage_s"].get(stage, 0.0) for p in passes)
        for stage in stages
    }


def end_to_end(bench: Bench, passes: list[dict], setups: list[float]) -> dict:
    """Medians over the run of wall_s and setup_s, each pass and set-up at
    the reference speed.  A pass too short to be sampled is scaled by the
    run's kernel times."""
    import calibrate

    run_speed = bench.sampler.samples or bench.setup_speed
    walls = [calibrate.scale(p["wall_s"], p["speed"] or run_speed) for p in passes]
    speeds = bench.setup_speed
    setup = [calibrate.scale(s, speeds[2 * k:2 * k + 2]) for k, s in enumerate(setups)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def layer_metrics() -> list[dict]:
    """The per-layer metrics, with the end-to-end metric each should move."""
    return json.loads((Path(__file__).parent / "layers.json").read_text(encoding="utf-8"))


def per_layer(bench: Bench, tracer, untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics from the traced passes (medians) and traced set-ups."""
    import tracing

    runs = tracing.aggregate(tracer.spans)
    chain_tables = [table for run_id, table in runs.items() if run_id.startswith("pass")]
    setup_tables = [table for run_id, table in runs.items() if run_id.startswith("setup")]
    for name, stat in EXACT_COUNTS:
        values = {table.get(name, {}).get(stat, 0) for table in chain_tables}
        bench.record(f"count_repeats:{name}.{stat}", len(values) == 1)
    traced_wall = [p["wall_s"] for p in traced]
    self_sums = [sum(row["self_s"] for row in table.values()) for table in chain_tables]
    bench.record(
        "self_times_sum_to_wall",
        all(abs(s - w) <= 1e-9 * max(w, 1.0) for s, w in zip(self_sums, traced_wall)),
    )

    layers: dict[str, dict] = {}
    for table in (tracing.median_tables(setup_tables), tracing.median_tables(chain_tables)):
        for name, row in table.items():
            merged = layers.setdefault(name, {})
            for stat, value in row.items():
                merged[stat] = merged.get(stat, 0) + value

    def stat(name, key):
        return layers.get(name, {}).get(key, 0)

    detect_calls = stat("hrv.detect_beats", "calls")
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    derived = {
        "svgplot.self_s": sum(
            row["self_s"] for name, row in layers.items() if name.startswith("svgplot.")
        ),
        "hrv.features_ok_ratio": (
            stat("hrv.compute_features", "finite") / detect_calls if detect_calls else 0.0
        ),
        "trace.untraced_wall_s": untraced_wall,
        "trace.wall_s": statistics.median(traced_wall),
        "trace.overhead_s": statistics.median(traced_wall) - untraced_wall,
    }
    out = {}
    for metric in layer_metrics():
        name = metric["name"]
        if name in derived:
            value = derived[name]
        else:
            layer, key = name.rsplit(".", 1)
            value = stat(layer, key)
        out[name] = (value, metric["unit"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hrvaffect" / "pipeline.py").is_file():
        print(f"no hrvaffect sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import calibrate
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = WORK / f"{args.workload}-{args.seed}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    tracer = tracing.Tracer() if args.trace else None
    bench = Bench(workload)
    bench.sampler = calibrate.Sampler()

    if tracer is None:
        setups = [bench.setup() for _ in range(SETUP_REPEATS)]
    else:
        with tracing.Installed(tracer):
            setups = [bench.setup(tracer, f"setup{k}") for k in range(SETUP_REPEATS)]

    # A traced run starts with a traced pass and needs two of them to compare
    # work counts; three untraced passes let the median drop one slow pass.
    untraced, traced, durations = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        if tracer is not None and len(traced) <= len(untraced):
            with tracing.Installed(tracer):
                traced.append(bench.run_pass(tracer, f"pass{len(traced)}"))
        else:
            untraced.append(bench.run_pass())
        durations.append(time.perf_counter() - t0)
        if tracer is None:
            short = len(untraced) < MIN_PASSES
        else:
            short = len(untraced) < 1 or len(traced) < 2
        if not short and time.perf_counter() + statistics.mean(durations) > deadline:
            break

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "setup_s": setups,
        "setup_speed_s": bench.setup_speed,
        "pass_speed_samples": [len(p["speed"]) for p in untraced],
        "pass_speed_median_s": [statistics.median(p["speed"] or [0.0]) for p in untraced],
        "stage_median_s": stage_medians(untraced),
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "setups": len(setups),
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "input_size": workload.input_size(bench.last_results) if bench.last_results else None,
    }
    if tracer is None:
        metrics = end_to_end(bench, untraced, setups)
    else:
        metrics = per_layer(bench, tracer, untraced, traced)
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.dump(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    shutil.rmtree(work_dir, ignore_errors=True)
    info["problems"] = bench.problems

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
