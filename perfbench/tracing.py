"""Outside-in span tracer for the pipeline benchmark.

Wraps the public functions of each hrvaffect module at the name its caller
looks up (``pipeline`` imports ``detect_beats`` by name, so the span goes on
``pipeline.detect_beats``), keeps spans in memory, and derives per-layer self
time as span duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hrvaffect import explain, ingest, learn, pipeline, svgplot
from workloads import ALL_STAGES


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    failed: bool = False
    cpu_s: float | None = None
    work: dict = field(default_factory=dict)


def merged_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children, clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(lo, span.start), min(hi, span.end)) for lo, hi in children.get(i, [])
        ]
        out.append((span.end - span.start) - merged_length(clipped))
    return out


class Tracer:
    """Records nested spans for a single-threaded caller."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run_id = ""

    def begin(self, name: str, cpu: bool = False) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        if cpu:
            self.spans[index].cpu_s = time.process_time()
        self.spans[index].start = time.perf_counter()
        return index

    def end(self, index: int, failed: bool = False):
        span = self.spans[index]
        span.end = time.perf_counter()
        if span.cpu_s is not None:
            span.cpu_s = time.process_time() - span.cpu_s
        span.failed = failed
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn, count=None, cpu: bool = False):
        """A stand-in for fn that records one span per call.

        count(args, kwargs, result) returns the call's work counts.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name, cpu)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, failed=True)
                raise
            self.end(index)
            if count is not None:
                self.spans[index].work = count(args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (span, self_s) in enumerate(zip(self.spans, self_times(self.spans))):
                fh.write(json.dumps({
                    "id": i, "name": span.name, "run_id": span.run_id,
                    "parent": span.parent, "start": span.start, "end": span.end,
                    "self_s": self_s, "cpu_s": span.cpu_s, "failed": span.failed,
                    "work": span.work,
                }) + "\n")


# ---------------------------------------------------------------------------
# What to wrap, and which work each call does
# ---------------------------------------------------------------------------

def _file_size(path) -> int:
    return os.path.getsize(path)


def _subject_samples(subject) -> int:
    return int(
        subject.ecg.samples.size + subject.ppg.samples.size
        + subject.annotations.values.shape[0]
    )


def _count_generate(args, kwargs, result):
    return {"samples": _subject_samples(result[0])}


def _count_load(args, kwargs, result):
    manifest, base_dir = args[0], Path(args[1])
    files = [
        name for s in manifest.subjects
        for name in (s.ecg_file, s.ppg_file, s.annotation_file)
    ]
    return {
        "samples": sum(_subject_samples(s) for s in result),
        "bytes": sum(_file_size(base_dir / name) for name in files),
    }


def _count_write_canonical(args, kwargs, result):
    return {"bytes": sum(p.stat().st_size for p in Path(result).parent.iterdir())}


def _count_path_bytes(args, kwargs, result):
    return {"bytes": _file_size(args[0])}


def _count_features(args, kwargs, result):
    return {"finite": int(np.isfinite(result.as_array()).all())}


def targets() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, work counter) for every wrapped call site."""
    out = [
        (pipeline, f"stage_{stage}", f"pipeline.stage_{stage}", None) for stage in ALL_STAGES
    ]
    out += [
        (ingest, "generate_synthetic", "ingest.generate_synthetic", _count_generate),
        (ingest, "load_dataset", "ingest.load_dataset", _count_load),
        (ingest, "write_canonical", "ingest.write_canonical", _count_write_canonical),
        (pipeline, "filter_signal", "dsp.filter_signal",
         lambda a, k, r: {"samples": int(a[0].samples.size)}),
        (pipeline, "segment_windows", "dsp.segment_windows",
         lambda a, k, r: {"windows": len(r)}),
        (pipeline, "detect_beats", "hrv.detect_beats", None),
        (pipeline, "compute_features", "hrv.compute_features", _count_features),
        (pipeline, "inter_signal_variance", "variance.inter_signal_variance", None),
        (pipeline, "state_feature_stats", "variance.state_feature_stats", None),
        (pipeline, "evaluate", "learn.evaluate", None),
        (learn, "train_extra_trees", "learn.train_extra_trees",
         lambda a, k, r: {"trees": len(r.trees)}),
        (learn, "roc_ovr", "learn.roc_ovr", None),
        (learn.Tree, "leaf_ids", "learn.Tree.leaf_ids",
         lambda a, k, r: {"rows": int(a[1].shape[0])}),
        (learn.ExtraTreesModel, "predict_proba", "learn.ExtraTreesModel.predict_proba", None),
        (learn.KnnModel, "predict_proba", "learn.KnnModel.predict_proba", None),
        (learn.GaussianNbModel, "predict_proba", "learn.GaussianNbModel.predict_proba", None),
        (pipeline, "model_to_dict", "learn.model_to_dict", None),
        (pipeline, "model_from_dict", "learn.model_from_dict", None),
        (explain, "global_importance", "explain.global_importance", None),
        (explain, "shapley_explain", "explain.shapley_explain", None),
    ]
    out += [
        (svgplot, name, f"svgplot.{name}", None)
        for name in ("line_chart", "box_chart", "bar_chart", "roc_chart")
    ]
    out += [
        (pipeline, name, f"serialize.{name}", _count_path_bytes)
        for name in ("write_csv", "read_csv", "write_json", "read_json")
    ]
    return out


class Installed:
    """Context manager that swaps every target for its traced stand-in."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner, attr, name, count in targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            cpu = name.startswith("pipeline.stage_")
            setattr(owner, attr, self.tracer.wrap(name, original, count, cpu))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# Per-layer aggregation
# ---------------------------------------------------------------------------

def aggregate(spans: list[Span]) -> dict[str, dict[str, dict[str, float]]]:
    """Per run id, per span name: calls, fails, summed self and total time, CPU
    time and work counts."""
    runs: dict[str, dict[str, dict[str, float]]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        table = runs.setdefault(span.run_id, {})
        row = table.setdefault(
            span.name, {"calls": 0, "fails": 0, "self_s": 0.0, "total_s": 0.0}
        )
        row["calls"] += 1
        row["fails"] += int(span.failed)
        row["self_s"] += self_s
        row["total_s"] += span.end - span.start
        if span.cpu_s is not None:
            row["cpu_s"] = row.get("cpu_s", 0.0) + span.cpu_s
        for key, value in span.work.items():
            row[key] = row.get(key, 0) + value
    return runs


def median_tables(tables: list[dict]) -> dict[str, dict[str, float]]:
    """Median of each (name, stat) over tables; absent entries count as 0."""
    names = sorted({name for t in tables for name in t})
    out = {}
    for name in names:
        stats = sorted({s for t in tables for s in t.get(name, {})})
        out[name] = {
            s: statistics.median(t.get(name, {}).get(s, 0) for t in tables) for s in stats
        }
    return out
