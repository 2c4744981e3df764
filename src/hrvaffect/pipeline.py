"""Reproducible pipeline stages behind the CLI.

A run is defined by one PipelineConfig; its canonical JSON is hashed and the
hash stamped into every emitted file, so an output directory can never silently
mix artifacts from different configurations.  All stage outputs are pure
functions of (inputs, config, seed).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from collections.abc import Iterable
from dataclasses import asdict, astuple, dataclass, replace
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from . import explain as explain_mod
from . import core, ingest, svgplot
from .core import LabelScheme, Modality
from .dsp import (
    DEFAULT_ECG_FILTER, DEFAULT_PPG_FILTER, FilterSpec, WindowSpec, covered_seconds, filter_signal,
    segment_windows,
)
from .hrv import (
    FEATURE_NAMES,
    NoPlausiblePeaksError,
    choose_peaks,
    compute_features,  # not called here: perfbench's tracer wraps it under this module
    detect_beats,
    feature_block,
)
from .explain import ExplainConfig
from .learn import LearnConfig, evaluate, model_from_dict, model_to_dict
from .serialize import (
    DecodeError, config_hash, decode, fmt9, read_csv, read_json, round9, round9_array,
    write_compact_json, write_csv, write_json,
)
from .variance import (
    OVERLAP_FLAG_THRESHOLD, FeatureVariance, flag_overlapping_pairs, inter_signal_variance,
    mean_normalized, state_feature_stats,
)

FEATURES_CSV = "features.csv"
EXTRACT_STATS_JSON = "extract_stats.json"
STATE_OVERLAPS_JSON = "state_overlaps.json"
METRICS_JSON = "metrics.json"
MODEL_JSON = "model.json"
REPORT_JSON = "report.json"
CONFIG_JSON = "config.json"


class PipelineError(Exception):
    """Base for machine-readable pipeline failures."""

    code = "PipelineError"

    def payload(self) -> dict:
        return {"error": self.code, "message": str(self)}


class MissingInputError(PipelineError):
    code = "MissingInput"

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"required input {name!r} not found; run the producing stage first")

    def __reduce__(self):
        return type(self), (self.name,)

    def payload(self) -> dict:
        return {"error": self.code, "message": str(self), "input": self.name}


class ConfigInvalidError(PipelineError):
    code = "ConfigInvalid"

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.fieldname, str(self))

    def payload(self) -> dict:
        return {"error": self.code, "message": str(self), "field": self.fieldname}


class ConfigHashMismatchError(PipelineError):
    code = "ConfigHashMismatch"


@dataclass(frozen=True)
class PipelineConfig:
    out_dir: str = "out"
    manifest_path: str | None = None
    synthetic_spec_path: str | None = None
    window: WindowSpec = WindowSpec()
    ecg_filter: FilterSpec = DEFAULT_ECG_FILTER
    ppg_filter: FilterSpec = DEFAULT_PPG_FILTER
    learn: LearnConfig = LearnConfig()
    explain: ExplainConfig = ExplainConfig()
    seed: int = 0
    box_feature: str = "bpm"


def config_to_dict(config: PipelineConfig) -> dict:
    doc = asdict(config)
    doc["learn"]["families"] = list(config.learn.families)
    return doc


def config_from_dict(doc: dict) -> PipelineConfig:
    """The config a JSON document holds, with exactly one input and a known
    box_feature; a document off the rule is ConfigInvalid naming its section."""
    try:
        config = decode(PipelineConfig, doc)
    except DecodeError as exc:
        raise ConfigInvalidError(exc.key or "config", str(exc)) from exc
    if (config.manifest_path is None) == (config.synthetic_spec_path is None):
        raise ConfigInvalidError(
            "manifest_path", "exactly one of manifest_path or synthetic_spec_path is required"
        )
    if config.box_feature not in FEATURE_NAMES:
        raise ConfigInvalidError("box_feature", f"unknown feature {config.box_feature!r}")
    return config


def run_hash(config: PipelineConfig) -> str:
    """Hash of the analytic configuration; out_dir is a destination, not an
    input, so runs differing only in destination share a hash (and bytes)."""
    doc = config_to_dict(config)
    doc.pop("out_dir")
    return config_hash(doc)


def _check_stamp(path: Path, stamp: str | None, h: str):
    if stamp != h:
        raise ConfigHashMismatchError(f"{path} holds outputs for config {stamp}, current config is {h}")


def _read_object(path: Path, h: str) -> dict:
    """The JSON object an out_dir file holds, less its config_hash stamp, which
    must be the run hash h; any other content names the file."""
    try:
        doc = read_json(path)
    except FileNotFoundError:
        raise MissingInputError(path.name) from None
    except ValueError as exc:
        raise PipelineError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise PipelineError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    _check_stamp(path, doc.pop("config_hash", None), h)
    return doc


def _text(cell: str) -> str:
    if cell:
        return cell
    raise ValueError("empty cell in a text column")


# How a cell of each kind is read; int cells are read by int itself.
_PARSE = {float: lambda cell: float(cell) if cell else math.nan, str: _text,
          Modality: lambda cell: Modality(cell).value}


@dataclass(frozen=True)
class Table:
    """A derived CSV: its file name and its columns in order, each with the kind
    of its cells: int, float (NaN is the empty cell), str or Modality."""

    name: str
    columns: dict[str, type]

    def write(self, folder: Path, rows, h: str):
        """Write rows of plain values, in column order, as this table in folder."""
        kinds = list(self.columns.values())
        cells = [[fmt9(v) if kind is float else str(v) for kind, v in zip(kinds, row)] for row in rows]
        write_csv(folder / self.name, list(self.columns), cells, h)

    def read(self, folder: Path, h: str) -> list[tuple[int, list]]:
        """The rows of this table in folder, each as its line and its typed cells
        in column order; the file must carry the stamp h, and a bad file, header
        or cell names the file."""
        path = folder / self.name
        try:
            stamp, found, rows = read_csv(path)
        except FileNotFoundError:
            raise MissingInputError(path.name) from None
        except ValueError as exc:
            raise PipelineError(str(exc)) from exc
        if found != list(self.columns):
            raise PipelineError(f"{path}: expected columns {','.join(self.columns)}")
        _check_stamp(path, stamp, h)
        parsers = [_PARSE.get(kind, kind) for kind in self.columns.values()]
        typed = []
        for line, row in rows:
            try:
                typed.append((line, [parse(cell) for parse, cell in zip(parsers, row)]))
            except ValueError as exc:
                raise PipelineError(f"{path}:{line}: {exc}") from exc
        return typed


FEATURES = Table(FEATURES_CSV, {
    "window_id": int, "subject_id": str, "modality": Modality, "label": str,
    **dict.fromkeys(FEATURE_NAMES, float),
})
VARIANCE = Table("variance.csv", {"window_id": int, "subject_id": str, "feature": str, "abs_diff": float})
VARIANCE_SUMMARY = Table("variance_summary.csv", {
    "feature": str, "n_windows": int, "mean_abs_diff": float, "max_abs_diff": float,
    "missing_count": int, "pooled_mean_abs": float, "normalized_mean_abs_diff": float,
})
STATE_STATS = Table("state_stats.csv", {
    "feature": str, "state": str, "modality": str, "n": int,
    **dict.fromkeys(("min", "q1", "q2", "q3", "max", "mean", "std"), float), "outlier_count": int,
})
ROC_POINTS = Table("roc_points.csv", {"modality": str, "class": str, "fpr": float, "tpr": float})
IMPORTANCE = Table("importance.csv", {
    "modality": Modality, "feature": str, "scope": str, "mean_abs_shap": float, "rank": int,
})
SHAP_POINTS = Table("shap_points.csv", {
    "modality": str, "instance_id": str, "state": str, "feature": str, "phi": float,
    "feature_value": float,
})


@contextlib.contextmanager
def committed(out: Path, last: str):
    """Yield a .stage-* directory made in out; its files move into out, `last`
    after the rest, once the body returns and no target is a directory.  On a
    failure, the directories made for out are removed, innermost first, if empty."""
    made = [path for path in (out, *out.parents) if not path.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".stage-", dir=out) as name:
            staging = Path(name)
            yield staging
            staged = sorted(staging.iterdir(), key=lambda p: (p.name == last, p.name))
            for target in (out / path.name for path in staged):
                if target.is_dir():
                    raise PipelineError(f"{target}: is a directory, not a file")
            for path in staged:
                os.replace(path, out / path.name)
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                path.rmdir()
        raise


def _stage(compute):
    """Wrap compute(config, out, staging, h) as a stage(config, force=False).
    compute reads out through _read_object and Table.read, which check stamps,
    and writes into staging, committed into out with config.json last.  An out
    whose config.json holds another run hash is refused unless force is set."""

    def run(config: PipelineConfig, force: bool = False):
        out = Path(config.out_dir)
        with committed(out, CONFIG_JSON) as staging:
            h = run_hash(config)
            if (out / CONFIG_JSON).exists() and not force:
                _read_object(out / CONFIG_JSON, h)
            result = compute(config, out, staging, h)
            write_json(staging / CONFIG_JSON, {"config": config_to_dict(config)}, h)
        return result

    run.__name__ = run.__qualname__ = compute.__name__
    return run


# ---------------------------------------------------------------------------
# synth / data loading
# ---------------------------------------------------------------------------

def stage_synth(spec_path: str | Path, out_dir: str | Path) -> Path:
    """Generate a synthetic dataset and write it in the canonical format."""
    spec = ingest.load_synthetic_spec(spec_path)
    subject, truth = ingest.generate_synthetic(spec)
    out = Path(out_dir)
    manifest_path = ingest.write_canonical([subject], "synthetic", out)
    ingest.write_ground_truth(truth, out / "ground_truth.json")
    return manifest_path


def write_dataset(make, source: str | Path, out_dir: str | Path) -> Path:
    """make(source, staging), which writes a canonical dataset into staging,
    committed into out_dir with manifest.json last; returns its manifest."""
    with committed(Path(out_dir), "manifest.json") as staging:
        make(source, staging)
    return Path(out_dir) / "manifest.json"


def _load_subject(manifest: ingest.DatasetManifest, base_dir: Path) -> ingest.SubjectData:
    return ingest.load_dataset(manifest, base_dir)[0]


def _generate_subject(spec: ingest.SyntheticSpec) -> ingest.SubjectData:
    return ingest.generate_synthetic(spec)[0]


def load_subjects(config: PipelineConfig) -> tuple[list, LabelScheme]:
    """One source per subject the config names, in manifest order, and their
    label scheme.  A source is a picklable iterable that loads or generates
    its one subject when iterated, and does not keep it."""
    if config.manifest_path is not None:
        manifest_path = Path(config.manifest_path)
        manifest = ingest.load_manifest(manifest_path)
        sources = [
            map(_load_subject, [replace(manifest, subjects=(entry,))], [manifest_path.parent])
            for entry in manifest.subjects
        ]
        return sources, manifest.label_scheme
    spec = ingest.load_synthetic_spec(config.synthetic_spec_path)
    return [map(_generate_subject, [spec])], ingest.synthetic_label_scheme(spec)


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Featurized windows, one row per window and modality: four key columns
    of plain Python values and one read-only (rows, 13) block of values in
    FEATURE_NAMES order, NaN throughout a row whose beat detection failed."""

    window_id: tuple[int, ...]
    subject_id: tuple[str, ...]
    modality: tuple[str, ...]
    label: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False


def _table(keys: list[tuple], values: np.ndarray) -> FeatureTable:
    """The table of (window_id, subject_id, modality, label) keys, each with its row of values."""
    columns = [tuple(column) for column in zip(*keys)] or [()] * 4
    return FeatureTable(*columns, values.reshape(-1, len(FEATURE_NAMES)))


def _sorted_table(keys: list[tuple], blocks: list[np.ndarray]) -> FeatureTable:
    """The table of keys and the stacked rows of blocks, sorted by
    (subject_id, window_id, modality)."""
    values = np.concatenate([np.empty((0, len(FEATURE_NAMES))), *blocks])
    order = sorted(range(len(keys)), key=lambda i: (keys[i][1], keys[i][0], keys[i][2]))
    return _table([keys[i] for i in order], values[order])


def _window_rows(pairs, stats: dict, keys: list[tuple], blocks: list[np.ndarray]):
    """Featurize one subject's aligned windows into keys and blocks, adding to stats' counters."""
    stats["windows_labeled"] += len(pairs)
    for segments in zip(*pairs):  # the ECG windows, then the PPG windows
        beats = []
        chosen = choose_peaks([s.samples for s in segments], segments[0].sample_rate_hz)
        for segment, peaks in zip(segments, chosen):
            try:
                beats.append(detect_beats(segment, peaks))
            except NoPlausiblePeaksError:
                beats.append(None)
        block = feature_block(beats)
        counters = stats["modalities"][segments[0].modality.value]
        failed = sum(b is None for b in beats)
        counters["detect_failures"] += failed
        counters["too_few_beats"] += int(np.isnan(block).all(axis=1).sum()) - failed
        counters["rows"] += len(segments)
        keys += [(s.window_id, s.subject_id, s.modality.value, s.label) for s in segments]
        blocks.append(block)


def _new_stats() -> dict:
    return {
        "n_subjects": 0,
        "windows_labeled": 0,
        "modalities": {
            m.value: {"rows": 0, "detect_failures": 0, "too_few_beats": 0}
            for m in (Modality.ECG, Modality.PPG)
        },
    }


def _add_counts(total: dict, counts: dict):
    """Add each counter of counts, nested as in _new_stats, into total."""
    for key, value in counts.items():
        if isinstance(value, dict):
            _add_counts(total[key], value)
        else:
            total[key] += value


def featurize(
    subjects: Iterable[ingest.SubjectData], config: PipelineConfig
) -> tuple[FeatureTable, dict]:
    """Filter, window and featurize subjects, one at a time as the iterable
    yields them; returns their table, sorted by (subject_id, window_id,
    modality), plus counters.  Each raw record is dropped once its filtered
    record exists, unless the caller keeps the subject (as a list does)."""
    keys, blocks = [], []
    stats = _new_stats()
    for subject in subjects:
        stats["n_subjects"] += 1
        ecg, ppg, annotations = subject.ecg, subject.ppg, subject.annotations
        del subject
        covered_seconds(ecg, ppg, annotations, config.window)
        ecg = filter_signal(ecg, config.ecg_filter)
        ppg = filter_signal(ppg, config.ppg_filter)
        _window_rows(segment_windows(ecg, ppg, annotations, config.window), stats, keys, blocks)
        del ecg, ppg, annotations  # freed before the iterator loads the next subject
    return _sorted_table(keys, blocks), stats


def extract_features(config: PipelineConfig) -> tuple[FeatureTable, dict]:
    """Featurize the subjects the config names; returns their table, sorted by
    (subject_id, window_id, modality), plus counters.  Each subject is one
    featurize call, made in a worker process when core.ordered_map has
    workers, so this process holds no raw signal.  Results are read in
    manifest order, so the error raised is the first failing subject's."""
    sources, scheme = load_subjects(config)
    keys, blocks = [], []
    stats = _new_stats()
    if core.worker_count(len(sources)) > 1:
        from scipy import signal  # noqa: F401  before the fork, so no worker imports it again
    with core.ordered_map(len(sources)) as map_subjects:
        for table, counts in map_subjects(partial(featurize, config=config), sources):
            keys += zip(table.window_id, table.subject_id, table.modality, table.label)
            blocks.append(table.values)
            _add_counts(stats, counts)
    stats["label_scheme"] = scheme.value
    return _sorted_table(keys, blocks), stats


@_stage
def stage_extract(config: PipelineConfig, out: Path, staging: Path, h: str) -> Path:
    table, stats = extract_features(config)
    FEATURES.write(staging, zip(
        table.window_id, table.subject_id, table.modality, table.label, *table.values.T.tolist()
    ), h)
    write_json(staging / EXTRACT_STATS_JSON, stats, h)
    return out / FEATURES_CSV


def read_feature_rows(out_dir: str | Path, h: str) -> FeatureTable:
    """The table out_dir's features.csv holds, in file order; the file must be
    stamped with h and hold each (subject_id, window_id, modality) once."""
    keys, values, seen = [], [], set()
    for line, (window_id, subject_id, modality, label, *cells) in FEATURES.read(Path(out_dir), h):
        if (subject_id, window_id, modality) in seen:
            raise PipelineError(
                f"{Path(out_dir) / FEATURES_CSV}:{line}: repeated {modality} row for window "
                f"{window_id} of subject {subject_id!r}"
            )
        seen.add((subject_id, window_id, modality))
        keys.append((window_id, subject_id, modality, label))
        values.append(cells)
    return _table(keys, np.array(values, dtype=np.float64))


# ---------------------------------------------------------------------------
# variance
# ---------------------------------------------------------------------------

def feature_variance(table: FeatureTable):
    """Inter-signal variance of the table's windows, keyed (subject_id, window_id);
    a window whose beat detection failed holds no key."""
    by_modality: dict[str, dict] = {"ECG": {}, "PPG": {}}
    for i in np.flatnonzero(~np.isnan(table.values).all(axis=1)).tolist():
        by_modality[table.modality[i]][(table.subject_id[i], table.window_id[i])] = table.values[i]
    return inter_signal_variance(by_modality["ECG"], by_modality["PPG"])


@_stage
def stage_variance(config: PipelineConfig, out: Path, staging: Path, h: str) -> dict:
    table = read_feature_rows(out, h)
    isv = feature_variance(table)
    VARIANCE.write(staging, [
        [window_id, subject_id, feature, diff]
        for (subject_id, window_id), diffs in zip(isv.keys, isv.abs_diff.tolist())
        for feature, diff in zip(FEATURE_NAMES, diffs)
        if not math.isnan(diff)
    ], h)
    VARIANCE_SUMMARY.write(staging, map(astuple, isv.summary), h)

    stats = state_feature_stats(list(zip(table.modality, table.label, table.values)))
    STATE_STATS.write(staging, map(astuple, stats), h)

    # Charts: the headline absolute-difference series and one state boxplot.
    window_ids = [float(window_id) for _, window_id in isv.keys]
    svgplot.line_chart(
        staging / "variance_series.svg",
        [
            (feature, window_ids, isv.abs_diff[:, FEATURE_NAMES.index(feature)].tolist())
            for feature in ("bpm", "ibi", "br")
        ],
        "Absolute ECG-PPG feature difference per window",
        "window id",
        "absolute difference",
        h,
    )
    box_feature = config.box_feature
    boxes = [
        (f"{g.state}/{g.modality}", g.minimum, g.q1, g.q2, g.q3, g.maximum)
        for g in stats
        if g.feature == box_feature and not g.insufficient
    ]
    if boxes:
        svgplot.box_chart(
            staging / f"state_box_{box_feature}.svg",
            boxes,
            f"{box_feature} by state and signal",
            box_feature,
            h,
        )

    overlaps = {
        modality: [
            [a, b, score]
            for a, b, score in flag_overlapping_pairs(stats, box_feature, modality)
        ]
        for modality in ("ECG", "PPG")
    }
    write_json(
        staging / STATE_OVERLAPS_JSON,
        {"feature": box_feature, "threshold": OVERLAP_FLAG_THRESHOLD, "flagged_pairs": overlaps},
        h,
    )
    return {
        "mean_normalized_variance": isv.mean_normalized(),
        "overlap_flags": overlaps,
    }


# ---------------------------------------------------------------------------
# train / evaluate
# ---------------------------------------------------------------------------

def modality_matrix(table: FeatureTable, modality: str):
    """Feature matrix for one modality, dropping rows with any missing value."""
    mine = np.array([m == modality for m in table.modality], dtype=bool)
    kept = mine & np.isfinite(table.values).all(axis=1)
    index = np.flatnonzero(kept).tolist()
    y = np.array([table.label[i] for i in index])
    ids = [f"{table.subject_id[i]}:{table.window_id[i]}" for i in index]
    subjects = np.array([table.subject_id[i] for i in index])
    return table.values[kept], y, ids, subjects, int(mine.sum()) - len(index)


@_stage
def stage_train_eval(config: PipelineConfig, out: Path, staging: Path, h: str) -> dict:
    table = read_feature_rows(out, h)
    metrics: dict = {"seed": config.seed, "modalities": {}}
    models_doc: dict = {"modalities": {}}
    roc_rows = []
    for modality in ("ECG", "PPG"):
        X, y, ids, subjects, dropped = modality_matrix(table, modality)
        report, fitted = evaluate(X, y, FEATURE_NAMES, config.learn, config.seed, subjects)
        metrics["modalities"][modality] = {
            "n_rows": int(X.shape[0]),
            "dropped_rows": dropped,
            "folds": report.folds,
            "families": {
                name: {
                    "fold_accuracies": list(res.fold_accuracies),
                    "mean_cv_accuracy": res.mean_accuracy,
                    "std_cv_accuracy": res.std_accuracy,
                }
                for name, res in report.families.items()
            },
            "selected_family": report.selected_family,
            "holdout_accuracy": report.holdout_accuracy,
            "n_train": report.n_train,
            "n_holdout": report.n_holdout,
            "confusion": {
                "labels": list(report.confusion_labels),
                "matrix": report.confusion_matrix.tolist(),
            },
            "roc_auc": {label: curve.auc for label, curve in sorted(report.roc.items())},
        }
        model_doc = model_to_dict(fitted["extra_trees"])
        for tree in model_doc["trees"]:
            for key in ("threshold", "probs"):
                tree[key] = round9_array(tree[key])
        models_doc["modalities"][modality] = {
            "model": model_doc,
            "selected_family": report.selected_family,
            "train_ids": report.train_ids.tolist(),
            "holdout_ids": report.holdout_ids.tolist(),
            "row_ids": ids,
        }
        for label, curve in sorted(report.roc.items()):
            for fpr, tpr in zip(curve.fpr, curve.tpr):
                roc_rows.append([modality, label, fpr, tpr])
        svgplot.roc_chart(
            staging / f"roc_{modality}.svg",
            [
                (label, list(curve.fpr), list(curve.tpr), curve.auc)
                for label, curve in sorted(report.roc.items())
            ],
            f"One-versus-rest ROC ({modality})",
            h,
        )
    write_json(staging / METRICS_JSON, metrics, h)
    write_compact_json(staging / MODEL_JSON, models_doc, h)
    ROC_POINTS.write(staging, roc_rows, h)
    return metrics


# ---------------------------------------------------------------------------
# importance
# ---------------------------------------------------------------------------

def _model_entry(models_doc, modality: str, ids: list[str]):
    """(model, train_ids, holdout_ids) from the modality's model.json entry,
    which must have been trained on exactly the rows `ids`."""
    try:
        entry = models_doc["modalities"][modality]
        model = model_from_dict(entry["model"])
        if entry["row_ids"] != ids:
            raise PipelineError(
                f"{FEATURES_CSV} no longer matches {MODEL_JSON} for {modality}; re-run train-eval"
            )
        train_ids, holdout_ids = (
            np.array(entry[key], dtype=np.int64) for key in ("train_ids", "holdout_ids")
        )
        if any(r.ndim != 1 or ((r < 0) | (r >= len(ids))).any() for r in (train_ids, holdout_ids)):
            raise ValueError(f"train_ids and holdout_ids must lie in [0, {len(ids)})")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PipelineError(
            f"{MODEL_JSON} has no valid {modality} entry ({type(exc).__name__}: {exc})"
        ) from exc
    return model, train_ids, holdout_ids


@_stage
def stage_importance(config: PipelineConfig, out: Path, staging: Path, h: str) -> dict:
    table = read_feature_rows(out, h)
    models_doc = _read_object(out / MODEL_JSON, h)
    importance_rows = []
    point_rows = []
    summary: dict = {}
    for modality in ("ECG", "PPG"):
        X, y, ids, _, _ = modality_matrix(table, modality)
        model, train_ids, holdout_ids = _model_entry(models_doc, modality, ids)
        report = explain_mod.global_importance(
            model, X[holdout_ids], y[holdout_ids], [ids[i] for i in holdout_ids], X[train_ids],
            config.explain, config.seed,
        )
        for scope, means in [("global", report.global_mean_abs)] + sorted(
            report.per_state_mean_abs.items()
        ):
            rank_of = {i: rank for rank, i in enumerate(explain_mod.feature_order(means), 1)}
            for i, feature in enumerate(FEATURE_NAMES):
                importance_rows.append([modality, feature, scope, means[i], rank_of[i]])
        point_rows += [[modality, *point] for point in report.points]
        svgplot.bar_chart(
            staging / f"importance_{modality}.svg",
            list(report.ranking),
            [report.global_mean_abs[FEATURE_NAMES.index(f)] for f in report.ranking],
            f"Mean |SHAP value| ({modality})",
            "mean |phi|",
            h,
        )
        summary[modality] = {
            "ranking": list(report.ranking),
            "n_explained": report.n_explained,
        }
    IMPORTANCE.write(staging, importance_rows, h)
    SHAP_POINTS.write(staging, point_rows, h)
    return summary


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def report_schema() -> dict:
    """The shipped JSON schema that every emitted report must satisfy."""
    schema_path = resources.files("hrvaffect").joinpath("schemas/report.schema.json")
    return json.loads(schema_path.read_text(encoding="utf-8"))


def validate_schema(doc, schema, path="$") -> list[str]:
    """Small structural validator for the shipped report schema subset."""
    problems = []
    expected = schema.get("type")
    if expected is not None:
        kinds = expected if isinstance(expected, list) else [expected]
        checks = {
            "object": lambda v: isinstance(v, dict),
            "array": lambda v: isinstance(v, list),
            "string": lambda v: isinstance(v, str),
            "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
            "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
            "boolean": lambda v: isinstance(v, bool),
            "null": lambda v: v is None,
        }
        if not any(checks[kind](doc) for kind in kinds):
            problems.append(f"{path}: expected {expected}, got {type(doc).__name__}")
            return problems
    if isinstance(doc, dict):
        for key in schema.get("required", []):
            if key not in doc:
                problems.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in doc:
                problems.extend(validate_schema(doc[key], sub, f"{path}.{key}"))
    if isinstance(doc, list) and "items" in schema:
        for i, item in enumerate(doc):
            problems.extend(validate_schema(item, schema["items"], f"{path}[{i}]"))
    return problems


@_stage
def stage_report(config: PipelineConfig, out: Path, staging: Path, h: str) -> Path:
    summary: dict[str, FeatureVariance] = {}
    path = out / VARIANCE_SUMMARY.name
    for line, cells in VARIANCE_SUMMARY.read(out, h):
        row = FeatureVariance(*cells)
        if row.feature not in FEATURE_NAMES or row.feature in summary:
            raise PipelineError(f"{path}:{line}: unknown or repeated feature {row.feature!r}")
        summary[row.feature] = row
    for feature in FEATURE_NAMES:
        if feature not in summary:
            raise PipelineError(f"{path}: no row for feature {feature!r}")
    rankings: dict[str, list[str]] = {}
    path = out / IMPORTANCE.name
    for line, (modality, feature, scope, _, rank) in IMPORTANCE.read(out, h):
        if scope != "global":
            continue
        slots = rankings.setdefault(modality, [None] * len(FEATURE_NAMES))
        if not 1 <= rank <= len(FEATURE_NAMES):
            problem = f"rank {rank} outside 1-{len(FEATURE_NAMES)}"
        elif feature not in FEATURE_NAMES or feature in slots:
            problem = f"unknown or repeated feature {feature!r}"
        elif slots[rank - 1] is not None:
            problem = f"repeated rank {rank}"
        else:
            slots[rank - 1] = feature
            continue
        raise PipelineError(f"{path}:{line}: {problem} among the {modality} global rows")
    for modality in ("ECG", "PPG"):
        slots = rankings.setdefault(modality, [None] * len(FEATURE_NAMES))
        if None in slots:
            raise PipelineError(f"{path}: no {modality} global row has rank {slots.index(None) + 1}")

    doc = round9({
        "config": config_to_dict(config),
        "config_hash": h,
        "extract": _read_object(out / EXTRACT_STATS_JSON, h),
        "variance": {
            "mean_normalized_variance": mean_normalized(summary.values()),
            "per_feature": {
                v.feature: {"mean_abs_diff": v.mean_abs_diff, "max_abs_diff": v.max_abs_diff,
                            "missing_count": v.missing_count,
                            "normalized_mean_abs_diff": v.normalized_mean_abs_diff}
                for v in summary.values()
            },
            "state_overlaps": _read_object(out / STATE_OVERLAPS_JSON, h),
        },
        "metrics": _read_object(out / METRICS_JSON, h),
        "importance": {"rankings": rankings},
    })
    problems = validate_schema(doc, report_schema())
    if problems:
        raise PipelineError(f"report does not match schema: {problems}")
    write_json(staging / REPORT_JSON, doc)
    return out / REPORT_JSON
