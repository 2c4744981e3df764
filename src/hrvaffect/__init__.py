"""HRV feature variance and affective-state classification for ECG/PPG pairs."""

from .core import AnnotationTrack, LabelScheme, Modality, SignalRecord, WindowedSegment
from .dsp import FilterSpec, WindowSpec, design_butterworth_bandpass, filter_signal, segment_windows
from .hrv import FEATURE_NAMES, BeatSeries, FeatureVector, compute_features, detect_beats
from .ingest import (
    DatasetManifest,
    StateSpec,
    SubjectData,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_manifest,
    write_canonical,
)
from .learn import ExtraTreesParams, LearnConfig, evaluate, roc_ovr, train_extra_trees
from .explain import ExplainConfig, global_importance, sample_background, shapley_explain
from .variance import inter_signal_variance, state_feature_stats, state_overlap_score
from .pipeline import PipelineConfig, featurize

__version__ = "0.1.0"

__all__ = [
    "AnnotationTrack",
    "BeatSeries",
    "DatasetManifest",
    "ExplainConfig",
    "ExtraTreesParams",
    "FEATURE_NAMES",
    "FeatureVector",
    "FilterSpec",
    "LabelScheme",
    "LearnConfig",
    "Modality",
    "PipelineConfig",
    "SignalRecord",
    "StateSpec",
    "SubjectData",
    "SyntheticSpec",
    "WindowSpec",
    "WindowedSegment",
    "compute_features",
    "design_butterworth_bandpass",
    "detect_beats",
    "evaluate",
    "featurize",
    "filter_signal",
    "generate_synthetic",
    "global_importance",
    "inter_signal_variance",
    "load_dataset",
    "load_manifest",
    "roc_ovr",
    "sample_background",
    "segment_windows",
    "shapley_explain",
    "state_feature_stats",
    "state_overlap_score",
    "train_extra_trees",
    "write_canonical",
]
