"""extract featurizes a manifest's subjects, and write_canonical writes a
dataset's tables, in a fork pool when there are at least two tasks and two
usable CPUs.  These tests pin the worker count through core.worker_count and
require the pool to change nothing a caller can see: the bytes written, the
error of the first failing subject or table, read-only feature values, and no
worker left running.  Errors cross the pool pickled, so every library
exception must survive a pickle round trip."""

import errno
import hashlib
import importlib
import inspect
import json
import multiprocessing
import pickle
import pkgutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import hrvaffect
from hrvaffect import core, ingest, pipeline
from helpers import package_env, readme_json_blocks

SPEC = ingest.SyntheticSpec(
    duration_s=30.0,
    ecg_rate_hz=350.0,
    ppg_rate_hz=64.0,
    states=(ingest.StateSpec("baseline", 65.0, 10.0, 15.0), ingest.StateSpec("stress", 90.0, 10.0, 15.0)),
    respiratory_rr_modulation_ms=30.0,
    noise_std=0.02,
    seed=11,
)

# Run the CLI with the worker count of argv[1] and the CLI arguments after it;
# print how many child processes are left when it exits.
CLI_WITH_WORKERS = """
import multiprocessing, sys
from hrvaffect import cli, core
workers = int(sys.argv[1])
core.worker_count = lambda n_tasks: min(workers, n_tasks)
try:
    cli.main(sys.argv[2:], prog_name="hrvaffect")
finally:
    print(len(multiprocessing.active_children()))
"""


def _pin_workers(monkeypatch, workers: int):
    monkeypatch.setattr(core, "worker_count", lambda n_tasks: min(workers, n_tasks))


def _digests(root: Path) -> dict:
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            if path.is_file() else None for path in root.rglob("*")}


@pytest.fixture
def three_subjects(tmp_path) -> Path:
    """A manifest of three subjects, one more than the two workers."""
    subjects = [ingest.generate_synthetic(replace(SPEC, seed=i), f"S{i}")[0] for i in (1, 2, 3)]
    return ingest.write_canonical(subjects, "three", tmp_path / "data")


def _config(manifest: Path, out: Path) -> pipeline.PipelineConfig:
    return pipeline.config_from_dict({"manifest_path": str(manifest), "out_dir": str(out)})


def test_outputs_are_byte_identical_with_one_and_two_workers(three_subjects, tmp_path, monkeypatch):
    """One worker loads every subject in this process; two load none of them
    here, and write the same features.csv and extract_stats.json."""
    loaded = []

    def load_dataset(manifest, base_dir, original=ingest.load_dataset):
        loaded.append(manifest.subjects[0].subject_id)
        return original(manifest, base_dir)

    monkeypatch.setattr(ingest, "load_dataset", load_dataset)
    outputs, here = {}, {}
    for workers in (1, 2):
        _pin_workers(monkeypatch, workers)
        loaded.clear()
        out = tmp_path / f"run{workers}"
        pipeline.stage_extract(_config(three_subjects, out))
        assert multiprocessing.active_children() == []
        outputs[workers] = [(out / name).read_bytes()
                            for name in (pipeline.FEATURES_CSV, pipeline.EXTRACT_STATS_JSON)]
        here[workers] = list(loaded)
    assert outputs[1] == outputs[2]
    assert json.loads(outputs[2][1])["n_subjects"] == 3
    assert here == {1: ["S1", "S2", "S3"], 2: []}


def test_rows_built_from_worker_results_are_read_only(three_subjects, tmp_path, monkeypatch):
    config = _config(three_subjects, tmp_path / "run")
    _pin_workers(monkeypatch, 1)
    want, want_stats = pipeline.extract_features(config)
    _pin_workers(monkeypatch, 2)
    got, got_stats = pipeline.extract_features(config)
    assert multiprocessing.active_children() == []
    assert got_stats == want_stats
    assert (got.window_id, got.subject_id, got.modality, got.label) == (
        want.window_id, want.subject_id, want.modality, want.label,
    )
    assert got.values.tobytes() == want.values.tobytes()
    assert not got.values.flags.writeable


def test_table_and_features_csv_sort_by_the_subject_id_string(tmp_path, monkeypatch):
    """A manifest listing S3, S10, S2 gives, with one worker and with two, a
    table and a features.csv ordered by subject_id as a string (S10, S2, S3),
    then window_id, then ECG before PPG: not in manifest order."""
    subjects = [ingest.generate_synthetic(replace(SPEC, seed=i), f"S{i}")[0] for i in (3, 10, 2)]
    config = _config(ingest.write_canonical(subjects, "unsorted", tmp_path / "data"), tmp_path / "run")
    written = {}
    for workers in (1, 2):
        _pin_workers(monkeypatch, workers)
        table, _ = pipeline.extract_features(config)
        keys = list(zip(table.subject_id, table.window_id, table.modality))
        assert keys == sorted(keys)
        assert list(dict.fromkeys(table.subject_id)) == ["S10", "S2", "S3"]
        pipeline.stage_extract(config, force=True)
        rows = pipeline.FEATURES.read(Path(config.out_dir), pipeline.run_hash(config))
        assert [tuple(cells[:4]) for _, cells in rows] == list(
            zip(table.window_id, table.subject_id, table.modality, table.label)
        )
        written[workers] = (Path(config.out_dir) / pipeline.FEATURES_CSV).read_bytes()
    assert written[1] == written[2]


def test_bad_last_subject_is_the_same_error_with_one_and_two_workers(three_subjects, tmp_path):
    """A bad line in the last subject's ECG file is the same Parse error with
    one worker and with two, out_dir keeps the last good run, and no worker
    outlives the command.  The CLI runs in a child process, so a hang fails
    this test at its timeout instead of hanging the suite."""
    run = tmp_path / "run"
    args = ["extract", "--manifest", str(three_subjects), "--out", str(run)]
    ok = subprocess.run([sys.executable, "-c", CLI_WITH_WORKERS, "2", *args],
                        env=package_env(), capture_output=True, text=True, timeout=120)
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.splitlines() == [str(run / pipeline.FEATURES_CSV), "0"]
    before = _digests(run)
    ecg = three_subjects.parent / "S3_ecg.csv"
    lines = ecg.read_text().splitlines(keepends=True)
    lines[5] = "4,x\n"
    ecg.write_text("".join(lines))
    for workers in ("1", "2"):
        failed = subprocess.run([sys.executable, "-c", CLI_WITH_WORKERS, workers, *args],
                                env=package_env(), capture_output=True, text=True, timeout=120)
        assert failed.returncode == 1
        assert json.loads(failed.stderr) == {
            "error": "Parse", "message": f"{ecg}:6: non-numeric value 'x'",
        }
        assert failed.stdout.splitlines() == ["0"]
        assert _digests(run) == before
        assert not list(run.glob(".stage-*"))


# Run extract with two workers on the manifest of argv[1] into argv[2]; the
# worker that loads S2 dies at once.  Print what extract raised and how many
# child processes are left.
WORKER_DIES = """
import multiprocessing, os, signal, sys
from hrvaffect import core, pipeline
load = pipeline._load_subject

def load_or_die(manifest, base_dir):
    if manifest.subjects[0].subject_id == "S2":
        os.kill(os.getpid(), signal.SIGKILL)
    return load(manifest, base_dir)

pipeline._load_subject = load_or_die
core.worker_count = lambda n_tasks: min(2, n_tasks)
config = pipeline.config_from_dict({"manifest_path": sys.argv[1], "out_dir": sys.argv[2]})
try:
    pipeline.extract_features(config)
except Exception as exc:
    print(type(exc).__name__)
print(len(multiprocessing.active_children()))
"""


def test_a_worker_that_dies_fails_extract_instead_of_hanging_it(three_subjects, tmp_path):
    """A worker killed mid-subject, as the out-of-memory killer would, ends
    extract with BrokenProcessPool and leaves no worker behind."""
    done = subprocess.run([sys.executable, "-c", WORKER_DIES, str(three_subjects), str(tmp_path / "run")],
                          env=package_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["BrokenProcessPool", "0"]


# Constructor arguments of the library exceptions that take more than a message.
EXCEPTION_ARGS = {
    "NonFiniteSampleError": (7,),
    "ValueOutOfRangeError": (3, 9.5),
    "ParseError": (Path("data/S3_ecg.csv"), 6, "non-numeric value 'x'"),
    "DecodeError": (("window", "overlap_s"), "must be a number"),
    "MissingInputError": ("features.csv",),
    "ConfigInvalidError": ("box_feature", "unknown feature 'x'"),
}


def _library_exceptions() -> list[type]:
    found = set()
    for info in pkgutil.iter_modules(hrvaffect.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"hrvaffect.{info.name}")
        found.update(cls for _, cls in inspect.getmembers(module, inspect.isclass)
                     if issubclass(cls, Exception) and cls.__module__ == module.__name__)
    return sorted(found, key=lambda cls: cls.__qualname__)


def _instance(cls) -> Exception:
    args = EXCEPTION_ARGS.get(cls.__name__)
    if args is None:
        # Only a class whose __init__ is Exception's may be built from a message.
        assert not any("__init__" in vars(base) for base in cls.__mro__
                       if base.__module__.startswith("hrvaffect")), cls
        args = ("something went wrong",)
    return cls(*args)


@pytest.mark.parametrize("exc", [
    *(_instance(cls) for cls in _library_exceptions()),
    FileNotFoundError(errno.ENOENT, "No such file or directory", "data/S3_ecg.csv"),
], ids=lambda exc: type(exc).__name__)
def test_exception_survives_a_pickle_round_trip(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)
    if isinstance(exc, OSError):
        assert (back.filename, back.strerror) == (exc.filename, exc.strerror)
    if hasattr(exc, "payload"):
        assert back.payload() == exc.payload()


def test_every_exception_with_its_own_arguments_is_in_the_table():
    assert {cls.__name__ for cls in _library_exceptions()} >= EXCEPTION_ARGS.keys()


def _three(folder: Path) -> list[ingest.SubjectData]:
    return ingest.load_dataset(ingest.load_manifest(folder / "manifest.json"), folder)


def test_write_canonical_is_byte_identical_with_one_and_two_workers(three_subjects, tmp_path,
                                                                    monkeypatch):
    subjects = _three(three_subjects.parent)
    written = {}
    for workers in (1, 2):
        _pin_workers(monkeypatch, workers)
        out = tmp_path / f"data{workers}"
        assert ingest.write_canonical(subjects, "three", out) == out / "manifest.json"
        assert multiprocessing.active_children() == []
        written[workers] = _digests(out)
    assert len(written[1]) == 10  # three tables per subject, and the manifest
    assert written[1] == written[2] == _digests(three_subjects.parent)


def test_a_table_that_cannot_be_written_is_the_same_error_with_one_and_two_workers(
        three_subjects, tmp_path, monkeypatch):
    """Two table targets are directories; the error is the one of the first in
    manifest order, with one worker and with two, and no manifest is written."""
    subjects = _three(three_subjects.parent)
    errors = {}
    for workers in (1, 2):
        _pin_workers(monkeypatch, workers)
        out = tmp_path / f"data{workers}"
        (out / "S2_ecg.csv").mkdir(parents=True)
        (out / "S3_annotations.csv").mkdir()
        with pytest.raises(OSError) as err:
            ingest.write_canonical(subjects, "three", out)
        assert multiprocessing.active_children() == []
        assert not (out / "manifest.json").exists()
        errors[workers] = type(err.value), err.value.filename
    assert errors[1] == (IsADirectoryError, str(tmp_path / "data1" / "S2_ecg.csv"))
    assert errors[2] == (IsADirectoryError, str(tmp_path / "data2" / "S2_ecg.csv"))


def test_write_canonical_refuses_no_subjects_before_writing(tmp_path):
    with pytest.raises(ValueError, match="^a manifest lists at least one subject$"):
        ingest.write_canonical([], "none", tmp_path / "data")
    assert not (tmp_path / "data").exists()


# Write the dataset of argv[1] into argv[2] through write_dataset with two
# workers; the worker that writes S2's ECG table dies at once.  Print what
# write_dataset raised and how many child processes are left.
WRITER_DIES = """
import multiprocessing, os, signal, sys
from pathlib import Path
from hrvaffect import core, ingest, pipeline
write = ingest._write_table

def write_or_die(path, header, values):
    if path.name == "S2_ecg.csv":
        os.kill(os.getpid(), signal.SIGKILL)
    write(path, header, values)

ingest._write_table = write_or_die
core.worker_count = lambda n_tasks: min(2, n_tasks)
source = Path(sys.argv[1])
subjects = ingest.load_dataset(ingest.load_manifest(source / "manifest.json"), source)
try:
    pipeline.write_dataset(lambda _, staging: ingest.write_canonical(subjects, "three", staging),
                           source, sys.argv[2])
except Exception as exc:
    print(type(exc).__name__)
print(len(multiprocessing.active_children()))
"""


def test_a_writer_that_dies_fails_the_write_instead_of_hanging_it(three_subjects, tmp_path):
    """A writer killed mid-table ends the write with BrokenProcessPool, leaves
    no worker behind, and leaves --out as it was, with no staging directory."""
    out = tmp_path / "out"
    pipeline.write_dataset(lambda _, staging: ingest.write_canonical(
        _three(three_subjects.parent)[:1], "one", staging), None, out)
    before = _digests(out)
    done = subprocess.run([sys.executable, "-c", WRITER_DIES, str(three_subjects.parent), str(out)],
                          env=package_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["BrokenProcessPool", "0"]
    assert _digests(out) == before
    assert not list(out.glob(".stage-*"))


# Import the pipeline, note which pool modules it loaded, then run synth on the
# spec of argv[1] into argv[2] with two writers and note what that loaded.
IMPORTS = """
import sys
import hrvaffect.pipeline
print(sorted({"multiprocessing", "concurrent.futures"} & sys.modules.keys()))
from hrvaffect import core, pipeline
core.worker_count = lambda n_tasks: min(2, n_tasks)
pipeline.stage_synth(sys.argv[1], sys.argv[2])
print(sorted({"concurrent.futures", "scipy.signal"} & sys.modules.keys()))
"""


def test_the_pool_is_imported_only_to_run_and_the_write_never_loads_scipy_signal(tmp_path):
    """perfbench's set-up times `import hrvaffect.pipeline`, which loads no
    pool module; synth writes its tables in the pool without scipy.signal."""
    spec = tmp_path / "spec.json"
    spec.write_text(readme_json_blocks()[0])
    done = subprocess.run([sys.executable, "-c", IMPORTS, str(spec), str(tmp_path / "data")],
                          env=package_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "['concurrent.futures']"]
