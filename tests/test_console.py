"""Console-script checks, on the README's quick-start documents or on specs
of their own.  The quick-start chain runs as processes of the `hrvaffect`
console script when one is on PATH, else of `python -m hrvaffect`; the other
checks invoke the click command in this process."""

import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from hrvaffect.cli import main
from helpers import package_env, readme_json_blocks

ENTRY_POINT = shutil.which("hrvaffect")
CONSOLE = [ENTRY_POINT] if ENTRY_POINT else [sys.executable, "-m", "hrvaffect"]


def spec_doc(duration_s, ecg_rate_hz, ppg_rate_hz, states, **rest):
    """A synthetic spec document; each state is (label, mean_bpm, bpm_jitter_ms, duration_s)."""
    keys = ("label", "mean_bpm", "bpm_jitter_ms", "duration_s")
    return {"duration_s": duration_s, "ecg_rate_hz": ecg_rate_hz, "ppg_rate_hz": ppg_rate_hz,
            "states": [dict(zip(keys, state)) for state in states], **rest}


AV_SPEC = spec_doc(240.0, 350.0, 64.0, [
    ("LALV", 62.0, 25.0, 60.0), ("LAHV", 68.0, 25.0, 60.0),
    ("HALV", 90.0, 25.0, 60.0), ("HAHV", 84.0, 25.0, 60.0),
], noise_std=0.02, seed=3)
# ECG at 2000 Hz puts one 10 s window in a detection block; PPG at 25 Hz
# puts 131 windows in its first block, and the rest in a second.
BLOCK_SPEC = spec_doc(1260.0, 2000.0, 25.0, [
    ("baseline", 65.0, 25.0, 630.0), ("stress", 90.0, 25.0, 630.0),
], noise_std=0.02, seed=5)
DECODE_SPEC = spec_doc(60.0, 350.0, 64.0, [
    ("baseline", 65.0, 25.0, 30.0), ("stress", 90.0, 25.0, 30.0),
], seed=4)
# The second state's beats overlap: 200 BPM with 80 ms jitter.
RENDER_SPEC = spec_doc(120.0, 2000.0, 25.0, [
    ("baseline", 65.0, 25.0, 60.0), ("stress", 200.0, 80.0, 60.0),
], respiratory_rr_modulation_ms=30.0, noise_std=0.02, seed=6)


@pytest.fixture
def cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def readme(cwd):
    """A working directory holding the README's spec and config."""
    spec, config = readme_json_blocks()[:2]
    Path("synth_spec.json").write_text(spec)
    Path("config.json").write_text(config)
    return cwd


def invoke(*args):
    """Run a subcommand in this process; fail on any exception it lets out."""
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def error_of(result):
    assert result.exit_code == 1, result.output
    return json.loads(result.output)["error"]


def write_spec(doc, path="spec.json"):
    Path(path).write_text(json.dumps(doc))
    return path


def test_readme_quick_start_through_the_console_script(readme):
    for stage in ("extract", "variance", "train-eval", "importance", "report"):
        proc = subprocess.run(
            [*CONSOLE, stage, "--config", "config.json"],
            cwd=readme, env=package_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, f"{stage}: {proc.stderr}"
    assert Path("run/report.json").stat().st_size > 0


def test_synth_writes_the_canonical_csv_extract_reads(readme):
    assert invoke("synth", "--spec", "synth_spec.json", "--out", "data").exit_code == 0
    assert invoke("extract", "--manifest", "data/manifest.json", "--out", "run").exit_code == 0
    assert Path("run/features.csv").stat().st_size > 0


def test_arousal_valence_csv_written_by_synth_and_read_by_extract(cwd):
    assert invoke("synth", "--spec", write_spec(AV_SPEC), "--out", "data").exit_code == 0
    with open("data/synthetic_annotations.csv") as fh:
        assert fh.readline() == "index,arousal,valence\n"
    assert invoke("extract", "--manifest", "data/manifest.json", "--out", "run").exit_code == 0
    stats = json.loads(Path("run/extract_stats.json").read_text())
    assert stats["label_scheme"] == "arousal_valence"
    features = Path("run/features.csv").read_text()
    for quadrant in ("LALV", "LAHV", "HALV", "HAHV"):
        assert f",{quadrant}," in features


def test_beat_detection_in_blocks_of_one_window_and_of_131(cwd):
    """From the spec: the canonical CSV round trip at these rates is bit for
    bit (test_write_then_load_preserves_samples_exactly), so a manifest
    would give extract the same recording."""
    spec = write_spec(BLOCK_SPEC)
    assert invoke("extract", "--synthetic-spec", spec, "--out", "run").exit_code == 0
    windows = json.loads(Path("run/extract_stats.json").read_text())["windows_labeled"]
    with open("run/features.csv") as fh:
        rows = sum(1 for line in fh if not line.startswith("#")) - 1
    assert windows > 131 and rows == 2 * windows


def test_spec_and_config_are_decoded_under_one_rule(cwd):
    write_spec(DECODE_SPEC)
    misspelt = write_spec(dict(DECODE_SPEC, noise_sd=0.5), "misspelt.json")
    assert error_of(invoke("synth", "--spec", misspelt, "--out", "data")) == "InvalidSpec"
    Path("c.json").write_text(json.dumps(
        {"synthetic_spec_path": "spec.json", "out_dir": "run", "window": {"window_len_s": 10}}
    ))
    assert invoke("extract", "--config", "c.json").exit_code == 0
    assert invoke("variance", "--config", "c.json", "--window-len-s", "10").exit_code == 0


def test_synth_twice_gives_byte_identical_files(cwd):
    spec = write_spec(RENDER_SPEC)
    for out in ("first", "second"):
        assert invoke("synth", "--spec", spec, "--out", out).exit_code == 0
    first, second = ({path.name: path.read_bytes() for path in Path(out).iterdir()}
                     for out in ("first", "second"))
    assert first == second


def test_variance_refuses_a_bad_filter_flag_before_reading_features(readme):
    result = invoke("variance", "--config", "config.json", "--ppg-low-hz", "9")
    assert error_of(result) == "ConfigInvalid"


def test_adapt_wesad_on_an_export_the_loader_would_refuse_writes_no_manifest(cwd):
    ecg = np.zeros((7000, 1))
    ecg[100, 0] = np.nan
    label = np.ones(7000, dtype=np.int64)
    label[50] = 9
    payload = {"signal": {"chest": {"ECG": ecg}, "wrist": {"BVP": np.zeros((640, 1))}},
               "label": label}
    Path("raw/S2").mkdir(parents=True)
    with open("raw/S2/S2.pkl", "wb") as fh:
        pickle.dump(payload, fh, protocol=2)
    assert error_of(invoke("adapt-wesad", "--raw", "raw", "--out", "data")) == "NonFiniteSample"
    assert not Path("data/manifest.json").exists()
