"""Scaffolding that several test modules share: the README's JSON documents,
the environment of a child Python, and beat series built from RR intervals."""

import os
import re
from pathlib import Path

import numpy as np

import hrvaffect
from hrvaffect.hrv import BeatSeries

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_json_blocks() -> list[str]:
    """The text of each ```json block in the README, in order: the quick-start
    synthetic spec first, then its config."""
    return re.findall(r"```json\n(.*?)```", README.read_text(), re.S)


def package_env() -> dict:
    """Environment whose Python finds the package this process imported, ahead
    of any installed copy, also from a directory where a relative PYTHONPATH
    such as `src` does not resolve."""
    package_root = str(Path(hrvaffect.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([package_root, inherited]) if inherited else package_root,
    }


def beats_from_rr(rr_ms) -> BeatSeries:
    """Beats one sample apart whose RR intervals are rr_ms, every one accepted."""
    rr_ms = np.asarray(rr_ms, dtype=np.float64)
    return BeatSeries(
        peak_indices=np.arange(rr_ms.size + 1),
        rr_ms=rr_ms,
        accepted=np.ones(rr_ms.size, dtype=bool),
    )
