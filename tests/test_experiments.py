"""The benchmark's copy of the fidelity twins against the library's.

perfbench/workloads.py writes the twins as JSON documents of its own; this
test loads it by path and requires each of its specs to decode to the
library twin of the same name, so the two definitions cannot drift apart.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from hrvaffect import experiments
from hrvaffect.ingest import SyntheticSpec
from hrvaffect.serialize import decode

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
