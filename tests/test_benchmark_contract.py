"""What the benchmark under ``benchmarks/`` reads of the program.

The benchmark builds its inputs through the package's public names and
fields (``ComposeResult.queue``, ``Cuboid.members/bounds/provenance``, the
keyword arguments of ``TrainConfig``, ...). Running its mix-fine and
label-dense set-ups here, and mix-fine's first operations with their
checks, makes a rename of any of them fail these tests rather than the
benchmark.
"""

import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCHMARKS))
    return workloads


def test_mix_fine_operations_pass_their_checks(workloads, tmp_path):
    workload = workloads.MixFine()
    state = workload.setup(tmp_path, 0)
    for index, op in enumerate(workload.operations(state, 0)[:3]):
        output = op()
        assert workload.check(state, index, output) == []
        assert len(workload.digest(state, index, output)) == 64


def test_label_dense_setup(workloads, tmp_path):
    state = workloads.LabelDense().setup(tmp_path, 0)
    out_dir = state["config"].out_dir
    assert all((out_dir / ckpt).is_file() for ckpt in workloads.CHECKPOINTS.values())
