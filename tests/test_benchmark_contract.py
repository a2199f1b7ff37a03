"""What the benchmark under ``benchmarks/`` reads of the program.

The benchmark builds its inputs through the package's public names and
fields (``ComposeResult.queue``, ``Cuboid.members/bounds/provenance``, the
keyword arguments of ``TrainConfig``, ...). Running its mix-fine and
label-dense set-ups here, and mix-fine's first operations with their
checks, makes a rename of any of them fail these tests rather than the
benchmark. Its tracer records spans only at public function names, so
a traced mix-fine run here keeps the mixing steps visible to it.
"""

import importlib
import sys
from pathlib import Path

import pytest

import scanmix

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _import(name):
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCHMARKS))


@pytest.fixture(scope="module")
def workloads():
    return _import("workloads")


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


def test_tracer_sees_the_mixing_steps(workloads, tmp_path):
    workload = workloads.MixFine()
    state = workload.setup(tmp_path, 0)
    tracer = _import("tracing").Tracer()
    tracer.install(scanmix)
    try:
        tracer.phase = "run"
        for op in workload.operations(state, 0)[:4]:
            op()
    finally:
        tracer.uninstall()
    calls, self_s, _, _ = tracer.totals("run")
    assert calls["cuboidmix.compose_mixed_scene"] == 4
    # each compose partitions, permutes and classifies both of its scenes
    for step in ("partition_cuboids", "permute_cuboids", "classify_tail_cuboids"):
        assert calls[f"cuboidmix.{step}"] == 8
        assert self_s[f"cuboidmix.{step}"] > 0
