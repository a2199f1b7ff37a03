"""What the benchmark under ``benchmarks/`` reads of the program.

The benchmark builds its inputs through the package's public names and
fields (``ComposeResult.queue``, ``Cuboid.members/bounds/provenance``, the
keyword arguments of ``TrainConfig``, ...). Running its mix-fine and
label-dense set-ups here, and mix-fine's first operations with their
checks, makes a rename of any of them fail these tests rather than the
benchmark. Its tracer records spans only at public function names, so
a traced mix-fine run here keeps the mixing steps visible to it. Its own
checkpoint reader, through which label-dense's check scores, must read
what ``save_checkpoint`` writes, and label-dense's first round must pass
its checks.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import scanmix
from scanmix import TOY_TAXONOMY

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


def test_checkpoint_reader_reads_saved_parameters(tmp_path):
    gen = scanmix.RandomStream(21)
    model = scanmix.SegmenterModel(gen.normal(size=(6, 7)), gen.normal(size=6), TOY_TAXONOMY)
    scanmix.save_checkpoint(model, tmp_path / "model.bin")
    weights, bias = _import("checks").read_checkpoint(tmp_path / "model.bin")
    for got, want in ((weights, model.weights), (bias, model.bias)):
        assert got.shape == want.shape and got.dtype == np.dtype("<f8")
        assert got.tobytes() == want.tobytes()


def test_mix_fine_operations_pass_their_checks(workloads, tmp_path):
    workload = workloads.MixFine()
    state = workload.setup(tmp_path, 0)
    for index, op in enumerate(workload.operations(state, 0)[:3]):
        output = op()
        assert workload.check(state, index, output) == []
        assert len(workload.digest(state, index, output)) == 64


def test_label_dense_setup(workloads, tmp_path):
    workload = workloads.LabelDense()
    state = workload.setup(tmp_path, 0)
    out_dir = state["config"].out_dir
    assert all((out_dir / ckpt).is_file() for ckpt in workloads.CHECKPOINTS.values())
    # the first round, pseudo-labelling then evaluation, passes the
    # benchmark's own checks with every file the stages write in place
    for index, op in enumerate(workload.operations(state, 0)):
        output = op()
        assert workload.check(state, index, output) == []
        assert len(workload.digest(state, index, output)) == 64
    assert sorted(p.suffix for p in (out_dir / "pseudo").iterdir()) == (
        [".ply"] * workloads.LABEL_TARGETS + [".stats"] * workloads.LABEL_TARGETS + [".txt"]
    )


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
