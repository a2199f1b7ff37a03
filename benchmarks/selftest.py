"""Self-tests of the benchmark: each workload's correctness check passes on
a real output and fails on a deliberately corrupted copy of it (a wrong
label, a point outside its cuboid, a jitter larger than delta_p, an mIoU
off by one point, a changed byte in one of two output trees). Also checks
that BENCHMARK.json names the workloads and per-layer metrics the code
produces.

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402
from scipy.spatial import cKDTree  # noqa: E402

import checks  # noqa: E402
import scanmix  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from scanmix import TOY_STRUCTURAL, TOY_TAXONOMY, RandomStream  # noqa: E402
from scanmix.metrics import ConfusionMatrix, accumulate_confusion, compute_iou, write_iou_csv  # noqa: E402

C = TOY_TAXONOMY.count


class ScanCheck(unittest.TestCase):
    def setUp(self):
        rng = RandomStream(11)
        spec = scanmix.make_template("cluttered", rng, density=workloads.SCAN_DENSITY)
        self.scene = scanmix.generate_scene(spec, TOY_TAXONOMY, rng)
        self.config = workloads.SCAN_CONFIGS[0]
        self.out = scanmix.scan_and_jitter(self.scene, self.config, TOY_STRUCTURAL, RandomStream(12))
        self.trees = checks.label_trees(self.scene.positions, self.scene.labels)

    def run_check(self, pos, lab):
        return checks.check_scan(self.scene.positions, self.scene.labels, self.trees, pos, lab,
                                 self.config.delta_p)[0]

    def test_real_output_passes(self):
        self.assertEqual(self.run_check(self.out.positions, self.out.labels), [])

    def test_jitter_larger_than_delta_p_fails(self):
        pos = self.out.positions.copy()
        floor = np.flatnonzero(self.out.labels == TOY_STRUCTURAL.floor)[0]
        pos[floor, 2] += 3 * self.config.delta_p      # off the floor plane
        self.assertTrue(self.run_check(pos, self.out.labels))

    def test_wrong_label_fails(self):
        lab = self.out.labels.copy()
        floor = np.flatnonzero(lab == TOY_STRUCTURAL.floor)[0]
        lab[floor] = TOY_STRUCTURAL.ceiling
        self.assertTrue(self.run_check(self.out.positions, lab))


class MixCheck(unittest.TestCase):
    def setUp(self):
        rng = RandomStream(21)
        scenes = [
            scanmix.generate_scene(scanmix.make_template("cluttered", rng, density=45.0), TOY_TAXONOMY, rng)
            for _ in range(2)
        ]
        self.source, self.target = scenes
        self.ratios = scanmix.class_ratio(self.target.labels, TOY_TAXONOMY)
        self.queue = scanmix.TailCuboidQueue(workloads.MIX_CONFIG.queue_cap)
        stream = RandomStream(22)
        for _ in range(3):   # fill the queue so injection happens
            self.result = scanmix.compose_mixed_scene(
                self.source, self.target, self.ratios, workloads.MIX_CONFIG, self.queue, stream
            )
        self.origin = {
            "source": (self.source.positions, self.source.labels, cKDTree(self.source.positions)),
            "target": (self.target.positions, self.target.labels, cKDTree(self.target.positions)),
        }

    def run_check(self, result):
        return checks.check_mix(
            result, len(self.queue), len(self.queue), workloads.MIX_CONFIG, self.ratios,
            TOY_TAXONOMY.ignore_index, self.origin["source"], self.origin["target"],
            [self.origin["target"]], provenance=True,
        )[0]

    def corrupted(self, edit):
        result = copy.deepcopy(self.result)
        cloud = result.mixed.cloud
        pos, lab = cloud.positions.copy(), cloud.labels.copy()
        biggest = max(result.mixed.cuboids, key=lambda c: len(c.members))
        edit(pos, lab, biggest)
        result.mixed.cloud = scanmix.LabeledPointCloud(pos, lab, TOY_TAXONOMY)
        return result

    def test_real_output_passes(self):
        self.assertEqual(self.run_check(self.result), [])

    def test_wrong_label_fails(self):
        def edit(pos, lab, cub):
            i = cub.members[len(cub.members) // 2]
            lab[i] = (lab[i] + 1) % C
        self.assertTrue(self.run_check(self.corrupted(edit)))

    def test_point_outside_its_cuboid_fails(self):
        def edit(pos, lab, cub):
            pos[cub.members[0], 0] = cub.bounds[3] + 0.05
        self.assertTrue(self.run_check(self.corrupted(edit)))

    def test_overfull_queue_fails(self):
        failures = checks.check_mix(
            self.result, 1, workloads.MIX_CONFIG.queue_cap + 1, workloads.MIX_CONFIG, self.ratios,
            TOY_TAXONOMY.ignore_index, None, None, [], provenance=False,
        )[0]
        self.assertTrue(failures)


def _write_run_all(out_dir: Path, truth, predictions, iterations):
    """A run-all output tree whose files agree with the given predictions,
    written with the program's own metric and report code paths."""
    mious = {}
    for tag in checks.TOY_TAGS:
        matrix = ConfusionMatrix.zeros(TOY_TAXONOMY)
        for pred, gt in zip(predictions[tag], truth):
            accumulate_confusion(matrix, pred, gt)
        ious, mious[tag] = compute_iou(matrix)
        write_iou_csv(out_dir / f"metrics_{tag}.csv", TOY_TAXONOMY, ious, mious[tag])
    lines = ["status=complete"] + [f"miou_{t}={v!r}" for t, v in mious.items()]
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    for name, count in iterations.items():
        (out_dir / name).write_text("".join(f"{0.5 + i / 1000!r}\n" for i in range(count)))


class RunAllCheck(unittest.TestCase):
    def setUp(self):
        gen = np.random.default_rng(5)
        self.truth = [gen.integers(0, C, 300) for _ in range(3)]
        # source-only guesses at random, the others mostly right
        self.predictions = {
            tag: [np.where(gen.random(300) < hit, t, gen.integers(0, C, 300)) for t in self.truth]
            for tag, hit in (("source_only", 0.2), ("scan_only", 0.5), ("full", 0.7))
        }
        self.iterations = {"losses_pretrain.txt": 4, "losses_selftrain.txt": 3}
        self.tmp = tempfile.TemporaryDirectory()
        self.out = Path(self.tmp.name)
        _write_run_all(self.out, self.truth, self.predictions, self.iterations)

    def tearDown(self):
        self.tmp.cleanup()

    def run_check(self):
        return checks.check_run_all(self.out, self.iterations, self.truth, self.predictions, C)

    def test_real_output_passes(self):
        self.assertEqual(self.run_check(), [])

    def test_miou_off_by_one_point_fails(self):
        path = self.out / "metrics_full.csv"
        rows = path.read_text().splitlines()
        value = float(rows[-1].split(",")[1])
        rows[-1] = f"mIoU,{value + 0.01!r}"
        path.write_text("\n".join(rows) + "\n")
        self.assertTrue(self.run_check())

    def test_missing_loss_value_fails(self):
        path = self.out / "losses_selftrain.txt"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        self.assertTrue(self.run_check())


class SameTreeCheck(unittest.TestCase):
    """Criterion 9: two output trees of one configuration must hash alike."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.trees = [Path(self.tmp.name) / f"out{r}" for r in range(2)]
        for tree in self.trees:
            (tree / "pseudo").mkdir(parents=True)
            (tree / "report.txt").write_text("status=complete\n")
            (tree / "pseudo" / "scene_0000.ply").write_bytes(bytes(range(64)))

    def tearDown(self):
        self.tmp.cleanup()

    def run_check(self):
        return checks.check_same_tree(*self.trees)

    def test_identical_trees_pass(self):
        self.assertEqual(self.run_check(), [])

    def test_changed_byte_in_either_tree_fails(self):
        for tree in self.trees:
            path = tree / "pseudo" / "scene_0000.ply"
            data = bytearray(path.read_bytes())
            data[10] ^= 1
            path.write_bytes(bytes(data))
            self.assertTrue(self.run_check())
            data[10] ^= 1
            path.write_bytes(bytes(data))
            self.assertEqual(self.run_check(), [])


class LabelCheck(unittest.TestCase):
    def setUp(self):
        gen = np.random.default_rng(9)
        self.scores = gen.dirichlet(np.ones(C), size=500)
        config = scanmix.PseudoLabelConfig(mode="per_class_fraction", fraction=0.3)
        self.written = scanmix.generate_pseudo_labels(self.scores, config, TOY_TAXONOMY.ignore_index)
        self.pred = self.scores.argmax(axis=1)

    def run_check(self, written):
        return checks.check_pseudo(self.pred, written, written, 0.3, TOY_TAXONOMY.ignore_index)

    def test_real_output_passes(self):
        self.assertEqual(self.run_check(self.written), [])

    def test_wrong_label_fails(self):
        written = self.written.copy()
        i = np.flatnonzero(written != TOY_TAXONOMY.ignore_index)[0]
        written[i] = (written[i] + 1) % C
        self.assertTrue(self.run_check(written))

    def test_miou_off_by_one_point_fails(self):
        truth = [self.pred.copy()]
        truth[0][::3] = 0
        mine = checks.miou_bincount([self.pred], truth, C)
        self.assertEqual(checks.check_miou(mine, [self.pred], truth, C, "x"), [])
        self.assertTrue(checks.check_miou(mine - 0.01, [self.pred], truth, C, "x"))


class BenchmarkFile(unittest.TestCase):
    def test_names_match_the_code(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         tracing.per_layer_spec())


if __name__ == "__main__":
    unittest.main()
