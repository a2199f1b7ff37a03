import hashlib
import multiprocessing
import os
import re
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import scanmix.pipeline
from scanmix import (
    ClassTaxonomy,
    FileFormat,
    StructuralClasses,
    TOY_TAXONOMY,
    detect_format,
    generate_scene_set,
    load_config,
    load_manifest,
    make_toy_benchmark,
    read_point_file,
    run_pipeline,
    write_point_file,
)
from scanmix.cli import main as cli_main
from scanmix.errors import ConfigError, NoSupervisionError, NoWallPointsError, StageError
from scanmix.pipeline import (
    CKPT_SOURCE_ONLY,
    CONFIG_KEYS,
    DEFAULT_CONFIG_TEXT,
    PipelineConfig,
    config_text,
    parse_config_text,
    save_config,
    stage_evaluate,
    stage_mix,
    stage_pretrain,
    stage_pseudo_label,
    stage_scan,
    stage_selftrain,
)
from scanmix.segmenter import TrainConfig


def tiny_benchmark(tmp_path, seed=0):
    """Small end-to-end fixture: few scenes, few iterations."""
    config_path = make_toy_benchmark(tmp_path / "bench", seed=seed, n_source=4, n_target=3, density=30.0)
    config = load_config(config_path)
    config.pretrain = TrainConfig(learning_rate=0.02, iterations=6, batch_size=1)
    config.selftrain = TrainConfig(learning_rate=0.01, iterations=4, batch_size=1)
    return config


class TestConfig:
    def test_defaults_round_trip(self):
        config = PipelineConfig()
        back = parse_config_text(config_text(config))
        assert config_text(back) == config_text(config)

    def test_spec_section_keys_accepted(self, tmp_path):
        text = (
            "seed=7\n"
            "vss.n_v=2\nvss.alpha_h=120.0\nvss.alpha_v=60.0\nvss.mode=perspective\n"
            "vss.d_ref=1.5\nvss.bev_cell=0.5\nvss.clearance=0.2\nvss.theta_bin=1.0\n"
            "vss.eps_d=0.1\nvss.delta_p=0.02\n"
            "tacm.nx=3\ntacm.ny=2\ntacm.nz=1\ntacm.delta_phi=0.05\ntacm.rho_s=0.4\n"
            "tacm.rho_m=0.6\ntacm.queue_cap=32\ntacm.n_tail_classes=1\ntacm.min_tail_cuboids=1\n"
        )
        config = parse_config_text(text)
        assert config.seed == 7
        assert config.scan.n_v == 2 and config.scan.fov.mode == "perspective"
        assert config.mix.shape == (3, 2, 1) and config.mix.queue_cap == 32

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("vss.bogus=1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("seed=abc\n")

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        (tmp_path / "x.cfg").write_text("source_manifest=rel/manifest.txt\n")
        config = load_config(tmp_path / "x.cfg")
        assert config.source_manifest == tmp_path / "rel/manifest.txt"
        # path keys the file does not name keep their (relative) defaults
        assert config.out_dir == Path("out")

    @pytest.mark.parametrize(
        "line",
        [
            "vss.n_v=0",
            "tacm.nx=0",
            "vss.mode=bogus",
            "pseudo.mode=bogus",
            "taxonomy.ignore=0",
            "vss.delta_p=nan",
            "pretrain.lr=inf",
            "pretrain.regen_every=5",
            "vss.bev_cell=0",
            "selftrain.regen_every=-2",
            "structural.wall=99",
            "augment.flip=maybe",
            "seed=1\nseed=2",
            "no_equals_sign",
        ],
    )
    def test_invalid_input_raises_config_error(self, line):
        with pytest.raises(ConfigError):
            parse_config_text(line + "\n")

    def test_section_built_from_all_its_keys(self):
        # ignore=5 collides with the six default classes, not with these three
        config = parse_config_text("taxonomy.ignore=5\ntaxonomy.names=a,b,c\n")
        assert config.taxonomy.names == ("a", "b", "c")
        assert config.taxonomy.ignore_index == 5

    def test_every_key_listed_once_in_default_text(self):
        keys = [line.split("=", 1)[0] for line in DEFAULT_CONFIG_TEXT.splitlines()]
        assert keys == list(CONFIG_KEYS)

    def test_non_default_values_round_trip(self):
        config = parse_config_text(NON_DEFAULT_TEXT)
        assert config_text(config) == NON_DEFAULT_TEXT
        for line in NON_DEFAULT_TEXT.splitlines():
            assert line not in DEFAULT_CONFIG_TEXT.splitlines(), line


# One line per key, every value different from its default, in table order.
NON_DEFAULT_TEXT = """\
seed=11
out_dir=/tmp/o
source_manifest=/tmp/s.txt
target_manifest=/tmp/t.txt
taxonomy.name=mini
taxonomy.names=f,c,w,x
taxonomy.ignore=9
structural.floor=1
structural.ceiling=0
structural.wall=3
vss.n_v=2
vss.alpha_h=120.5
vss.alpha_v=60.25
vss.mode=perspective
vss.d_ref=1.5
vss.bev_cell=0.3
vss.clearance=0.2
vss.theta_bin=1.0
vss.eps_d=0.07
vss.delta_p=0.03
tacm.nx=3
tacm.ny=4
tacm.nz=2
tacm.delta_phi=0.05
tacm.rho_s=0.4
tacm.rho_m=0.6
tacm.queue_cap=32
tacm.n_tail_classes=1
tacm.min_tail_cuboids=3
pseudo.mode=per_class_fraction
pseudo.threshold=0.8
pseudo.fraction=0.4
features.voxel_size=0.03
features.radius=0.25
augment.rotate=false
augment.flip=false
augment.elastic=false
augment.jitter=false
augment.shuffle=false
augment.elastic_spacing=0.3
augment.elastic_magnitude=0.06
augment.jitter_range=0.004
pretrain.lr=0.05
pretrain.iterations=40
pretrain.batch=3
pretrain.momentum=0.9
pretrain.lr_decay=0.8
pretrain.lambda=0.25
selftrain.lr=0.01
selftrain.iterations=30
selftrain.batch=4
selftrain.momentum=0.85
selftrain.lr_decay=0.7
selftrain.regen_every=5
selftrain.lambda=0.75
"""


class TestSceneSet:
    def test_generate_scene_set(self, tmp_path):
        manifest_path = generate_scene_set(tmp_path, count=4, seed=1, role="source", density=30.0)
        manifest = load_manifest(manifest_path)
        assert len(manifest) == 4
        cloud = read_point_file(
            manifest.entries[0][1], detect_format(manifest.entries[0][1]), TOY_TAXONOMY
        )
        assert cloud.n > 200

    def test_deterministic(self, tmp_path):
        m1 = generate_scene_set(tmp_path / "a", count=3, seed=5, role="source", density=30.0)
        m2 = generate_scene_set(tmp_path / "b", count=3, seed=5, role="source", density=30.0)
        for (s1, p1), (s2, p2) in zip(load_manifest(m1).entries, load_manifest(m2).entries):
            assert p1.read_bytes() == p2.read_bytes()


def hash_tree(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def _exit_at_once(config):
    os._exit(3)


class TestRunPipeline:
    def test_zero_iteration_run_completes(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        config.pretrain = TrainConfig(iterations=0)
        config.selftrain = TrainConfig(iterations=0)
        report = run_pipeline(config)
        assert report.complete
        assert set(report.mious) == {"source_only", "scan_only", "full"}
        text = (config.out_dir / "report.txt").read_text()
        assert "status=complete" in text
        for tag in ("source_only", "scan_only", "full"):
            assert f"miou_{tag}=" in text

    def test_full_tiny_run_outputs(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        report = run_pipeline(config)
        assert report.complete
        out = config.out_dir
        for name in (
            "checkpoint_source_only.bin",
            "checkpoint_scan_pretrain.bin",
            "checkpoint_final.bin",
            "losses_pretrain.txt",
            "losses_source_only.txt",
            "losses_selftrain.txt",
            "metrics_source_only.csv",
            "metrics_scan_only.csv",
            "metrics_full.csv",
            "report.txt",
        ):
            assert (out / name).is_file(), name
        assert len(list((out / "pseudo").glob("*.ply"))) == 3
        assert (out / "pseudo" / "ratios.txt").is_file()
        assert len(list((out / "mixed_samples").glob("*.ply"))) == 3

    def test_byte_identical_reruns(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        run_pipeline(config)
        first = hash_tree(config.out_dir)
        run_pipeline(config)
        second = hash_tree(config.out_dir)
        assert first == second

    def test_missing_manifest_is_stage_tagged(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        config.source_manifest = tmp_path / "nope.txt"
        with pytest.raises(StageError):
            run_pipeline(config)
        text = (config.out_dir / "report.txt").read_text()
        assert "status=failed" in text
        assert "miou_full=incomplete" in text
        assert not multiprocessing.active_children()

    def test_matches_stages_run_one_by_one(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        report = run_pipeline(config)
        assert report.complete and not multiprocessing.active_children()
        whole = hash_tree(config.out_dir)
        assert whole.pop("report.txt")
        config.out_dir = tmp_path / "one_by_one"
        stage_pretrain(config, with_scan_sim=False)
        stage_pretrain(config, with_scan_sim=True)
        stage_pseudo_label(config)
        stage_selftrain(config)
        assert stage_evaluate(config) == report.mious
        assert hash_tree(config.out_dir) == whole

    def test_both_pretrains_fail_reports_source_only(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        ignore = config.taxonomy.ignore_index
        for _sid, path in load_manifest(config.source_manifest).entries:
            cloud = read_point_file(path, detect_format(path), config.taxonomy)
            write_point_file(cloud.with_labels(np.full(cloud.n, ignore)), path, detect_format(path))
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        # the worker's error arrives with its stage and cause intact
        assert err.value.stage == "source-only"
        assert isinstance(err.value.cause, NoSupervisionError)
        assert "failed_stage=source-only" in (config.out_dir / "report.txt").read_text()
        assert not multiprocessing.active_children()

    def test_only_scan_pretrain_fails_reports_pretrain(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        # a wall class that no scene holds: only scan simulation needs walls
        names = config.taxonomy.names + ("spare",)
        config.taxonomy = ClassTaxonomy(config.taxonomy.name, names, config.taxonomy.ignore_index)
        config.structural = StructuralClasses(floor=0, ceiling=1, wall=len(names) - 1)
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "pretrain"
        assert isinstance(err.value.cause, NoWallPointsError)
        text = (config.out_dir / "report.txt").read_text()
        assert "failed_stage=pretrain" in text and "miou_full=incomplete" in text
        assert (config.out_dir / CKPT_SOURCE_ONLY).is_file()
        assert not multiprocessing.active_children()

    def test_dead_worker_reports_source_only(self, tmp_path, monkeypatch):
        config = tiny_benchmark(tmp_path)
        monkeypatch.setattr(scanmix.pipeline, "_source_only", _exit_at_once)
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "source-only"
        assert isinstance(err.value.cause, BrokenProcessPool)
        assert "failed_stage=source-only" in (config.out_dir / "report.txt").read_text()
        assert not multiprocessing.active_children()

    def test_selftrain_before_pseudo_fails_tagged(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        stage_pretrain(config, with_scan_sim=True)
        with pytest.raises(StageError) as err:
            stage_selftrain(config)
        assert err.value.stage == "selftrain"


class TestAuxStages:
    def test_scan_stage(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        out = stage_scan(config)
        manifest = load_manifest(out / "manifest.txt")
        assert len(manifest) == 4
        src_manifest = load_manifest(config.source_manifest)
        for (sid, path), (_, src_path) in zip(manifest.entries, src_manifest.entries):
            scanned = read_point_file(path, detect_format(path), config.taxonomy)
            original = read_point_file(src_path, detect_format(src_path), config.taxonomy)
            assert scanned.n <= original.n

    def test_mix_stage_without_pseudo(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        out = stage_mix(config, count=2)
        assert len(list(out.glob("*.ply"))) == 2

    def test_evaluate_without_checkpoints_is_empty(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        config.out_dir.mkdir(parents=True, exist_ok=True)
        assert stage_evaluate(config) == {}

    def test_threaded_stages_match_sequential(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        stage_pretrain(config, with_scan_sim=True)
        seq_pseudo = stage_pseudo_label(config, threads=1)
        seq_hashes = hash_tree(seq_pseudo)
        par_pseudo = stage_pseudo_label(config, threads=3)
        assert hash_tree(par_pseudo) == seq_hashes
        assert stage_evaluate(config, threads=1) == stage_evaluate(config, threads=3)


class TestCli:
    def test_make_toy_benchmark_and_run_all(self, tmp_path, capsys):
        rc = cli_main(
            [
                "make-toy-benchmark", "--out", str(tmp_path / "bench"),
                "--seed", "3", "--source-scenes", "3", "--target-scenes", "2",
                "--density", "25",
            ]
        )
        assert rc == 0
        config_path = capsys.readouterr().out.strip()
        # shrink the training so the CLI run is fast
        text = Path(config_path).read_text()
        for key, n in (("pretrain.iterations", 4), ("selftrain.iterations", 2)):
            text, hits = re.subn(rf"^{re.escape(key)}=\d+$", f"{key}={n}", text, flags=re.M)
            assert hits == 1, key
        Path(config_path).write_text(text)
        rc = cli_main(["run-all", "--config", config_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "miou_full=" in out

    def test_gen_scenes(self, tmp_path, capsys):
        rc = cli_main(
            ["gen-scenes", "--out", str(tmp_path / "gen"), "--count", "2",
             "--seed", "1", "--density", "25", "--templates", "empty_room"]
        )
        assert rc == 0
        manifest = load_manifest((tmp_path / "gen") / "manifest.txt")
        assert len(manifest) == 2

    def test_failure_exit_code_and_stderr(self, tmp_path, capsys):
        config = PipelineConfig(out_dir=tmp_path / "out", source_manifest=tmp_path / "missing.txt")
        save_config(config, tmp_path / "bad.cfg")
        rc = cli_main(["pretrain", "--config", str(tmp_path / "bad.cfg")])
        assert rc != 0
        assert "[pretrain]" in capsys.readouterr().err

    def test_seed_and_out_overrides(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        save_config(config, tmp_path / "c.cfg")
        override_out = tmp_path / "elsewhere"
        rc = cli_main(
            ["pretrain", "--config", str(tmp_path / "c.cfg"), "--seed", "99",
             "--out", str(override_out)]
        )
        assert rc == 0
        assert (override_out / "checkpoint_scan_pretrain.bin").is_file()
