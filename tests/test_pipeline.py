import hashlib
import multiprocessing
import os
import re
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import scanmix.pipeline
from scanmix import (
    AugmentConfig,
    ClassTaxonomy,
    CuboidMixConfig,
    FeatureConfig,
    PseudoLabelConfig,
    StructuralClasses,
    TOY_TAXONOMY,
    TrainConfig,
    class_ratio,
    detect_format,
    generate_scene_set,
    load_config,
    load_manifest,
    make_toy_benchmark,
    read_point_file,
    run_pipeline,
    write_point_file,
)
from scanmix.cli import build_parser, main as cli_main
from scanmix.errors import (
    ConfigError,
    IoError,
    NoSupervisionError,
    NoWallPointsError,
    ParseError,
    StageError,
    TrainerError,
)
from scanmix.pipeline import (
    CKPT_SOURCE_ONLY,
    CONFIG_KEYS,
    DEFAULT_CONFIG_TEXT,
    PipelineConfig,
    _load_domain,
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


def rewrite_iterations(config_path, pretrain, selftrain):
    """Shrink a toy config's training by rewriting its two iteration lines."""
    text = Path(config_path).read_text()
    for key, n in (("pretrain.iterations", pretrain), ("selftrain.iterations", selftrain)):
        text, hits = re.subn(rf"^{re.escape(key)}=\d+$", f"{key}={n}", text, flags=re.M)
        assert hits == 1, key
    Path(config_path).write_text(text)


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
            "pretrain.lambda=0.5",
            "selftrain.batch=1",
            "vss.bev_cell=0",
            "vss.d_ref=0",
            "vss.d_ref=-2",
            "vss.theta_bin=1e-7",
            "selftrain.regen_every=-2",
            "pretrain.momentum=-0.5",
            "augment.jitter_range=-0.05",
            "augment.elastic_spacing=0",
            "augment.elastic_spacing=-0.2",
            "tacm.delta_phi=-0.1",
            "tacm.min_tail_cuboids=-3",
            "structural.wall=99",
            "augment.flip=maybe",
            "seed=1\nseed=2",
            "no_equals_sign",
        ],
    )
    def test_invalid_input_raises_config_error(self, line):
        with pytest.raises(ConfigError):
            parse_config_text(line + "\n")

    @pytest.mark.parametrize(
        "section, values",
        [
            (FeatureConfig, {"radius": float("nan")}),
            (FeatureConfig, {"voxel_size": float("inf")}),
            (TrainConfig, {"learning_rate": float("nan")}),
            (TrainConfig, {"learning_rate": float("inf")}),
            (TrainConfig, {"source_loss_weight": float("nan")}),
            (TrainConfig, {"momentum": float("nan")}),
            (TrainConfig, {"lr_decay_power": float("inf")}),
            (AugmentConfig, {"jitter_range": float("nan")}),
            (AugmentConfig, {"elastic_spacing": float("inf")}),
            (AugmentConfig, {"elastic_magnitude": float("nan")}),
            (CuboidMixConfig, {"delta_phi": float("nan")}),
        ],
    )
    def test_non_finite_section_value_rejected(self, section, values):
        # a config file cannot spell these (its floats must be finite), but
        # the sections are public and must not take them either
        with pytest.raises(ValueError, match="finite"):
            section(**values)

    @pytest.mark.parametrize("name", ["my tax", "t\u00f6y"])
    def test_taxonomy_name_outside_the_header_alphabet(self, name):
        with pytest.raises(ConfigError, match="ascii without whitespace"):
            parse_config_text(f"taxonomy.name={name}\n")

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
selftrain.lr=0.01
selftrain.iterations=30
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


def _exit_at_once(*_):
    os._exit(3)


def _interrupt(*_):
    raise KeyboardInterrupt


def _raise_unpicklable(*_):
    class Local(Exception):
        pass

    raise Local("not importable by name")


class TestRunPipeline:
    def test_zero_iteration_run_completes(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        config.pretrain = TrainConfig(iterations=0)
        config.selftrain = TrainConfig(iterations=0)
        mious = run_pipeline(config)
        assert set(mious) == {"source_only", "scan_only", "full"}
        text = (config.out_dir / "report.txt").read_text()
        assert "status=complete" in text
        for tag in ("source_only", "scan_only", "full"):
            assert f"miou_{tag}=" in text

    def test_full_tiny_run_outputs(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        run_pipeline(config)
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
        mious = run_pipeline(config)
        assert not multiprocessing.active_children()
        whole = hash_tree(config.out_dir)
        assert whole.pop("report.txt")
        config.out_dir = tmp_path / "one_by_one"
        stage_pretrain(config, with_scan_sim=False)
        stage_pretrain(config, with_scan_sim=True)
        stage_pseudo_label(config)
        stage_selftrain(config)
        assert stage_evaluate(config) == mious
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
        assert isinstance(err.value.cause, TrainerError)
        assert "the scanmix-source-only process exited with code 3" in str(err.value.cause)
        assert "failed_stage=source-only" in (config.out_dir / "report.txt").read_text()
        assert not multiprocessing.active_children()

    def test_an_unpicklable_worker_error_arrives_typed(self, tmp_path, monkeypatch):
        config = tiny_benchmark(tmp_path)
        monkeypatch.setattr(scanmix.pipeline, "_source_only", _raise_unpicklable)
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "source-only"
        cause = err.value.cause
        assert isinstance(cause, TrainerError)
        assert str(cause) == "Local: not importable by name"
        # the worker's traceback is the cause of the error it sent
        trace = str(cause.__cause__)
        assert "in _raise_unpicklable" in trace
        assert trace.rstrip().endswith("Local: not importable by name")
        assert not multiprocessing.active_children()

    def test_an_interrupted_worker_interrupts_the_run(self, tmp_path, monkeypatch):
        config = tiny_benchmark(tmp_path)
        monkeypatch.setattr(scanmix.pipeline, "_source_only", _interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(config)
        assert not multiprocessing.active_children()

    def test_every_fork_is_made_by_one_thread(self, tmp_path, monkeypatch):
        # a fork copies only the forking thread, and with it any lock that
        # another thread held; each fork is logged by the process making it
        config = tiny_benchmark(tmp_path)
        log, fork = tmp_path / "forks.txt", os.fork

        def logged_fork():
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {threading.active_count()}\n")
            return fork()

        monkeypatch.setattr(os, "fork", logged_fork)
        run_pipeline(config)
        forks = [line.split() for line in log.read_text().splitlines()]
        # the worker and its trainer, then the scan pretrain's and
        # self-training's trainers from this process
        assert len(forks) == 4 and len({pid for pid, _ in forks}) == 2
        assert [count for _, count in forks] == ["1"] * 4

    def test_toy_seed_with_thin_target_completes(self, tmp_path):
        # toy seed 3 holds a target scan that kept one wall patch about
        # 0.04 m deep, thinner than 2 * delta_phi; self-training draws it
        # within 20 iterations and must partition it
        config_path = make_toy_benchmark(tmp_path / "bench", seed=3)
        rewrite_iterations(config_path, 4, 20)
        config = load_config(config_path)
        _, targets = _load_domain(config.target_manifest, "target", config.taxonomy)
        extents = [np.ptp(t.positions[:, :2], axis=0).min() for t in targets]
        assert min(extents) < 2 * config.mix.delta_phi
        run_pipeline(config)
        assert "status=complete" in (config.out_dir / "report.txt").read_text()

    def test_manifest_of_another_taxonomy_rejected(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        manifest = config.source_manifest
        text = manifest.read_text()
        manifest.write_text(text.replace("taxonomy=toy6", "taxonomy=nope", 1))
        with pytest.raises(StageError) as err:
            stage_pretrain(config, with_scan_sim=False)
        cause = err.value.cause
        assert isinstance(cause, ParseError)
        assert (cause.path, cause.line) == (str(manifest), 1)
        assert "'nope'" in str(cause) and "'toy6'" in str(cause)

    @pytest.mark.parametrize("stage", [stage_pretrain, stage_evaluate], ids=["pretrain", "evaluate"])
    def test_swapped_manifests_rejected(self, tmp_path, stage):
        config = tiny_benchmark(tmp_path)
        config.source_manifest, config.target_manifest = config.target_manifest, config.source_manifest
        with pytest.raises(StageError) as err:
            stage(config)
        cause = err.value.cause
        assert isinstance(cause, ParseError)
        want = config.source_manifest if stage is stage_pretrain else config.target_manifest
        assert (cause.path, cause.line) == (str(want), 1)
        assert "'target'" in str(cause) and "'source'" in str(cause)

    @pytest.mark.parametrize("stage", [stage_selftrain, stage_mix], ids=["selftrain", "mix"])
    def test_a_source_manifest_as_the_pseudo_labels_target_rejected(self, tmp_path, stage):
        # the pseudo labels exist, so both stages read the target manifest
        # only for its scene ids
        config = tiny_benchmark(tmp_path)
        stage_pretrain(config, with_scan_sim=True)
        stage_pseudo_label(config)
        config.target_manifest = config.source_manifest
        with pytest.raises(StageError) as err:
            stage(config)
        assert err.value.stage == stage.__name__.removeprefix("stage_")
        cause = err.value.cause
        assert isinstance(cause, ParseError)
        assert (cause.path, cause.line) == (str(config.source_manifest), 1)
        assert "'target'" in str(cause) and "'source'" in str(cause)
        assert not (config.out_dir / "checkpoint_final.bin").exists()
        assert not (config.out_dir / "mixed").exists()

    def test_swapped_manifests_fail_as_load_before_any_fork(self, tmp_path, monkeypatch):
        config = tiny_benchmark(tmp_path)
        config.source_manifest, config.target_manifest = config.target_manifest, config.source_manifest
        forks = []

        def no_fork():
            forks.append(None)
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "load"
        assert isinstance(err.value.cause, ParseError)
        assert (err.value.cause.path, err.value.cause.line) == (str(config.source_manifest), 1)
        assert "failed_stage=load" in (config.out_dir / "report.txt").read_text()
        assert forks == []
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

    @pytest.mark.parametrize("stage", [stage_evaluate, stage_mix], ids=["evaluate", "mix"])
    def test_failed_probe_is_io_error(self, tmp_path, stage):
        # a name too long for the file system fails the probe with
        # ENAMETOOLONG, which is not a missing path
        config = tiny_benchmark(tmp_path)
        config.out_dir = tmp_path / ("o" * 300)
        with pytest.raises(StageError) as err:
            stage(config)
        assert isinstance(err.value.cause, IoError)
        assert str(config.out_dir) in str(err.value.cause)

    def test_threaded_stages_match_sequential(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        stage_pretrain(config, with_scan_sim=True)
        seq_pseudo = stage_pseudo_label(config, threads=1)
        seq_hashes = hash_tree(seq_pseudo)
        par_pseudo = stage_pseudo_label(config, threads=3)
        assert hash_tree(par_pseudo) == seq_hashes
        assert stage_evaluate(config, threads=1) == stage_evaluate(config, threads=3)


def count_live_clouds(monkeypatch):
    """Count the clouds ``pipeline.read_point_file`` returns while they are
    alive; the returned dict's ``peak`` is the most alive at once."""
    live = {"now": 0, "peak": 0, "read": 0}
    lock = threading.RLock()  # a finalizer may run inside the locked block
    read = scanmix.pipeline.read_point_file

    def died():
        with lock:
            live["now"] -= 1

    def counted(*args, **kwargs):
        cloud = read(*args, **kwargs)
        with lock:
            live["now"] += 1
            live["read"] += 1
            live["peak"] = max(live["peak"], live["now"])
        weakref.finalize(cloud, died)
        return cloud

    monkeypatch.setattr(scanmix.pipeline, "read_point_file", counted)
    return live


def pseudo_ratios_text(config):
    """``ratios.txt`` as written from the pseudo-label files: class_ratio of
    all their labels together."""
    labels = [
        read_point_file(config.out_dir / "pseudo" / f"{sid}.ply", "ply_binary_le", config.taxonomy).labels
        for sid, _ in load_manifest(config.target_manifest).entries
    ]
    ratios = class_ratio(np.concatenate(labels), config.taxonomy)
    return "".join(f"{name}\t{float(value)!r}\n" for name, value in zip(config.taxonomy.names, ratios))


class TestTargetStages:
    """Pseudo-labelling and evaluation read, score and drop one target
    scene at a time."""

    @pytest.mark.parametrize("threads", [1, 3])
    def test_at_most_threads_target_scenes_alive(self, tmp_path, monkeypatch, threads):
        config_path = make_toy_benchmark(tmp_path / "bench", n_source=2, n_target=7, density=30.0)
        config = load_config(config_path)
        config.pretrain = TrainConfig(learning_rate=0.02, iterations=2, batch_size=1)
        stage_pretrain(config, with_scan_sim=True)
        for stage in (stage_pseudo_label, stage_evaluate):
            live = count_live_clouds(monkeypatch)
            stage(config, threads)
            assert live["read"] == 7, stage.__name__
            assert 1 <= live["peak"] <= threads, (stage.__name__, live)
            monkeypatch.undo()

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize(
        "stage, tag", [(stage_pseudo_label, "pseudo-label"), (stage_evaluate, "evaluate")],
        ids=["pseudo-label", "evaluate"],
    )
    def test_corrupt_scene_fails_the_stage_naming_its_file(self, tmp_path, stage, tag, threads):
        config = tiny_benchmark(tmp_path)
        stage_pretrain(config, with_scan_sim=True)
        ids = [sid for sid, _ in load_manifest(config.target_manifest).entries]
        bad = load_manifest(config.target_manifest).entries[1][1]
        bad.write_bytes(bad.read_bytes()[:-1])  # the payload one byte short
        with pytest.raises(StageError) as err:
            stage(config, threads)
        assert err.value.stage == tag
        assert isinstance(err.value.cause, ParseError)
        assert err.value.cause.path == str(bad)
        if stage is stage_pseudo_label:
            pseudo = config.out_dir / "pseudo"
            # the scene before the bad one is written; no summary is
            assert (pseudo / f"{ids[0]}.ply").is_file()
            assert not (pseudo / f"{ids[1]}.ply").exists()
            assert not (pseudo / "ratios.txt").exists()
            if threads == 1:
                assert not (pseudo / f"{ids[2]}.ply").exists()

    @pytest.mark.parametrize("all_ignored", [False, True], ids=["toy", "all-ignored"])
    def test_ratios_file_is_class_ratio_of_all_pseudo_labels(self, tmp_path, all_ignored):
        config = tiny_benchmark(tmp_path)
        if all_ignored:
            # no confidence exceeds 1
            config.pseudo = PseudoLabelConfig(mode="global_threshold", threshold=1.0)
        stage_pretrain(config, with_scan_sim=True)
        pseudo = stage_pseudo_label(config)
        text = (pseudo / "ratios.txt").read_text()
        assert text == pseudo_ratios_text(config)
        assert all(line.endswith("\t0.0") for line in text.splitlines()) == all_ignored

    def test_evaluate_without_checkpoints_reads_no_scene(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        config.out_dir.mkdir(parents=True, exist_ok=True)
        for _sid, path in load_manifest(config.target_manifest).entries:
            path.write_bytes(b"not a point file")
        assert stage_evaluate(config, 3) == {}

    def test_escaping_scene_id_rejected_before_any_write(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        stage_pretrain(config, with_scan_sim=True)
        text = config.target_manifest.read_text()
        config.target_manifest.write_text(text.replace("scene_0001\t", "../escaped\t", 1))
        with pytest.raises(StageError) as err:
            stage_pseudo_label(config)
        assert err.value.stage == "pseudo-label"
        cause = err.value.cause
        assert isinstance(cause, ParseError)
        assert (cause.path, cause.line) == (str(config.target_manifest), 3)
        assert not (config.out_dir / "escaped.ply").exists()
        assert not (config.out_dir / "pseudo").exists()


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
        rewrite_iterations(config_path, 4, 2)
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

    def test_gen_scenes_defaults_are_the_library_defaults(self, tmp_path, capsys):
        assert cli_main(["gen-scenes", "--out", str(tmp_path / "cli"), "--count", "2"]) == 0
        generate_scene_set(tmp_path / "lib", count=2, seed=0, role="source")
        assert hash_tree(tmp_path / "cli") == hash_tree(tmp_path / "lib")

    @pytest.mark.parametrize(
        "command", ["scan", "mix", "pseudo-label", "pretrain", "selftrain", "evaluate", "run-all"]
    )
    def test_threads_only_where_read(self, command):
        reads_threads = command in ("pseudo-label", "evaluate", "run-all")
        argv = [command, "--config", "c.cfg", "--threads", "2"]
        if reads_threads:
            assert build_parser().parse_args(argv).threads == 2
        else:
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_failure_exit_code_and_stderr(self, tmp_path, capsys):
        config = PipelineConfig(out_dir=tmp_path / "out", source_manifest=tmp_path / "missing.txt")
        save_config(config, tmp_path / "bad.cfg")
        rc = cli_main(["pretrain", "--config", str(tmp_path / "bad.cfg")])
        assert rc != 0
        assert "[pretrain]" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_one_line_on_stderr(self, tmp_path, capsys, what):
        path = tmp_path / "nope.cfg"
        if what == "directory":
            path.mkdir()
        elif what == "not_utf8":
            path.write_bytes(b"seed=\xff\n")
        rc = cli_main(["run-all", "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("[run-all] ") and str(path) in lines[0]

    # an output directory that cannot be created: one stderr line, exit 1
    @pytest.mark.parametrize(
        "argv",
        [
            ["run-all", "--config", "{cfg}", "--out", "{file}"],
            ["make-toy-benchmark", "--out", "{file}/x"],
            ["gen-scenes", "--out", "{file}/y", "--count", "1", "--density", "5"],
        ],
        ids=["run-all", "make-toy-benchmark", "gen-scenes"],
    )
    def test_uncreatable_out_one_line_on_stderr(self, tmp_path, capsys, argv):
        (tmp_path / "c.cfg").write_text("")
        (tmp_path / "file").write_text("x")
        argv = [a.format(cfg=tmp_path / "c.cfg", file=tmp_path / "file") for a in argv]
        rc = cli_main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"[{argv[0]}] ")
        assert str(tmp_path / "file") in lines[0]

    # a bad option value or scene count: one stderr line, exit 1, and no
    # output directory left behind
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-scenes", "--templates", "nope"],
            ["gen-scenes", "--templates", "empty_room,nope", "--count", "2"],
            ["gen-scenes", "--density", "-1"],
            ["gen-scenes", "--count", "-1"],
            ["make-toy-benchmark", "--density", "-1"],
            ["make-toy-benchmark", "--density", "nan"],
        ],
        ids=["templates", "second-template", "gen-density", "count", "toy-density", "toy-nan"],
    )
    def test_bad_scene_option_one_line_on_stderr(self, tmp_path, capsys, argv):
        rc = cli_main([argv[0], "--out", str(tmp_path / "out"), *argv[1:]])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"[{argv[0]}] ")
        assert not (tmp_path / "out").exists()

    # a thread or mix count out of range: one stderr line, exit 1, before
    # any stage reads or writes
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run-all", "--threads", "0"], "threads must be >= 1, got 0"),
            (["pseudo-label", "--threads", "0"], "threads must be >= 1, got 0"),
            (["evaluate", "--threads", "-4"], "threads must be >= 1, got -4"),
            (["mix", "--count", "-2"], "count must be >= 0, got -2"),
        ],
        ids=["run-all", "pseudo-label", "evaluate", "mix"],
    )
    def test_bad_run_option_one_line_on_stderr(self, tmp_path, capsys, argv, message):
        save_config(tiny_benchmark(tmp_path), tmp_path / "c.cfg")
        out = tmp_path / "out"
        rc = cli_main([*argv, "--config", str(tmp_path / "c.cfg"), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"[{argv[0]}] {message}"]
        assert not out.exists()

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
