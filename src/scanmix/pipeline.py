"""Config-driven orchestration of the full adaptation flow.

Stages: pretrain on simulated source scenes (with scan-simulation
augmentation), generate pseudo labels for the unlabeled target scenes,
self-train on mixed scenes, and evaluate against target ground truth. A
source-only baseline (no scan simulation) is trained alongside, in a
second process, so every run reports the three ablation mIoUs. Everything
is reproducible from (config, seed); reports and checkpoints are
byte-identical across reruns.

The config file is line-oriented ``key=value`` with dotted section
prefixes (for example ``vss.n_v=4``); ``CONFIG_KEYS`` is the full key set
and ``DEFAULT_CONFIG_TEXT`` lists every key with its default.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .core import AugmentConfig, ClassTaxonomy, RandomStream, StructuralClasses
from .cuboidmix import CuboidMixConfig, TailCuboidQueue, compose_mixed_scene
from .errors import ConfigError, ParseError, StageError
from .io import (
    FileFormat,
    _exists,
    _make_dir,
    _read_text,
    _write_file,
    load_manifest,
    load_scenes,
    read_point_file,
    detect_format,
    save_manifest,
    write_point_file,
)
from .metrics import ConfusionMatrix, accumulate_confusion, compute_iou, write_iou_csv
from .pseudo import PseudoLabelConfig, class_counts, ratio_of_counts
from .scansim import FovConfig, ScanSimConfig, scan_and_jitter
from .scenegen import (
    TOY_STRUCTURAL,
    TOY_TAXONOMY,
    generate_scene,
    make_template,
    template_names,
    toy_source_spec,
    toy_target_spec,
)
from .segmenter import (
    FeatureConfig,
    SegmenterModel,
    TrainConfig,
    _Child,
    extract_features,
    forward_scores,
    load_checkpoint,
    pseudo_label,
    save_checkpoint,
    train_pretrain,
    train_selftrain,
)


@dataclass
class PipelineConfig:
    """Everything a run needs, mirroring the config-file sections."""

    seed: int = 0
    out_dir: Path = Path("out")
    source_manifest: Path = Path("source_manifest.txt")
    target_manifest: Path = Path("target_manifest.txt")
    taxonomy: ClassTaxonomy = field(default_factory=lambda: TOY_TAXONOMY)
    structural: StructuralClasses = field(default_factory=lambda: TOY_STRUCTURAL)
    scan: ScanSimConfig = field(default_factory=ScanSimConfig)
    mix: CuboidMixConfig = field(default_factory=CuboidMixConfig)
    pseudo: PseudoLabelConfig = field(default_factory=PseudoLabelConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    pretrain: TrainConfig = field(default_factory=TrainConfig)
    selftrain: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        s = self.structural
        if not all(0 <= i < self.taxonomy.count for i in (s.floor, s.ceiling, s.wall)):
            raise ValueError("structural classes must be taxonomy class indices")


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

# Value types of the config keys: (parse, format) pairs.
_INT = (int, str)
_FLOAT = (_finite_float, repr)
_STR = (str, str)
_PATH = (Path, str)
_BOOL = (lambda s: _BOOL_WORDS[s.lower()], lambda v: str(v).lower())
_NAMES = (lambda s: tuple(p.strip() for p in s.split(",")), ",".join)

# Every config key: key -> (dotted attribute path into PipelineConfig, type).
# Parsing, serializing (in this order) and DEFAULT_CONFIG_TEXT all derive
# from this table.
CONFIG_KEYS = {
    "seed": ("seed", _INT),
    "out_dir": ("out_dir", _PATH),
    "source_manifest": ("source_manifest", _PATH),
    "target_manifest": ("target_manifest", _PATH),
    "taxonomy.name": ("taxonomy.name", _STR),
    "taxonomy.names": ("taxonomy.names", _NAMES),
    "taxonomy.ignore": ("taxonomy.ignore_index", _INT),
    "structural.floor": ("structural.floor", _INT),
    "structural.ceiling": ("structural.ceiling", _INT),
    "structural.wall": ("structural.wall", _INT),
    "vss.n_v": ("scan.n_v", _INT),
    "vss.alpha_h": ("scan.fov.alpha_h", _FLOAT),
    "vss.alpha_v": ("scan.fov.alpha_v", _FLOAT),
    "vss.mode": ("scan.fov.mode", _STR),
    "vss.d_ref": ("scan.fov.d_ref", _FLOAT),
    "vss.bev_cell": ("scan.bev_cell", _FLOAT),
    "vss.clearance": ("scan.clearance", _FLOAT),
    "vss.theta_bin": ("scan.theta_bin", _FLOAT),
    "vss.eps_d": ("scan.eps_d", _FLOAT),
    "vss.delta_p": ("scan.delta_p", _FLOAT),
    "tacm.nx": ("mix.nx", _INT),
    "tacm.ny": ("mix.ny", _INT),
    "tacm.nz": ("mix.nz", _INT),
    "tacm.delta_phi": ("mix.delta_phi", _FLOAT),
    "tacm.rho_s": ("mix.rho_s", _FLOAT),
    "tacm.rho_m": ("mix.rho_m", _FLOAT),
    "tacm.queue_cap": ("mix.queue_cap", _INT),
    "tacm.n_tail_classes": ("mix.n_tail_classes", _INT),
    "tacm.min_tail_cuboids": ("mix.min_tail_cuboids", _INT),
    "pseudo.mode": ("pseudo.mode", _STR),
    "pseudo.threshold": ("pseudo.threshold", _FLOAT),
    "pseudo.fraction": ("pseudo.fraction", _FLOAT),
    "features.voxel_size": ("features.voxel_size", _FLOAT),
    "features.radius": ("features.radius", _FLOAT),
    "augment.rotate": ("augment.rotate", _BOOL),
    "augment.flip": ("augment.flip", _BOOL),
    "augment.elastic": ("augment.elastic", _BOOL),
    "augment.jitter": ("augment.jitter", _BOOL),
    "augment.shuffle": ("augment.shuffle", _BOOL),
    "augment.elastic_spacing": ("augment.elastic_spacing", _FLOAT),
    "augment.elastic_magnitude": ("augment.elastic_magnitude", _FLOAT),
    "augment.jitter_range": ("augment.jitter_range", _FLOAT),
    "pretrain.lr": ("pretrain.learning_rate", _FLOAT),
    "pretrain.iterations": ("pretrain.iterations", _INT),
    "pretrain.batch": ("pretrain.batch_size", _INT),
    "pretrain.momentum": ("pretrain.momentum", _FLOAT),
    "pretrain.lr_decay": ("pretrain.lr_decay_power", _FLOAT),
    "selftrain.lr": ("selftrain.learning_rate", _FLOAT),
    "selftrain.iterations": ("selftrain.iterations", _INT),
    "selftrain.momentum": ("selftrain.momentum", _FLOAT),
    "selftrain.lr_decay": ("selftrain.lr_decay_power", _FLOAT),
    "selftrain.regen_every": ("selftrain.regen_every", _INT),
    "selftrain.lambda": ("selftrain.source_loss_weight", _FLOAT),
}


def _with_overrides(obj, overrides: dict[str, object]):
    """Copy of the dataclass ``obj`` with dotted-path ``overrides`` applied.
    Each nested dataclass is rebuilt once, from all of its overrides
    together, so its checks never see a half-applied state."""
    fields: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {}
    for path, value in overrides.items():
        head, _, rest = path.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            fields[head] = value
    for head, sub in nested.items():
        fields[head] = _with_overrides(getattr(obj, head), sub)
    return replace(obj, **fields)


def parse_config_text(text: str, base: Path | None = None) -> PipelineConfig:
    """Parse ``key=value`` lines; keys not given keep their defaults.
    Relative paths resolve against ``base`` when it is given."""
    overrides: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        attr, (parse, _) = CONFIG_KEYS[key]
        if attr in overrides:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            value = parse(raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {raw!r}") from exc
        if parse is Path and base is not None and not value.is_absolute():
            value = base / value
        overrides[attr] = value
    try:
        return _with_overrides(PipelineConfig(), overrides)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def load_config(path) -> PipelineConfig:
    path = Path(path)
    return parse_config_text(_read_text(path), base=path.parent)


def config_text(config: PipelineConfig) -> str:
    """Serialize in the table's key order (inverse of parsing)."""
    return "".join(
        f"{key}={fmt(attrgetter(attr)(config))}\n" for key, (attr, (_, fmt)) in CONFIG_KEYS.items()
    )


def save_config(config: PipelineConfig, path) -> None:
    _write_file(path, config_text(config))


DEFAULT_CONFIG_TEXT = config_text(PipelineConfig())


# --- helpers ----------------------------------------------------------------

CKPT_SOURCE_ONLY = "checkpoint_source_only.bin"
CKPT_SCAN_PRETRAIN = "checkpoint_scan_pretrain.bin"
CKPT_FINAL = "checkpoint_final.bin"

# Fixed child-stream tags per stage keep stage subcommands and run-all in
# agreement about which draws each stage sees.
_TAG_SOURCE_ONLY = 0x501
_TAG_PRETRAIN = 0x502
_TAG_SELFTRAIN = 0x504
_TAG_SCAN = 0x505
_TAG_MIX = 0x506


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")


def _map_scenes(fn, items, threads: int):
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _write_losses(path, losses: np.ndarray) -> None:
    _write_file(path, "".join(f"{float(value)!r}\n" for value in losses))


def _checked_manifest(manifest_path, role: str, taxonomy: ClassTaxonomy):
    """The manifest at ``manifest_path``; ParseError at its first line
    unless it declares ``role`` and ``taxonomy``."""
    manifest = load_manifest(manifest_path)
    if manifest.role != role:
        raise ParseError(manifest_path, f"manifest role {manifest.role!r} != {role!r}", line=1)
    if manifest.taxonomy_name != taxonomy.name:
        message = f"manifest taxonomy {manifest.taxonomy_name!r} != {taxonomy.name!r}"
        raise ParseError(manifest_path, message, line=1)
    return manifest


def _load_domain(manifest_path, role: str, taxonomy: ClassTaxonomy):
    manifest = _checked_manifest(manifest_path, role, taxonomy)
    return manifest, load_scenes(manifest, taxonomy)


def _read_scene(path, taxonomy: ClassTaxonomy):
    return read_point_file(path, detect_format(path), taxonomy)


def _ratio_of(counts, taxonomy: ClassTaxonomy) -> np.ndarray:
    """The class ratios of the scenes whose per-class ``counts`` are given;
    int64 counts, so the sum does not depend on the order of the scenes."""
    return ratio_of_counts(sum(counts, np.zeros(taxonomy.count, dtype=np.int64)))


@contextmanager
def _stage(name: str):
    """Re-raise any failure inside the block as a StageError tagged ``name``;
    a StageError passes through with its own tag."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


# --- stages -----------------------------------------------------------------


def stage_pretrain(config: PipelineConfig, with_scan_sim: bool = True) -> Path:
    """Train a model on the source scenes; returns the checkpoint path."""
    stage = "pretrain" if with_scan_sim else "source-only"
    with _stage(stage):
        _, source = _load_domain(config.source_manifest, "source", config.taxonomy)
        rng = RandomStream(config.seed).child(
            _TAG_PRETRAIN if with_scan_sim else _TAG_SOURCE_ONLY
        )
        model = SegmenterModel.zeros(config.taxonomy)
        result = train_pretrain(
            model,
            source,
            config.scan if with_scan_sim else None,
            config.structural,
            config.augment,
            config.features,
            config.pretrain,
            rng,
        )
        _make_dir(config.out_dir)
        name = CKPT_SCAN_PRETRAIN if with_scan_sim else CKPT_SOURCE_ONLY
        path = config.out_dir / name
        save_checkpoint(result.model, path)
        _write_losses(config.out_dir / f"losses_{stage.replace('-', '_')}.txt", result.losses)
        return path


def stage_pseudo_label(config: PipelineConfig, threads: int = 1) -> Path:
    """Score target scenes with the pretrained model and write pseudo-label
    files (plus the class-ratio summary); returns the pseudo directory.
    Each scene is read, scored and written in one step, so at most
    ``threads`` target scenes are in memory at once."""
    _check_threads(threads)
    with _stage("pseudo-label"):
        model = load_checkpoint(config.out_dir / CKPT_SCAN_PRETRAIN, config.taxonomy)
        tgt_manifest = _checked_manifest(config.target_manifest, "target", config.taxonomy)
        pseudo_dir = config.out_dir / "pseudo"
        _make_dir(pseudo_dir)

        def label_scene(entry):
            scene_id, path = entry
            scene = _read_scene(path, config.taxonomy)
            labels = pseudo_label(model, scene, config.features, config.pseudo)
            write_point_file(
                scene.with_labels(labels), pseudo_dir / f"{scene_id}.ply", FileFormat.PLY_BINARY_LE
            )
            return class_counts(labels, config.taxonomy)

        ratios = _ratio_of(_map_scenes(label_scene, tgt_manifest.entries, threads), config.taxonomy)
        rows = (f"{name}\t{float(value)!r}\n" for name, value in zip(config.taxonomy.names, ratios))
        _write_file(pseudo_dir / "ratios.txt", "".join(rows))
        return pseudo_dir


def _pseudo_paths(config: PipelineConfig) -> list[Path]:
    tgt_manifest = _checked_manifest(config.target_manifest, "target", config.taxonomy)
    pseudo_dir = config.out_dir / "pseudo"
    return [pseudo_dir / f"{scene_id}.ply" for scene_id, _path in tgt_manifest.entries]


def stage_selftrain(config: PipelineConfig) -> Path:
    """Self-train from the pretrained checkpoint using pseudo-labeled
    target scenes; writes the final checkpoint and three mixed samples."""
    with _stage("selftrain"):
        model = load_checkpoint(config.out_dir / CKPT_SCAN_PRETRAIN, config.taxonomy)
        _, source = _load_domain(config.source_manifest, "source", config.taxonomy)
        pseudo_scenes = [_read_scene(path, config.taxonomy) for path in _pseudo_paths(config)]
        samples_dir = config.out_dir / "mixed_samples"
        _make_dir(samples_dir)

        def save_sample(it, cloud):
            if it < 3:
                write_point_file(cloud, samples_dir / f"mixed_{it:03d}.ply", FileFormat.PLY_BINARY_LE)

        rng = RandomStream(config.seed).child(_TAG_SELFTRAIN)
        result = train_selftrain(
            model,
            source,
            pseudo_scenes,
            config.scan,
            config.structural,
            config.mix,
            config.features,
            config.selftrain,
            rng,
            config.pseudo,
            on_mixed=save_sample,
        )
        path = config.out_dir / CKPT_FINAL
        save_checkpoint(result.model, path)
        _write_losses(config.out_dir / "losses_selftrain.txt", result.losses)
        return path


_EVAL_TAGS = (
    (CKPT_SOURCE_ONLY, "source_only"),
    (CKPT_SCAN_PRETRAIN, "scan_only"),
    (CKPT_FINAL, "full"),
)


def stage_evaluate(config: PipelineConfig, threads: int = 1) -> dict[str, float]:
    """Evaluate whichever checkpoints exist against target ground truth;
    writes one metrics CSV per model and returns tag -> mIoU. Each scene is
    read, its features computed once and scored by every model in one step,
    so at most ``threads`` target scenes are in memory at once."""
    _check_threads(threads)
    with _stage("evaluate"):
        tgt_manifest = _checked_manifest(config.target_manifest, "target", config.taxonomy)
        models = {
            tag: load_checkpoint(config.out_dir / ckpt, config.taxonomy)
            for ckpt, tag in _EVAL_TAGS
            if _exists(config.out_dir / ckpt)
        }
        if not models:
            return {}

        def confusions(entry):
            scene = _read_scene(entry[1], config.taxonomy)
            features = extract_features(scene, config.features)
            return [
                accumulate_confusion(
                    ConfusionMatrix.zeros(config.taxonomy),
                    forward_scores(model, features).argmax(axis=1),
                    scene.labels,
                )
                for model in models.values()
            ]

        # int64 counts: the sum does not depend on the order of the scenes
        totals = [ConfusionMatrix.zeros(config.taxonomy) for _ in models]
        for parts in _map_scenes(confusions, tgt_manifest.entries, threads):
            for total, part in zip(totals, parts):
                total.counts += part.counts
        mious: dict[str, float] = {}
        for tag, matrix in zip(models, totals):
            ious, miou = compute_iou(matrix)
            write_iou_csv(config.out_dir / f"metrics_{tag}.csv", config.taxonomy, ious, miou)
            mious[tag] = miou
        return mious


def stage_scan(config: PipelineConfig) -> Path:
    """Apply the scan simulation once to every source scene; writes the
    scanned clouds and a manifest into out/scanned."""
    with _stage("scan"):
        src_manifest, scenes = _load_domain(config.source_manifest, "source", config.taxonomy)
        out = config.out_dir / "scanned"
        _make_dir(out)
        rng = RandomStream(config.seed).child(_TAG_SCAN)
        entries = []
        for i, ((scene_id, _), scene) in enumerate(zip(src_manifest.entries, scenes)):
            scanned = scan_and_jitter(scene, config.scan, config.structural, rng.child(i))
            write_point_file(scanned, out / f"{scene_id}.ply", FileFormat.PLY_BINARY_LE)
            entries.append((scene_id, f"{scene_id}.ply"))
        save_manifest(out / "manifest.txt", "source", config.taxonomy.name, entries)
        return out


def stage_mix(config: PipelineConfig, count: int = 5) -> Path:
    """Compose a few mixed scenes (source ground truth vs target labels or
    pseudo labels when present) into out/mixed for inspection. The class
    ratios are counted one target scene at a time; then only the first
    ``count`` targets and the sources drawn for them are read, so at most
    one source and one target scene are in memory at once."""
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    with _stage("mix"):
        sources = _checked_manifest(config.source_manifest, "source", config.taxonomy).entries
        if _exists(config.out_dir / "pseudo"):
            targets = _pseudo_paths(config)
        else:
            tgt_manifest = _checked_manifest(config.target_manifest, "target", config.taxonomy)
            targets = [path for _, path in tgt_manifest.entries]
        ratios = _ratio_of(
            (class_counts(_read_scene(path, config.taxonomy).labels, config.taxonomy) for path in targets),
            config.taxonomy,
        )
        out = config.out_dir / "mixed"
        _make_dir(out)
        rng = RandomStream(config.seed).child(_TAG_MIX)
        queue = TailCuboidQueue(config.mix.queue_cap)
        for i, path in enumerate(targets[:count]):
            _, src_path = sources[int(rng.integers(0, len(sources)))]
            result = compose_mixed_scene(
                _read_scene(src_path, config.taxonomy), _read_scene(path, config.taxonomy),
                ratios, config.mix, queue, rng,
            )
            write_point_file(result.mixed.cloud, out / f"mixed_{i:03d}.ply", FileFormat.PLY_BINARY_LE)
        return out


# --- full run ---------------------------------------------------------------


def _source_only(conn, config: PipelineConfig) -> None:
    # the worker's loop: one reply, the checkpoint path
    conn.send((None, stage_pretrain(config, with_scan_sim=False)))


def _pretrain_both(config: PipelineConfig) -> None:
    """Run the source-only pretrain in a forked worker process while this
    process runs the scan pretrain. The two share no state and draw from
    their own child streams, so the outputs are those of running them in
    turn; so is the error raised (source-only first). A forked worker
    inherits the loaded package and never re-imports the caller's
    ``__main__``."""
    with _Child("scanmix-source-only", _source_only, config) as worker:
        try:
            stage_pretrain(config, with_scan_sim=True)
        finally:
            # a dead worker raises TrainerError here
            with _stage("source-only"):
                worker.receive()


def _write_report(
    config: PipelineConfig, failed_stage: str | None, mious: dict[str, float], n_source: int, n_target: int
) -> None:
    lines = [
        f"status={'complete' if failed_stage is None else 'failed'}",
        f"seed={config.seed}",
        f"scenes_source={n_source}",
        f"scenes_target={n_target}",
    ]
    if failed_stage is not None:
        lines.append(f"failed_stage={failed_stage}")
    for _, tag in _EVAL_TAGS:
        if tag in mious:
            lines.append(f"miou_{tag}={mious[tag]!r}")
        else:
            lines.append(f"miou_{tag}=incomplete")
    _write_file(config.out_dir / "report.txt", "\n".join(lines) + "\n")


def run_pipeline(config: PipelineConfig, threads: int = 1) -> dict[str, float]:
    """Execute every stage, write the run report and return tag -> mIoU,
    as :func:`stage_evaluate` does. The two pretrain stages run side by
    side in two processes; ``threads`` parallelizes per-scene scoring and
    evaluation.

    On a stage failure the report is still written, with the failed stage
    named and the missing mIoUs marked incomplete, then the tagged error
    is re-raised. A ``threads`` below 1 raises ConfigError at once.
    """
    _check_threads(threads)
    _make_dir(config.out_dir)
    n_source = n_target = 0
    mious: dict[str, float] = {}
    try:
        with _stage("load"):
            src_manifest = _checked_manifest(config.source_manifest, "source", config.taxonomy)
            tgt_manifest = _checked_manifest(config.target_manifest, "target", config.taxonomy)
        n_source, n_target = len(src_manifest), len(tgt_manifest)
        _pretrain_both(config)
        stage_pseudo_label(config, threads)
        stage_selftrain(config)
        mious = stage_evaluate(config, threads)
        _write_report(config, None, mious, n_source, n_target)
        return mious
    except StageError as exc:
        _write_report(config, exc.stage, mious, n_source, n_target)
        raise


# --- scene-set generation and the toy benchmark ------------------------------


def _write_scene_set(out_dir: Path, role: str, clouds, taxonomy: ClassTaxonomy, fmt: FileFormat) -> Path:
    """Write ``clouds`` as ``scenes/scene_NNNN.<ext>`` under ``out_dir``
    plus a manifest; returns the manifest path."""
    scene_dir = out_dir / "scenes"
    _make_dir(scene_dir)
    ext = "ply" if fmt != FileFormat.XYZL_TEXT else "xyzl"
    entries = []
    for i, cloud in enumerate(clouds):
        name = f"scene_{i:04d}.{ext}"
        write_point_file(cloud, scene_dir / name, fmt)
        entries.append((f"scene_{i:04d}", f"scenes/{name}"))
    manifest_path = out_dir / "manifest.txt"
    save_manifest(manifest_path, role, taxonomy.name, entries)
    return manifest_path


def _check_scene_options(density: float, templates: tuple[str, ...] = ()) -> None:
    # what would fail the first scene, checked before any directory exists
    if not (np.isfinite(density) and density > 0):
        raise ValueError(f"density must be positive and finite, got {density!r}")
    for name in templates:
        if name not in template_names():
            raise ValueError(f"unknown template {name!r}; choices: {sorted(template_names())}")


def generate_scene_set(
    out_dir,
    count: int,
    seed: int,
    role: str,
    templates: tuple[str, ...] | None = None,
    density: float = 200.0,
    fmt: FileFormat = FileFormat.PLY_BINARY_LE,
) -> Path:
    """Generate ``count`` template scenes (labeled in TOY_TAXONOMY, whose
    class ids the templates use) and a manifest; returns the manifest
    path. Scene i uses template i mod len(templates) and the child stream
    i, so sets are reproducible and extendable."""
    if count < 0:
        raise ValueError(f"scene count must be >= 0, got {count}")
    templates = templates or template_names()
    _check_scene_options(density, templates)
    root = RandomStream(seed)

    def scene(i):
        rng = root.child(i)
        spec = make_template(templates[i % len(templates)], rng, density=density)
        return generate_scene(spec, TOY_TAXONOMY, rng)

    return _write_scene_set(Path(out_dir), role, map(scene, range(count)), TOY_TAXONOMY, fmt)


# Hidden scan configuration used only while constructing the toy target
# domain; the pipeline config never sees it.
_HIDDEN_TARGET_SCAN = ScanSimConfig(
    n_v=1,
    fov=FovConfig(alpha_h=100.0, alpha_v=50.0, mode="fixed"),
    delta_p=0.02,
)


def make_toy_benchmark(
    out_dir,
    seed: int = 0,
    n_source: int = 20,
    n_target: int = 20,
    density: float = 45.0,
) -> Path:
    """Build the desk-scale benchmark: clean source scenes, degraded
    target scenes, manifests, and a tuned config. Returns the config path."""
    if min(n_source, n_target) < 0:
        raise ValueError(f"scene counts must be >= 0, got {n_source} and {n_target}")
    _check_scene_options(density)
    out_dir = Path(out_dir)
    root = RandomStream(seed)

    def source_scene(i):
        rng = root.child(i)
        return generate_scene(toy_source_spec(rng, density), TOY_TAXONOMY, rng)

    def target_scene(i):
        rng = root.child(10_000 + i)
        clean = generate_scene(toy_target_spec(rng, density), TOY_TAXONOMY, rng)
        return scan_and_jitter(clean, _HIDDEN_TARGET_SCAN, TOY_STRUCTURAL, rng)

    for role, scene, count in (("source", source_scene, n_source), ("target", target_scene, n_target)):
        _write_scene_set(
            out_dir / role, role, map(scene, range(count)), TOY_TAXONOMY, FileFormat.PLY_BINARY_LE
        )

    # paths are written relative to the config file so the benchmark
    # directory can be moved or renamed freely
    config = PipelineConfig(
        seed=seed,
        out_dir=Path("out"),
        source_manifest=Path("source/manifest.txt"),
        target_manifest=Path("target/manifest.txt"),
        scan=ScanSimConfig(delta_p=0.02),
        features=FeatureConfig(voxel_size=0.02, radius=0.2),
        augment=AugmentConfig(elastic=False),
        pseudo=PseudoLabelConfig(mode="per_class_fraction", fraction=0.3),
        pretrain=TrainConfig(
            learning_rate=0.05, iterations=400, batch_size=3,
            momentum=0.95, lr_decay_power=0.9,
        ),
        selftrain=TrainConfig(
            learning_rate=0.02, iterations=400,
            momentum=0.95, lr_decay_power=0.9, source_loss_weight=0.5,
        ),
    )
    config_path = out_dir / "toy.cfg"
    save_config(config, config_path)
    return config_path
