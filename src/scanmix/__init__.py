"""scanmix: seedable point-cloud scan simulation, cuboid scene mixing,
and self-training for indoor semantic segmentation at desk scale."""

from .core import (
    Aabb,
    AugmentConfig,
    ClassTaxonomy,
    LabeledPointCloud,
    RandomStream,
    StructuralClasses,
    aabb_of,
    map_labels,
    standard_augment,
)
from .cuboidmix import (
    ComposeResult,
    Cuboid,
    CuboidMixConfig,
    CuboidSet,
    MixedScene,
    TailCuboidQueue,
    classify_tail_cuboids,
    mix_cuboids,
    partition_cuboids,
    permute_cuboids,
    compose_mixed_scene,
    update_tail_queue,
)
from .io import (
    DatasetManifest,
    FileFormat,
    detect_format,
    load_manifest,
    load_scenes,
    read_point_file,
    save_manifest,
    write_point_file,
)
from .metrics import ConfusionMatrix, accumulate_confusion, compute_iou, write_iou_csv
from .pipeline import (
    PipelineConfig,
    PipelineReport,
    generate_scene_set,
    load_config,
    make_toy_benchmark,
    run_pipeline,
    save_config,
)
from .pseudo import (
    PseudoLabelConfig,
    class_ratio,
    generate_pseudo_labels,
    per_class_thresholds,
)
from .scansim import (
    BevGrid,
    CameraPose,
    FovConfig,
    ScanPlan,
    ScanSimConfig,
    compute_free_space_bev,
    jitter_points,
    plan_scan,
    sample_camera_poses,
    scan_and_jitter,
    simulate_scan,
    visibility_oracle,
    visible_points,
    visible_range_mask,
    visible_union_mask,
)
from .scenegen import (
    TOY_STRUCTURAL,
    TOY_TAXONOMY,
    Rect,
    SceneSpec,
    generate_scene,
    load_scene_spec,
    make_template,
    sample_primitive_surface,
    save_scene_spec,
    template_names,
)
from .segmenter import (
    FeatureConfig,
    SegmenterModel,
    TrainConfig,
    TrainResult,
    cross_entropy,
    extract_features,
    forward_scores,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
    train_pretrain,
    train_selftrain,
)

__version__ = "0.1.0"
