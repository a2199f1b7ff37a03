"""Correctness checks of the benchmark's workloads.

Each check compares a workload's outputs with a computation of the
benchmark's own (its own PLY and checkpoint readers, ``np.bincount``
confusion counts, ``cKDTree`` matching) or with a property the method must
have. None compares with a stored copy of earlier output. Every check
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

PLY_SENTINEL = 65535
_PLY_RECORD = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("label", "<u2")])
_MATCH_TOL = 1e-7     # rigid-translation matching tolerance, meters


def read_ply(path, ignore_index: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Positions and labels of a binary little-endian PLY with float x, y,
    z and a ushort label; the on-disk sentinel maps to ``ignore_index``."""
    data = Path(path).read_bytes()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:end].decode("ascii").splitlines()
    if header[1] != "format binary_little_endian 1.0":
        raise ValueError(f"{path}: not a binary little-endian PLY")
    count = int(header[2].split()[2])
    rec = np.frombuffer(data, dtype=_PLY_RECORD, count=count, offset=end)
    pos = np.stack([rec["x"], rec["y"], rec["z"]], axis=1).astype(np.float64)
    labels = rec["label"].astype(np.int64)
    return pos, np.where(labels == PLY_SENTINEL, ignore_index, labels)


def read_checkpoint(path) -> tuple[np.ndarray, np.ndarray]:
    """Weights (c, d) and bias (c,) of a checkpoint file."""
    data = Path(path).read_bytes()
    end = data.index(b"\n")
    fields = dict(part.split("=", 1) for part in data[:end].decode("ascii").split())
    c, d = int(fields["c"]), int(fields["d"])
    values = np.frombuffer(data, dtype="<f8", offset=end + 1)
    return values[: c * d].reshape(c, d), values[c * d :]


def softmax_scores(features: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    logits = features @ weights.T + bias
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def miou_bincount(pred_per_scene, gt_per_scene, n_classes: int, ignore_index: int = -1) -> float:
    """Mean IoU over classes with any prediction or ground truth, from
    confusion counts accumulated with ``np.bincount``."""
    counts = np.zeros(n_classes * n_classes, dtype=np.int64)
    for pred, gt in zip(pred_per_scene, gt_per_scene):
        keep = gt != ignore_index
        counts += np.bincount(gt[keep] * n_classes + pred[keep], minlength=n_classes * n_classes)
    cm = counts.reshape(n_classes, n_classes)
    tp = np.diag(cm).astype(np.float64)
    denom = cm.sum(axis=0) + cm.sum(axis=1) - tp
    defined = denom > 0
    return float((tp[defined] / denom[defined]).mean())


def tree_sha256(root) -> str:
    """sha256 over every file under ``root``: relative path, then content."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def check_same_tree(a, b) -> list[str]:
    """The two directory trees hash alike."""
    ha, hb = tree_sha256(a), tree_sha256(b)
    return [] if ha == hb else [f"output tree {b} (sha256 {hb}) differs from {a} (sha256 {ha})"]


def check_rounds_agree(digests: list[list]) -> list[str]:
    """Every round's output digests equal the first round's, operation by
    operation (None marks a failed operation)."""
    return [f"round {r}: operation {i} output differs from round 0"
            for r, row in enumerate(digests[1:], start=1)
            for i, (first, digest) in enumerate(zip(digests[0], row)) if digest != first]


def csv_miou(path) -> float:
    last = Path(path).read_text().splitlines()[-1]
    name, value = last.split(",")
    if name != "mIoU":
        raise ValueError(f"{path}: last row is {name!r}, not mIoU")
    return float(value)


# --- toy-run-all -------------------------------------------------------------

TOY_TAGS = ("source_only", "scan_only", "full")


def check_run_all(out_dir, iterations: dict[str, int], truth, predictions, n_classes: int) -> list[str]:
    """``report.txt`` is complete; each ``metrics_<tag>.csv`` mIoU equals the
    bincount mIoU of ``predictions[tag]`` (per-scene labels predicted by
    that checkpoint) against ``truth``; each loss file holds one finite
    value per iteration; the full model beats the source-only one."""
    out_dir = Path(out_dir)
    failures = []
    report = dict(
        line.split("=", 1) for line in (out_dir / "report.txt").read_text().splitlines()
    )
    if report.get("status") != "complete":
        failures.append(f"report.txt status is {report.get('status')!r}")
    mious = {}
    for tag in TOY_TAGS:
        written = csv_miou(out_dir / f"metrics_{tag}.csv")
        failures += check_miou(written, predictions[tag], truth, n_classes, f"metrics_{tag}.csv")
        if report.get(f"miou_{tag}") != repr(written):
            failures.append(f"report.txt miou_{tag} {report.get(f'miou_{tag}')} != csv {written!r}")
        mious[tag] = written
    for name, count in iterations.items():
        lines = (out_dir / name).read_text().splitlines()
        values = np.array([float(v) for v in lines])
        if len(values) != count or not np.isfinite(values).all():
            failures.append(f"{name}: {len(values)} values for {count} iterations, finite={np.isfinite(values).all()}")
    if not mious["full"] > mious["source_only"]:
        failures.append(f"miou_full {mious['full']!r} <= miou_source_only {mious['source_only']!r}")
    return failures


# --- scan-dense --------------------------------------------------------------


def label_trees(positions: np.ndarray, labels: np.ndarray) -> dict[int, cKDTree]:
    return {int(c): cKDTree(positions[labels == c]) for c in np.unique(labels)}


def check_scan(in_pos, in_lab, trees, out_pos, out_lab, delta_p: float) -> tuple[list[str], int]:
    """The scan keeps no more points than it was given, and every output
    point lies within ``delta_p`` on each coordinate of an input point with
    the same label. Returns the failures and the number of points confirmed."""
    failures = []
    if len(out_pos) > len(in_pos):
        failures.append(f"scan output has {len(out_pos)} points, input {len(in_pos)}")
    confirmed = 0
    for c in np.unique(out_lab):
        pts = out_pos[out_lab == c]
        if int(c) not in trees:
            failures.append(f"output label {int(c)} is absent from the input")
            continue
        dist, _ = trees[int(c)].query(pts, k=1, p=np.inf)
        ok = dist <= delta_p * (1 + 1e-9) + 1e-12
        confirmed += int(ok.sum())
        if not ok.all():
            failures.append(
                f"{int((~ok).sum())} label-{int(c)} points lie farther than delta_p={delta_p} "
                f"from every input point of that label (max {dist.max():.6g})"
            )
    return failures, confirmed


# --- mix-fine ----------------------------------------------------------------


def tail_classes(ratios: np.ndarray, n_tail: int) -> list[int]:
    order = sorted((r, c) for c, r in enumerate(ratios) if r > 0)
    return [c for _, c in order[:n_tail]]


def rigid_match(cell: np.ndarray, origin: np.ndarray, tree: cKDTree):
    """Indices into ``origin`` of the points that ``cell`` is a rigid
    translation of, or None when it is not one."""
    anchors_dist, _ = tree.query(origin + (cell[1] - cell[0]), distance_upper_bound=_MATCH_TOL)
    for a in np.flatnonzero(np.isfinite(anchors_dist)):
        dist, idx = tree.query(cell - (cell[0] - origin[a]), distance_upper_bound=_MATCH_TOL)
        if np.isfinite(dist).all() and len(np.unique(idx)) == len(idx):
            return idx
    return None


def check_mix(result, queue_before: int, queue_after: int, config, ratios, ignore_index: int,
              source, target, queue_origins, provenance: bool) -> tuple[list[str], int]:
    """Invariants of one ``compose_mixed_scene`` result.

    ``source`` and ``target`` are the (positions, labels, tree) the call was
    given and ``queue_origins`` every target it may have queued cells from.
    With ``provenance``, each source, target or queue cell of at least three
    points must be a rigid translation of points of its origin cloud with
    the same labels. Returns the failures and the points whose labels were
    confirmed that way.
    """
    failures = []
    cloud = result.mixed.cloud
    pos, labels = cloud.positions, cloud.labels
    cuboids = result.mixed.cuboids
    members = sum(len(c.members) for c in cuboids)
    if members != cloud.n:
        failures.append(f"mixed cloud has {cloud.n} points, its cuboids {members}")
    for k, cub in enumerate(cuboids):
        p = pos[cub.members]
        inside = (p >= cub.bounds[:3] - 1e-9).all(axis=1) & (p <= cub.bounds[3:] + 1e-9).all(axis=1)
        if not inside.all():
            failures.append(f"cell {k}: {int((~inside).sum())} points outside its bounds")
    if queue_after > config.queue_cap:
        failures.append(f"queue holds {queue_after} cuboids, cap {config.queue_cap}")
    tails = tail_classes(ratios, config.n_tail_classes)
    n_tail = 0
    for cub in cuboids:
        sub = labels[cub.members]
        sub = sub[sub != ignore_index]
        if len(sub) and any(np.count_nonzero(sub == t) / len(sub) > ratios[t] for t in tails):
            n_tail += 1
    if queue_before > 0 and n_tail < config.min_tail_cuboids:
        failures.append(
            f"{n_tail} tail cells with a non-empty queue, min_tail_cuboids {config.min_tail_cuboids}"
        )
    confirmed = 0
    if provenance:
        origins = {0: [source], 1: [target], 2: queue_origins}
        for k, cub in enumerate(cuboids):
            if len(cub.members) < 3:
                continue
            cell, cell_labels = pos[cub.members], labels[cub.members]
            for origin_pos, origin_labels, tree in origins[int(cub.provenance)]:
                idx = rigid_match(cell, origin_pos, tree)
                if idx is not None:
                    break
            else:
                failures.append(f"cell {k} (provenance {cub.provenance}) matches no origin cloud")
                continue
            same = origin_labels[idx] == cell_labels
            confirmed += int(same.sum())
            if not same.all():
                failures.append(f"cell {k}: {int((~same).sum())} labels differ from their origin")
    return failures, confirmed


# --- label-dense -------------------------------------------------------------


def check_pseudo(pred: np.ndarray, written: np.ndarray, read_back: np.ndarray,
                 fraction: float, ignore_index: int) -> list[str]:
    """Every written pseudo label is ignore or the recomputed argmax; each
    predicted class keeps floor(fraction * m) of its m points; the
    program's reader returns the written labels."""
    failures = []
    wrong = (written != ignore_index) & (written != pred)
    if wrong.any():
        failures.append(f"{int(wrong.sum())} pseudo labels are neither ignore nor the argmax")
    share = Fraction(str(fraction))
    for c in np.unique(pred):
        m = int((pred == c).sum())
        kept = int((written == c).sum())
        if kept != math.floor(share * m):
            failures.append(f"class {int(c)} keeps {kept} of {m} points, expected floor({fraction}*{m})")
    if not np.array_equal(read_back, written):
        failures.append("pseudo-label file reads back with different labels")
    return failures


def check_miou(written: float, pred_per_scene, gt_per_scene, n_classes: int, what: str) -> list[str]:
    mine = miou_bincount(pred_per_scene, gt_per_scene, n_classes)
    if abs(written - mine) > 1e-9:
        return [f"{what} mIoU {written!r} != recomputed {mine!r}"]
    return []
