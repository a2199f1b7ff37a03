"""Synthetic indoor rooms sampled as labeled point clouds.

A scene is a rectangular room (floor, ceiling, four walls) plus
axis-aligned furniture boxes, each surface sampled uniformly at a target
density (points per square meter). A small library of parametric
templates provides reproducible desk-scale benchmark scenes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    Aabb,
    ClassTaxonomy,
    LabeledPointCloud,
    RandomStream,
    StructuralClasses,
)
from .errors import IoError, OverlapError, ParseError

TOY_TAXONOMY = ClassTaxonomy(
    "toy6", ("floor", "ceiling", "wall", "table", "chair", "lamp"), ignore_index=-1
)
TOY_STRUCTURAL = StructuralClasses(floor=0, ceiling=1, wall=2)


@dataclass(frozen=True)
class Rect:
    """Planar parallelogram face: origin plus two edge vectors."""

    origin: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray

    def __post_init__(self):
        for name in ("origin", "edge_u", "edge_v"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64).reshape(3))

    @property
    def area(self) -> float:
        return float(np.linalg.norm(np.cross(self.edge_u, self.edge_v)))


def sample_primitive_surface(face: Rect, density: float, rng: RandomStream) -> np.ndarray:
    """Uniform i.i.d. points on a face.

    The count is floor(density * area) plus one Bernoulli draw on the
    fractional part, so the expected count equals density * area exactly.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    target = density * face.area
    n = int(np.floor(target))
    if rng.random() < target - n:
        n += 1
    if n == 0:
        return np.zeros((0, 3), dtype=np.float64)
    uv = rng.random((n, 2))
    return face.origin + uv[:, :1] * face.edge_u + uv[:, 1:] * face.edge_v


@dataclass(frozen=True)
class SceneSpec:
    """Room dimensions, furniture boxes, class assignments, and density."""

    width: float
    depth: float
    height: float
    furniture: tuple[tuple[Aabb, int], ...] = ()
    floor_class: int = 0
    ceiling_class: int = 1
    wall_class: int = 2
    density: float = 1250.0

    def __post_init__(self):
        if not np.isfinite([self.width, self.depth, self.height, self.density]).all():
            raise ValueError("room dimensions and density must be finite")
        if min(self.width, self.depth, self.height) <= 0:
            raise ValueError("room dimensions must be positive")
        if self.density <= 0:
            raise ValueError("density must be positive")
        room = self.room_box
        furniture = tuple((Aabb(b.min, b.max), int(c)) for b, c in self.furniture)
        for box, _cls in furniture:
            if not room.contains(box):
                raise ValueError(f"furniture box {box} is not inside the room")
        object.__setattr__(self, "furniture", furniture)

    @property
    def room_box(self) -> Aabb:
        return Aabb((0.0, 0.0, 0.0), (self.width, self.depth, self.height))


def _box_faces(box: Aabb) -> list[Rect]:
    lo, hi = box.min, box.max
    dx, dy, dz = hi - lo
    ex = np.array([dx, 0.0, 0.0])
    ey = np.array([0.0, dy, 0.0])
    ez = np.array([0.0, 0.0, dz])
    top = np.array([lo[0], lo[1], hi[2]])
    front = np.array([lo[0], hi[1], lo[2]])
    side = np.array([hi[0], lo[1], lo[2]])
    return [
        Rect(lo, ex, ey),    # bottom
        Rect(top, ex, ey),   # top
        Rect(lo, ex, ez),    # y = min
        Rect(front, ex, ez), # y = max
        Rect(lo, ey, ez),    # x = min
        Rect(side, ey, ez),  # x = max
    ]


def _room_faces(spec: SceneSpec) -> list[tuple[Rect, int]]:
    w, d, h = spec.width, spec.depth, spec.height
    ex = np.array([w, 0.0, 0.0])
    ey = np.array([0.0, d, 0.0])
    ez = np.array([0.0, 0.0, h])
    o = np.zeros(3)
    faces = [
        (Rect(o, ex, ey), spec.floor_class),
        (Rect(np.array([0.0, 0.0, h]), ex, ey), spec.ceiling_class),
        (Rect(o, ex, ez), spec.wall_class),
        (Rect(np.array([0.0, d, 0.0]), ex, ez), spec.wall_class),
        (Rect(o, ey, ez), spec.wall_class),
        (Rect(np.array([w, 0.0, 0.0]), ey, ez), spec.wall_class),
    ]
    return faces


def generate_scene(spec: SceneSpec, taxonomy: ClassTaxonomy, rng: RandomStream) -> LabeledPointCloud:
    """Sample the room shell and all furniture box faces.

    Face order is fixed (floor, ceiling, walls, then boxes in declaration
    order), so the output is bit-identical for equal (spec, seed).
    Overlapping furniture boxes raise OverlapError.
    """
    boxes = spec.furniture
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if boxes[i][0].overlaps(boxes[j][0]):
                raise OverlapError(f"furniture boxes {i} and {j} overlap")
    faces = list(_room_faces(spec))
    for box, cls in boxes:
        faces.extend((f, cls) for f in _box_faces(box))
    chunks = []
    labels = []
    for face, cls in faces:
        pts = sample_primitive_surface(face, spec.density, rng)
        chunks.append(pts)
        labels.append(np.full(len(pts), cls, dtype=np.int64))
    return LabeledPointCloud(np.concatenate(chunks), np.concatenate(labels), taxonomy)


def save_scene_spec(spec: SceneSpec, path) -> None:
    """Text form: key=value per line, furniture as repeated
    ``box=xmin,ymin,zmin,xmax,ymax,zmax,class`` lines."""
    lines = [
        f"width={spec.width!r}",
        f"depth={spec.depth!r}",
        f"height={spec.height!r}",
        f"density={spec.density!r}",
        f"floor_class={spec.floor_class}",
        f"ceiling_class={spec.ceiling_class}",
        f"wall_class={spec.wall_class}",
    ]
    for box, cls in spec.furniture:
        vals = ",".join(repr(float(v)) for v in (*box.min, *box.max))
        lines.append(f"box={vals},{cls}")
    try:
        with open(path, "w", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"failed to write {path}: {exc}") from exc


def load_scene_spec(path) -> SceneSpec:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise IoError(f"failed to read {path}: {exc}") from exc
    fields: dict[str, float] = {}
    boxes = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(path, "expected key=value", line=lineno)
        key, value = line.split("=", 1)
        try:
            if key == "box":
                parts = value.split(",")
                if len(parts) != 7:
                    raise ParseError(path, "box needs 7 comma-separated values", line=lineno)
                nums = [float(p) for p in parts[:6]]
                boxes.append((Aabb(nums[:3], nums[3:]), int(parts[6])))
            else:
                fields[key] = float(value)
        except ValueError as exc:
            raise ParseError(path, f"bad {key} value {value!r}: {exc}", line=lineno) from exc
    try:
        return SceneSpec(
            width=fields["width"],
            depth=fields["depth"],
            height=fields["height"],
            furniture=tuple(boxes),
            floor_class=int(fields.get("floor_class", 0)),
            ceiling_class=int(fields.get("ceiling_class", 1)),
            wall_class=int(fields.get("wall_class", 2)),
            density=fields.get("density", 1250.0),
        )
    except KeyError as exc:
        raise ParseError(path, f"missing required key {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise ParseError(path, str(exc)) from exc


# --- template library ------------------------------------------------------
#
# Six parametric room layouts used by the tests and the toy benchmark.
# Class indices refer to TOY_TAXONOMY. Furniture is placed on jittered
# slots so layouts vary with the stream but never overlap.

TABLE, CHAIR, LAMP = 3, 4, 5


def _box_at(cx, cy, w, d, h, z0=0.0) -> Aabb:
    return Aabb((cx - w / 2, cy - d / 2, z0), (cx + w / 2, cy + d / 2, z0 + h))


def _jitter(rng: RandomStream, r: float) -> float:
    return float(rng.uniform(-r, r))


# Box sizes (width, depth, height) per furniture class.
_TEMPLATE_SIZES = {TABLE: (1.2, 0.8, 0.75), CHAIR: (0.45, 0.45, 0.9), LAMP: (0.3, 0.3, 1.5)}
_TOY_SIZES = {TABLE: (0.9, 0.7, 0.75), CHAIR: (0.5, 0.5, 0.42), LAMP: (0.3, 0.3, 1.8)}


def _place_on_slots(rng, slots, kinds, jitter, sizes) -> tuple[tuple[Aabb, int], ...]:
    """One floor-standing box per (slot, class) pair, its center jittered
    by up to ``jitter`` in x then y."""
    furniture = []
    for (sx, sy), cls in zip(slots, kinds):
        cx, cy = sx + _jitter(rng, jitter), sy + _jitter(rng, jitter)
        furniture.append((_box_at(cx, cy, *sizes[cls]), cls))
    return tuple(furniture)


def _empty_room(rng, density):
    w = 4.0 + _jitter(rng, 0.5)
    d = 4.0 + _jitter(rng, 0.5)
    return SceneSpec(width=w, depth=d, height=2.5, density=density)


def _one_occluder(rng, density):
    w = 5.0 + _jitter(rng, 0.5)
    d = 5.0 + _jitter(rng, 0.5)
    box = _box_at(w / 2 + _jitter(rng, 0.4), d / 2 + _jitter(rng, 0.4), 1.0, 1.0, 1.0)
    return SceneSpec(width=w, depth=d, height=2.5, furniture=((box, TABLE),), density=density)


def _cluttered(rng, density):
    w, d = 6.0, 5.0
    slots = [(1.2, 1.2), (3.0, 1.2), (4.8, 1.2), (1.2, 3.8), (3.0, 3.8), (4.8, 3.8)]
    kinds = [TABLE, CHAIR, TABLE, CHAIR, LAMP, CHAIR]
    furniture = _place_on_slots(rng, slots, kinds, 0.25, _TEMPLATE_SIZES)
    return SceneSpec(width=w, depth=d, height=2.5, furniture=furniture, density=density)


def _long_corridor(rng, density):
    w, d = 10.0, 2.4
    furniture = (
        (_box_at(2.0 + _jitter(rng, 0.3), d / 2, 0.8, 0.8, 0.75), TABLE),
        (_box_at(7.5 + _jitter(rng, 0.3), d / 2, 0.45, 0.45, 0.9), CHAIR),
    )
    return SceneSpec(width=w, depth=d, height=2.5, furniture=furniture, density=density)


def _tail_heavy(rng, density):
    w, d = 5.0, 5.0
    furniture = [
        (_box_at(1.4 + _jitter(rng, 0.2), 1.4 + _jitter(rng, 0.2), 1.4, 0.9, 0.75), TABLE),
        (_box_at(3.6 + _jitter(rng, 0.2), 3.6 + _jitter(rng, 0.2), 1.4, 0.9, 0.75), TABLE),
    ]
    lamps = [(1.2, 3.8), (3.8, 1.2), (2.5, 2.5)]
    furniture += _place_on_slots(rng, lamps, [LAMP] * 3, 0.2, _TEMPLATE_SIZES)
    return SceneSpec(width=w, depth=d, height=2.5, furniture=tuple(furniture), density=density)


def _two_room(rng, density):
    w, d = 8.0, 4.0
    gap_lo = 1.5 + _jitter(rng, 0.3)
    divider_x = 4.0 + _jitter(rng, 0.3)
    t = 0.06
    furniture = (
        (Aabb((divider_x - t, 0.0, 0.0), (divider_x + t, gap_lo, 2.5)), 2),
        (Aabb((divider_x - t, gap_lo + 1.0, 0.0), (divider_x + t, d, 2.5)), 2),
        (_box_at(2.0 + _jitter(rng, 0.3), 2.0 + _jitter(rng, 0.3), 1.2, 0.8, 0.75), TABLE),
        (_box_at(6.0 + _jitter(rng, 0.3), 2.0 + _jitter(rng, 0.3), 0.45, 0.45, 0.9), CHAIR),
    )
    return SceneSpec(width=w, depth=d, height=2.5, furniture=furniture, density=density)


_TEMPLATES = {
    "empty_room": _empty_room,
    "one_occluder": _one_occluder,
    "cluttered": _cluttered,
    "long_corridor": _long_corridor,
    "tail_heavy": _tail_heavy,
    "two_room": _two_room,
}


def template_names() -> tuple[str, ...]:
    return tuple(_TEMPLATES)


def make_template(name: str, rng: RandomStream, density: float = 1250.0) -> SceneSpec:
    """Instantiate a named template; the stream drives layout jitter."""
    try:
        builder = _TEMPLATES[name]
    except KeyError:
        raise ValueError(f"unknown template {name!r}; choices: {sorted(_TEMPLATES)}") from None
    return builder(rng, density)


# Toy-benchmark rooms (not in the template library). Source rooms keep
# furniture near the walls; target rooms cluster it centrally and carry
# more tail objects, so the two domains differ in layout statistics as
# well as in point pattern.


def toy_source_spec(rng: RandomStream, density: float) -> SceneSpec:
    w = 5.0 + _jitter(rng, 0.4)
    d = 4.6 + _jitter(rng, 0.4)
    slots = [
        (1.3, 0.62), (w - 1.3, 0.62), (1.3, d - 0.62), (w - 1.3, d - 0.62),
        (0.62, d / 2), (w - 0.62, d / 2),
    ]
    order = rng.permutation(len(slots))
    kinds = [TABLE, TABLE, CHAIR, CHAIR]
    if rng.random() < 0.4:
        kinds.append(LAMP)
    furniture = _place_on_slots(rng, [slots[i] for i in order], kinds, 0.12, _TOY_SIZES)
    return SceneSpec(width=w, depth=d, height=2.5, furniture=furniture, density=density)


def toy_target_spec(rng: RandomStream, density: float) -> SceneSpec:
    w = 5.0 + _jitter(rng, 0.4)
    d = 4.6 + _jitter(rng, 0.4)
    cx0, cy0 = w / 2, d / 2
    slots = [
        (cx0 - 1.15, cy0 - 0.95), (cx0 + 1.15, cy0 - 0.95),
        (cx0 - 1.15, cy0 + 0.95), (cx0 + 1.15, cy0 + 0.95),
        (cx0, cy0),
    ]
    order = rng.permutation(len(slots))
    kinds = [TABLE, TABLE, CHAIR, LAMP, LAMP]
    furniture = _place_on_slots(rng, [slots[i] for i in order], kinds, 0.1, _TOY_SIZES)
    return SceneSpec(width=w, depth=d, height=2.5, furniture=furniture, density=density)
