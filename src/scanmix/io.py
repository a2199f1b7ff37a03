"""Point-cloud file formats and dataset manifests.

Three interchange formats are supported:

* ``ply_ascii`` / ``ply_binary_le`` -- PLY with ``float x y z`` positions
  and a ``ushort label`` property (binary files are little-endian with
  32-bit float positions).
* ``xyzl_text`` -- one point per line, ``x y z label``, whitespace
  separated, decimal.

The ignore sentinel is stored as 65535 on disk in every format and mapped
back to the taxonomy's ``ignore_index`` on read. Positions are meters;
ascii positions are printed with six decimals. Manifests are line
oriented: a header ``role=<source|target> taxonomy=<name>`` followed by
``scene_id<TAB>relative_path`` rows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .core import ClassTaxonomy, LabeledPointCloud
from .errors import (
    DuplicateSceneError,
    IoError,
    MissingFileError,
    ParseError,
    UnknownLabelError,
)

IGNORE_SENTINEL = 65535

_PLY_DTYPE = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("label", "<u2")])
# fewest whitespace-separated fields of each PLY header keyword the reader indexes
_PLY_FIELDS = {"format": 2, "element": 3, "property": 3}


class FileFormat(str, Enum):
    PLY_ASCII = "ply_ascii"
    PLY_BINARY_LE = "ply_binary_le"
    XYZL_TEXT = "xyzl_text"


def _coerce_format(fmt) -> FileFormat:
    if isinstance(fmt, FileFormat):
        return fmt
    try:
        return FileFormat(str(fmt))
    except ValueError:
        raise ValueError(f"unsupported file format {fmt!r}") from None


def _labels_to_disk(cloud: LabeledPointCloud) -> np.ndarray:
    labels = cloud.labels
    if cloud.taxonomy.count >= IGNORE_SENTINEL:
        raise IoError("taxonomy too large for the 16-bit on-disk label encoding")
    out = np.where(labels == cloud.taxonomy.ignore_index, IGNORE_SENTINEL, labels)
    return out.astype(np.int64)


def _labels_from_disk(raw: np.ndarray, taxonomy: ClassTaxonomy) -> np.ndarray:
    labels = np.asarray(raw, dtype=np.int64)
    ignored = labels == IGNORE_SENTINEL
    bad = ~ignored & ((labels < 0) | (labels >= taxonomy.count))
    if bad.any():
        raise UnknownLabelError(labels[bad][0], f"taxonomy {taxonomy.name!r}")
    return np.where(ignored, taxonomy.ignore_index, labels)


def _ply_header(fmt: FileFormat, count: int) -> str:
    kind = "ascii" if fmt is FileFormat.PLY_ASCII else "binary_little_endian"
    return (
        "ply\n"
        f"format {kind} 1.0\n"
        f"element vertex {count}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "property ushort label\n"
        "end_header\n"
    )


def write_point_file(cloud: LabeledPointCloud, path, fmt) -> None:
    """Write a cloud so that :func:`read_point_file` restores it exactly
    (binary positions are stored as float32; ascii with six decimals)."""
    fmt = _coerce_format(fmt)
    path = Path(path)
    labels = _labels_to_disk(cloud)
    pos = cloud.positions
    try:
        if fmt is FileFormat.PLY_BINARY_LE:
            rec = np.empty(cloud.n, dtype=_PLY_DTYPE)
            rec["x"], rec["y"], rec["z"] = pos[:, 0], pos[:, 1], pos[:, 2]
            rec["label"] = labels.astype(np.uint16)
            with open(path, "wb") as f:
                f.write(_ply_header(fmt, cloud.n).encode("ascii"))
                f.write(rec.tobytes())
        else:
            lines = [
                "%.6f %.6f %.6f %d" % (pos[i, 0], pos[i, 1], pos[i, 2], labels[i])
                for i in range(cloud.n)
            ]
            body = "\n".join(lines)
            if lines:
                body += "\n"
            with open(path, "w", newline="\n") as f:
                if fmt is FileFormat.PLY_ASCII:
                    f.write(_ply_header(fmt, cloud.n))
                f.write(body)
    except OSError as exc:
        raise IoError(f"failed to write {path}: {exc}") from exc


def _parse_ply_header(path: Path, data: bytes):
    # Returns (format, vertex count, byte offset of the payload).
    lines = []
    offset = 0
    while True:
        end = data.find(b"\n", offset)
        if end < 0:
            raise ParseError(path, "unterminated PLY header", offset=offset)
        line = data[offset:end].decode("ascii", errors="replace").strip()
        lines.append((line, offset))
        offset = end + 1
        if line == "end_header":
            break
        if len(lines) > 100:
            raise ParseError(path, "header too long or end_header missing")
    if not lines or lines[0][0] != "ply":
        raise ParseError(path, "missing 'ply' magic", line=1)
    fmt = None
    count = None
    props = []
    for i, (line, _off) in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts or line == "end_header" or parts[0] == "comment":
            continue
        if len(parts) < _PLY_FIELDS.get(parts[0], 0):
            raise ParseError(path, f"malformed {parts[0]!r} line", line=i)
        if parts[0] == "format":
            if parts[1] == "ascii":
                fmt = FileFormat.PLY_ASCII
            elif parts[1] == "binary_little_endian":
                fmt = FileFormat.PLY_BINARY_LE
            else:
                raise ParseError(path, f"unsupported PLY format {parts[1]!r}", line=i)
        elif parts[0] == "element":
            if parts[1] != "vertex":
                raise ParseError(path, f"unsupported element {parts[1]!r}", line=i)
            try:
                count = int(parts[2])
            except ValueError:
                raise ParseError(path, f"bad vertex count {parts[2]!r}", line=i) from None
            if count < 0:
                raise ParseError(path, f"negative vertex count {count}", line=i)
        elif parts[0] == "property":
            props.append((parts[1], parts[2]))
    if fmt is None or count is None:
        raise ParseError(path, "PLY header lacks format or element line")
    expected = [
        ({"float", "float32"}, "x"),
        ({"float", "float32"}, "y"),
        ({"float", "float32"}, "z"),
        ({"ushort", "uint16"}, "label"),
    ]
    if len(props) != 4 or any(
        p[1] != name or p[0] not in types for p, (types, name) in zip(props, expected)
    ):
        raise ParseError(path, f"unexpected PLY properties {props}")
    return fmt, count, offset


def _read_ply(path: Path) -> tuple[np.ndarray, np.ndarray]:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"failed to read {path}: {exc}") from exc
    fmt, count, offset = _parse_ply_header(path, data)
    if fmt is FileFormat.PLY_BINARY_LE:
        payload = data[offset:]
        need = count * _PLY_DTYPE.itemsize
        if len(payload) != need:
            raise ParseError(
                path,
                f"declared {count} vertices but payload holds {len(payload)} bytes",
                offset=offset,
            )
        rec = np.frombuffer(payload, dtype=_PLY_DTYPE)
        pos = np.stack([rec["x"], rec["y"], rec["z"]], axis=1).astype(np.float64)
        raw = rec["label"]
    else:
        text = data[offset:].decode("ascii", errors="replace")
        rows = [ln for ln in text.splitlines() if ln.strip()]
        if len(rows) != count:
            raise ParseError(path, f"declared {count} vertices, found {len(rows)} rows")
        pos = np.zeros((count, 3), dtype=np.float64)
        raw = np.zeros(count, dtype=np.int64)
        header_lines = data[:offset].count(b"\n")
        for i, row in enumerate(rows):
            parts = row.split()
            if len(parts) != 4:
                raise ParseError(path, f"expected 4 fields, got {len(parts)}", line=header_lines + i + 1)
            try:
                pos[i] = [float(parts[0]), float(parts[1]), float(parts[2])]
                raw[i] = int(parts[3])
            except ValueError as exc:
                raise ParseError(path, str(exc), line=header_lines + i + 1) from exc
    return pos, raw


def _read_xyzl(path: Path) -> tuple[np.ndarray, np.ndarray]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoError(f"failed to read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(path, f"not a text file: {exc.reason}", offset=exc.start) from None
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(path, f"expected 4 fields, got {len(parts)}", line=lineno)
        try:
            rows.append((float(parts[0]), float(parts[1]), float(parts[2]), int(parts[3])))
        except ValueError as exc:
            raise ParseError(path, str(exc), line=lineno) from exc
    if rows:
        arr = np.asarray(rows, dtype=np.float64)
        pos = arr[:, :3]
        raw = arr[:, 3].astype(np.int64)
    else:
        pos = np.zeros((0, 3), dtype=np.float64)
        raw = np.zeros(0, dtype=np.int64)
    return pos, raw


def read_point_file(path, fmt, taxonomy: ClassTaxonomy) -> LabeledPointCloud:
    """Parse a point file; the declared and parsed point counts must agree
    and every coordinate must be finite."""
    fmt = _coerce_format(fmt)
    path = Path(path)
    pos, raw = _read_xyzl(path) if fmt is FileFormat.XYZL_TEXT else _read_ply(path)
    finite = np.isfinite(pos)
    if not finite.all():
        point = int(np.flatnonzero(~finite)[0]) // 3
        raise ParseError(path, f"point {point} has a non-finite coordinate")
    return LabeledPointCloud(pos, _labels_from_disk(raw, taxonomy), taxonomy)


def detect_format(path) -> FileFormat:
    """Guess the format from the extension and, for .ply, the header."""
    path = Path(path)
    if path.suffix.lower() != ".ply":
        return FileFormat.XYZL_TEXT
    with open(path, "rb") as f:
        head = f.read(256)
    return (
        FileFormat.PLY_ASCII
        if b"format ascii" in head
        else FileFormat.PLY_BINARY_LE
    )


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered scene list for one domain (source or target)."""

    role: str
    taxonomy_name: str
    entries: tuple[tuple[str, Path], ...]

    def __post_init__(self):
        if self.role not in ("source", "target"):
            raise ValueError(f"manifest role must be source or target, got {self.role!r}")

    def __len__(self):
        return len(self.entries)


def load_manifest(path) -> DatasetManifest:
    """Read a manifest; entries keep file order, paths resolve against the
    manifest's directory. Duplicate ids and missing files are errors."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise IoError(f"failed to read {path}: {exc}") from exc
    if not lines:
        raise ParseError(path, "empty manifest", line=1)
    header = dict(
        part.split("=", 1) for part in lines[0].split() if "=" in part
    )
    if "role" not in header or "taxonomy" not in header:
        raise ParseError(path, "header must declare role=... taxonomy=...", line=1)
    base = path.parent
    seen = set()
    entries = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if "\t" not in line:
            raise ParseError(path, "expected scene_id<TAB>relative_path", line=lineno)
        scene_id, rel = line.split("\t", 1)
        if scene_id in seen:
            raise DuplicateSceneError(f"{path}:{lineno}: duplicate scene id {scene_id!r}")
        seen.add(scene_id)
        resolved = (base / rel).resolve()
        if not resolved.is_file():
            raise MissingFileError(f"{path}:{lineno}: missing file {resolved}")
        entries.append((scene_id, resolved))
    try:
        return DatasetManifest(header["role"], header["taxonomy"], tuple(entries))
    except ValueError as exc:
        raise ParseError(path, str(exc), line=1) from exc


def save_manifest(path, role: str, taxonomy_name: str, entries) -> None:
    """Write a manifest; ``entries`` holds (scene_id, path relative to the
    manifest's directory)."""
    path = Path(path)
    lines = [f"role={role} taxonomy={taxonomy_name}"]
    for scene_id, rel in entries:
        lines.append(f"{scene_id}\t{os.fspath(rel)}")
    try:
        with open(path, "w", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"failed to write {path}: {exc}") from exc


def load_scenes(manifest: DatasetManifest, taxonomy: ClassTaxonomy) -> list[LabeledPointCloud]:
    """Load every scene in manifest order, detecting each file's format."""
    return [
        read_point_file(p, detect_format(p), taxonomy) for _sid, p in manifest.entries
    ]
