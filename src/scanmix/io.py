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

# Each PLY vertex property once, in file order: its name, the type names a
# reader accepts (the writer declares the first) and its on-disk dtype.
_PLY_PROPERTIES = (
    ("x", ("float", "float32"), "<f4"),
    ("y", ("float", "float32"), "<f4"),
    ("z", ("float", "float32"), "<f4"),
    ("label", ("ushort", "uint16"), "<u2"),
)
_PLY_DTYPE = np.dtype([(name, dtype) for name, _types, dtype in _PLY_PROPERTIES])
_MANIFEST_HEADER = ("role", "taxonomy")
# fewest whitespace-separated fields of each PLY header keyword the reader indexes
_PLY_FIELDS = {"format": 2, "element": 3, "property": 3}
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


class FileFormat(str, Enum):
    PLY_ASCII = "ply_ascii"
    PLY_BINARY_LE = "ply_binary_le"
    XYZL_TEXT = "xyzl_text"


# Every file access in the package goes through the five functions below, so
# a failed one is always an IoError naming the path. ValueError covers paths
# the OS cannot take (a NUL byte).


def _exists(path) -> bool:
    """Whether anything is at ``path``; False only when nothing is."""
    try:
        os.stat(path)
        return True
    except FileNotFoundError:
        return False
    except (OSError, ValueError) as exc:
        raise IoError(f"failed to probe {path}: {exc}") from exc


def _read_bytes(path, limit: int = -1) -> bytes:
    """The file's bytes (at most ``limit`` of them when given)."""
    try:
        with open(path, "rb") as f:
            return f.read(limit)
    except (OSError, ValueError) as exc:
        raise IoError(f"failed to read {path}: {exc}") from exc


def _read_text(path) -> str:
    """The file's text, decoded as strict UTF-8; raises ParseError at the
    first byte that is not UTF-8."""
    try:
        return _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, f"not a text file: {exc.reason}", offset=exc.start) from None


def _write_file(path, data: bytes | str) -> None:
    """Create or replace the file with ``data`` (text is written as UTF-8,
    newlines untranslated)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        with open(path, "wb") as f:
            f.write(data)
    except (OSError, ValueError) as exc:
        raise IoError(f"failed to write {path}: {exc}") from exc


def _make_dir(path) -> None:
    """Create the directory and its missing parents, if not there yet."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise IoError(f"failed to create directory {path}: {exc}") from exc


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
    props = "".join(f"property {types[0]} {name}\n" for name, types, _ in _PLY_PROPERTIES)
    return f"ply\nformat {kind} 1.0\nelement vertex {count}\n{props}end_header\n"


def write_point_file(cloud: LabeledPointCloud, path, fmt) -> None:
    """Write a cloud so that :func:`read_point_file` restores it exactly
    (binary positions are stored as float32; ascii with six decimals)."""
    fmt = FileFormat(fmt)
    labels = _labels_to_disk(cloud)
    pos = cloud.positions
    if fmt is FileFormat.PLY_BINARY_LE:
        rec = np.empty(cloud.n, dtype=_PLY_DTYPE)
        for name, column in zip(_PLY_DTYPE.names, (*pos.T, labels)):
            rec[name] = column
        data = _ply_header(fmt, cloud.n).encode("ascii") + rec.tobytes()
    else:
        data = "".join(
            "%.6f %.6f %.6f %d\n" % (pos[i, 0], pos[i, 1], pos[i, 2], labels[i])
            for i in range(cloud.n)
        )
        if fmt is FileFormat.PLY_ASCII:
            data = _ply_header(fmt, cloud.n) + data
    _write_file(path, data)


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
    if len(props) != len(_PLY_PROPERTIES) or any(
        p[1] != name or p[0] not in types for p, (name, types, _) in zip(props, _PLY_PROPERTIES)
    ):
        raise ParseError(path, f"unexpected PLY properties {props}")
    return fmt, count, offset


def _parse_rows(path, lines, first_line: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions and raw labels of ``x y z label`` rows; ``first_line`` is the
    file line number of ``lines[0]``. Blank lines are skipped."""
    positions, labels = [], []
    for lineno, line in enumerate(lines, start=first_line):
        parts = line.split()
        if not parts:
            continue
        try:
            if len(parts) != 4:
                raise ValueError(f"expected 4 fields, got {len(parts)}")
            positions.append((float(parts[0]), float(parts[1]), float(parts[2])))
            label = int(parts[3])
            if not _INT64_MIN <= label <= _INT64_MAX:
                raise ValueError(f"label {label} does not fit a 64-bit integer")
            labels.append(label)
        except ValueError as exc:
            raise ParseError(path, str(exc), line=lineno) from None
    return np.array(positions, dtype=np.float64).reshape(-1, 3), np.array(labels, dtype=np.int64)


def _read_ply(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = _read_bytes(path)
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
        *xyz, raw = (rec[name] for name in _PLY_DTYPE.names)
        pos = np.stack(xyz, axis=1).astype(np.float64)
    else:
        text = data[offset:].decode("ascii", errors="replace")
        pos, raw = _parse_rows(path, text.splitlines(), data[:offset].count(b"\n") + 1)
        if len(raw) != count:
            raise ParseError(path, f"declared {count} vertices, found {len(raw)} rows")
    return pos, raw


def read_point_file(path, fmt, taxonomy: ClassTaxonomy) -> LabeledPointCloud:
    """Parse a point file; the declared and parsed point counts must agree
    and every coordinate must be finite."""
    fmt = FileFormat(fmt)
    path = Path(path)
    if fmt is FileFormat.XYZL_TEXT:
        pos, raw = _parse_rows(path, _read_text(path).splitlines(), 1)
    else:
        pos, raw = _read_ply(path)
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
    head = _read_bytes(path, 256)
    return (
        FileFormat.PLY_ASCII
        if b"format ascii" in head
        else FileFormat.PLY_BINARY_LE
    )


def _header_line(keys, values) -> str:
    """A one-line ``key=value`` header, in the order of ``keys``."""
    return " ".join(f"{key}={value}" for key, value in zip(keys, values, strict=True))


def _header_fields(path, line: str, keys) -> tuple[str, ...]:
    """The values of a :func:`_header_line`, in the order of ``keys``. The
    header must hold each of ``keys`` exactly once and nothing else."""
    fields: dict[str, str] = {}
    for token in line.split():
        key, eq, value = token.partition("=")
        if not eq:
            raise ParseError(path, f"header token {token!r} is not key=value", line=1)
        if key not in keys:
            raise ParseError(path, f"unknown header key {key!r}", line=1)
        if key in fields:
            raise ParseError(path, f"duplicate header key {key!r}", line=1)
        fields[key] = value
    missing = [key for key in keys if key not in fields]
    if missing:
        raise ParseError(path, f"header lacks {', '.join(missing)}", line=1)
    return tuple(fields[key] for key in keys)


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
    manifest's directory. Duplicate ids and missing files are errors, and
    so is an id that is not a plain file name (empty, ``.``, ``..``, or
    holding ``/`` or ``\\``)."""
    path = Path(path)
    lines = _read_text(path).splitlines()
    if not lines:
        raise ParseError(path, "empty manifest", line=1)
    role, taxonomy_name = _header_fields(path, lines[0], _MANIFEST_HEADER)
    base = path.parent
    seen = set()
    entries = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if "\t" not in line:
            raise ParseError(path, "expected scene_id<TAB>relative_path", line=lineno)
        scene_id, rel = line.split("\t", 1)
        if scene_id in ("", ".", "..") or "/" in scene_id or "\\" in scene_id:
            # ids name the files the stages write, inside their own directory
            raise ParseError(path, f"scene id {scene_id!r} is not a file name", line=lineno)
        if scene_id in seen:
            raise DuplicateSceneError(f"{path}:{lineno}: duplicate scene id {scene_id!r}")
        seen.add(scene_id)
        try:
            resolved = (base / rel).resolve()
            found = resolved.is_file()
        except (OSError, ValueError) as exc:
            raise ParseError(path, f"bad scene path: {exc}", line=lineno) from None
        if not found:
            raise MissingFileError(f"{path}:{lineno}: missing file {resolved}")
        entries.append((scene_id, resolved))
    try:
        return DatasetManifest(role, taxonomy_name, tuple(entries))
    except ValueError as exc:
        raise ParseError(path, str(exc), line=1) from exc


def save_manifest(path, role: str, taxonomy_name: str, entries) -> None:
    """Write a manifest; ``entries`` holds (scene_id, path relative to the
    manifest's directory)."""
    lines = [_header_line(_MANIFEST_HEADER, (role, taxonomy_name))]
    for scene_id, rel in entries:
        lines.append(f"{scene_id}\t{os.fspath(rel)}")
    _write_file(path, "\n".join(lines) + "\n")


def load_scenes(manifest: DatasetManifest, taxonomy: ClassTaxonomy) -> list[LabeledPointCloud]:
    """Load every scene in manifest order, detecting each file's format."""
    return [
        read_point_file(p, detect_format(p), taxonomy) for _sid, p in manifest.entries
    ]
