import ast
import builtins
import struct
from pathlib import Path

import numpy as np
import pytest

from scanmix import (
    FileFormat,
    LabeledPointCloud,
    RandomStream,
    detect_format,
    load_manifest,
    read_point_file,
    save_manifest,
    write_point_file,
)
from scanmix.errors import (
    DuplicateSceneError,
    IoError,
    MissingFileError,
    ParseError,
    UnknownLabelError,
)

FORMATS = list(FileFormat)


def cloud_with_ignores(taxonomy, n=10_000, seed=0):
    gen = RandomStream(seed)
    # float32-representable positions so the binary round trip is bit-exact
    positions = gen.uniform(-5.0, 5.0, size=(n, 3)).astype(np.float32).astype(np.float64)
    labels = gen.integers(0, taxonomy.count, size=n)
    labels[gen.random(n) < 0.1] = taxonomy.ignore_index
    return LabeledPointCloud(positions, labels, taxonomy)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_10k_round_trip(self, taxonomy, tmp_path, fmt):
        cloud = cloud_with_ignores(taxonomy)
        path = tmp_path / f"cloud.{fmt.value}"
        write_point_file(cloud, path, fmt)
        back = read_point_file(path, fmt, taxonomy)
        assert np.array_equal(back.labels, cloud.labels)
        if fmt is FileFormat.PLY_BINARY_LE:
            assert np.array_equal(back.positions, cloud.positions)
        else:
            assert np.abs(back.positions - cloud.positions).max() <= 1e-6

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_empty_cloud(self, taxonomy, tmp_path, fmt):
        cloud = LabeledPointCloud(np.zeros((0, 3)), np.zeros(0, dtype=int), taxonomy)
        path = tmp_path / "empty.dat"
        write_point_file(cloud, path, fmt)
        back = read_point_file(path, fmt, taxonomy)
        assert back.n == 0

    def test_ply_header_declares_count(self, taxonomy, tmp_path):
        cloud = cloud_with_ignores(taxonomy, n=17)
        path = tmp_path / "c.ply"
        write_point_file(cloud, path, FileFormat.PLY_ASCII)
        text = path.read_text()
        assert "element vertex 17" in text

    # the exact bytes each writer produces for two points, one of them ignored
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_written_bytes(self, taxonomy, tmp_path, fmt):
        cloud = LabeledPointCloud(
            np.array([[0.5, -1.25, 2.0], [1.0, 0.0, -0.5]]), np.array([2, -1]), taxonomy
        )
        rows = "0.500000 -1.250000 2.000000 2\n1.000000 0.000000 -0.500000 65535\n"
        header = (
            "ply\nformat {} 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\nproperty ushort label\n"
            "end_header\n"
        )
        expected = {
            FileFormat.XYZL_TEXT: rows.encode(),
            FileFormat.PLY_ASCII: (header.format("ascii") + rows).encode(),
            FileFormat.PLY_BINARY_LE: header.format("binary_little_endian").encode()
            + struct.pack("<fffH", 0.5, -1.25, 2.0, 2)
            + struct.pack("<fffH", 1.0, 0.0, -0.5, 65535),
        }[fmt]
        write_point_file(cloud, tmp_path / "c.dat", fmt)
        assert (tmp_path / "c.dat").read_bytes() == expected

    def test_detect_format(self, taxonomy, tmp_path):
        cloud = cloud_with_ignores(taxonomy, n=5)
        for fmt, name in [
            (FileFormat.PLY_ASCII, "a.ply"),
            (FileFormat.PLY_BINARY_LE, "b.ply"),
            (FileFormat.XYZL_TEXT, "c.xyzl"),
        ]:
            write_point_file(cloud, tmp_path / name, fmt)
            assert detect_format(tmp_path / name) is fmt

    def test_detect_format_missing_ply(self, tmp_path):
        path = tmp_path / "missing.ply"
        with pytest.raises(IoError, match="missing.ply"):
            detect_format(path)


class TestXyzl:
    def test_single_line(self, taxonomy, tmp_path):
        path = tmp_path / "one.xyzl"
        path.write_text("0.5 1.0 2.0 2\n")
        cloud = read_point_file(path, FileFormat.XYZL_TEXT, taxonomy)
        assert cloud.n == 1
        assert np.allclose(cloud.positions[0], [0.5, 1.0, 2.0])
        assert cloud.labels[0] == 2

    def test_empty_file(self, taxonomy, tmp_path):
        path = tmp_path / "empty.xyzl"
        path.write_text("")
        assert read_point_file(path, FileFormat.XYZL_TEXT, taxonomy).n == 0

    def test_malformed_row(self, taxonomy, tmp_path):
        path = tmp_path / "bad.xyzl"
        path.write_text("0 0 0 1\n0 0 zero 1\n")
        with pytest.raises(ParseError) as err:
            read_point_file(path, FileFormat.XYZL_TEXT, taxonomy)
        assert err.value.line == 2

    def test_non_text_xyzl_rejected(self, taxonomy, tmp_path):
        path = tmp_path / "c.xyzl"
        path.write_bytes(b"0 0 0 1\n\xff\xfe 0 0 1\n")
        with pytest.raises(ParseError):
            read_point_file(path, FileFormat.XYZL_TEXT, taxonomy)

    def test_out_of_range_label(self, taxonomy, tmp_path):
        path = tmp_path / "bad.xyzl"
        path.write_text("0 0 0 7\n")
        with pytest.raises(UnknownLabelError):
            read_point_file(path, FileFormat.XYZL_TEXT, taxonomy)

    def test_label_beyond_int64(self, taxonomy, tmp_path):
        path = tmp_path / "big.xyzl"
        path.write_text("0 0 0 1\n0 0 0 99999999999999999999\n")
        with pytest.raises(ParseError) as err:
            read_point_file(path, FileFormat.XYZL_TEXT, taxonomy)
        assert (err.value.path, err.value.line) == (str(path), 2)

    def test_ignore_sentinel_maps_back(self, taxonomy, tmp_path):
        path = tmp_path / "ig.xyzl"
        path.write_text("0 0 0 65535\n")
        cloud = read_point_file(path, FileFormat.XYZL_TEXT, taxonomy)
        assert cloud.labels[0] == taxonomy.ignore_index


class TestPlyParsing:
    def test_truncated_binary_payload(self, taxonomy, tmp_path):
        cloud = cloud_with_ignores(taxonomy, n=10)
        path = tmp_path / "t.ply"
        write_point_file(cloud, path, FileFormat.PLY_BINARY_LE)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(ParseError):
            read_point_file(path, FileFormat.PLY_BINARY_LE, taxonomy)

    def test_missing_magic(self, taxonomy, tmp_path):
        path = tmp_path / "m.ply"
        path.write_text("plyx\nformat ascii 1.0\nend_header\n")
        with pytest.raises(ParseError):
            read_point_file(path, FileFormat.PLY_ASCII, taxonomy)

    def test_row_count_mismatch(self, taxonomy, tmp_path):
        cloud = cloud_with_ignores(taxonomy, n=4)
        path = tmp_path / "c.ply"
        write_point_file(cloud, path, FileFormat.PLY_ASCII)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-1]) + "\n")  # drop one row
        with pytest.raises(ParseError):
            read_point_file(path, FileFormat.PLY_ASCII, taxonomy)


    # the ascii header is 8 lines, so body row k sits on file line 8 + k
    def test_bad_row_after_blank_lines_names_its_line(self, taxonomy, tmp_path):
        cloud = cloud_with_ignores(taxonomy, n=3)
        path = tmp_path / "c.ply"
        write_point_file(cloud, path, FileFormat.PLY_ASCII)
        lines = path.read_text().splitlines()
        lines[-1] = "0 0 x 1"
        lines[9:9] = ["", ""]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_point_file(path, FileFormat.PLY_ASCII, taxonomy)
        assert err.value.line == 13

    def test_label_beyond_int64(self, taxonomy, tmp_path):
        cloud = cloud_with_ignores(taxonomy, n=2)
        path = tmp_path / "c.ply"
        write_point_file(cloud, path, FileFormat.PLY_ASCII)
        lines = path.read_text().splitlines()
        lines[-1] = "0 0 0 99999999999999999999"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_point_file(path, FileFormat.PLY_ASCII, taxonomy)
        assert (err.value.path, err.value.line) == (str(path), 10)

    @pytest.mark.parametrize(
        "fmt, edit",
        [
            (FileFormat.PLY_ASCII, lambda d: d.replace(b"element vertex 3", b"element vertex abc")),
            (FileFormat.PLY_ASCII, lambda d: d.replace(b"format ascii 1.0", b"format")),
            (FileFormat.PLY_BINARY_LE, lambda d: d.replace(b"element vertex 3", b"element vertex")),
            (FileFormat.PLY_BINARY_LE, lambda d: d.replace(b"property ushort label", b"property ushort")),
            (FileFormat.PLY_BINARY_LE, lambda d: d.replace(b"element vertex 3", b"element vertex -3")),
            (FileFormat.PLY_BINARY_LE, lambda d: d + bytes(7)),           # trailing bytes
        ],
        ids=["count-not-a-number", "bare-format", "bare-element", "bare-property",
             "negative-count", "trailing-bytes"],
    )
    def test_malformed_file_rejected(self, taxonomy, tmp_path, fmt, edit):
        path = tmp_path / "c.ply"
        write_point_file(cloud_with_ignores(taxonomy, n=3), path, fmt)
        data = path.read_bytes()
        path.write_bytes(edit(data))
        assert path.read_bytes() != data
        with pytest.raises(ParseError) as err:
            read_point_file(path, fmt, taxonomy)
        assert err.value.path == str(path)


    @pytest.mark.parametrize("fmt", FORMATS)
    def test_non_finite_coordinate_rejected(self, taxonomy, tmp_path, fmt):
        cloud = cloud_with_ignores(taxonomy, n=3)
        path = tmp_path / "c.dat"
        if fmt is FileFormat.PLY_BINARY_LE:
            write_point_file(cloud, path, fmt)
            data = bytearray(path.read_bytes())
            data[-14:-10] = np.float32(np.inf).tobytes()        # last point's x
            path.write_bytes(bytes(data))
        else:
            write_point_file(cloud, path, fmt)
            lines = path.read_text().splitlines()
            lines[-1] = "nan " + lines[-1].split(" ", 1)[1]
            path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="point 2 has a non-finite"):
            read_point_file(path, fmt, taxonomy)


class TestManifest:
    def make_files(self, tmp_path, taxonomy, ids):
        cloud = cloud_with_ignores(taxonomy, n=3)
        rows = []
        for sid in ids:
            write_point_file(cloud, tmp_path / f"{sid}.ply", FileFormat.PLY_BINARY_LE)
            rows.append((sid, f"{sid}.ply"))
        return rows

    def test_order_and_resolution(self, taxonomy, tmp_path):
        rows = self.make_files(tmp_path, taxonomy, ["s1", "s0"])
        save_manifest(tmp_path / "m.txt", "source", taxonomy.name, rows)
        manifest = load_manifest(tmp_path / "m.txt")
        assert manifest.role == "source"
        assert manifest.taxonomy_name == taxonomy.name
        assert [sid for sid, _ in manifest.entries] == ["s1", "s0"]
        assert all(p.is_file() for _, p in manifest.entries)

    def test_duplicate_id(self, taxonomy, tmp_path):
        rows = self.make_files(tmp_path, taxonomy, ["s0"])
        save_manifest(tmp_path / "m.txt", "source", taxonomy.name, rows + rows)
        with pytest.raises(DuplicateSceneError):
            load_manifest(tmp_path / "m.txt")

    def test_missing_file(self, taxonomy, tmp_path):
        save_manifest(tmp_path / "m.txt", "source", taxonomy.name, [("s0", "nope.ply")])
        with pytest.raises(MissingFileError):
            load_manifest(tmp_path / "m.txt")

    def test_unknown_role(self, taxonomy, tmp_path):
        rows = self.make_files(tmp_path, taxonomy, ["s0"])
        save_manifest(tmp_path / "m.txt", "foo", taxonomy.name, rows)
        with pytest.raises(ParseError, match="role") as err:
            load_manifest(tmp_path / "m.txt")
        assert err.value.path == str(tmp_path / "m.txt")
        assert err.value.line == 1

    @pytest.mark.parametrize("rel", ["a\0b.ply", "a" * 5000 + ".ply"], ids=["nul-byte", "name-too-long"])
    def test_unusable_entry_path(self, taxonomy, tmp_path, rel):
        rows = self.make_files(tmp_path, taxonomy, ["s0"])
        save_manifest(tmp_path / "m.txt", "source", taxonomy.name, rows + [("s1", rel)])
        with pytest.raises(ParseError) as err:
            load_manifest(tmp_path / "m.txt")
        assert (err.value.path, err.value.line) == (str(tmp_path / "m.txt"), 3)

    # scene ids name the files the stages write (out/pseudo/<id>.ply)
    @pytest.mark.parametrize(
        "scene_id",
        ["", ".", "..", "../escaped", "a/b", "a\\b", "../target/scenes/scene_0000"],
        ids=["empty", "dot", "dot-dot", "parent", "slash", "backslash", "an-input-scene"],
    )
    def test_id_that_is_not_a_file_name_rejected(self, taxonomy, tmp_path, scene_id):
        rows = self.make_files(tmp_path, taxonomy, ["s0"])
        save_manifest(tmp_path / "m.txt", "target", taxonomy.name, rows + [(scene_id, "s0.ply")])
        with pytest.raises(ParseError, match="scene id") as err:
            load_manifest(tmp_path / "m.txt")
        assert (err.value.path, err.value.line) == (str(tmp_path / "m.txt"), 3)

    @pytest.mark.parametrize("scene_id", ["...", ".hidden", "a..b", "scene 1", "a:b"])
    def test_id_with_dots_or_spaces_accepted(self, taxonomy, tmp_path, scene_id):
        self.make_files(tmp_path, taxonomy, ["s0"])
        save_manifest(tmp_path / "m.txt", "target", taxonomy.name, [(scene_id, "s0.ply")])
        assert [sid for sid, _ in load_manifest(tmp_path / "m.txt").entries] == [scene_id]

    def test_written_bytes(self, tmp_path):
        save_manifest(tmp_path / "m.txt", "target", "toy6", [("a", "a.ply"), ("b", Path("x/b.ply"))])
        assert (tmp_path / "m.txt").read_bytes() == b"role=target taxonomy=toy6\na\ta.ply\nb\tx/b.ply\n"

    # the header must hold role and taxonomy exactly once and nothing else
    @pytest.mark.parametrize(
        "header",
        [
            "role=source taxonomy=toy3 role=target",    # repeated key
            "role=source junk taxonomy=toy3",           # token without '='
            "role=source taxonomy=toy3 colour=red",     # unknown key
            "taxonomy=toy3",                            # missing key
        ],
    )
    def test_malformed_header_rejected(self, taxonomy, tmp_path, header):
        rows = self.make_files(tmp_path, taxonomy, ["s0"])
        save_manifest(tmp_path / "m.txt", "source", taxonomy.name, rows)
        text = (tmp_path / "m.txt").read_text()
        (tmp_path / "m.txt").write_text(header + "\n" + text.split("\n", 1)[1])
        with pytest.raises(ParseError) as err:
            load_manifest(tmp_path / "m.txt")
        assert (err.value.path, err.value.line) == (str(tmp_path / "m.txt"), 1)

    def test_generated_order_matches(self, taxonomy, tmp_path):
        ids = [f"scene_{i:03d}" for i in range(100)]
        rows = self.make_files(tmp_path, taxonomy, ids)
        save_manifest(tmp_path / "m.txt", "target", taxonomy.name, rows)
        manifest = load_manifest(tmp_path / "m.txt")
        assert [sid for sid, _ in manifest.entries] == ids


# Calls that touch the file system, and the exceptions a failed access
# raises: outside io.py the package reaches files only through io's helpers,
# so a failed access always surfaces as an IoError naming the path.
_FILE_METHODS = {
    "open", "read_bytes", "read_text", "mkdir", "makedirs", "write", "write_bytes", "write_text",
    "is_file", "is_dir", "exists",
}
_OS_ERRORS = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, OSError)
}


def _file_access(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                yield node.lineno, "open()"
            elif isinstance(func, ast.Attribute) and func.attr in _FILE_METHODS:
                yield node.lineno, f".{func.attr}()"
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for exc in caught:
                if isinstance(exc, ast.Name) and exc.id in _OS_ERRORS:
                    yield node.lineno, f"except {exc.id}"


def test_only_io_touches_files():
    package = Path(__file__).resolve().parents[1] / "src" / "scanmix"
    modules = [path for path in sorted(package.glob("*.py")) if path.name != "io.py"]
    assert len(modules) > 5, package
    found = [
        f"{path.name}:{lineno}: {what}"
        for path in modules
        for lineno, what in _file_access(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_file_access_guard_bites():
    code = """
def f(p):
    try:
        p.mkdir()
        open(p).read()
    except (ValueError, FileNotFoundError):
        pass
    p.write_text("x")
    return p.is_file() or p.is_dir() or p.exists()
"""
    assert sorted(_file_access(ast.parse(code))) == [
        (4, ".mkdir()"), (5, "open()"), (6, "except FileNotFoundError"), (8, ".write_text()"),
        (9, ".exists()"), (9, ".is_dir()"), (9, ".is_file()"),
    ]
