import numpy as np
import pytest

from scanmix import (
    ClassTaxonomy,
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

    def test_detect_format(self, taxonomy, tmp_path):
        cloud = cloud_with_ignores(taxonomy, n=5)
        for fmt, name in [
            (FileFormat.PLY_ASCII, "a.ply"),
            (FileFormat.PLY_BINARY_LE, "b.ply"),
            (FileFormat.XYZL_TEXT, "c.xyzl"),
        ]:
            write_point_file(cloud, tmp_path / name, fmt)
            assert detect_format(tmp_path / name) is fmt


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

    def test_generated_order_matches(self, taxonomy, tmp_path):
        ids = [f"scene_{i:03d}" for i in range(100)]
        rows = self.make_files(tmp_path, taxonomy, ids)
        save_manifest(tmp_path / "m.txt", "target", taxonomy.name, rows)
        manifest = load_manifest(tmp_path / "m.txt")
        assert [sid for sid, _ in manifest.entries] == ids
