"""Mutation fuzzing of the trust boundaries: each reader, fed mutated bytes
or lines of a valid input, either accepts it or raises a ScanmixError.

The examples are derandomized and bounded, so every run replays the same
inputs.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import scanmix
from scanmix import FileFormat, TOY_TAXONOMY
from scanmix.errors import ScanmixError
from scanmix.pipeline import DEFAULT_CONFIG_TEXT, parse_config_text

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Values that sit on the edges of what the parsers convert or check.
TOKENS = [
    b"", b"0", b"-1", b"1.5", b"nan", b"inf", b"-inf", b"1e999", b"65535", b"65536",
    b"99999999999999999999", b"-99999999999999999999", b"0x10", b"1_0", b"\x00",
    b"\xff", b"\xc3\xa9", b"=", b",", b"\t", b" ", b"\r", b"#", b"x" * 300,
    b"end_header", b"element vertex 3", b"property float x", b"format ascii 1.0",
    b"box=0,0,0,1,1,1,3", b"role=target", b"d=7", b"c=6", b"../", b"/", b"\xff" * 8,
]
_SEPARATORS = re.compile(rb"([\s=,])")


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` after one to three edits: a byte set, an insertion, an
    overwrite, a deletion, a truncation, or a line dropped, duplicated,
    swapped or with one field replaced."""
    buf = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(buf)))
        op = draw(st.sampled_from(["set", "insert", "overwrite", "delete", "truncate", "line"]))
        if op == "set" and i < len(buf):
            buf[i] = draw(st.integers(0, 255))
        elif op in ("insert", "overwrite"):
            token = draw(st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=4))
            buf[i:i + len(token) if op == "overwrite" else i] = token
        elif op == "delete":
            del buf[i:i + draw(st.integers(1, 16))]
        elif op == "truncate":
            del buf[i:]
        elif op == "line":
            lines = bytes(buf).split(b"\n")
            j, k = i % len(lines), draw(st.integers(0, len(lines) - 1))
            edit = draw(st.sampled_from(["drop", "dup", "swap", "field"]))
            if edit == "drop":
                del lines[j]
            elif edit == "dup":
                lines.insert(k, lines[j])
            elif edit == "swap":
                lines[j], lines[k] = lines[k], lines[j]
            else:
                parts = _SEPARATORS.split(lines[j])
                fields = range(0, len(parts), 2)   # odd indices are separators
                parts[draw(st.sampled_from(fields))] = draw(st.sampled_from(TOKENS))
                lines[j] = b"".join(parts)
            buf = bytearray(b"\n".join(lines))
    return bytes(buf)


def accepts_or_raises_scanmix_error(read):
    """Call ``read``; any exception other than a ScanmixError fails the test."""
    try:
        read()
    except ScanmixError:
        pass


# The valid input of each reader, as a file name in the fuzz directory.
VALID = {
    **{fmt.value: f"valid.{fmt.value}" for fmt in FileFormat},
    "manifest": "valid_manifest.txt",
    "checkpoint": "valid.bin",
    "scene_spec": "valid_spec.txt",
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding every reader's valid input (see VALID)."""
    directory = tmp_path_factory.mktemp("fuzz")
    gen = scanmix.RandomStream(5)
    positions = gen.uniform(0.0, 2.0, size=(4, 3)).astype(np.float32).astype(np.float64)
    labels = np.array([0, 5, -1, 2])
    cloud = scanmix.LabeledPointCloud(positions, labels, TOY_TAXONOMY)
    for fmt in FileFormat:
        scanmix.write_point_file(cloud, directory / VALID[fmt.value], fmt)
    scanmix.save_manifest(
        directory / VALID["manifest"], "source", TOY_TAXONOMY.name,
        [("s0", VALID["ply_binary_le"]), ("s1", VALID["xyzl_text"])],
    )
    weights = gen.normal(size=(TOY_TAXONOMY.count, 7))
    model = scanmix.SegmenterModel(weights, gen.normal(size=TOY_TAXONOMY.count), TOY_TAXONOMY)
    scanmix.save_checkpoint(model, directory / VALID["checkpoint"])
    scanmix.save_scene_spec(scanmix.make_template("cluttered", gen), directory / VALID["scene_spec"])
    return directory


def fuzzed_file(directory, data, valid: str, name: str):
    """Write a mutation of the valid input ``valid`` to ``name``."""
    path = directory / name
    path.write_bytes(data.draw(mutated((directory / VALID[valid]).read_bytes())))
    return path


@pytest.mark.parametrize("fmt", list(FileFormat), ids=lambda f: f.value)
@FUZZ
@given(data=st.data())
def test_read_point_file(fuzz_dir, fmt, data):
    path = fuzzed_file(fuzz_dir, data, fmt.value, "cloud")
    accepts_or_raises_scanmix_error(lambda: scanmix.read_point_file(path, fmt, TOY_TAXONOMY))


@FUZZ
@given(data=st.data())
def test_load_manifest(fuzz_dir, data):
    path = fuzzed_file(fuzz_dir, data, "manifest", "manifest.txt")
    accepts_or_raises_scanmix_error(lambda: scanmix.load_manifest(path))


@FUZZ
@given(data=st.data())
def test_load_checkpoint(fuzz_dir, data):
    path = fuzzed_file(fuzz_dir, data, "checkpoint", "model.bin")
    accepts_or_raises_scanmix_error(lambda: scanmix.load_checkpoint(path, TOY_TAXONOMY))


@FUZZ
@given(data=st.data())
def test_load_scene_spec(fuzz_dir, data):
    path = fuzzed_file(fuzz_dir, data, "scene_spec", "spec.txt")
    accepts_or_raises_scanmix_error(lambda: scanmix.load_scene_spec(path))


@FUZZ
@given(data=st.data())
def test_parse_config_text(data):
    text = data.draw(mutated(DEFAULT_CONFIG_TEXT.encode("utf-8"))).decode("utf-8", errors="replace")
    accepts_or_raises_scanmix_error(lambda: parse_config_text(text))
