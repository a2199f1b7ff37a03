import inspect
import pickle

import numpy as np
import pytest

from scanmix import errors
import scanmix
from scanmix.errors import IoError, ParseError, ScanmixError, StageError, UnknownLabelError

SUBCLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, ScanmixError)
]

# The subclasses whose constructor takes more than a message.
EXAMPLES = {
    UnknownLabelError: lambda: UnknownLabelError(7, "taxonomy 'toy6'"),
    ParseError: lambda: ParseError("scenes/a.ply", "bad header", line=3, offset=120),
    StageError: lambda: StageError("source-only", ParseError("m.txt", "empty manifest", line=1)),
}


def test_every_custom_constructor_has_an_example():
    custom = {cls for cls in SUBCLASSES if "__init__" in vars(cls)}
    assert custom == set(EXAMPLES)


@pytest.mark.parametrize("cls", SUBCLASSES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    err = EXAMPLES.get(cls, lambda: cls("something went wrong"))()
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err) and back.args == err.args
    state, back_state = dict(vars(err)), dict(vars(back))
    cause, back_cause = state.pop("cause", None), back_state.pop("cause", None)
    assert back_state == state
    assert type(back_cause) is type(cause) and str(back_cause) == str(cause)


def test_attributes_survive():
    parse = pickle.loads(pickle.dumps(EXAMPLES[ParseError]()))
    assert (parse.path, parse.line, parse.offset) == ("scenes/a.ply", 3, 120)
    assert pickle.loads(pickle.dumps(EXAMPLES[UnknownLabelError]())).label == 7
    stage = pickle.loads(pickle.dumps(EXAMPLES[StageError]()))
    assert stage.stage == "source-only"
    assert (stage.cause.path, stage.cause.line) == ("m.txt", 1)


# The text readers at the trust boundary: a file that cannot be read is an
# IoError naming the path, bytes that are not UTF-8 a ParseError at the
# first bad byte.
READERS = {
    "config": scanmix.load_config,
    "manifest": scanmix.load_manifest,
    "scene_spec": scanmix.load_scene_spec,
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("what", ["missing", "directory"])
def test_unreadable_text_file_raises_io_error(tmp_path, reader, what):
    path = tmp_path / "input.txt"
    if what == "directory":
        path.mkdir()
    with pytest.raises(IoError, match=str(path)):
        READERS[reader](path)


@pytest.mark.parametrize("reader", READERS)
def test_non_utf8_text_file_raises_parse_error(tmp_path, reader):
    path = tmp_path / "input.txt"
    path.write_bytes(b"seed=1\n\xff\xfe=2\n")
    with pytest.raises(ParseError) as info:
        READERS[reader](path)
    assert (info.value.path, info.value.offset) == (str(path), 7)


# Every writer: a path that cannot be created is an IoError naming the path.
_TAX = scanmix.TOY_TAXONOMY
_CLOUD = scanmix.LabeledPointCloud(np.zeros((2, 3)), np.array([0, 1]), _TAX)
WRITERS = {
    **{
        f"point_file_{fmt.value}": (lambda p, fmt=fmt: scanmix.write_point_file(_CLOUD, p, fmt))
        for fmt in scanmix.FileFormat
    },
    "manifest": lambda p: scanmix.save_manifest(p, "source", "toy6", [("s0", "s0.ply")]),
    "scene_spec": lambda p: scanmix.save_scene_spec(
        scanmix.make_template("empty_room", scanmix.RandomStream(0)), p
    ),
    "iou_csv": lambda p: scanmix.write_iou_csv(p, _TAX, np.full(_TAX.count, 0.5), 0.5),
    "checkpoint": lambda p: scanmix.save_checkpoint(scanmix.SegmenterModel.zeros(_TAX), p),
    "config": lambda p: scanmix.save_config(scanmix.PipelineConfig(), p),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_writer_under_regular_file_raises_io_error(tmp_path, writer):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    path = blocker / "out.dat"
    with pytest.raises(IoError, match=str(path)):
        WRITERS[writer](path)
