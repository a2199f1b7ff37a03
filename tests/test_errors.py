import inspect
import pickle

import pytest

from scanmix import errors
from scanmix.errors import ParseError, ScanmixError, StageError, UnknownLabelError

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
