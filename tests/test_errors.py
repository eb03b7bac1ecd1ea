"""Every package error survives a pickle round trip with its type, message
and attributes. An error raised in a forked ablation fit comes back to the
parent this way (`parallel.map_ordered`)."""

import inspect
import pickle

import pytest

from physio_bench import errors

ERROR_CLASSES = [obj for obj in vars(errors).values()
                 if isinstance(obj, type) and issubclass(obj, Exception)
                 and obj.__module__ == errors.__name__]


def _instance(cls):
    if "line_no" in inspect.signature(cls.__init__).parameters:
        return cls(12, "nan")
    return cls(f"{cls.__name__} message")


def test_every_error_class_is_covered():
    assert errors.NonFiniteSample in ERROR_CLASSES
    assert errors.RaggedRow in ERROR_CLASSES


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_pickle_round_trip_keeps_message_type_and_attributes(cls):
    e = _instance(cls)
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is cls
    assert str(back) == str(e)
    assert back.args == e.args
    assert vars(back) == vars(e)


def test_line_errors_keep_their_message():
    back = pickle.loads(pickle.dumps(errors.NonFiniteSample(12, "nan")))
    assert str(back) == "non-finite sample at line 12: 'nan'"
    assert back.line_no == 12
    back = pickle.loads(pickle.dumps(errors.RaggedRow(4, "1,2")))
    assert str(back) == "row without 3 fields at line 4: '1,2'"
    assert back.line_no == 4
