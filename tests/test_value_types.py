"""The slotted value types survive a round trip: pickle, copy.copy and
copy.deepcopy give an equal object, every instance refuses an attribute it
does not declare, and an operator's window stays one read-only array."""

import copy
import pickle

import numpy as np
import pytest

from reflectionless import (AcPiece, CompactSet, ExtremalResult, FSelector, GapJumps,
                            HerglotzRep, JacobiCoefficients, StepFunction, Tail, free_krein)

PERIOD = Tail.periodic((1.0, 0.5), (0.5, -0.5))

VALUES = {
    "StepFunction": free_krein(3.0),
    "HerglotzRep": HerglotzRep(free_krein(3.0)),
    "Tail": PERIOD,
    "JacobiCoefficients": JacobiCoefficients(-1, 1, (1.0, 2.0, 1.5), (0.0, 0.3, -0.2), PERIOD),
    "CompactSet": CompactSet(((-2.0, -0.5), (0.5, 2.0))),
    "AcPiece": AcPiece(-2.0, 2.0, 0.5),
    "FSelector": FSelector(((2.5, 3.0, 0.25),), ((3.5, 1.0),)),
    "GapJumps": GapJumps((0.3, 0.0)),
    "ExtremalResult": ExtremalResult(0.75, GapJumps((0.5,)), 0.5625, 3.0, 4),
}

ROUND_TRIPS = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def read_only_arrays(value):
    """The arrays an operator or a tail holds, each with the array it views."""
    if isinstance(value, JacobiCoefficients):
        return [(value.a_window, value._window), (value.b_window, value._window),
                (value._window, None), (value.tail._block, None)]
    if isinstance(value, Tail):
        return [(value._block, None)]
    return []


@pytest.mark.parametrize("how", ROUND_TRIPS)
@pytest.mark.parametrize("name", VALUES)
def test_round_trip_gives_an_equal_value(name, how):
    value = VALUES[name]
    back = ROUND_TRIPS[how](value)
    assert type(back) is type(value) and back == value and hash(back) == hash(value)
    for array, base in read_only_arrays(back):
        assert not array.flags.writeable
        assert base is None or array.base is base


@pytest.mark.parametrize("name", VALUES)
def test_value_has_no_dict_and_refuses_a_new_attribute(name):
    value = VALUES[name]
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(value, "extra", 1)       # past the frozen __setattr__


def test_window_rows_are_read_only_views_of_one_array():
    j = VALUES["JacobiCoefficients"]
    assert j._window.shape == (2, 3) and not j._window.flags.writeable
    for row, values in ((j.a_window, [1.0, 2.0, 1.5]), (j.b_window, [0.0, 0.3, -0.2])):
        assert row.base is j._window and not row.flags.writeable and row.tolist() == values
        with pytest.raises(ValueError):
            row[0] = 9.0
    assert j.a(0) == 2.0 and j.b(1) == -0.2 and j.a(2) == 0.5      # site 2 reads the tail
    assert j.to_dict()["a"] == [1.0, 2.0, 1.5] and j.to_dict()["b"] == [0.0, 0.3, -0.2]


def test_step_function_coefficients_computed_on_each_access():
    xi = VALUES["StepFunction"]
    c = xi.log_coefficients
    assert np.array_equal(c, [-1.0, 0.5, 0.5, 0.0]) and xi.log_coefficients is not c
    assert np.array_equal(xi.abs_log_coefficients, [0.0, 0.5, 0.5, 0.0])
