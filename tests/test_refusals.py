"""Every refusal of `lanczos_tridiag` and `JacobiCoefficients`, one row per bad
input, with the exact error type and message.  The input checks of both are
written for speed; this table pins what they refuse and in which order the
checks run (a row with two faults names the fault that is checked first)."""

import math

import numpy as np
import pytest

from reflectionless import JacobiCoefficients, lanczos_tridiag

NAN, INF = math.nan, math.inf
FINITE = "support and weights must be finite"
NONNEGATIVE = "weights must be nonnegative"
NO_MASS = "measure has no mass"
SHAPES = "support and weights must be matching 1-d arrays"
EMPTY = "zero-size array to reduction operation maximum which has no identity"

LANCZOS = [
    ("nan-in-t", (0.0, NAN, 1.0), (0.2, 0.3, 0.5), ValueError, FINITE),
    ("inf-in-t", (0.0, INF, 1.0), (0.2, 0.3, 0.5), ValueError, FINITE),
    ("minus-inf-in-t", (-INF, 0.0, 1.0), (0.2, 0.3, 0.5), ValueError, FINITE),
    ("nan-in-w", (0.0, 0.5, 1.0), (0.2, NAN, 0.5), ValueError, FINITE),
    ("inf-in-w", (0.0, 0.5, 1.0), (0.2, INF, 0.5), ValueError, FINITE),
    ("minus-inf-in-w", (0.0, 0.5, 1.0), (0.2, -INF, 0.5), ValueError, FINITE),
    ("negative-w", (0.0, 0.5, 1.0), (0.2, -0.3, 0.5), ValueError, NONNEGATIVE),
    ("negative-w-and-nan-in-t", (0.0, NAN, 1.0), (0.2, -0.3, 0.5), ValueError, FINITE),
    ("negative-w-and-inf-in-w", (0.0, 0.5, 1.0), (INF, -0.3, 0.5), ValueError, FINITE),
    ("negative-w-and-nan-in-w", (0.0, 0.5, 1.0), (NAN, -0.3, 0.5), ValueError, FINITE),
    ("zero-mass", (0.0, 0.5, 1.0), (0.0, 0.0, 0.0), ValueError, NO_MASS),
    ("negative-zero-mass", (0.0, 0.5, 1.0), (-0.0, 0.0, -0.0), ValueError, NO_MASS),
    ("shape-mismatch", (0.0, 0.5, 1.0), (0.5, 0.5), ValueError, SHAPES),
    ("two-dimensional", ((0.0, 1.0),), ((0.5, 0.5),), ValueError, SHAPES),
    ("shape-mismatch-and-nan", (0.0, NAN), (0.5,), ValueError, SHAPES),
    ("empty", (), (), ValueError, EMPTY),
]


@pytest.mark.parametrize("t, w, kind, message",
                         [row[1:] for row in LANCZOS], ids=[row[0] for row in LANCZOS])
@pytest.mark.parametrize("n_steps", [0, 2])
def test_lanczos_refusals(t, w, kind, message, n_steps):
    with pytest.raises(kind) as err:
        lanczos_tridiag(np.array(t, dtype=float), np.array(w, dtype=float), n_steps)
    assert type(err.value) is kind and str(err.value) == message


COEFFICIENTS = "all a_n must be positive and all a_n, b_n finite"
WINDOW = [
    ("nan-in-a", 0, 2, (1.0, NAN, 1.0), (0.0, 0.0, 0.0), COEFFICIENTS),
    ("nan-in-b", 0, 2, (1.0, 1.0, 1.0), (0.0, 0.0, NAN), COEFFICIENTS),
    ("inf-in-a", 0, 2, (INF, 1.0, 1.0), (0.0, 0.0, 0.0), COEFFICIENTS),
    ("minus-inf-in-a", 0, 2, (1.0, -INF, 1.0), (0.0, 0.0, 0.0), COEFFICIENTS),
    ("inf-in-b", 0, 2, (1.0, 1.0, 1.0), (0.0, INF, 0.0), COEFFICIENTS),
    ("minus-inf-in-b", 0, 2, (1.0, 1.0, 1.0), (-INF, 0.0, 0.0), COEFFICIENTS),
    ("zero-a", 0, 2, (1.0, 0.0, 1.0), (0.0, 0.0, 0.0), COEFFICIENTS),
    ("negative-zero-a", 0, 2, (1.0, -0.0, 1.0), (0.0, 0.0, 0.0), COEFFICIENTS),
    ("negative-a", -1, 1, (1.0, 1.0, -0.5), (0.0, 0.0, 0.0), COEFFICIENTS),
    ("single-site-zero-a", 4, 4, (0.0,), (0.0,), COEFFICIENTS),
    ("single-site-nan-b", 4, 4, (1.0,), (NAN,), COEFFICIENTS),
    ("negative-a-and-nan-in-b", 0, 1, (-1.0, 1.0), (NAN, 0.0), COEFFICIENTS),
    ("reversed-window", 2, 1, (), (), "window indices require n_lo <= n_hi"),
    ("reversed-window-and-nan", 2, 1, (NAN,), (NAN,), "window indices require n_lo <= n_hi"),
    ("window-too-short", 0, 2, (1.0, 1.0), (0.0, 0.0), "window arrays must match window size"),
    ("window-too-long-and-nan", 0, 0, (1.0, NAN), (0.0, 0.0),
     "window arrays must match window size"),
]


@pytest.mark.parametrize("n_lo, n_hi, a, b, message",
                         [row[1:] for row in WINDOW], ids=[row[0] for row in WINDOW])
def test_coefficient_refusals(n_lo, n_hi, a, b, message):
    with pytest.raises(ValueError) as err:
        JacobiCoefficients(n_lo, n_hi, a, b)
    assert type(err.value) is ValueError and str(err.value) == message


def test_ragged_window_refused_as_numpy_refuses_it():
    a, b = (1.0, 1.0), (0.0, 0.0, 0.0)
    with pytest.raises(ValueError) as ref:
        np.array([a, b], dtype=float)
    with pytest.raises(ValueError) as err:
        JacobiCoefficients(0, 1, a, b)
    assert type(err.value) is ValueError and str(err.value) == str(ref.value)
