"""Every refusal of `lanczos_tridiag` and `JacobiCoefficients`, one row per bad
input, with the exact error type and message.  The input checks of both are
written for speed; this table pins what they refuse and in which order the
checks run (a row with two faults names the fault that is checked first).
A last table holds the input checks of the other layers that no other test
reaches."""

import math
import re

import numpy as np
import pytest

from reflectionless import (AcPiece, CompactSet, FSelector, HerglotzRep, JacobiCoefficients,
                            SpectralMeasure, StepFunction, Tail, free_krein, green_diag,
                            grid_min_mass, half_line_measure, lanczos_tridiag,
                            reconstruct_coefficients, reconstruction_report)

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


BAND = CompactSet(((-2.0, 2.0),))
REP = HerglotzRep(free_krein(4.0))    # xi = 1/2 on BAND
INPUT_CHECKS = [
    ("step-lengths", lambda: StepFunction(1.0, (-1.0, 1.0), (0.5, 0.5)),
     "need len(breakpoints) == len(values) + 1 >= 2"),
    ("step-no-values", lambda: StepFunction(1.0, (-1.0,), ()),
     "need len(breakpoints) == len(values) + 1 >= 2"),
    ("step-ends", lambda: StepFunction(1.0, (-1.0, 0.5), (0.5,)),
     "breakpoints must start at -R and end at R"),
    ("pieces-overlap",
     lambda: StepFunction.from_pieces(1.0, [(-0.5, 0.2, 0.5), (0.1, 0.6, 1.0)]),
     "pieces overlap"),
    ("with-value-past-domain", lambda: free_krein(2.0).with_value(1.0, 3.0, 0.5),
     "(lo, hi) outside the domain"),
    ("distance-across-domains", lambda: free_krein(2.0).l1_distance(free_krein(3.0)),
     "step functions live on different domains"),
    ("ac-without-rep", lambda: SpectralMeasure(None, (AcPiece(-1.0, 1.0, 1.0),)),
     "ac pieces need a Herglotz representation"),
    ("ac-overlap",
     lambda: SpectralMeasure(REP, (AcPiece(-1.0, 0.5, 1.0), AcPiece(0.0, 1.0, 1.0))),
     "ac pieces must be disjoint"),
    ("atom-repeated", lambda: SpectralMeasure(None, (), ((2.5, 0.3), (2.5, 0.2))),
     "each atom position may carry one mass"),
    ("f-empty-interval", lambda: FSelector(intervals=((3.0, 3.0, 0.5),)),
     "f interval must have positive length"),
    ("f-overlap", lambda: FSelector(intervals=((2.5, 3.0, 0.5), (2.8, 3.5, 0.5))),
     "f intervals must be disjoint"),
    ("half-line-without-rep",
     lambda: half_line_measure(SpectralMeasure(None, (), ((3.0, 1.0),)), BAND),
     "half_line_measure needs a measure with a representation"),
    ("atom-at-band-edge",
     lambda: half_line_measure(SpectralMeasure(REP, (), ((2.0, 1.0),)), BAND),
     "atom at the band edge 2.0 is degenerate"),
    ("atom-inside-band",
     lambda: half_line_measure(SpectralMeasure(REP, (), ((0.5, 1.0),)), BAND),
     "atom at 0.5 inside K cannot occur for xi = 1/2 on K"),
    ("tail-lengths", lambda: Tail((1.0,), ()), "tail needs equal-length nonempty blocks"),
    ("tail-empty", lambda: Tail((), ()), "tail needs equal-length nonempty blocks"),
    ("green-method",
     lambda: green_diag(JacobiCoefficients.periodic([1.0], [0.0]), 0, 1j, method="dense"),
     "unknown method 'dense'"),
    ("set-empty", lambda: CompactSet(()), "CompactSet needs at least one interval"),
    ("set-touching", lambda: CompactSet(((0.0, 1.0), (1.0, 2.0))),
     "intervals must be sorted with nonempty gaps"),
    ("set-unsorted", lambda: CompactSet(((2.0, 3.0), (0.0, 1.0))),
     "intervals must be sorted with nonempty gaps"),
    ("affine-alpha", lambda: BAND.affine(0.0, 1.0), "alpha must be positive"),
    ("negative-depth",
     lambda: reconstruct_coefficients(SpectralMeasure(None, (), ((0.0, 1.0),)), -1),
     "n_coeffs must be >= 0"),
    ("report-negative-depth",
     lambda: reconstruction_report(SpectralMeasure(None, (), ((0.0, 1.0),)), -1),
     "n_coeffs must be >= 0"),
    ("no-mass", lambda: reconstruct_coefficients(SpectralMeasure(None), 0),
     "measure must have positive mass"),
    ("report-no-mass", lambda: reconstruction_report(SpectralMeasure(None), 0),
     "measure must have positive mass"),
    ("grid-size", lambda: grid_min_mass(BAND, grid=1), "grid must be >= 2"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in INPUT_CHECKS],
                         ids=[row[0] for row in INPUT_CHECKS])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
