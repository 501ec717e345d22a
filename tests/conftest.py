import numpy as np
import pytest

from reflectionless import StepFunction


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_step(rng, bound=None, max_pieces=6, value_grid=None, min_width=0.15):
    """Arbitrary step function: random breakpoints with a minimal spacing,
    values either free in [0, 1] or drawn from a grid."""
    r = float(bound) if bound is not None else float(rng.uniform(2.0, 4.0))
    n = int(rng.integers(1, max_pieces + 1))
    while True:
        cuts = np.sort(rng.uniform(-r, r, n - 1)) if n > 1 else np.array([])
        edges = np.concatenate([[-r], cuts, [r]])
        if np.all(np.diff(edges) >= min_width):
            break
        n = max(1, n - 1)
    if value_grid is None:
        vals = rng.uniform(0.0, 1.0, n)
    else:
        vals = rng.choice(value_grid, size=n)
    return StepFunction(r, tuple(edges.tolist()), tuple(float(v) for v in vals))


def interior_points(step, rng, count, margin_frac=0.1):
    """Random points strictly inside pieces, away from the breakpoints by a
    fraction of each piece's width."""
    pts = []
    pieces = list(step.pieces())
    for _ in range(count):
        lo, hi, _ = pieces[int(rng.integers(0, len(pieces)))]
        m = margin_frac * (hi - lo)
        pts.append(float(rng.uniform(lo + m, hi - m)))
    return np.array(pts)


def per_piece_log_abs(xi, lo, hi, theta):
    """ln|H| on the arc of one piece (lo, hi), summed one breakpoint at a
    time, with the trigonometric distances to the piece's own edges: the
    reference for the (piece, breakpoint) array form of `log_abs_on_arc`."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t, out = mid + half * np.sin(theta), np.zeros_like(theta)
    for dk, xk in zip(xi.abs_log_coefficients, xi.breakpoints):
        if dk == 0.0:
            continue
        if xk == lo:
            dist = 2.0 * half * np.cos(0.25 * np.pi - 0.5 * theta) ** 2
        elif xk == hi:
            dist = 2.0 * half * np.sin(0.25 * np.pi - 0.5 * theta) ** 2
        else:
            dist = np.abs(t - xk)
        out = out + dk * np.log(dist)
    return out
