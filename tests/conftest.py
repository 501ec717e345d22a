import mpmath
import numpy as np
import pytest

from reflectionless import StepFunction, operators


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


def mp_mass_objective(k_set, masses):
    """The extremal objective f(g) = (s_0 - sum_j w_j) / 2 and its gradient
    in g, in mpmath at the working precision: s_0 = integral (t - a) eta -
    (integral eta)^2 / 2 with eta = 1/2 on the bands and 1 on each
    (x_j, d_j), x_j = d_j - g_j, and the atom masses
    w_j = prod_e |x_j - e|^(1/2) / prod_{i != j} |x_j - x_i|."""
    a = mpmath.mpf(k_set.min)
    edges = [mpmath.mpf(e) for band in k_set.intervals for e in band]
    ends = [mpmath.mpf(d) for _, d in k_set.gaps()]
    g = [mpmath.mpf(x) for x in masses]
    x = [d - gj for d, gj in zip(ends, g)]
    mass = sum((mpmath.mpf(d) - c for c, d in k_set.intervals), mpmath.mpf(0)) / 2 + sum(g)
    s0 = sum(((mpmath.mpf(d) - a) ** 2 - (mpmath.mpf(c) - a) ** 2) / 4
             for c, d in k_set.intervals)
    s0 += sum((d - a) ** 2 / 2 - (xj - a) ** 2 / 2 for d, xj in zip(ends, x)) - mass ** 2 / 2
    w, dlog = [], []
    for j, xj in enumerate(x):
        others = [xi for i, xi in enumerate(x) if i != j]
        w.append(mpmath.sqrt(mpmath.fprod(abs(xj - e) for e in edges))
                 / mpmath.fprod(abs(xj - xi) for xi in others))
        # d(ln w_j)/dx_i for every i
        dlog.append([sum(1 / (2 * (xj - e)) for e in edges)
                     - sum(1 / (xj - xi) for xi in others) if i == j else 1 / (xj - x[i])
                     for i in range(len(x))])
    f = (s0 - sum(w)) / 2
    grad = [(x[k] - a - mass + sum(w[i] * dlog[i][k] for i in range(len(x)))) / 2
            for k in range(len(x))]
    return f, grad


def mp_stationary_point(k_set, masses):
    """The stationary point of the extremal objective by Newton at 60
    digits from the jump vector `masses`, with a central-difference Hessian
    (step 1e-20 of the gap width) of the closed-form gradient.  Returns the
    jumps as mpf."""
    with mpmath.workdps(60):
        g = mpmath.matrix([mpmath.mpf(x) for x in masses])
        widths = [mpmath.mpf(gd) - gc for gc, gd in k_set.gaps()]
        for _ in range(12):
            grad = mpmath.matrix(mp_mass_objective(k_set, g)[1])
            hess = mpmath.matrix(len(g), len(g))
            for j, wj in enumerate(widths):
                h = wj * mpmath.mpf(10) ** -20
                up, down = g.copy(), g.copy()
                up[j] += h
                down[j] -= h
                col = (mpmath.matrix(mp_mass_objective(k_set, up)[1])
                       - mpmath.matrix(mp_mass_objective(k_set, down)[1])) / (2 * h)
                for i in range(len(g)):
                    hess[i, j] = col[i]
            step = mpmath.lu_solve(hess, grad)
            g -= step
            if max(abs(s) / wj for s, wj in zip(step, widths)) < mpmath.mpf(10) ** -30:
                return list(g)
        raise AssertionError("mpmath Newton did not converge")


def banded_section_green(j, n, z):
    """The reference for green_diag(method="truncation"): the (n, n) entry of
    the inverse of J - z on the same Combes-Thomas section n - h..n + h with
    Dirichlet ends, by one banded LU solve (scipy.linalg.solve_banded)."""
    from scipy.linalg import solve_banded

    half = operators._truncation_size(j, z)
    a, b = j.arrays(n - half, n + half)
    bands = np.zeros((3, a.size), dtype=complex)
    bands[0, 1:] = bands[2, :-1] = a[:-1]
    bands[1] = b - z
    rhs = np.zeros(a.size, dtype=complex)
    rhs[half] = 1.0
    return complex(solve_banded((1, 1), bands, rhs)[half])


def periodic_bands(a_block, b_block, inset=0.0):
    """Bands of the periodic operator, each narrowed by `inset` of its width at
    both ends: the 2p eigenvalues of its p x p blocks closed with Floquet
    multiplier +1 and -1, sorted, pair up into the band edges."""
    a, b = np.asarray(a_block, dtype=float), np.asarray(b_block, dtype=float)
    edges = []
    for sign in (1.0, -1.0):
        block = np.diag(b) + np.diag(a[:-1], 1) + np.diag(a[:-1], -1)
        block[-1, 0] += sign * a[-1]
        block[0, -1] += sign * a[-1]
        edges.extend(np.linalg.eigvalsh(block))
    edges.sort()
    return tuple((c + inset * (d - c), d - inset * (d - c))
                 for c, d in zip(edges[::2], edges[1::2]))
