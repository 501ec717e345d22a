r"""The extremal constant of a finite-gap compact set.

Over the canonical Krein class of K (one up-jump of mass g_j per gap) the
half-line mass of the associated measure is

    a_0^2 = (1/2) rho_ac(K) = (1/(2 pi)) integral_K |H(x)| dx,

a smooth function of the jump vector.  Its minimum over the box
prod_j [0, |gap_j|] is the square of the extremal constant: no operator
reflectionless on K can have any a_n below that value.

On band quadrature nodes t_i the objective is f(g) = sum_i exp(z_i(g)) with
z_i = alpha_i - sum_j ln|d_j - g_j - t_i|, and d_j - g_j - t_i keeps one sign
across the box, so ln f is a log-sum-exp of convex functions: convex, with
a unique minimizer.  It is interior: d(ln f)/dg_j diverges at g_j = 0, where
the next band's density goes like |t - d_j|^(-1/2), and at the mirror face
g_j = |gap_j|.  `minimize_mass` finds it by damped Newton inside the box with
closed-form gradient and Hessian, certified by the gradient norm (the KKT
residual of an interior point); a grid evaluator is an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .gapflow import GapJumps, canonical_krein_from_jumps, default_bound
from .krein import HerglotzRep
from .measures import AcPiece, SpectralMeasure, _fejer_rule, stieltjes_invert, total_mass
from .sets import CompactSet

__all__ = [
    "mass_objective",
    "minimize_mass",
    "grid_min_mass",
    "ExtremalResult",
]

# Newton in y = g / |gap| inside the unit box: stop once the residual
# max_j |d(ln f)/dy_j| is at most KKT_TOL
KKT_TOL = 1e-11
_MAX_ITER = 100
_ARMIJO = 1e-4
# Fejer nodes per band of the vectorized objective
_NODES_PER_BAND = 128
# the grid oracle holds grid**gaps values in memory
_GRID_POINTS_CAP = 10**7


def mass_objective(k_set: CompactSet, jumps: GapJumps,
                   bound: float | None = None) -> float:
    """a_0^2 of the canonical operator with the given jumps:
    (1/(2 pi)) integral_K |H|, by the adaptive edge-substituted quadrature."""
    xi = canonical_krein_from_jumps(k_set, jumps, bound)
    rho = stieltjes_invert(HerglotzRep(xi))
    # the ac pieces of a canonical function lie on the bands; drop the atoms
    return 0.5 * total_mass(type(rho)(rho.rep, rho.ac_pieces, ()))


class _FastObjective:
    """Vectorized evaluator on fixed band quadrature nodes.

    |H(t)| = |H_0(t)| prod_j |d_j - t| / |d_j - g_j - t|, where H_0 has no
    jumps; only the per-gap factors depend on the jump vector, so grids
    evaluate as array operations.
    """

    def __init__(self, k_set: CompactSet):
        base = canonical_krein_from_jumps(k_set, GapJumps((0.0,) * len(k_set.gaps())))
        # the no-jump half-line measure: density |H_0| / (2 pi) on the bands
        nu = SpectralMeasure(HerglotzRep(base),
                             tuple(AcPiece(c, d, 0.5) for c, d in k_set.intervals))
        t, wd = nu._rule(np.arange(len(k_set.intervals))[:, None], *_fejer_rule(_NODES_PER_BAND))
        self.t = t.ravel()
        self.gap_ends = np.array([gd for _, gd in k_set.gaps()])
        self.gap_widths = np.array([gd - gc for gc, gd in k_set.gaps()])
        # the g-independent part of ln(w_i |H(t_i)| / (2 pi))
        to_ends = self.gap_ends[None, :] - self.t[:, None]
        self.alpha = np.log(wd.ravel()) + np.log(np.abs(to_ends)).sum(axis=1)

    def _exponents(self, masses) -> tuple[np.ndarray, np.ndarray]:
        """z_i = ln(w_i |H(t_i)| / (2 pi)) and u_ij = d_j - g_j - t_i."""
        g = np.asarray(masses, dtype=float)
        u = (self.gap_ends - g)[None, :] - self.t[:, None]
        return self.alpha - np.log(np.abs(u)).sum(axis=1), u

    def value(self, masses) -> float:
        z, _ = self._exponents(masses)
        return float(np.exp(z).sum())

    def log_derivatives(self, masses) -> tuple[float, np.ndarray, np.ndarray]:
        """ln f, its gradient and its Hessian in g, from one pass over the
        nodes.  With the softmax weights p_i of z_i and dz_i/dg_j = 1/u_ij,
        d2z_i/dg_j^2 = 1/u_ij^2, the gradient is sum_i p_i dz_i and the
        Hessian sum_i p_i ((dz_i - grad)(dz_i - grad)^T + diag(1/u_i^2))."""
        z, u = self._exponents(masses)
        top = float(z.max())
        p = np.exp(z - top)
        total = float(p.sum())
        p /= total
        dz = 1.0 / u
        grad = p @ dz
        centred = dz - grad
        hess = (centred * p[:, None]).T @ centred + np.diag(p @ (dz * dz))
        return top + math.log(total), grad, hess

    def grid_values(self, grids: list[np.ndarray]) -> np.ndarray:
        """Objective on the full product grid, shape = tuple(len(g) for g):
        z_i as in `value`, with one table of ln|d_j - g - t_i| per gap."""
        logs = [np.log(np.abs(d - g[:, None] - self.t)) for d, g in zip(self.gap_ends, grids)]
        last = np.exp(-logs[-1])
        out = np.empty(tuple(len(g) for g in grids))
        for idx in np.ndindex(*out.shape[:-1]):
            z = self.alpha - sum(logs[j][i] for j, i in enumerate(idx))
            out[idx] = last @ np.exp(z)
        return out


@dataclass(frozen=True)
class ExtremalResult:
    constant: float
    jumps: GapJumps
    objective_value: float
    bound_used: float
    kkt_residual: float | None = None
    iterations: int = 0


def grid_min_mass(k_set: CompactSet, grid: int = 401) -> ExtremalResult:
    """Exhaustive minimum of the mass objective over the uniform parameter
    grid (independent check for the refined minimizer).  Ties resolve to the
    lexicographically smallest grid point."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    r = default_bound(k_set)
    gaps = k_set.gaps()
    if not gaps:
        jumps = GapJumps(())
        val = mass_objective(k_set, jumps)
        return ExtremalResult(math.sqrt(val), jumps, val, r)
    if grid ** len(gaps) > _GRID_POINTS_CAP:
        raise ValueError(f"a {grid}-point grid on {len(gaps)} gaps has "
                         f"{grid ** len(gaps)} points, over the cap {_GRID_POINTS_CAP}")
    grids = [np.linspace(0.0, gd - gc, grid) for gc, gd in gaps]
    values = _FastObjective(k_set).grid_values(grids)
    flat = int(np.argmin(values))  # first occurrence = lexicographic smallest
    idx = np.unravel_index(flat, values.shape)
    jumps = GapJumps(tuple(float(grids[j][i]) for j, i in enumerate(idx)))
    val = mass_objective(k_set, jumps)
    return ExtremalResult(math.sqrt(val), jumps, val, r)


def _interior_newton(fast: _FastObjective) -> tuple[np.ndarray, float, int]:
    """Minimize ln f over the open jump box in y = g / |gap| in (0, 1)^m.

    Each step is the Newton step -hess^{-1} grad on all coordinates, cut so
    that no coordinate covers more than half its distance to the face it
    moves toward, then halved until the Armijo test passes; every iterate
    stays inside the box.  Returns the jump vector, the gradient residual
    and the number of Newton steps.
    """
    widths = fast.gap_widths
    y = np.full(len(widths), 0.5)
    for it in range(_MAX_ITER + 1):
        phi, grad, hess = fast.log_derivatives(y * widths)
        grad *= widths
        resid = float(np.max(np.abs(grad)))
        if resid <= KKT_TOL:
            return y * widths, resid, it
        if it == _MAX_ITER:
            break
        step = -np.linalg.solve(hess * np.outer(widths, widths), grad)
        toward = np.where(step < 0.0, y, 1.0 - y)
        moving = step != 0.0
        t = min(1.0, float(np.min(0.5 * toward[moving] / np.abs(step[moving]),
                                  initial=np.inf)))
        # the slack absorbs the rounding of ln f once the decrease is below it
        slack = 1e-14 * (1.0 + abs(phi))
        while True:
            trial = y + t * step
            if math.log(fast.value(trial * widths)) <= \
                    phi + _ARMIJO * float(grad @ (trial - y)) + slack:
                break
            t *= 0.5
            if t < 1e-12:
                raise NumericError(
                    f"extremal line search stalled at KKT residual {resid:.3e}")
        y = trial
    raise NumericError(f"extremal Newton iteration did not reach KKT residual "
                       f"{KKT_TOL:.0e} in {_MAX_ITER} steps (at {resid:.3e})")


def minimize_mass(k_set: CompactSet) -> ExtremalResult:
    """Extremal constant A(K) = sqrt(min mass objective) over the jump box.

    ln f is convex with an interior minimizer, so damped Newton from the box
    centre converges to it; it stops once the gradient residual (in jumps
    scaled by the gap widths) is at most `KKT_TOL`.  If a minimizer of the
    128-node objective ever sat on a face, the iterates would only halve
    their distance to it, and the loop would raise `NumericError` after
    `_MAX_ITER` steps instead of returning a face point.  The final value is
    recomputed with the accurate adaptive quadrature.
    """
    r = default_bound(k_set)
    if not k_set.gaps():
        jumps = GapJumps(())
        val = mass_objective(k_set, jumps)
        return ExtremalResult(math.sqrt(val), jumps, val, r, kkt_residual=0.0)
    g, resid, iterations = _interior_newton(_FastObjective(k_set))
    jumps = GapJumps(tuple(float(x) for x in g))
    val = mass_objective(k_set, jumps)
    return ExtremalResult(math.sqrt(val), jumps, val, r,
                          kkt_residual=resid, iterations=iterations)
