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
a unique minimizer.  `minimize_mass` finds it by projected Newton on the box
(Bertsekas, SIAM J. Control Optim. 20, 1982) with closed-form gradient and
Hessian, and certifies it by the projected-gradient (KKT) residual; an
exhaustive grid evaluator serves as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .krein import HerglotzRep, StepFunction, hilbert_transform
from .measures import _gl_rule, stieltjes_invert, total_mass
from .sets import CompactSet

__all__ = [
    "GapJumps",
    "canonical_krein_from_jumps",
    "default_bound",
    "mass_objective",
    "minimize_mass",
    "grid_min_mass",
    "ExtremalResult",
]

# projected Newton in y = g / |gap| on the unit box: stop once the residual
# max_j |y_j - clip(y_j - d(ln f)/dy_j, 0, 1)| is at most KKT_TOL
KKT_TOL = 1e-11
_MAX_ITER = 100
_ARMIJO = 1e-4
# Gauss-Legendre nodes per band of the vectorized objective
_NODES_PER_BAND = 128
# the grid oracle holds grid**gaps values in memory
_GRID_POINTS_CAP = 10**7


@dataclass(frozen=True)
class GapJumps:
    """One jump mass per gap of K, g_j in [0, |gap_j|]."""

    masses: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(float(g) for g in self.masses))

    def validate(self, k_set: CompactSet):
        gaps = k_set.gaps()
        if len(self.masses) != len(gaps):
            raise ValueError("need one jump mass per gap")
        for g, (gc, gd) in zip(self.masses, gaps):
            if not 0.0 <= g <= (gd - gc) + 1e-15:
                raise ValueError(f"jump mass {g} outside [0, {gd - gc}]")


def default_bound(k_set: CompactSet) -> float:
    """R = max |K| + 1 (the objective is R-independent; any valid R works)."""
    return max(abs(k_set.min), abs(k_set.max)) + 1.0


def canonical_krein_from_jumps(k_set: CompactSet, jumps: GapJumps,
                               bound: float | None = None) -> StepFunction:
    """The canonical step function: 1 left of K, 1/2 on bands, 0 right of K,
    and chi_{(d-g, d)} on each gap."""
    r = default_bound(k_set) if bound is None else float(bound)
    jumps.validate(k_set)
    pieces = []
    if k_set.min > -r:
        pieces.append((-r, k_set.min, 1.0))
    for c, d in k_set.intervals:
        pieces.append((c, d, 0.5))
    for g, (gc, gd) in zip(jumps.masses, k_set.gaps()):
        width = gd - gc
        if g <= 0.0:
            pieces.append((gc, gd, 0.0))
        elif g >= width:
            pieces.append((gc, gd, 1.0))
        else:
            pieces.append((gc, gd - g, 0.0))
            pieces.append((gd - g, gd, 1.0))
    if k_set.max < r:
        pieces.append((k_set.max, r, 0.0))
    return StepFunction.from_pieces(r, pieces)


def mass_objective(k_set: CompactSet, jumps: GapJumps,
                   bound: float | None = None) -> float:
    """a_0^2 of the canonical operator with the given jumps:
    (1/(2 pi)) integral_K |H|, by the adaptive edge-substituted quadrature."""
    xi = canonical_krein_from_jumps(k_set, jumps, bound)
    rho = stieltjes_invert(HerglotzRep(xi))
    band_pieces = [p for p in rho.ac_pieces
                   if any(c <= p.lo and p.hi <= d for c, d in k_set.intervals)]
    masked = type(rho)(rho.rep, tuple(band_pieces), ())
    return 0.5 * total_mass(masked)


class _FastObjective:
    """Vectorized evaluator on fixed band quadrature nodes.

    |H(t)| = (t + R) exp(T_0(t) + sum_j [ln|d_j - t| - ln|d_j - g_j - t|])
    where T_0 is the no-jump canonical transform; only the per-gap terms
    depend on the jump vector, so grids evaluate as array operations.
    """

    def __init__(self, k_set: CompactSet):
        th, w = _gl_rule(_NODES_PER_BAND)
        ts, ws = [], []
        for c, d in k_set.intervals:
            mid, half = 0.5 * (c + d), 0.5 * (d - c)
            ts.append(mid + half * np.sin(th))
            ws.append(w * half * np.cos(th))
        self.t = np.concatenate(ts)
        self.w = np.concatenate(ws)
        base = canonical_krein_from_jumps(k_set, GapJumps((0.0,) * len(k_set.gaps())))
        # log|H_base| at the nodes, with the per-gap zero-jump terms absent
        self.log_base = np.log(self.t + base.bound) + hilbert_transform(base, self.t)
        self.gap_ends = np.array([gd for _, gd in k_set.gaps()])
        self.gap_widths = np.array([gd - gc for gc, gd in k_set.gaps()])
        # the g-independent part of ln(w_i |H(t_i)|)
        to_ends = self.gap_ends[None, :] - self.t[:, None]
        self.alpha = np.log(self.w) + self.log_base + np.log(np.abs(to_ends)).sum(axis=1)

    def _exponents(self, masses) -> tuple[np.ndarray, np.ndarray]:
        """z_i = ln(w_i |H(t_i)|) and u_ij = d_j - g_j - t_i."""
        g = np.asarray(masses, dtype=float)
        u = (self.gap_ends - g)[None, :] - self.t[:, None]
        return self.alpha - np.log(np.abs(u)).sum(axis=1), u

    def value(self, masses) -> float:
        z, _ = self._exponents(masses)
        return float(np.exp(z).sum()) / (2.0 * np.pi)

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
        return top + math.log(total / (2.0 * np.pi)), grad, hess

    def grid_values(self, grids: list[np.ndarray]) -> np.ndarray:
        """Objective on the full product grid, shape = tuple(len(g) for g)."""
        shape = tuple(len(g) for g in grids)
        per_gap = []
        for j, gvals in enumerate(grids):
            d = self.gap_ends[j]
            delta = (np.log(np.abs(d - self.t))[None, :]
                     - np.log(np.abs(d - gvals[:, None] - self.t[None, :])))
            delta[gvals == 0.0, :] = 0.0
            per_gap.append(delta)
        out = np.empty(shape)
        it = np.ndindex(*shape[:-1]) if len(shape) > 1 else [()]
        last = per_gap[-1]
        for idx in it:
            s = self.log_base[None, :].copy()
            for j, i in enumerate(idx):
                s = s + per_gap[j][i][None, :]
            vals = np.exp(s + last) @ self.w
            out[idx] = vals / (2.0 * np.pi)
        return out


@dataclass(frozen=True)
class ExtremalResult:
    constant: float
    jumps: GapJumps
    objective_value: float
    bound_used: float
    near_minimizers: tuple[tuple[float, ...], ...] = ()
    kkt_residual: float | None = None
    iterations: int = 0


def grid_min_mass(k_set: CompactSet, grid: int = 401) -> ExtremalResult:
    """Exhaustive minimum of the mass objective over the uniform parameter
    grid (independent check for the refined minimizer).  Ties resolve to the
    lexicographically smallest grid point; all grid points within 1e-8 of
    the minimum are reported."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    r = default_bound(k_set)
    gaps = k_set.gaps()
    if not gaps:
        jumps = GapJumps(())
        val = mass_objective(k_set, jumps)
        return ExtremalResult(math.sqrt(val), jumps, val, r, ((),))
    if grid ** len(gaps) > _GRID_POINTS_CAP:
        raise ValueError(f"a {grid}-point grid on {len(gaps)} gaps has "
                         f"{grid ** len(gaps)} points, over the cap {_GRID_POINTS_CAP}")
    grids = [np.linspace(0.0, gd - gc, grid) for gc, gd in gaps]
    values = _FastObjective(k_set).grid_values(grids)
    flat = int(np.argmin(values))  # first occurrence = lexicographic smallest
    idx = np.unravel_index(flat, values.shape)
    arg = tuple(float(grids[j][i]) for j, i in enumerate(idx))
    vmin = float(values[idx])
    near = [tuple(float(grids[j][i]) for j, i in enumerate(ix))
            for ix in zip(*np.nonzero(values <= vmin + 1e-8))]
    jumps = GapJumps(arg)
    val = mass_objective(k_set, jumps)
    return ExtremalResult(math.sqrt(val), jumps, val, r, tuple(near))


def _projected_newton(fast: _FastObjective) -> tuple[np.ndarray, float, int]:
    """Minimize ln f over the jump box in y = g / |gap| in [0, 1]^m.

    Each step holds the coordinates that sit within eps of a bound with the
    gradient pushing outward (eps = min(residual, 1e-3)), takes a Newton
    step on the others (at most half way to a face) and a diagonal Newton
    step on the held ones, clips to the box and backtracks until the Armijo
    test passes.  Returns the jump vector, the KKT residual and the number
    of Newton steps.
    """
    widths = fast.gap_widths
    scale = np.outer(widths, widths)
    y = np.full(len(widths), 0.5)
    for it in range(_MAX_ITER + 1):
        phi, grad, hess = fast.log_derivatives(y * widths)
        grad *= widths
        hess *= scale
        resid = float(np.max(np.abs(y - np.clip(y - grad, 0.0, 1.0))))
        if resid <= KKT_TOL:
            return y * widths, resid, it
        if it == _MAX_ITER:
            break
        eps = min(resid, 1e-3)
        held = ((y <= eps) & (grad > 0.0)) | ((y >= 1.0 - eps) & (grad < 0.0))
        step = -grad / np.diag(hess)
        free = np.flatnonzero(~held)
        if free.size:
            step[free] = -np.linalg.solve(hess[np.ix_(free, free)], grad[free])
        # the derivatives of ln f grow without bound toward the box faces
        # and the minimizer is interior, so a step clipped onto a face would
        # creep back; unheld coordinates cover at most half the distance
        toward = np.where(step < 0.0, y, 1.0 - y)
        moving = ~held & (step != 0.0)
        t = min(1.0, float(np.min(0.5 * toward[moving] / np.abs(step[moving]),
                                  initial=np.inf)))
        # the slack absorbs the rounding of ln f once the decrease is below it
        slack = 1e-14 * (1.0 + abs(phi))
        while True:
            trial = np.clip(y + t * step, 0.0, 1.0)
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

    ln f is convex in the jump vector, so projected Newton on the box from
    its centre converges to the unique minimizer; it stops once the KKT
    residual (in jumps scaled by the gap widths) is at most `KKT_TOL` and
    raises `NumericError` if it does not get there.  The final value is
    recomputed with the accurate adaptive quadrature.
    """
    r = default_bound(k_set)
    if not k_set.gaps():
        jumps = GapJumps(())
        val = mass_objective(k_set, jumps)
        return ExtremalResult(math.sqrt(val), jumps, val, r, kkt_residual=0.0)
    g, resid, iterations = _projected_newton(_FastObjective(k_set))
    jumps = GapJumps(tuple(float(x) for x in g))
    val = mass_objective(k_set, jumps)
    return ExtremalResult(math.sqrt(val), jumps, val, r,
                          kkt_residual=resid, iterations=iterations)
