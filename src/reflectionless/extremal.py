r"""The extremal constant of a finite-gap compact set.

Over the canonical Krein class of K (one up-jump of mass g_j per gap) the
half-line mass a_0^2 = (1/2) rho_ac(K) is a smooth function f of the jump
vector.  Its minimum over the box prod_j [0, |gap_j|] is the square of the
extremal constant: no operator reflectionless on K has any a_n below it.

At infinity H = z + (R - m_0) - s_0/z + O(z^-2), m_k = integral t^k xi, so
rho has mass s_0 = integral (t + R) xi - m_0^2/2.  With xi = 1 on [-R, a],
a = min K, and eta = xi on the hull of K, R drops out: s_0 = integral
(t - a) eta - (integral eta)^2/2.  Off K, rho is the atoms at the jump
points x_j = d_j - g_j, of residue mass w_j = prod_e |x_j - e|^(1/2) /
prod_{i != j} |x_j - x_i| over the band edges e.  So f = (s_0 - sum_j w_j)/2.
On K, |H| = |H_0| prod_j |d_j - t| / |d_j - g_j - t| is log-convex in g, so
ln f is convex; its minimizer is interior, as d(ln f)/dg_j diverges at both
faces g_j = 0 and |gap_j|.

The minimizer and its value are derived.  With P_L and P_R the products of
z - e over the left and the right band ends, Delta = 2 (P_L + P_R)/(P_L - P_R)
is -2 at each left end and +2 at each right end, grows as 4z/|K| and has one
simple pole per gap, at the root x_j of P_L - P_R.  Of degree g + 1, it pulls
[-2, 2] back to K: each w in (-2, 2) has one preimage x_b(w) per band b, where
Delta' > 0.  With the jumps there, H = sqrt(P_L P_R)/prod_j (z - x_j) (Teschl,
Jacobi Operators, ch. 8) is A sqrt(Delta^2 - 4), A = |K|/4.  The residues of
1/(Delta - w) give sum_b 1/Delta'(x_b(w)) = |K|/4 (infinity's alone), so
rho_ac(K) = (A/pi) integral sqrt(4 - w^2) |K|/4 dw = 2 A^2 and f = A^2.  And
d rho_ac(K)/dx_j = (1/pi) integral_K Im H/(t - x_j) pulls back to the sums
sum_b 1/((x_b - x_j) Delta'(x_b)), all 0: 1/((z - x_j)(Delta - w)) has no
residue at x_j or at infinity.  By convexity, min f = (|K|/4)^2.
`minimize_mass` finds the roots on the distances from each x_j to the band edges
alone (`_edge_columns`, which the grid oracle extends by its atom columns),
certifies each by |ln|P_L/P_R|| within its rounding bound at x_j, and returns
A = |K|/4.  It forms no product of distances, so only the grid refuses a K by its
band count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .gapflow import GapJumps, canonical_krein_from_jumps, default_bound
from .krein import HerglotzRep
from .measures import SpectralMeasure, ac_pieces, total_mass
from .sets import CompactSet

__all__ = ["mass_objective", "minimize_mass", "grid_min_mass", "ExtremalResult"]

_MAX_STEPS = 100
# the grid oracle holds grid**gaps values in memory
_GRID_POINTS_CAP = 10**7


def _require_normal_scale(k_set: CompactSet, p: int = 2):
    """Refuse a K whose scale takes a product of p powers of its lengths out of float64's
    normal range: with 2^lo <= |K|/4 and hull < 2^hi, (|K|/4)^p and hull^p stay normal if
    p lo >= minexp and p hi < maxexp (p is at least 2).  Each caller's docstring says which
    p its own arithmetic needs."""
    p, span, fin = max(2, p), k_set.max - k_set.min, np.finfo(float)
    lo, hi = math.frexp(0.25 * k_set.total_length)[1] - 1, math.frexp(span)[1]
    if p * lo < fin.minexp or p * hi >= fin.maxexp:
        raise ValueError(f"K's scale (|K| = {k_set.total_length:.3g}, hull {span:.3g}) takes the mass "
                         f"objective out of float64's normal range [{fin.tiny:.3g}, {fin.max:.3g}]")


def mass_objective(k_set: CompactSet, jumps: GapJumps) -> float:
    """a_0^2 of the canonical operator with the given jumps:
    (1/(2 pi)) integral_K |H|, by the adaptive edge-substituted quadrature.  The
    quadrature sums log-sum densities, whose own scale test is `SpectralMeasure`'s, and
    its value f(g) lies between (|K|/4)^2 and s_0/2 <= hull^2/4 at every g of the box, so
    a K is refused with `ValueError` where (|K|/4)^2 or hull^2 is not normal (p = 2), as
    `minimize_mass` refuses it."""
    _require_normal_scale(k_set)
    xi = canonical_krein_from_jumps(k_set, jumps)
    # rho_ac of a canonical function lies on the bands; its atoms are not formed
    return 0.5 * total_mass(SpectralMeasure(HerglotzRep(xi), ac_pieces(xi)))


def _edge_columns(bands: np.ndarray):
    """The distances x_j - e from each gap j's jump point x_j = d_j - g_j to the band
    edges e, as g x 2(g+1) columns static + (near - g_j) whose terms have one sign, so
    none cancels as x_j nears e.  Left of gap j (an edge up to c_j) it is
    (c_j - e + err_j) + (|gap_j| - g_j), exact near c_j, with err_j the TwoSum error of
    |gap_j| = d_j - c_j; right of it (an edge from d_j) it is (d_j - e) - g_j.  Returns the
    gap widths, err, static, near and the signs of the edges, + at left ends, - at right."""
    starts, ends = bands[:-1, 1], bands[1:, 0]          # c_j, d_j
    widths, edges = ends - starts, bands.ravel()
    back = widths + starts                              # TwoSum: d_j - c_j exactly
    err = (ends - back) - (starts + (widths - back))
    left = np.arange(len(edges)) <= 2 * np.arange(len(widths))[:, None] + 1
    static = np.where(left, (starts[:, None] - edges) + err[:, None], ends[:, None] - edges)
    return widths, err, static, left * widths[:, None], np.array([1.0, -1.0] * len(bands))


class _FastObjective:
    """The closed form f(g) = (s_0 - sum_j w_j)/2, elementwise over the
    leading axes of jump vectors g of shape (..., m).  The atom masses' partial products
    reach hull^p over p bands, so a K is refused with `ValueError` where (|K|/4)^p or
    hull^p is not normal, before any value is formed."""

    def __init__(self, k_set: CompactSet):
        _require_normal_scale(k_set, len(k_set.intervals))
        a, bands = k_set.min, np.array(k_set.intervals)
        widths, err, static, near, _ = _edge_columns(bands)
        left = np.tri(len(widths), k=-1, dtype=bool)           # x_i left of gap j: i < j
        # w_j = prod_p |x_j - p|^c_p over the points p: the band edges (a first,
        # `_edge_columns`), then the jump points; c = 1/2 or -1 (0 at x_j).  For p = x_i,
        # x_j - p is static + (near - g_j) + (g_i - far), terms of one sign, anchored at a
        # band edge: left of gap j, x_i = d_i - g_i (edge 2i + 2, far = 0); right of it,
        # x_i = c_i + err_i + (|gap_i| - g_i) (edge 2i + 1, far = |gap_i|).
        self.static = np.hstack([static, np.where(left, static[:, 2::2], static[:, 1:-1:2] - err)])
        self.near, self.far = np.hstack([near, left * widths[:, None]]), ~left * widths
        self.gap_widths, self.span, self.atoms = widths, bands[1:, 0] - a, slice(bands.size, None)
        self.powers = np.hstack([np.full(static.shape, 0.5), np.eye(len(widths)) - 1.0])
        # integral eta and integral (t - a) eta over the bands, where eta = 1/2
        self.half_length = 0.5 * k_set.total_length
        self.band_moment = 0.25 * float(np.sum((bands[:, 1] - bands[:, 0])
                                               * ((bands[:, 0] - a) + (bands[:, 1] - a))))

    def _f(self, masses):
        """f at the jump vectors g of shape (..., m)."""
        g = np.asarray(masses, dtype=float)
        mass = self.half_length + g.sum(axis=-1)                 # integral eta
        moments = g * (self.span - 0.5 * g)                      # integral_{x_j}^{d_j} (t - a)
        dist = self.static + (self.near - g[..., :, None])       # x_j - p, unused at p = x_j
        dist[..., self.atoms] += g[..., None, :] - self.far
        w = (np.abs(dist) ** self.powers).prod(axis=-1)   # 0 for a jump on a face
        return 0.5 * (self.band_moment + moments.sum(axis=-1) - 0.5 * mass * mass - w.sum(axis=-1))

    def value(self, masses) -> float:
        return float(self._f(masses))

    def grid_values(self, grids: list[np.ndarray]) -> np.ndarray:
        """f on the product grid, shape = tuple(len(g) for g in grids)."""
        shape = tuple(len(grid) for grid in grids)
        flat = np.empty(math.prod(shape))
        for start in range(0, flat.size, 1 << 14):   # in blocks of 2^14 points
            k = np.arange(start, min(start + (1 << 14), flat.size))
            idx = np.unravel_index(k, shape) if shape else ()
            g = np.reshape([grid[i] for grid, i in zip(grids, idx)], (len(grids), k.size))
            flat[k] = self._f(g.T)
        return flat.reshape(shape)


@dataclass(frozen=True, slots=True)
class ExtremalResult:
    """A minimizer of the mass objective over the jump box: the constant
    A = sqrt(objective_value), the jumps where it is reached, the objective
    value f there, bound_used, the R of the canonical function's support [-R, R]
    (`default_bound`; f does not depend on it), and iterations, the root
    finder's step count (0 from `grid_min_mass`)."""
    constant: float
    jumps: GapJumps
    objective_value: float
    bound_used: float
    iterations: int = 0


def grid_min_mass(k_set: CompactSet, grid: int = 401) -> ExtremalResult:
    """Exhaustive minimum of the mass objective over the uniform parameter
    grid (an independent check of `minimize_mass`).  Ties resolve to the
    lexicographically smallest grid point."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    gaps = k_set.gaps()
    if grid ** len(gaps) > _GRID_POINTS_CAP:
        raise ValueError(f"a {grid}-point grid on {len(gaps)} gaps has "
                         f"{grid ** len(gaps)} points, over the cap {_GRID_POINTS_CAP}")
    grids = [np.linspace(0.0, gd - gc, grid) for gc, gd in gaps]
    values = _FastObjective(k_set).grid_values(grids)
    # the first occurrence is the lexicographically smallest
    idx = np.unravel_index(int(np.argmin(values)), values.shape)
    jumps = GapJumps(tuple(float(grids[j][i]) for j, i in enumerate(idx)))
    val = mass_objective(k_set, jumps)
    return ExtremalResult(math.sqrt(val), jumps, val, default_bound(k_set))


def _log_ratio(columns, y: np.ndarray):
    """phi_j = ln|P_L(x_j)| - ln|P_R(x_j)| at y = g / |gap| (over y's leading axes), read
    on the edge columns (`_edge_columns`) x_j - e = static + (near - y |gap|), with its
    rounding bound and d phi_j/dy.  The bound counts one ulp of each log and of the
    static part, and the roundings of y |gap|, of near - y |gap| and of their sum, each
    over |x_j - e|: at the gap's left end e, y |gap| is y/(1 - y) times |x_j - e|."""
    widths, _, static, near, sign = columns
    step = (y * widths)[..., None]
    part = near - step
    dist = static + part
    size = np.abs(dist)
    logs = np.log(size)
    bound = 2.0 ** -52 * (np.abs(logs) + 2.0 + (step + np.abs(part) + size) / size).sum(axis=-1)
    return logs @ sign, bound, -widths * ((1.0 / dist) @ sign)


# the bracket test drops an infinite step, also where a subnormal x_j - e overflows the slope
@np.errstate(divide="ignore", over="ignore")
def _jump_roots(bands: np.ndarray) -> tuple[np.ndarray, int]:
    """The root in each gap of phi_j (`_log_ratio`), which increases from -inf at
    y = 0 to +inf at y = 1: Delta = 2 (e^phi + 1)/(e^phi - 1) has one pole per
    gap.  Gap j starts at its one-gap root y_j = L_{j+1}/(L_j + L_{j+1}), the right
    band's share of its two bands' lengths, or at the midpoint, whichever has the
    smaller |phi_j|: the one-gap root is exact with two bands, and the midpoint is
    nearer where a tiny band's own root lies far from the others'.  Each gap takes
    Newton steps in y, or the bracket's midpoint where a step would leave it, until
    |phi_j| is at most its rounding bound, which brackets the root to float
    resolution.  y stays at most top = 1 - 2^-53, the last float below the face y = 1;
    a root beyond it, or a gap not certified after `_MAX_STEPS` steps, raises
    `NumericError`.  Returns the jumps and the step count."""
    columns, top, L = _edge_columns(bands), 1.0 - 2.0 ** -53, bands[:, 1] - bands[:, 0]
    y = np.minimum([L[1:] / (L[:-1] + L[1:]), np.full(len(L) - 1, 0.5)], top)
    phi, bound, slope = _log_ratio(columns, y)
    # each gap keeps the start with the smaller |phi_j|
    y, phi, bound, slope = np.choose(abs(phi).argmin(0), np.stack([y, phi, bound, slope], 1))
    widths, lo, hi = columns[0], np.zeros(len(y)), np.full(len(y), top)
    for it in range(_MAX_STEPS + 1):
        done = np.abs(phi) <= bound
        if done.all():
            return y * widths, it
        if it == _MAX_STEPS:
            j = int(np.argmin(done))
            raise NumericError(f"extremal jumps not certified: gap {j} has |phi| {abs(phi[j]):.3e} "
                               f"above its rounding bound {bound[j]:.3e} after {it} steps")
        lo, hi = np.where(phi < 0.0, y, lo), np.where(phi > 0.0, y, hi)
        newton = y - phi / slope
        y = np.where(done, y, np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi)))
        phi, bound, slope = _log_ratio(columns, y)


def minimize_mass(k_set: CompactSet) -> ExtremalResult:
    """Extremal constant A(K) = sqrt(min mass objective) over the jump box.

    The jumps are the roots of P_L - P_R (`_jump_roots`; no step without
    gaps), each certified by |ln|P_L/P_R|| within its rounding bound; a gap
    not certified raises `NumericError`.  ln f is convex, so this stationary
    point is the minimizer, and the value is the derived minimum A = |K|/4
    (module docstring), with no quadrature.  The root test forms logs of distances and
    no product of them, and the value is A and A^2, so a K is refused with `ValueError`
    only where (|K|/4)^2 or hull^2 is not normal (p = 2), whatever its band count.
    """
    _require_normal_scale(k_set)
    g, iterations = _jump_roots(np.array(k_set.intervals)) if len(k_set.intervals) > 1 else ((), 0)
    a = 0.25 * k_set.total_length
    return ExtremalResult(a, GapJumps(tuple(g)), a * a, default_bound(k_set), iterations)
