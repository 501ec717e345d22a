r"""Piecewise-constant Krein functions and the exponential Herglotz
representation they generate.

A step function xi on [-R, R] with values in [0, 1] determines

    H(z) = (z + R) * exp( integral_{-R}^{R} xi(t) / (t - z) dt ),

which maps the upper half plane to itself.  Because xi is piecewise
constant the integral is a finite sum of logarithms, so H and the modulus
of its boundary values H(x + i0) = |H(x)| e^{i pi xi(x)},

    |H(x)| = (x + R) e^{(T xi)(x)},   (T xi)(x) = p.v. integral xi(t)/(t-x) dt,

are evaluated in closed form; no quadrature enters this module.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "StepFunction",
    "HerglotzRep",
    "free_krein",
    "herglotz_eval",
]


@dataclass(frozen=True, slots=True)
class StepFunction:
    """A piecewise-constant function on [-R, R] with values in [0, 1].

    `breakpoints` runs from -R to R inclusive; `values[i]` is the value on
    the open interval (breakpoints[i], breakpoints[i+1]).  Construction
    canonicalizes: zero-width pieces are dropped and adjacent pieces with
    equal values are merged, so equality of instances is equality of
    functions (up to null sets).
    """

    bound: float
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        r = float(self.bound)
        if not 0 < r < math.inf:
            raise ValueError("domain bound must be positive and finite")
        bk, vals = list(map(float, self.breakpoints)), list(map(float, self.values))
        if len(bk) != len(vals) + 1 or len(vals) < 1:
            raise ValueError("need len(breakpoints) == len(values) + 1 >= 2")
        if bk[0] != -r or bk[-1] != r:
            raise ValueError("breakpoints must start at -R and end at R")
        if not all(map(float.__le__, bk, bk[1:])):
            raise ValueError("breakpoints must be nondecreasing")
        if not all(0.0 <= v <= 1.0 for v in vals):
            raise ValueError("values must lie in [0, 1]")
        cbk, cvals = [bk[0]], []
        for x0, x1, v in zip(bk, bk[1:], vals):
            if x1 == x0:
                continue
            if cvals and cvals[-1] == v:
                cbk[-1] = x1
            else:
                cbk.append(x1)
                cvals.append(v)
        object.__setattr__(self, "bound", r)
        object.__setattr__(self, "breakpoints", tuple(cbk))
        object.__setattr__(self, "values", tuple(cvals))

    @classmethod
    def from_pieces(cls, bound: float,
                    pieces: Iterable[tuple[float, float, float]]) -> "StepFunction":
        """Build from (lo, hi, value) pieces; unspecified parts of [-R, R]
        take the value 0.  Pieces must be disjoint, each with lo <= hi and a
        value in [0, 1]; one with lo == hi is dropped."""
        r = float(bound)
        bk, vals = [-r], []
        for a, b, v in sorted((float(a), float(b), float(v)) for a, b, v in pieces):
            if b < a:
                raise ValueError("piece with hi < lo")
            if a < -r or b > r:
                raise ValueError("piece outside [-R, R]")
            if a < bk[-1]:
                raise ValueError("pieces overlap")
            bk += (a, b)
            vals += (0.0, v)
        return cls(r, (*bk, r), (*vals, 0.0))

    def pieces(self) -> Iterator[tuple[float, float, float]]:
        for x0, x1, v in zip(self.breakpoints, self.breakpoints[1:], self.values):
            yield x0, x1, v

    def values_on(self, lo: float, hi: float) -> tuple[float, ...]:
        """Values of the pieces that overlap (lo, hi) in an interval of
        positive length, left to right; () if none does."""
        bk = self.breakpoints
        return self.values[max(bisect_right(bk, lo) - 1, 0):bisect_left(bk, hi)] if hi > lo else ()

    def integral(self, lo: float | None = None, hi: float | None = None) -> float:
        """Exact integral of the step function over (lo, hi) (defaults: whole
        domain)."""
        lo = -self.bound if lo is None else float(lo)
        hi = self.bound if hi is None else float(hi)
        # only pieces i..k-1 can overlap (lo, hi), as in `values_on`
        bk, total = self.breakpoints, 0.0
        i, k = max(bisect_right(bk, lo) - 1, 0), bisect_left(bk, hi)
        for x0, x1, v in zip(bk[i:k], bk[i + 1:k + 1], self.values[i:k]):
            a, b = max(x0, lo), min(x1, hi)
            if b > a:
                total += v * (b - a)
        return total

    def with_value(self, lo: float, hi: float, value: float) -> "StepFunction":
        """A copy equal to `value` on (lo, hi) and unchanged elsewhere."""
        lo, hi = float(lo), float(hi)
        if hi <= lo:
            return self
        if lo < -self.bound or hi > self.bound:
            raise ValueError("(lo, hi) outside the domain")
        bk, vals = self.breakpoints, self.values
        i, k = bisect_left(bk, lo), bisect_right(bk, hi)
        # (bk[i-1], lo) keeps values[i-1] and (hi, bk[k]) keeps values[k-1]
        return StepFunction(self.bound, bk[:i] + (lo, hi) + bk[k:],
                            vals[:i] + (value,) + vals[k - 1:])

    def _merged_cells(self, other: "StepFunction") -> Iterator[tuple[float, float, float]]:
        """(width, value_self, value_other) over the common breakpoint
        refinement, by index sweep (no point evaluation, so cells one ulp
        wide are handled exactly)."""
        if self.bound != other.bound:
            raise ValueError("step functions live on different domains")
        grid = sorted(set(self.breakpoints) | set(other.breakpoints))
        i = j = 0
        for a, b in zip(grid, grid[1:]):
            while i + 1 < len(self.values) and self.breakpoints[i + 1] <= a:
                i += 1
            while j + 1 < len(other.values) and other.breakpoints[j + 1] <= a:
                j += 1
            yield b - a, self.values[i], other.values[j]

    def l1_distance(self, other: "StepFunction") -> float:
        return sum(w * abs(u - v) for w, u, v in self._merged_cells(other))

    @property
    def log_coefficients(self) -> np.ndarray:
        """Coefficients c_k with sum_i v_i [ln(z-x_i) - ln(z-x_{i-1})]
        == sum_k c_k ln(z - x_k); c_0 = -v_1, c_k = v_k - v_{k+1}, c_m = v_m."""
        v = self.values
        return np.array([-v[0], *map(float.__sub__, v, v[1:]), v[-1]])

    @property
    def abs_log_coefficients(self) -> np.ndarray:
        """Coefficients with ln|H(x)| = sum_k d_k ln|x - x_k|: the log
        coefficients plus 1 at -R for the (x + R) prefactor."""
        d = self.log_coefficients
        d[0] += 1.0
        return d

    def to_dict(self) -> dict:
        return {"R": self.bound, "breakpoints": list(self.breakpoints),
                "values": list(self.values)}


@dataclass(frozen=True, slots=True)
class HerglotzRep:
    """The function H determined by a Krein step function via the
    exponential representation; all evaluation is closed form."""

    xi: StepFunction

    @property
    def bound(self) -> float:
        return self.xi.bound


def free_krein(bound: float = 2.0) -> StepFunction:
    """The Krein function of the free Jacobi matrix on [-R, R], R >= 2:
    1 left of the band [-2, 2], 1/2 on it, 0 to the right."""
    r = float(bound)
    if r < 2.0:
        raise ValueError("bound must be >= 2 to contain the free spectrum")
    return StepFunction.from_pieces(
        r, [(-r, -2.0, 1.0), (-2.0, 2.0, 0.5), (2.0, r, 0.0)])


def herglotz_eval(rep: HerglotzRep, z):
    """Evaluate H(z) = (z+R) exp(sum_k c_k Log(z - x_k)) off [-R, R].

    Each piece (a, b) of value v contributes the principal power
    ((z-b)/(z-a))^v; the base never meets (-inf, 0] for z off [a, b], so
    the principal-log sum equals the defining integral.  Scalar or array z,
    finite: a NaN or infinite point raises ValueError.
    """
    xi = rep.xi
    zc = np.asarray(z, dtype=complex)
    if not np.isfinite(zc).all():
        raise ValueError("herglotz_eval needs finite points z")
    on_cut = (zc.imag == 0.0) & (np.abs(zc.real) <= xi.bound)
    if np.any(on_cut):
        raise ValueError("z on the cut [-R, R], where H has boundary values only")
    c = xi.log_coefficients
    s = np.zeros_like(zc)
    for ck, xk in zip(c, xi.breakpoints):
        if ck != 0.0:
            s = s + ck * np.log(zc - xk)
    out = (zc + xi.bound) * np.exp(s)
    return out if out.ndim else complex(out)


def _breakpoint_columns(xi: StepFunction) -> np.ndarray:
    """Rows x_k and d_k over the breakpoints with d_k != 0, so that
    ln|H(x)| = sum_k d_k ln|x - x_k|."""
    d = xi.abs_log_coefficients
    return np.array((xi.breakpoints, d))[:, d != 0.0]


def _edge_factors(theta):
    """cos^2 and sin^2 of pi/4 - theta/2: t - lo and hi - t at the point
    t = mid + half*sin(theta) of the piece (lo, hi), over its width 2*half.
    They keep full relative precision up to the edges, where |H| behaves
    like a power of the distance and t - lo would cancel."""
    phase = 0.25 * np.pi - 0.5 * theta
    return np.cos(phase) ** 2, np.sin(phase) ** 2


def _arc_log_abs(columns: np.ndarray, lo, hi, width, edge_factors):
    """sum_k d_k ln|t - x_k| over the breakpoint columns (x_k, d_k) at the
    points t = mid + half*sin(theta) of the pieces (lo, hi) of width
    2*half, with (e_0, e_1) = `_edge_factors(theta)`; t itself is never
    formed.  Every distance is measured from the piece's own edges,

        |t - x_k| = max((lo - x_k) + width*e_0, (x_k - hi) + width*e_1),

    since t - lo = width*e_0 and hi - t = width*e_1.  A measure's ac piece
    lies inside one piece of xi, so every breakpoint lies at or beyond lo
    or hi: one candidate is then the distance as a sum of two terms of one
    sign, as accurate relative as the edge factor to a few ulp, wherever the
    piece sits, and the other is <= 0.  At x_k == lo or hi it is width*e_0 or width*e_1 exactly.
    (For a breakpoint inside the piece the max is still |t - x_k|, with the
    cancellation of a difference.)  One log takes the (breakpoint, point)
    array, and one reduction adds the terms in breakpoint order: numpy adds
    along the leading axis row by row, except when a single point leaves
    that axis innermost, where it sums pairwise and the rows are added in
    Python instead."""
    near, far = width * edge_factors[0], width * edge_factors[1]
    xk, dk = columns.reshape((2, -1) + (1,) * near.ndim)
    terms = np.maximum((lo - xk) + near, (xk - hi) + far)
    np.log(terms, out=terms)
    terms *= dk
    return terms.sum(axis=0) if near.size > 1 else sum(terms)
