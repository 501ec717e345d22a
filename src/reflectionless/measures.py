r"""Spectral measures built from Herglotz representations.

Stieltjes inversion of H(z) = (z+R) exp(int xi/(t-z)) is closed form for a
step function xi: on every piece with value 0 < v < 1 the measure is
absolutely continuous with density |H(t)| sin(pi v) / pi, and an atom sits
at every breakpoint where xi jumps from 0 directly to 1, with mass

    (x0 + R) * prod_{k != j} |x0 - x_k|^{c_k}

(the residue of H, with c_k the log-coefficients of xi).  Densities behave
like square roots at piece edges, so every integral is evaluated after the
arcsine substitution t = mid + half*sin(theta), which makes the integrand
analytic.  Every rule in theta is Fejer's first rule, which then converges
spectrally, at about Gauss's rate (Trefethen, SIAM Rev. 50, 2008), from
`_theta_rule`, cached with the edge factors of its nodes that the densities
read.  Every quadrature rule of a measure comes from `SpectralMeasure._rule`:
nodes and weighted densities from one density evaluation, elementwise over an
array of piece indices broadcast against the thetas, so one call serves the
same rule on all pieces (a column of indices) or a different rule on each (a
flat index).
Each measure builds one read-only table, on its first density evaluation:
the rows of its pieces (lo, hi, multiplier, sin(pi xi), mid, half, width)
and the breakpoint columns (x_k, d_k != 0) of ln|H| = sum_k d_k ln|t - x_k|.
An evaluation gathers its pieces' rows and sums ln|H| on the columns with
`krein._arc_log_abs`, which measures each distance |t - x_k| from the
piece's own edge and never forms the point t, so a density is as accurate
far from the origin as near it.
The mass rules take one call at 64 and 128 nodes and one per later doubling
of the unconverged pieces; the rule each piece's mass converged at is
memoized and reused by shallow reconstructions.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NumericError
from .gapflow import _require_half_on_bands
from .krein import HerglotzRep, StepFunction, _arc_log_abs, _breakpoint_columns, _edge_factors
from .sets import CompactSet

__all__ = [
    "AcPiece",
    "SpectralMeasure",
    "FSelector",
    "stieltjes_invert",
    "half_line_measure",
    "total_mass",
]


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, marked read-only: a cache or memo shares them with every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=64)
def _theta_rule(n: int) -> tuple[np.ndarray, ...]:
    """Fejer's first rule with n nodes in theta on (-pi/2, pi/2), with the
    edge factors of its nodes that the densities read (`_edge_factors`),
    computed once: (theta, w, e_0, e_1), read-only.  It is exact to degree
    n - 1, and has nodes -cos((k + 1/2) pi/n) ascending, computed as exactly
    symmetric sines, and positive weights from one inverse FFT (Waldvogel,
    BIT 46, 2006)."""
    j = np.arange((n + 1) // 2)
    v = np.zeros(n + 1, dtype=complex)
    v[j] = 2.0 * np.exp(1j * np.pi * j / n) / (1.0 - 4.0 * j * j)
    w = np.fft.ifft(v[:-1] + np.conj(v[:0:-1])).real * (np.pi / 2.0)
    theta = np.sin((2 * np.arange(n) + 1 - n) * (0.5 * np.pi / n)) * (np.pi / 2.0)
    return _read_only(theta, w, *_edge_factors(theta))


@lru_cache(maxsize=1)
def _start_rule() -> tuple[np.ndarray, ...]:
    """The rule that every measure's mass rules start with, the 64 and 128
    node Fejer rules side by side: (theta, w, e_0, e_1), read-only."""
    return _read_only(*map(np.concatenate, zip(_theta_rule(64), _theta_rule(128))))


@dataclass(frozen=True, slots=True)
class AcPiece:
    """Absolutely continuous piece on (lo, hi): density
    multiplier * |H(t)| * sin(pi * xi(t)) / pi for the owning measure's rep."""

    lo: float
    hi: float
    multiplier: float

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError("ac piece must be a finite interval of positive length")
        if not 0 < self.multiplier < math.inf:
            raise ValueError("ac piece multiplier must be positive and finite")


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite positive measure: closed-form ac pieces tied to a Herglotz
    representation, plus point atoms (position, mass)."""

    rep: HerglotzRep | None
    ac_pieces: tuple[AcPiece, ...] = ()
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.ac_pieces and self.rep is None:
            raise ValueError("ac pieces need a Herglotz representation")
        pieces = sorted(self.ac_pieces, key=lambda p: p.lo)
        for p0, p1 in zip(pieces, pieces[1:]):
            if p1.lo < p0.hi:
                raise ValueError("ac pieces must be disjoint")
        for x, m in self.atoms:
            if not (math.isfinite(x) and 0 < m < math.inf):
                raise ValueError("atoms need a finite position and a positive finite mass")
        atoms = tuple((float(x), float(m)) for x, m in self.atoms)
        if len({x for x, _ in atoms}) < len(atoms):
            raise ValueError("each atom position may carry one mass")
        object.__setattr__(self, "ac_pieces", tuple(pieces))
        object.__setattr__(self, "atoms", atoms)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (rows, columns), built once: rows lo, hi, multiplier,
        sin(pi xi), mid, half and width 2*half over the ac pieces, with each
        piece's xi value taken by the index of the xi piece that holds it
        (no point evaluation, so a piece one ulp wide is read exactly), and
        the breakpoint columns (x_k, d_k) of ln|H| = sum_k d_k ln|t - x_k|.
        Raises `ValueError` for a measure whose scale, its pieces' multipliers
        included, takes its mass out of float64's normal range."""
        xi, fin = self.rep.xi, sys.float_info
        bk, vals, rows = xi.breakpoints, xi.values, []
        for p in self.ac_pieces:
            i = bisect_right(bk, p.lo) - 1
            if not 0 <= i < len(vals) or p.hi > bk[i + 1]:
                raise ValueError(f"ac piece ({p.lo}, {p.hi}) is not inside one piece of xi")
            half = 0.5 * (p.hi - p.lo)
            rows.append((p.lo, p.hi, p.multiplier, math.sin(math.pi * vals[i]),
                         0.5 * (p.lo + p.hi), half, 2.0 * half))
        # the mass scales as the square of the measure's size and as a piece's
        # multiplier: refuse a measure whose narrowest piece or farthest edge,
        # squared, or whose least multiplier x width^2 leaves the normal range
        narrow, far, (lo, hi, m, *_, width) = (
            min(r[6] for r in rows), max(-rows[0][0], rows[-1][1]),
            min(rows, key=lambda r: r[2] * r[6] * r[6]))
        if narrow * narrow < fin.min or far * far > fin.max or m * width * width < fin.min:
            raise ValueError(f"the measure's scale (narrowest ac piece {narrow:.3g} wide, farthest "
                             f"edge at |t| = {far:.3g}, multiplier {m:.3g} on ({lo}, {hi})) "
                             f"takes its mass out of float64's normal range "
                             f"[{fin.min:.3g}, {fin.max:.3g}]")
        return _read_only(np.array(rows).T, _breakpoint_columns(xi))

    def density_on_arc(self, index, theta: np.ndarray, edges=None) -> np.ndarray:
        """Density at t = mid + half*sin(theta) on ac piece `index`,
        elementwise over the broadcast shape of index and theta, stable up to
        the piece edges (where it behaves like a power of the distance) and
        wherever the piece sits: the kernel measures the distances from the
        piece's edges, so t is not formed.  `edges` are theta's edge factors
        (`_edge_factors`), computed here if not given."""
        rows, columns = self._table
        lo, hi, m, sin_v, _, _, width = rows[:, index]
        edges = edges or _edge_factors(theta)
        return m * np.exp(_arc_log_abs(columns, lo, hi, width, edges)) * sin_v / math.pi

    def _rule(self, index, theta, w, *edges) -> tuple[np.ndarray, np.ndarray]:
        """Nodes t = mid + half*sin(theta) and weight x jacobian x density of
        the rule (theta, w) in theta, node i on ac piece index[i], with the
        edge factors of theta if given (a `_theta_rule` quadruple)."""
        mid, half = self._table[0][4:6, index]
        t = mid + half * np.sin(theta)
        return t, w * (half * np.cos(theta)) * self.density_on_arc(index, theta, edges)

    @cached_property
    def _mass_rules(self) -> tuple:
        """Per ac piece, (n, nodes t, Fejer weight x jacobian x density, mass)
        at the first n = 64, 128, ... where two successive masses agree to
        1e-12 * min(max(1, mass), total), with total the measure's mass by
        the 128-node rules plus its atoms; one density call builds the 64
        and 128 rules of all pieces.  No field, so == and hash ignore it."""
        if not self.ac_pieces:
            return ()
        ts, wd = self._rule(np.arange(len(self.ac_pieces))[:, None], *_start_rule())
        todo, rules, n = dict(enumerate(wd[:, :64].sum(1).tolist())), {}, 128
        ts, rows = ts[:, 64:], wd[:, 64:]
        total = rows.sum().item() + sum(m for _, m in self.atoms)
        while True:
            for (i, prev), t, row, cur in zip([*todo.items()], ts, rows, rows.sum(1).tolist()):
                todo[i] = cur
                if abs(cur - prev) <= 1e-12 * min(max(1.0, abs(cur)), total):
                    rules[i] = (n, t, row, todo.pop(i))
            if not todo:
                return tuple(rules[i] for i in range(len(wd)))
            if n >= 8192:
                piece = self.ac_pieces[min(todo)]
                raise NumericError(f"quadrature on ({piece.lo}, {piece.hi}) "
                                   f"did not reach tol=1e-12 with {n} nodes")
            n *= 2
            ts, rows = self._rule(np.array(list(todo))[:, None], *_theta_rule(n))


@dataclass(frozen=True, slots=True)
class FSelector:
    """The free part of the half-line correspondence: piecewise-constant
    values f in [0, 1] on intervals off K, plus per-atom weights in [0, 1].
    On K the factor is fixed to 1/2 and not stored; unspecified regions off
    K default to f = 0."""

    intervals: tuple[tuple[float, float, float], ...] = ()
    atom_weights: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        ivs = tuple((float(a), float(b), float(v)) for a, b, v in self.intervals)
        for a, b, v in ivs:
            if not b > a:
                raise ValueError("f interval must have positive length")
            if not 0.0 <= v <= 1.0:
                raise ValueError("f values must lie in [0, 1]")
        ivs = tuple(sorted(ivs))
        for (_, b0, _), (a1, _, _) in zip(ivs, ivs[1:]):
            if a1 < b0:
                raise ValueError("f intervals must be disjoint")
        for x, w in self.atom_weights:
            if not (math.isfinite(x) and 0.0 <= w <= 1.0):
                raise ValueError("atoms need a finite position and a weight in [0, 1]")
        atoms = tuple((float(x), float(w)) for x, w in self.atom_weights)
        if len({x for x, _ in atoms}) < len(atoms):
            raise ValueError("each atom position may carry one weight")
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "atom_weights", atoms)

    def to_dict(self) -> dict:
        return {"intervals": [[a, b, v] for a, b, v in self.intervals],
                "atoms": [[x, w] for x, w in self.atom_weights]}


def atom_positions_and_masses(xi: StepFunction) -> list[tuple[float, float]]:
    """Poles of H on (-R, R): breakpoints where xi jumps 0 -> 1, with the
    residue mass in closed form."""
    vals = xi.values
    jumps = [j for j in range(1, len(vals)) if vals[j - 1] == 0.0 and vals[j] == 1.0]
    if not jumps:
        return []
    c, bk, out = xi.log_coefficients, np.asarray(xi.breakpoints), []
    for j in jumps:
        mask = np.ones(len(bk), dtype=bool)
        mask[j] = False
        mass = (bk[j] + xi.bound) * np.prod(np.abs(bk[j] - bk[mask]) ** c[mask])
        out.append((float(bk[j]), float(mass)))
    return out


def ac_pieces(xi: StepFunction) -> tuple[AcPiece, ...]:
    """The ac pieces of xi's measure, one per piece of xi with 0 < xi < 1."""
    return tuple(AcPiece(lo, hi, 1.0) for lo, hi, v in xi.pieces() if 0.0 < v < 1.0)


def stieltjes_invert(rep: HerglotzRep) -> SpectralMeasure:
    """The measure of H: density |H(t)| sin(pi xi)/pi wherever 0 < xi < 1,
    atoms at the full 0 -> 1 up-jumps.

    The density is integrable: its exponent at a piece edge is v_left -
    v_right, where one value is the piece's own in (0, 1) and the other is
    in [0, 1], so it is always > -1.
    """
    return SpectralMeasure(rep, ac_pieces(rep.xi), tuple(atom_positions_and_masses(rep.xi)))


def half_line_measure(rho: SpectralMeasure, k_set: CompactSet,
                      f: FSelector | None = None) -> SpectralMeasure:
    """nu_+ = (1/2) chi_K rho_ac + f * (rho off K).

    ac pieces on K are halved; off-K pieces are scaled by the local f value
    (dropped where f = 0); each atom gets the f weight at exactly its
    position.  Requires K inside rho's domain [-R, R], rho's xi equal to 1/2
    on K, f supported off the interior of K, every f weight at an atom of
    rho, and no atom at a band edge.
    """
    f = f or FSelector()
    if rho.rep is None:
        raise ValueError("half_line_measure needs a measure with a representation")
    _require_half_on_bands(rho.rep.xi, k_set)
    for a, b, _ in f.intervals:
        for c, d in k_set.intervals:
            if min(b, d) > max(a, c):
                raise ValueError("f may not be specified on the interior of K")
    band_edges = [e for c, d in k_set.intervals for e in (c, d)]
    f_edges = [e for a, b, _ in f.intervals for e in (a, b)]
    cuts = sorted(set(band_edges) | set(f_edges))
    out_pieces = []
    for piece in rho.ac_pieces:
        grid = [piece.lo, *cuts[bisect_right(cuts, piece.lo):bisect_left(cuts, piece.hi)], piece.hi]
        for lo, hi in zip(grid, grid[1:]):
            # no cut lies inside (lo, hi), so its left end places it: an odd
            # count of edges at or left of lo puts it in a band or f interval
            if bisect_right(band_edges, lo) % 2:
                scale = 0.5
            else:
                i = bisect_right(f_edges, lo)
                scale = f.intervals[i // 2][2] if i % 2 else 0.0
            if scale > 0.0:
                out_pieces.append(AcPiece(lo, hi, piece.multiplier * scale))
    weights = dict(f.atom_weights)
    stray = set(weights).difference(pos for pos, _ in rho.atoms)
    if stray:
        raise ValueError(f"f has a weight at {sorted(stray)}, where rho has no atom")
    out_atoms = []
    for pos, mass in rho.atoms:
        if any(pos == c or pos == d for c, d in k_set.intervals):
            raise ValueError(f"atom at the band edge {pos} is degenerate")
        if k_set.contains_interior(pos):
            raise ValueError(f"atom at {pos} inside K cannot occur for xi = 1/2 on K")
        w = weights.get(pos, 0.0)
        if w > 0.0:
            out_atoms.append((pos, w * mass))
    return SpectralMeasure(rho.rep, tuple(out_pieces), tuple(out_atoms))


def total_mass(measure: SpectralMeasure) -> float:
    """Atoms summed exactly; ac mass by the adaptive edge-substituted
    quadrature (estimated error per piece below 1e-12 * min(max(1, piece
    mass), total mass)), memoized."""
    ac = sum(rule[3] for rule in measure._mass_rules)
    return float(ac + sum(m for _, m in measure.atoms))

