r"""The gap-modification flow to the canonical Krein class.

Given a Krein step function with xi = 1/2 on a finite-gap compact set K,
the flow sets xi = 1 left of K and 0 right of K, then rearranges the mass
in every gap (c, d) into the right-packed indicator chi_{(d-g, d)} with
g = integral of xi over the gap.  Each step can only lower the Hilbert
transform (hence |H|) on K, and the result lies in the canonical class:
1 / bands 1/2 / 0 with at most one upward jump per gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .krein import StepFunction
from .sets import CompactSet

__all__ = [
    "GapJumps",
    "canonical_krein_from_jumps",
    "flow_to_canonical",
    "gap_jump_masses",
]


@dataclass(frozen=True, slots=True)
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
            if not 0.0 <= g <= gd - gc:
                raise ValueError(f"jump mass {g} outside [0, {gd - gc}]")


def default_bound(k_set: CompactSet) -> float:
    """R = max |K| + 1 (the objective is R-independent; any valid R works)."""
    return max(abs(k_set.min), abs(k_set.max)) + 1.0


def canonical_krein_from_jumps(k_set: CompactSet, jumps: GapJumps,
                               bound: float | None = None) -> StepFunction:
    """The canonical step function: 1 left of K, 1/2 on bands, 0 right of K,
    and chi_{(d-g, d)} on each gap."""
    jumps.validate(k_set)
    r = float(default_bound(k_set) if bound is None else bound)
    # breakpoints left to right; the constructor drops the zero-width pieces
    # (a tail when K reaches -R or R, a gap side at g = 0 or the full width)
    bk, vals = [-r, *k_set.intervals[0]], [1.0, 0.5]
    for g, (gc, gd), (_, d) in zip(jumps.masses, k_set.gaps(), k_set.intervals[1:]):
        # the jump point d - g, exactly a face at g = 0 or the whole width (no rounding sliver)
        x = gd if g <= 0.0 else gc if g >= gd - gc else gd - g
        bk += [x, gd, d]
        vals += [0.0, 1.0, 0.5]
    return StepFunction(r, (*bk, r), (*vals, 0.0))


def _require_half_on_bands(xi: StepFunction, k_set: CompactSet):
    if not (-xi.bound <= k_set.min and k_set.max <= xi.bound):
        raise ValueError("K must lie inside the domain [-R, R]")
    for c, d in k_set.intervals:
        if any(v != 0.5 for v in xi.values_on(c, d)):
            raise ValueError(f"xi must equal 1/2 on the band [{c}, {d}]")


def flow_to_canonical(xi: StepFunction, k_set: CompactSet) -> StepFunction:
    """The end of the flow in one build: no step changes the mass of a gap,
    so the result is the canonical function with xi's gap masses (canonical
    by construction)."""
    _require_half_on_bands(xi, k_set)
    jumps = GapJumps(gap_jump_masses(xi, k_set))
    return canonical_krein_from_jumps(k_set, jumps, xi.bound)


def gap_jump_masses(xi: StepFunction, k_set: CompactSet) -> tuple[float, ...]:
    """Per-gap masses g_j = integral of xi over gap j (for a canonical xi
    these are the jump parameters).  xi <= 1, so any excess over the gap
    width is rounding, and g_j is capped at the width."""
    return tuple(min(xi.integral(gc, gd), gd - gc) for gc, gd in k_set.gaps())
