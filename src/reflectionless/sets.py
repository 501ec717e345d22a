"""Finite unions of disjoint closed intervals (the sets the operators are
reflectionless on)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CompactSet"]


@dataclass(frozen=True, slots=True)
class CompactSet:
    """A finite union of disjoint closed intervals [c_j, d_j], sorted left to
    right, with nonempty gaps between consecutive bands.

    `intervals` is a tuple of (c, d) pairs.  The bounded components of the
    complement between min and max are the gaps.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(c), float(d)) for c, d in self.intervals)
        if not ivs:
            raise ValueError("CompactSet needs at least one interval")
        for c, d in ivs:
            if not -np.inf < c < d < np.inf:
                raise ValueError(f"degenerate or unbounded interval [{c}, {d}]")
        for (_, d0), (c1, _) in zip(ivs, ivs[1:]):
            if not c1 > d0:
                raise ValueError("intervals must be sorted with nonempty gaps")
        object.__setattr__(self, "intervals", ivs)

    @property
    def min(self) -> float:
        return self.intervals[0][0]

    @property
    def max(self) -> float:
        return self.intervals[-1][1]

    @property
    def total_length(self) -> float:
        return sum(d - c for c, d in self.intervals)

    def gaps(self) -> tuple[tuple[float, float], ...]:
        return tuple((d0, c1) for (_, d0), (c1, _) in zip(self.intervals, self.intervals[1:]))

    def contains_interior(self, x: float) -> bool:
        return any(c < x < d for c, d in self.intervals)

    def interior_grid(self, points_per_interval: int) -> np.ndarray:
        """Deterministic sample points strictly inside each band (midpoint
        offsets, endpoints excluded), band by band."""
        if type(points_per_interval) is not int or points_per_interval < 1:     # refuses bools
            raise ValueError("points_per_interval must be an integer >= 1")
        c, d = np.array(self.intervals).T[..., None]      # band ends as columns
        return (c + np.arange(0.5, points_per_interval) * (d - c) / points_per_interval).ravel()

    def affine(self, alpha: float, beta: float) -> "CompactSet":
        """The image alpha*K + beta for alpha > 0."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        return CompactSet(tuple((alpha * c + beta, alpha * d + beta) for c, d in self.intervals))
