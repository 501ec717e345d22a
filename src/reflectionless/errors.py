"""Error types shared across the package."""


class NumericError(RuntimeError):
    """A numerical procedure failed to reach its accuracy target
    (quadrature budget exceeded, fixed-point closure degenerate, Lanczos
    breakdown)."""
