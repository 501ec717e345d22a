"""Error types shared across the package."""

__all__ = ["NumericError"]


class NumericError(RuntimeError):
    """A numerical procedure failed to reach its accuracy target
    (quadrature budget exceeded, fixed-point closure degenerate, Lanczos
    breakdown)."""
