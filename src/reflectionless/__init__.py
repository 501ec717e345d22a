"""Numerical inverse spectral theory for reflectionless Jacobi matrices.

Krein step functions and their exponential Herglotz representations, the
gap-modification flow to the canonical class, spectral measures by
Stieltjes inversion, half-line coefficient reconstruction, and the
extremal constant of a finite-gap compact set.
"""

from .errors import NumericError
from .sets import CompactSet
from .krein import StepFunction, HerglotzRep, free_krein, herglotz_eval
from .operators import (Tail, JacobiCoefficients, green_diag,
                        reflectionless_residual)
from .gapflow import (GapJumps, canonical_krein_from_jumps, flow_to_canonical,
                      gap_jump_masses)
from .measures import (AcPiece, SpectralMeasure, FSelector, stieltjes_invert,
                       half_line_measure, total_mass)
from .inverse import (reconstruct_coefficients, coefficient_deviation,
                      lanczos_tridiag, reconstruction_report)
from .extremal import (ExtremalResult, mass_objective, minimize_mass,
                       grid_min_mass)
from .experiments import (approximate_omega_limit, random_admissible_krein,
                          random_f_selector)

__version__ = "0.1.0"

__all__ = [
    "NumericError",
    "CompactSet",
    "StepFunction", "HerglotzRep", "free_krein", "herglotz_eval",
    "Tail", "JacobiCoefficients", "green_diag", "reflectionless_residual",
    "GapJumps", "canonical_krein_from_jumps", "flow_to_canonical",
    "gap_jump_masses",
    "AcPiece", "SpectralMeasure", "FSelector", "stieltjes_invert",
    "half_line_measure", "total_mass",
    "reconstruct_coefficients", "coefficient_deviation", "lanczos_tridiag",
    "reconstruction_report",
    "ExtremalResult", "mass_objective", "minimize_mass", "grid_min_mass",
    "approximate_omega_limit",
    "random_admissible_krein", "random_f_selector",
]
