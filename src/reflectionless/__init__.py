"""Numerical inverse spectral theory for reflectionless Jacobi matrices.

Krein step functions and their exponential Herglotz representations, the
gap-modification flow to the canonical class, spectral measures by
Stieltjes inversion, half-line coefficient reconstruction, and the
extremal constant of a finite-gap compact set.

Each library layer declares its public names in its own `__all__`; the
package republishes them in layer order.  The CLI's runners live in
`reflectionless.experiments` and `reflectionless.cli`, which an import of
the package does not load.
"""

from . import errors, sets, krein, operators, gapflow, measures, inverse, extremal
from .errors import *
from .sets import *
from .krein import *
from .operators import *
from .gapflow import *
from .measures import *
from .inverse import *
from .extremal import *

__version__ = "0.1.0"

__all__ = [name for layer in (errors, sets, krein, operators, gapflow, measures, inverse,
                              extremal) for name in layer.__all__]
