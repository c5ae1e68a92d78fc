"""The gamma function, with its poles and non-finite arguments rejected.

Everything downstream (fractional integrals, contraction constants, the
a-priori bound) divides by Gamma, taken exactly from the standard
library's math.gamma.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError


def gamma(x: float) -> float:
    """Gamma function for real x, excluding the poles at 0, -1, -2, ..."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma argument must be finite, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma has a pole at {x}")
    return math.gamma(x)
