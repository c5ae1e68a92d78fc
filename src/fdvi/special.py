"""Gamma function and exact moments of the weakly singular kernel (t-tau)^(q-1).

Everything downstream (fractional integrals, contraction constants, the
a-priori bound) reduces to these two primitives, so they are kept exact:
gamma from the standard library's math.gamma, kernel moments via
closed-form antiderivatives.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PoleError


def gamma(x: float) -> float:
    """Gamma function for real x, excluding the poles at 0, -1, -2, ..."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma argument must be finite, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma has a pole at {x}")
    return math.gamma(x)


def kernel_moment(q: float, t, a, b, k: int):
    """Exact value of the moment integral over [a, b] of (t-tau)^(q-1) * tau^k.

    Requires 0 <= a <= b <= t and k in {0, 1}.  The solver path uses
    q in (1, 2]; lower orders down to q > 0 are accepted because the
    diagnostics (Caputo estimator, y'(T) check) integrate with kernel
    exponents q-1 and 2-q.

    Accepts scalars or broadcastable arrays for t, a, b.
    """
    if not 0.0 < q <= 2.0:
        raise DomainError(f"kernel order q must lie in (0, 2], got {q}")
    if k not in (0, 1):
        raise DomainError(f"moment degree k must be 0 or 1, got {k}")
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a < 0.0) or np.any(b < a) or np.any(t < b):
        raise DomainError("kernel_moment requires 0 <= a <= b <= t")
    s1 = t - a
    s0 = t - b
    m0 = (s1**q - s0**q) / q
    if k == 0:
        out = m0
    else:
        out = t * m0 - (s1 ** (q + 1.0) - s0 ** (q + 1.0)) / (q + 1.0)
    if out.ndim == 0:
        return float(out)
    return out
