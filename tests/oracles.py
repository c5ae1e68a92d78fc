"""Independent reference forms of what fdvi computes on whole grids.

The solver and the verifier work on whole grids (FuzzyBoxField.levels and
level_arrays, the lag weights of fdvi.fractional); these pointwise forms
are the tests' oracles for them: the fuzzy field and the grid sup norm at
one point, and the product-trapezoid fractional integral at one node built
from exact kernel moments.
"""

import numpy as np

from fdvi.errors import DomainError
from fdvi.expr import evaluate
from fdvi.fuzzy import FuzzyBox, FuzzyIntervalNumber
from fdvi.special import gamma


def scaled(w: FuzzyIntervalNumber, scale: float, shift: float) -> FuzzyIntervalNumber:
    """Affine image shift + scale * w (endpoints re-sorted for scale < 0)."""
    return FuzzyIntervalNumber(tuple(sorted(shift + scale * p for p in w.params)))


def field_at(field, t: float, y) -> FuzzyBox:
    """The fuzzy value of the field at one point (t, y)."""
    y = np.asarray(y, dtype=float)
    return FuzzyBox(scaled(comp.base, float(evaluate(comp.scale, t, y)), float(evaluate(comp.offset, t, y)))
                    for comp in field.components)


def field_level(field, t: float, y, alpha: float):
    """The field's alpha-level box at one point (t, y)."""
    return field_at(field, t, y).level(alpha)


def sup_norm2(f) -> float:
    """Max over the nodes of a grid function of the Euclidean norm."""
    return float(np.max(np.linalg.norm(f.values, axis=1)))


def kernel_moment(q: float, t, a, b, k: int):
    """Exact value of the moment integral over [a, b] of (t-tau)^(q-1) * tau^k.

    Requires 0 < q <= 2, 0 <= a <= b <= t and k in {0, 1}, from the
    closed-form antiderivatives.  Accepts scalars or broadcastable arrays
    for t, a, b.
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


def frac_integral_moments(q: float, phi, i: int) -> np.ndarray:
    """The product-trapezoid I^q phi at node i, from each panel's exact kernel moments.

    Each panel [t_j, t_{j+1}] contributes its endpoint values weighted by the
    kernel integrated against the two hat functions, (t_{j+1} m0 - m1) / h
    and (m1 - t_j m0) / h; the same rule as fdvi.fractional, computed from
    the absolute node positions rather than the lag weights.
    """
    grid = phi.grid
    if i == 0:
        return np.zeros(phi.dim)
    t = grid.nodes[i]
    left = grid.nodes[:i]
    right = grid.nodes[1 : i + 1]
    m0 = np.asarray(kernel_moment(q, t, left, right, 0))
    m1 = np.asarray(kernel_moment(q, t, left, right, 1))
    wl = (right * m0 - m1) / grid.h  # weight of the left endpoint of each panel
    wr = (m1 - left * m0) / grid.h  # weight of the right endpoint
    return (wl @ phi.values[:i] + wr @ phi.values[1 : i + 1]) / gamma(q)
