"""Scalar, one-point forms of the fuzzy field and of the grid sup norm.

The solver and the verifier work on whole grids (FuzzyBoxField.levels and
level_arrays); these pointwise forms are the tests' oracles for them.
"""

import numpy as np

from fdvi.expr import evaluate
from fdvi.fuzzy import FuzzyBox, FuzzyIntervalNumber


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
