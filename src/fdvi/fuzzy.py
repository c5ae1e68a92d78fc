"""Alpha-level machinery for fuzzy numbers with box-valued levels.

Level sets are restricted to axis-aligned boxes built from per-coordinate
scaled fuzzy interval numbers: the fuzzy field F maps (t, y) to a vector
of intervals d_i(t,y) + e_i(t,y) * [w_i]_alpha.  A level is a vi.BoxSet,
the same box class as the feasible set K, and on boxes the Hausdorff
distance has an exact closed form.  Every base number is stored as a
trapezoid (a, b, c, d); a triangular one repeats its peak, b = c.

Distance conventions: the Hausdorff distance between boxes is computed
under the max norm (coordinate-wise endpoint differences), for which the
closed form is exact.  The Euclidean Hausdorff differs by at most a
factor sqrt(n); they coincide for scalar problems.  The fuzzy metric,
the sup over alpha of that distance between alpha-levels, is exact too:
level endpoints are affine in alpha, so the sup sits at alpha = 0 or 1.
FuzzyBoxField.levels is the one vectorised level-endpoint formula and the
one reader of the field's coefficient layout: a trailing axis with a column
per expression of FuzzyBoxField.exprs, each component's scale then offset.
level_arrays evaluates the expressions into that layout; the solver hands
levels its own columns of them.
FuzzyBoxField.slope is the field's local slope in that metric, from the
forward-mode y-gradients of the scale and offset expressions; its sup is
the Lipschitz constant L_F the verifier reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .expr import Expression, evaluate, value_and_gradient
from .vi import BoxSet


@dataclass(frozen=True)
class FuzzyIntervalNumber:
    """Trapezoidal fuzzy number (a, b, c, d) on the real line; triangular ones have b = c."""

    params: tuple[float, float, float, float]

    def __post_init__(self):
        a, b, c, d = params = tuple(map(float, self.params))
        # NaN fails the order; finite ends bound the middle two
        if not (math.isfinite(a) and math.isfinite(d) and a <= b <= c <= d):
            raise DomainError(f"fuzzy number parameters must be finite with a <= b <= c <= d, got {params}")
        object.__setattr__(self, "params", params)

    @classmethod
    def triangular(cls, a: float, b: float, c: float) -> "FuzzyIntervalNumber":
        return cls((a, b, b, c))

    @classmethod
    def trapezoidal(cls, a: float, b: float, c: float, d: float) -> "FuzzyIntervalNumber":
        return cls((a, b, c, d))

    def level(self, alpha: float) -> tuple[float, float]:
        """The alpha-level interval as (lo, hi); alpha = 0 is the support, alpha = 1 the core.

        The one check of the membership level: every level of a fuzzy box
        or field reads its components' levels through here.
        """
        if not 0.0 <= alpha <= 1.0:
            raise DomainError(f"membership level must lie in [0, 1], got {alpha}")
        a, b, c, d = self.params
        lo, hi = a + alpha * (b - a), d - alpha * (d - c)
        if lo > hi:  # the two endpoint formulas can cross by one ulp near alpha = 1
            lo = hi = 0.5 * (lo + hi)
        return lo, hi


class FuzzyBox:
    """A fuzzy vector: one fuzzy interval number per coordinate."""

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = tuple(components)

    @property
    def dim(self) -> int:
        return len(self.components)

    def level(self, alpha: float) -> BoxSet:
        ivs = [c.level(alpha) for c in self.components]
        return BoxSet([lo for lo, _ in ivs], [hi for _, hi in ivs])


@dataclass(frozen=True)
class FieldComponent:
    base: FuzzyIntervalNumber
    scale: Expression
    offset: Expression


class FuzzyBoxField:
    """The fuzzy mapping (t, y) -> fuzzy box with per-coordinate scaled bases."""

    def __init__(self, components):
        self.components = tuple(components)
        # every expression of the field, each component's scale then its offset
        self.exprs = tuple(e for comp in self.components for e in (comp.scale, comp.offset))

    @property
    def dim(self) -> int:
        return len(self.components)

    def levels(self, coeffs, alpha: float):
        """The alpha-level endpoints d + e * [w_i]_alpha as (lo, hi).

        coeffs has a trailing axis of 2n columns in exprs order, each
        component's scale e then its offset d; lo and hi have a trailing axis n.
        """
        e, d = coeffs[..., 0::2], coeffs[..., 1::2]
        ivs = [comp.base.level(alpha) for comp in self.components]
        # in place, because the verifier's sampling grids are large; same bits as d + e * lo
        p = e * np.array([lo for lo, _ in ivs])
        p += d
        r = e * np.array([hi for _, hi in ivs])
        r += d
        hi = np.maximum(p, r)
        return np.minimum(p, r, out=p), hi

    def level_arrays(self, ts, ys, alpha: float):
        """levels at the nodes: ts broadcasts against the leading axes of ys, shaped (..., n)."""
        ts = np.asarray(ts, dtype=float)
        ys = np.asarray(ys, dtype=float)
        coeffs = np.empty(np.broadcast_shapes(ts.shape, ys.shape[:-1]) + (len(self.exprs),))
        for j, expr in enumerate(self.exprs):
            coeffs[..., j] = evaluate(expr, ts, ys)
        return self.levels(coeffs, alpha)

    def slope(self, ts, ys) -> np.ndarray:
        """The field's local slope in the fuzzy metric at the nodes, shaped like level_arrays' rows.

        max_i max_{c in (a_i, d_i)} ||grad_y d_i + c grad_y e_i||_2 for
        component i with support [a_i, d_i].  Every level endpoint of
        component i is d_i + c e_i with c in [a_i, d_i], and the norm is
        convex in c, so the support ends bound every level.  Its sup over a
        convex box is the field's Lipschitz constant there.  A row whose
        partials are not all finite (sqrt at 0, say) has slope inf.
        """
        ts = np.asarray(ts, dtype=float)
        ys = np.asarray(ys, dtype=float)
        out = np.zeros(np.broadcast_shapes(ts.shape, ys.shape[:-1]))
        with np.errstate(all="ignore"):
            for comp in self.components:
                _, de = value_and_gradient(comp.scale, ts, ys)
                _, dd = value_and_gradient(comp.offset, ts, ys)
                coords = sorted(de.keys() | dd.keys())
                for c in (comp.base.params[0], comp.base.params[3]):
                    sq = sum(np.square(dd.get(k, 0.0) + c * de.get(k, 0.0)) for k in coords)
                    np.maximum(out, np.sqrt(sq), out=out)
        out[~np.isfinite(out)] = np.inf  # nan too
        return out


def hausdorff(a: BoxSet, b: BoxSet) -> float:
    """Hausdorff distance between boxes under the max norm (exact closed form)."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"boxes have dimensions {a.dim} and {b.dim}")
    return float(np.max(np.maximum(np.abs(a.lo - b.lo), np.abs(a.hi - b.hi))))


def fuzzy_metric(w1: FuzzyBox, w2: FuzzyBox) -> float:
    """sup over alpha of the Hausdorff distance between alpha-levels.

    Every level endpoint of a triangular/trapezoidal component is affine
    in alpha, so each coordinate's level distance is a max of absolute
    affine functions of alpha.  That is convex, and its supremum over
    [0, 1] is attained at alpha = 0 (the support) or alpha = 1 (the core).
    """
    if w1.dim != w2.dim:
        raise DimensionMismatch(f"fuzzy boxes have dimensions {w1.dim} and {w2.dim}")
    return max(hausdorff(w1.level(alpha), w2.level(alpha)) for alpha in (0.0, 1.0))

