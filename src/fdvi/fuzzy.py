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
FuzzyBoxField.levels is the one vectorised level-endpoint formula; it
takes the scale/offset coefficients that FuzzyBoxField.coefficients
evaluates once per state, and level_arrays composes the two.
FuzzyBoxField.slope is the field's local slope in that metric, from the
forward-mode y-gradients of the scale and offset expressions; its sup is
the Lipschitz constant L_F the verifier reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .expr import Expression, evaluate, value_and_gradient
from .vi import BoxSet


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise DomainError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class FuzzyIntervalNumber:
    """Trapezoidal fuzzy number (a, b, c, d) on the real line; triangular ones have b = c."""

    params: tuple[float, float, float, float]

    @classmethod
    def triangular(cls, a: float, b: float, c: float) -> "FuzzyIntervalNumber":
        if not a <= b <= c:
            raise DomainError(f"triangular parameters must satisfy a <= b <= c, got {(a, b, c)}")
        return cls((float(a), float(b), float(b), float(c)))

    @classmethod
    def trapezoidal(cls, a: float, b: float, c: float, d: float) -> "FuzzyIntervalNumber":
        if not a <= b <= c <= d:
            raise DomainError(f"trapezoidal parameters must satisfy a <= b <= c <= d, got {(a, b, c, d)}")
        return cls((float(a), float(b), float(c), float(d)))

    def level(self, alpha: float) -> Interval:
        """The alpha-level interval; alpha = 0 is the support, alpha = 1 the core."""
        _check_alpha(alpha)
        a, b, c, d = self.params
        lo, hi = a + alpha * (b - a), d - alpha * (d - c)
        if lo > hi:  # the two endpoint formulas can cross by one ulp near alpha = 1
            lo = hi = 0.5 * (lo + hi)
        return Interval(lo, hi)

    def scaled(self, scale: float, shift: float) -> "FuzzyIntervalNumber":
        """Affine image shift + scale * w (endpoints re-sorted for scale < 0)."""
        return FuzzyIntervalNumber(tuple(sorted(shift + scale * p for p in self.params)))


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"membership level must lie in [0, 1], got {alpha}")


class FuzzyBox:
    """A fuzzy vector: one fuzzy interval number per coordinate."""

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = tuple(components)

    @property
    def dim(self) -> int:
        return len(self.components)

    def level(self, alpha: float) -> BoxSet:
        _check_alpha(alpha)
        ivs = [c.level(alpha) for c in self.components]
        return BoxSet([iv.lo for iv in ivs], [iv.hi for iv in ivs])


@dataclass(frozen=True)
class FieldComponent:
    base: FuzzyIntervalNumber
    scale: Expression
    offset: Expression


class FuzzyBoxField:
    """The fuzzy mapping (t, y) -> fuzzy box with per-coordinate scaled bases."""

    def __init__(self, components):
        self.components = tuple(components)

    @property
    def dim(self) -> int:
        return len(self.components)

    def at(self, t: float, y) -> FuzzyBox:
        """The fuzzy value of the field at one point (t, y)."""
        y = np.asarray(y, dtype=float)
        out = []
        for comp in self.components:
            e = float(evaluate(comp.scale, t, y))
            d = float(evaluate(comp.offset, t, y))
            out.append(comp.base.scaled(e, d))
        return FuzzyBox(out)

    def level(self, t: float, y, alpha: float) -> BoxSet:
        return self.at(t, y).level(alpha)

    def coefficients(self, ts, ys, ev=None):
        """Each component's scale e and offset d at the nodes, evaluated once.

        ts broadcasts against the leading axes of ys (shape (..., n)); the
        result is two arrays of the broadcast shape plus a trailing axis n.
        ev stands in for expr.evaluate, e.g. the solver's per-solve cache.
        """
        ev = ev or evaluate
        ts = np.asarray(ts, dtype=float)
        ys = np.asarray(ys, dtype=float)
        shape = np.broadcast_shapes(ts.shape, ys.shape[:-1]) + (self.dim,)
        e = np.empty(shape)
        d = np.empty(shape)
        for i, comp in enumerate(self.components):
            e[..., i] = ev(comp.scale, ts, ys)
            d[..., i] = ev(comp.offset, ts, ys)
        return e, d

    def levels(self, e, d, alpha: float):
        """The alpha-level endpoints d + e * [w_i]_alpha as (lo, hi), shaped like e."""
        _check_alpha(alpha)
        ivs = [comp.base.level(alpha) for comp in self.components]
        # in place, because the verifier's sampling grids are large; same bits as d + e * lo
        p = e * np.array([iv.lo for iv in ivs])
        p += d
        r = e * np.array([iv.hi for iv in ivs])
        r += d
        hi = np.maximum(p, r)
        return np.minimum(p, r, out=p), hi

    def level_arrays(self, ts, ys, alpha: float, ev=None):
        """Vectorized levels over nodes: (lo, hi) of shape (k, n) for (k,) times and (k, n) states."""
        _check_alpha(alpha)
        return self.levels(*self.coefficients(ts, ys, ev), alpha)

    def slope(self, ts, ys) -> np.ndarray:
        """The field's local slope in the fuzzy metric at the nodes, shaped like coefficients' rows.

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

