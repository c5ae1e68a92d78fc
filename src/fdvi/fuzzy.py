"""Alpha-level machinery for fuzzy numbers with box-valued levels.

Level sets are restricted to axis-aligned boxes built from per-coordinate
scaled fuzzy interval numbers: the fuzzy field F maps (t, y) to a vector
of intervals d_i(t,y) + e_i(t,y) * [w_i]_alpha.  Boxes keep selection,
clamping and the Hausdorff distance exact.

Distance conventions: the Hausdorff distance between boxes is computed
under the max norm (coordinate-wise endpoint differences), for which the
closed form is exact.  The Euclidean Hausdorff differs by at most a
factor sqrt(n); they coincide for scalar problems.  The fuzzy metric,
the sup over alpha of that distance between alpha-levels, is exact too:
level endpoints are affine in alpha, so the sup sits at alpha = 0 or 1.
FuzzyBoxField.levels is the one vectorised level-endpoint formula; it
takes the scale/offset coefficients that FuzzyBoxField.coefficients
evaluates once per state, and level_arrays composes the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .expr import Expression, evaluate


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise DomainError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")


class Box:
    """An axis-aligned box in R^n, stored as lo/hi arrays."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch("box endpoints must be 1-d arrays of equal length")
        if np.any(lo > hi):
            raise DomainError("box has lo > hi in some coordinate")
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_intervals(cls, intervals) -> "Box":
        return cls([iv.lo for iv in intervals], [iv.hi for iv in intervals])

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def __repr__(self) -> str:
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Box)
            and self.lo.shape == other.lo.shape
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )


@dataclass(frozen=True)
class FuzzyIntervalNumber:
    """Triangular or trapezoidal fuzzy number on the real line."""

    kind: str  # "triangular" | "trapezoidal"
    params: tuple[float, ...]

    @classmethod
    def triangular(cls, a: float, b: float, c: float) -> "FuzzyIntervalNumber":
        if not a <= b <= c:
            raise DomainError(f"triangular parameters must satisfy a <= b <= c, got {(a, b, c)}")
        return cls("triangular", (float(a), float(b), float(c)))

    @classmethod
    def trapezoidal(cls, a: float, b: float, c: float, d: float) -> "FuzzyIntervalNumber":
        if not a <= b <= c <= d:
            raise DomainError(f"trapezoidal parameters must satisfy a <= b <= c <= d, got {(a, b, c, d)}")
        return cls("trapezoidal", (float(a), float(b), float(c), float(d)))

    def level(self, alpha: float) -> Interval:
        """The alpha-level interval; alpha = 0 is the support, alpha = 1 the core."""
        _check_alpha(alpha)
        if self.kind == "triangular":
            a, b, c = self.params
            lo, hi = a + alpha * (b - a), c - alpha * (c - b)
        else:
            a, b, c, d = self.params
            lo, hi = a + alpha * (b - a), d - alpha * (d - c)
        if lo > hi:  # the two endpoint formulas can cross by one ulp near alpha = 1
            lo = hi = 0.5 * (lo + hi)
        return Interval(lo, hi)

    def scaled(self, scale: float, shift: float) -> "FuzzyIntervalNumber":
        """Affine image shift + scale * w (endpoints re-sorted for scale < 0)."""
        pts = sorted(shift + scale * p for p in self.params)
        if self.kind == "triangular":
            return FuzzyIntervalNumber("triangular", tuple(pts))
        return FuzzyIntervalNumber("trapezoidal", tuple(pts))


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

    def level(self, alpha: float) -> Box:
        _check_alpha(alpha)
        ivs = [c.level(alpha) for c in self.components]
        return Box.from_intervals(ivs)


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

    def level(self, t: float, y, alpha: float) -> Box:
        return self.at(t, y).level(alpha)

    def coefficients(self, ts, ys):
        """Each component's scale e and offset d at the nodes, evaluated once.

        ts broadcasts against the leading axes of ys (shape (..., n)); the
        result is two arrays of the broadcast shape plus a trailing axis n.
        """
        ts = np.asarray(ts, dtype=float)
        ys = np.asarray(ys, dtype=float)
        shape = np.broadcast_shapes(ts.shape, ys.shape[:-1]) + (self.dim,)
        e = np.empty(shape)
        d = np.empty(shape)
        for i, comp in enumerate(self.components):
            e[..., i] = evaluate(comp.scale, ts, ys)
            d[..., i] = evaluate(comp.offset, ts, ys)
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

    def level_arrays(self, ts, ys, alpha: float):
        """Vectorized levels over nodes: (lo, hi) of shape (k, n) for (k,) times and (k, n) states."""
        _check_alpha(alpha)
        return self.levels(*self.coefficients(ts, ys), alpha)


def hausdorff(a: Box, b: Box) -> float:
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


def select(box: Box, lam) -> np.ndarray:
    """Pick the point midpoint + (lam/2) * width per coordinate; lam in [-1,1]^n."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape[0] != box.dim:
        raise DimensionMismatch(f"selection parameter has dimension {lam.shape[0]}, box {box.dim}")
    if np.any(np.abs(lam) > 1.0):
        raise DomainError("selection parameter components must lie in [-1, 1]")
    mid = 0.5 * (box.lo + box.hi)
    return mid + 0.5 * lam * (box.hi - box.lo)


def clamp_to_box(x, box: Box) -> np.ndarray:
    """Nearest point of the box (Euclidean and coordinate-wise all at once)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != box.dim:
        raise DimensionMismatch(f"point has dimension {x.shape[0]}, box {box.dim}")
    return np.clip(x, box.lo, box.hi)
