"""Problem data: the full instance, selection policies, and solver knobs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, NonMonotoneError
from .expr import Expression
from .fuzzy import FuzzyBoxField
from .vi import AffineOperator, BoxSet


@dataclass(frozen=True)
class ProblemSpec:
    """One instance: fractional order, horizon, fuzzy field, couplings, VI data.

    The state y lives in R^n, the control u in R^m.  g is an n x m matrix of
    expressions, Q an m-vector, c1/c2 n-vectors; all expressions are functions
    of (t, y1..yn).  S must be strongly monotone for the solver path.
    """

    q: float
    T: float
    n: int
    m: int
    field: FuzzyBoxField
    alpha: float
    g: tuple[tuple[Expression, ...], ...]
    Q: tuple[Expression, ...]
    S: AffineOperator
    K: BoxSet
    c1: tuple[Expression, ...]
    c2: tuple[Expression, ...]
    anchor_u0: np.ndarray

    def __post_init__(self):
        if not 1.0 < self.q <= 2.0:
            raise DomainError(f"fractional order q must lie in (1, 2], got {self.q}")
        if not self.T > 0.0:
            raise DomainError(f"horizon T must be positive, got {self.T}")
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"membership level alpha must lie in [0, 1], got {self.alpha}")
        if self.field.dim != self.n:
            raise DimensionMismatch(f"fuzzy field has dimension {self.field.dim}, expected n = {self.n}")
        if len(self.g) != self.n or any(len(row) != self.m for row in self.g):
            raise DimensionMismatch(f"g must be an {self.n} x {self.m} expression matrix")
        if len(self.Q) != self.m:
            raise DimensionMismatch(f"Q must have {self.m} entries")
        if len(self.c1) != self.n or len(self.c2) != self.n:
            raise DimensionMismatch(f"c1 and c2 must have {self.n} entries")
        if self.S.dim != self.m or self.K.dim != self.m:
            raise DimensionMismatch("S and K must act on R^m")
        anchor = np.atleast_1d(np.asarray(self.anchor_u0, dtype=float))
        if anchor.shape != (self.m,):
            raise DimensionMismatch(f"anchor u0 must have length {self.m}")
        object.__setattr__(self, "anchor_u0", anchor)
        if not self.S.monotone:
            raise NonMonotoneError(f"S is not monotone: mu = {self.S.mu:.3e}")
        if not self.S.strongly_monotone:
            raise DomainError("the solver path requires strongly monotone S (mu > 0)")


@dataclass(frozen=True)
class SelectionPolicy:
    """Constant-in-time selection parameter lam in [-1, 1]^n.

    lam = 0 picks level-set midpoints, lam = +-1 the extreme corners.
    """

    lam: np.ndarray

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        if not np.all(np.abs(lam) <= 1.0):  # NaN fails the comparison too
            raise DomainError("selection parameter components must lie in [-1, 1]")
        object.__setattr__(self, "lam", lam)

    @classmethod
    def constant(cls, value: float, n: int) -> "SelectionPolicy":
        return cls(np.full(n, float(value)))

    @property
    def dim(self) -> int:
        return self.lam.shape[0]


@dataclass(frozen=True)
class SolverConfig:
    N: int = 1000
    picard_tol: float = 1e-9
    max_picard: int = 500
    damping: float = 1.0
    vi_tol: float = 1e-10
    y0: np.ndarray | None = None  # optional constant initial trajectory

    def __post_init__(self):
        if self.N < 8:
            raise DomainError(f"grid resolution N must be >= 8, got {self.N}")
        for name in ("picard_tol", "vi_tol"):
            tol = getattr(self, name)
            if not (math.isfinite(tol) and tol > 0.0):
                raise DomainError(f"{name} must be finite and positive, got {tol}")
        if not 0.0 < self.damping <= 1.0:
            raise DomainError(f"damping must lie in (0, 1], got {self.damping}")
        if self.max_picard < 1:
            raise DomainError("max_picard must be at least 1")
        if self.y0 is not None:
            y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
            if not np.all(np.isfinite(y0)):
                raise DomainError(f"y0 must be finite, got {y0.tolist()}")
            object.__setattr__(self, "y0", y0)
