"""Node-level variational inequality: find u in K with <w + S(u), v - u> >= 0.

K is a box (endpoints may be infinite) and S(u) = M u + b is affine;
AffineOperator.monotone and .strongly_monotone classify S for every caller.
The constant term w is one vector (m,) or a batch (k, m) of independent
problems that share K and S; solutions and residuals then come row by row.
For a strongly monotone S each solution is unique and the projected
fixed-point iteration u <- P_K(u - gamma (w + S(u))) with gamma = mu / L^2
is a contraction, run on all rows at once.  It returns the first iterate
whose every row has ||u - P_K(u - F(u))|| <= tol, F = w + S; each F(u)
serves both the step and that residual, which is taken only after a step
short enough for the iterate to certify.  L is the exact spectral norm
||M||_2: the contraction holds for gamma < 2 mu / L^2, which an
underestimate of L can break.  For merely monotone S the solver takes a
single instance and runs proximal point steps from P_K(start): each step is
the strongly monotone VI of S + c I, anchored at the last step, with c
falling tenfold per step, and the first step whose residual is within tol
is returned.  The steps converge to a solution; started at 0, they reach
the least-norm one on the degenerate instances the tests pin.

The batch runs component-major: the iteration and the residual transpose
the (k, m) rows once to an (m, k) array, so each clamp, each product with M
and each sum of squares runs over k contiguous values instead of numpy's
inner loop once per row over m values (k is the grid's node count, m often
2).  The bits are the row-major ones: M @ u.T is (u @ M.T).T, and
_column_sumsq adds each row's squares in the order np.linalg.norm does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DomainError, NonMonotoneError, NotConvergedError

MONOTONE_TOL = 1e-10
STRONG_MU = 1e-12


@dataclass(frozen=True)
class AffineOperator:
    """S(u) = M u + b with monotonicity read off the symmetric part of M."""

    M: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionMismatch("operator matrix must be square")
        if b.shape != (M.shape[0],):
            raise DimensionMismatch("operator shift has wrong length")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return u @ self.M.T + self.b

    @cached_property
    def mu(self) -> float:
        """Smallest eigenvalue of the symmetric part (strong monotonicity modulus)."""
        sym = 0.5 * (self.M + self.M.T)
        return float(np.linalg.eigvalsh(sym)[0])

    @property
    def monotone(self) -> bool:
        """<S(u) - S(v), u - v> >= 0 up to MONOTONE_TOL: the VI is solvable as posed."""
        return self.mu >= -MONOTONE_TOL

    @property
    def strongly_monotone(self) -> bool:
        """mu > STRONG_MU: every VI with this S has exactly one solution."""
        return self.mu > STRONG_MU

    @cached_property
    def lipschitz(self) -> float:
        """Exact spectral norm ||M||_2, the Lipschitz constant of S."""
        return float(np.linalg.norm(self.M, 2))

    def shifted(self, eps: float) -> "AffineOperator":
        return AffineOperator(self.M + eps * np.eye(self.dim), self.b)


ANCHOR_TOL = 1e-12  # how far outside K the anchor u0 may lie and still count as in K


class BoxSet:
    """An axis-aligned box in R^n, stored as lo/hi arrays; endpoints may be +-inf.

    It is both the VI's feasible set K (the orthant is a box) and the
    alpha-level of a fuzzy box (fdvi.fuzzy); project is the clamp onto it.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch("box bounds must be 1-d arrays of equal length")
        if np.any(lo > hi):
            raise DomainError("feasible box has lo > hi")
        self.lo = lo
        self.hi = hi

    @classmethod
    def orthant(cls, dim: int) -> "BoxSet":
        return cls(np.zeros(dim), np.full(dim, np.inf))

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi)))

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(f"point has dimension {x.shape[-1]}, set {self.dim}")
        return np.clip(x, self.lo, self.hi)

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(f"point has dimension {x.shape[-1]}, set {self.dim}")
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))


@dataclass(frozen=True)
class VIInstance:
    """One VI, or a batch of them when w has shape (k, m)."""

    k: BoxSet
    w: np.ndarray
    s: AffineOperator

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.w, dtype=float))
        object.__setattr__(self, "w", w)
        if w.ndim > 2 or not (self.k.dim == w.shape[-1] == self.s.dim):
            raise DimensionMismatch(
                f"inconsistent dimensions: K {self.k.dim}, w {w.shape}, S {self.s.dim}"
            )

    def operator(self, u: np.ndarray) -> np.ndarray:
        return self.w + self.s(u)


def _column_sumsq(d: np.ndarray):
    """Sum of squares down each column of a component-major (m, k) array, or of an (m,) vector.

    The bits are those np.linalg.norm(d.T, axis=-1) takes the root of:
    numpy adds fewer than 8 terms left to right, as the loop here does, and
    8 or more pairwise, so those are summed in numpy's own row-major layout.
    """
    if d.shape[0] >= 8:
        rows = np.ascontiguousarray(d.T)
        return np.add.reduce(rows * rows, axis=-1)
    out = d[0] * d[0]
    for row in d[1:]:
        out += row * row
    return out


class _ComponentMajor:
    """A VI instance transposed once: w as (m, k) or (m,), with b, lo and hi as columns."""

    __slots__ = ("w", "M", "b", "lo", "hi")

    def __init__(self, inst: VIInstance, w: np.ndarray):
        self.w = np.ascontiguousarray(w.T)
        col = (-1,) + (1,) * (w.ndim - 1)
        self.M = inst.s.M
        self.b = inst.s.b.reshape(col)
        self.lo = inst.k.lo.reshape(col)
        self.hi = inst.k.hi.reshape(col)

    def operator(self, u: np.ndarray) -> np.ndarray:
        """F(u) = w + M u + b of the component-major u."""
        return self.w + (self.M @ u + self.b)

    def residual_sq(self, u: np.ndarray, fu: np.ndarray):
        """Squared natural-map residual of each column of the component-major u, from its F(u)."""
        return _column_sumsq(u - np.clip(u - fu, self.lo, self.hi))


def vi_residual(inst: VIInstance, u):
    """Natural-map residual ||u - P_K(u - (w + S(u)))|| of each row; zero iff u solves the VI.

    A float for a single point, an array of k values for a batch.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.ndim > 2 or u.shape[-1] != inst.k.dim:
        raise DimensionMismatch(f"point has shape {u.shape}, instance dimension {inst.k.dim}")
    shape = np.broadcast_shapes(u.shape, inst.w.shape)
    cm = _ComponentMajor(inst, np.broadcast_to(inst.w, shape))
    u = np.ascontiguousarray(np.broadcast_to(u, shape).T)
    res = np.sqrt(cm.residual_sq(u, cm.operator(u)))
    return float(res) if res.ndim == 0 else res


def _solve_strong(inst: VIInstance, mu: float, tol: float, max_iter: int, u0: np.ndarray) -> tuple[np.ndarray, int]:
    """Projected iteration on every row at once; (the first iterate whose worst row certifies, steps taken).

    A row's step ||u - P_K(u - gamma F(u))|| is at most max(1, gamma) times
    its residual ||u - P_K(u - F(u))|| (Gafni & Bertsekas, 1984), so after a
    longer step no iterate can certify and its residual is not taken.
    """
    lip = inst.s.lipschitz
    gamma = mu / (lip * lip)
    longest = max(1.0, gamma) * tol  # a longer step proves its row uncertified
    cm = _ComponentMajor(inst, inst.w)
    u = np.broadcast_to(u0.reshape(cm.b.shape), cm.w.shape)
    for it in range(max_iter + 1):
        fu = cm.operator(u)
        u_next = np.clip(u - gamma * fu, cm.lo, cm.hi)
        # the root is monotone, so the largest row norm is the root of the largest sum
        if it == max_iter or math.sqrt(float(np.max(_column_sumsq(u_next - u)))) <= longest:
            sq = cm.residual_sq(u, fu)
            if math.sqrt(float(np.max(sq))) <= tol:
                return np.array(u.T, order="C"), it  # a copy, also of the broadcast start
        u = u_next
    res = np.atleast_1d(np.sqrt(sq))
    worst = int(np.argmax(res))
    raise NotConvergedError(
        f"projected fixed point did not reach tol {tol} in {max_iter} iterations (worst row {worst})",
        residual=float(res[worst]),
        iterations=max_iter,
        node=worst,
    )


def _solve_newton_box(inst: VIInstance, tol: float, max_iter: int, u0: np.ndarray) -> np.ndarray:
    """Semismooth Newton on the normal map for box sets (each proximal step of the mu ~ 0 path)."""
    k = inst.k
    m = inst.s.M
    eye = np.eye(inst.s.dim)
    z = u0 - inst.operator(u0)
    for _ in range(max_iter):
        u = k.project(z)
        g = inst.operator(u) + (z - u)
        if np.linalg.norm(g) <= 0.1 * tol:
            break
        interior = (z > k.lo) & (z < k.hi)
        d = np.diag(interior.astype(float))
        jac = m @ d + (eye - d)
        try:
            step = np.linalg.solve(jac, g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac + 1e-12 * eye, g, rcond=None)[0]
        z = z - step
    return k.project(z)


_PROXIMAL_STEPS = 12


def _solve_monotone(inst: VIInstance, tol: float, max_iter: int, u0: np.ndarray) -> np.ndarray:
    """mu ~ 0: proximal point steps (Rockafellar, 1976) from u0 toward a solution.

    Step j solves the strongly monotone VI with operator (w - c u_j) + (S + c I)
    to tol by semismooth Newton, with the projected iteration from Newton's
    point as the fallback; c starts at ||M||_2 (1 if that is 0) and falls
    tenfold per step.  It returns the first step whose residual on the
    instance itself is within tol.
    """
    c = inst.s.lipschitz or 1.0
    u = u0
    for step in range(1, _PROXIMAL_STEPS + 1):
        sub = VIInstance(inst.k, inst.w - c * u, inst.s.shifted(c))
        u = _solve_newton_box(sub, tol, 100, u)
        try:  # returns Newton's u at once when it certifies
            u, _ = _solve_strong(sub, inst.s.mu + c, tol, max_iter, u)
        except NotConvergedError:
            break  # u is this step's Newton point
        if vi_residual(inst, u) <= tol:
            return u
        c /= 10.0
    raise NotConvergedError(
        f"{step} proximal steps did not certify a solution at tol {tol} "
        "(the monotone problem may have an empty solution set)",
        residual=vi_residual(inst, u),
        iterations=step,
    )


def solve_vi(inst: VIInstance, tol: float = 1e-10, max_iter: int = 100_000, start=None) -> np.ndarray:
    """Solve the VI: the unique solution for strongly monotone S, else one reached by proximal steps.

    A batch w of shape (k, m) is solved as k independent rows, every row
    started from P_K(start), and returns (k, m) once every row's residual is
    within tol.  Raises NonMonotoneError unless S.monotone, NotConvergedError
    (node = the worst row) when the residual target is not met, and
    DimensionMismatch for a batch when S is not S.strongly_monotone, since
    that path solves one instance at a time.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
    mu = inst.s.mu
    if not inst.s.monotone:
        raise NonMonotoneError(f"operator is not monotone: mu = {mu:.3e}")
    u0 = inst.k.project(np.zeros(inst.s.dim) if start is None else np.asarray(start, dtype=float))
    if inst.s.strongly_monotone:
        u, _ = _solve_strong(inst, mu, tol, max_iter, u0)
    elif inst.w.ndim == 1:
        u = _solve_monotone(inst, tol, max_iter, u0)
    else:
        raise DimensionMismatch(f"a monotone S with mu = {mu:.3e} takes one instance, got a batch of {inst.w.shape[0]}")
    return u
