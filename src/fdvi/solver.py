"""The mild-solution engine.

One application of the discrete mild operator is

    T(y) = B[f + g(t,y)u] + l,   B[w](t) = I^q w(t) - (t/T) I^q w(T),
    l(t) = (t/T) int_0^T c2(s, y(s)) ds + (1 - t/T) int_0^T c1(s, y(s)) ds,

with f chosen by a constant selection policy from the field's alpha-level
and u solved from the variational inequality at all nodes in one batched
solve.  The bracket B is linear, so the fuzzy part B[f] (phi_part) and the
control part B[g(t,y)u] + l (psi_part) share one convolution of the whole
right-hand side.  Picard sweeps iterate the operator from y = 0; each
sweep applies it once.  The damped step y <- (1 - theta) y + theta T(y) is
accelerated by Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 2011) over
the last ANDERSON_MEMORY sweeps: with the residuals f = T(y) - y and the
columns dY, dF of differences of the recent iterates and residuals, the
step is y + theta f - (dY + theta dF) gamma, gamma the least-squares fit of f
by dF.  gamma solves the Gram system scaled to unit diagonal, [[1, r], [r, 1]],
in closed form; its smallest eigenvalue is 1 - |r|.  The mixing is gated on
contraction: the plain damped step is taken on the first sweep, when that
eigenvalue says the columns of dF are dependent, and whenever max|f| did not
fall below the previous sweep's, so a sweep that does not contract is never
extrapolated.  Convergence is monitored empirically: the fuzzy part is a
set-valued contraction when rho = 2 L_F T^q / Gamma(q+1) is below one
(fdvi.hypotheses estimates it).

The grid is fixed for a whole solve, so an expression that reads no y has
the same column of values at every sweep.  A solve keeps one _Columns
cache: each such expression (in g, Q, c1, c2 or the field's scale and
offset) is evaluated where it is first needed in sweep 1, so its domain
errors and overflows surface where they always did, and is read back after
that.  The cache also holds the grid's t/T column, which the kernel bracket
and the boundary term share.  It lives for one picard_solve call.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EvalOverflowError,
    MaxPicardExceeded,
    NonfiniteGridError,
    NonfiniteValue,
)
from .expr import evaluate
from .fractional import GridFunction, UniformGrid, caputo_residual, frac_integral, frac_integral_all, trapezoid_integral
from .problem import ProblemSpec, SelectionPolicy, SolverConfig
from .vi import VIInstance, solve_vi, vi_residual

# Sweeps of history the Anderson step mixes: 0 gives the plain damped step,
# and _anderson_gamma's closed form takes at most 2.
ANDERSON_MEMORY = 2
# Smallest eigenvalue of the Gram matrix of dF, scaled to unit diagonal, below
# which the columns count as dependent and the plain step is taken instead.
_GRAM_FLOOR = 1e-12

_T_ONLY = frozenset({"t"})


class _Columns:
    """Expression values over one grid's nodes, with the y-free ones kept for the solve."""

    __slots__ = ("ts", "frac", "_fixed")

    def __init__(self, spec: ProblemSpec, ts: np.ndarray):
        self.ts = ts
        self.frac = (ts / spec.T)[:, None]
        self._fixed: dict[int, np.ndarray] = {}  # id of an expression that reads no y -> its values

    def evaluate(self, e, ts, ys):
        """evaluate(e, ts, ys) at these nodes, computed once if e reads no y."""
        value = self._fixed.get(id(e))
        if value is None:
            value = evaluate(e, ts, ys)
            if e.reads <= _T_ONLY:
                self._fixed[id(e)] = value
        return value

    def grid(self, exprs, ys: np.ndarray) -> np.ndarray:
        """The expressions over all nodes; returns (N+1, len(exprs))."""
        out = np.empty((self.ts.shape[0], len(exprs)))
        for j, e in enumerate(exprs):
            out[:, j] = self.evaluate(e, self.ts, ys)
        return out


def _g_times(spec: ProblemSpec, ts: np.ndarray, ys: np.ndarray, h_vals: np.ndarray,
             cols: _Columns | None = None) -> np.ndarray:
    """Rows g(t_i, y_i) @ h_i for all nodes; returns (N+1, n)."""
    cols = cols or _Columns(spec, ts)
    m = h_vals.shape[1]
    g_all = cols.grid([e for row in spec.g for e in row], ys).reshape(ts.shape[0], spec.n, m)
    out = np.zeros((ts.shape[0], spec.n))
    for j in range(m):  # left to right: einsum/np.sum would reassociate and change output bits
        out += g_all[:, :, j] * h_vals[:, j : j + 1]
    return out


def phi_part(spec: ProblemSpec, w: GridFunction, cols: _Columns | None = None) -> GridFunction:
    """The kernel bracket B[w](t) = I^q w(t) - (t/T) I^q w(T); B[f] is the fuzzy part."""
    cols = cols or _Columns(spec, w.grid.nodes)
    fi = frac_integral_all(spec.q, w).values
    return GridFunction(w.grid, fi - cols.frac * fi[-1][None, :])


def _add_boundary_term(spec: ProblemSpec, y: GridFunction, vals: np.ndarray,
                       cols: _Columns) -> tuple[np.ndarray, ...]:
    """(vals + l, int c1, int c2), with the boundary term l(t) = (t/T) int c2 + (1 - t/T) int c1."""
    ic1 = trapezoid_integral(GridFunction(y.grid, cols.grid(spec.c1, y.values)))
    ic2 = trapezoid_integral(GridFunction(y.grid, cols.grid(spec.c2, y.values)))
    return vals + cols.frac * ic2[None, :] + (1.0 - cols.frac) * ic1[None, :], ic1, ic2


def psi_part(spec: ProblemSpec, y: GridFunction, h: GridFunction) -> GridFunction:
    """Control part: the kernel bracket of g(t,y)h plus the c1/c2 boundary term."""
    cols = _Columns(spec, y.grid.nodes)
    gh = GridFunction(y.grid, _g_times(spec, y.grid.nodes, y.values, h.values, cols))
    return GridFunction(y.grid, _add_boundary_term(spec, y, phi_part(spec, gh, cols).values, cols)[0])


def control_map(spec: ProblemSpec, y: GridFunction, vi_tol: float = 1e-10,
                cols: _Columns | None = None) -> GridFunction:
    """u(t_i) in SOL(K, Q(t_i, y_i) + S(.)) at every node, as one batched VI solve.

    With y fixed the node problems are independent and share K and S, so
    they are the rows of one instance.  solve_vi returns only when every
    row is certified to vi_tol; a NotConvergedError names the worst node.
    """
    w_all = (cols or _Columns(spec, y.grid.nodes)).grid(spec.Q, y.values)
    u = solve_vi(VIInstance(spec.K, w_all, spec.S), tol=vi_tol, start=spec.anchor_u0)
    return GridFunction(y.grid, u)


def selection_map(spec: ProblemSpec, y: GridFunction, policy: SelectionPolicy,
                  cols: _Columns | None = None) -> GridFunction:
    """f(t_i) = midpoint + (lam/2) width of the alpha-level box at (t_i, y_i)."""
    if policy.dim != spec.n:
        raise DimensionMismatch(f"policy has dimension {policy.dim}, problem n = {spec.n}")
    cols = cols or _Columns(spec, y.grid.nodes)
    lo, hi = spec.field.level_arrays(y.grid.nodes, y.values, spec.alpha, cols.evaluate)
    mid = 0.5 * (lo + hi)
    return GridFunction(y.grid, mid + 0.5 * policy.lam[None, :] * (hi - lo))


@dataclass
class SolutionBundle:
    """Converged trajectories plus certificates.

    y is the mild trajectory, u the variational control trajectory, f the
    fuzzy selection actually used; diagnostics carries the residual history
    and the certificate values.
    """

    y: GridFunction
    u: GridFunction
    f: GridFunction
    alpha: float
    lam: np.ndarray
    diagnostics: dict

    def write_csv(self, path) -> None:
        """Write "t, y1..yn, u1..um, f1..fn" rows at full double precision."""
        n, m = self.y.dim, self.u.dim
        columns = (
            [f"y{i + 1}" for i in range(n)]
            + [f"u{j + 1}" for j in range(m)]
            + [f"f{i + 1}" for i in range(n)]
        )
        values = np.hstack([self.y.values, self.u.values, self.f.values])
        GridFunction(self.y.grid, values).to_csv(path, columns)


def read_solution_csv(path) -> tuple[GridFunction, GridFunction, GridFunction]:
    """Read a bundle CSV back into (y, u, f) grid functions."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    data = GridFunction.read_csv(path)
    n = sum(1 for name in header if name.startswith("y"))
    m = sum(1 for name in header if name.startswith("u"))
    y = GridFunction(data.grid, data.values[:, :n])
    u = GridFunction(data.grid, data.values[:, n : n + m])
    f = GridFunction(data.grid, data.values[:, n + m : 2 * n + m])
    return y, u, f


def _apply_operator(spec, cfg, policy, y, cols: _Columns | None = None):
    """T(y) with one convolution; returns (T(y), u, f, rhs = f + g(t,y)u, int c1, int c2).

    cols is the solve's column cache; without one, every expression is evaluated afresh.
    """
    cols = cols or _Columns(spec, y.grid.nodes)
    u = control_map(spec, y, vi_tol=cfg.vi_tol, cols=cols)
    f = selection_map(spec, y, policy, cols=cols)
    rhs = GridFunction(y.grid, f.values + _g_times(spec, y.grid.nodes, y.values, u.values, cols))
    ty, ic1, ic2 = _add_boundary_term(spec, y, phi_part(spec, rhs, cols).values, cols)
    return ty, u, f, rhs, ic1, ic2


def _anderson_gamma(f: np.ndarray, dfs: list[np.ndarray]) -> tuple[float, ...] | None:
    """gamma minimising ||f - sum_j gamma_j dfs[j]||_2 for one or two columns, or None if they are dependent.

    The Gram system scaled to unit diagonal is [[1, r], [r, 1]] x = c, with
    c_j = <dfs[j], f> / s_j and s_j = ||dfs[j]||; x = (c - r c') / (1 - r^2)
    and gamma_j = x_j / s_j.  Its smallest eigenvalue is 1 - |r|, which must
    exceed _GRAM_FLOOR.  Every inner product is np.sum of an elementwise
    product: its order of summation is fixed, where BLAS dot's may change
    with the thread count, so the step keeps its bits from run to run.
    """
    scale = [math.sqrt(float(np.sum(a * a))) for a in dfs]
    if not all(s > 0.0 for s in scale):
        return None
    c = [float(np.sum(a * f)) / s for a, s in zip(dfs, scale)]
    if len(dfs) == 1:
        return (c[0] / scale[0],)
    r = float(np.sum(dfs[0] * dfs[1])) / scale[0] / scale[1]
    if 1.0 - abs(r) <= _GRAM_FLOOR:
        return None
    det = (1.0 - r) * (1.0 + r)
    return ((c[0] - r * c[1]) / det / scale[0], (c[1] - r * c[0]) / det / scale[1])


def _next_iterate(ty: np.ndarray, current: tuple, past: list, theta: float) -> np.ndarray:
    """The Anderson-mixed step from y given T(y), or the plain damped step when the gate is shut.

    current is (y, f, max|f|) with f = T(y) - y, and past holds the same
    triples of the previous sweeps, oldest first, at most ANDERSON_MEMORY.
    """
    y, f, f_max = current
    if past and f_max < past[-1][2]:
        sweeps = past + [current]
        dys = [b[0] - a[0] for a, b in zip(sweeps, sweeps[1:])]
        dfs = [b[1] - a[1] for a, b in zip(sweeps, sweeps[1:])]
        gamma = _anderson_gamma(f, dfs)
        if gamma is not None:
            step = y + theta * f
            for g, dy, df in zip(gamma, dys, dfs):
                step = step - g * (dy + theta * df)
            return step
    return (1.0 - theta) * y + theta * ty


def picard_solve(
    spec: ProblemSpec,
    cfg: SolverConfig | None = None,
    policy: SelectionPolicy | None = None,
) -> SolutionBundle:
    """Iterate the discrete mild operator to a fixed point.

    Starts from y = 0 (or cfg.y0), recomputes the control trajectory from
    scratch every sweep, and stops when the sup-node change drops below
    picard_tol.  Each sweep applies the operator once and takes the
    Anderson-mixed step over the last ANDERSON_MEMORY sweeps, or the plain
    damped step on the first sweep, when the Gram matrix is singular, or
    when max|T(y) - y| did not fall below the previous sweep's; so a map
    that does not contract is swept exactly as without mixing.  The
    residual history holds the sup-node change of each sweep's step.
    Raises MaxPicardExceeded with that history when the cap is hit and
    NonfiniteValue if an iterate blows up.
    """
    cfg = cfg or SolverConfig()
    policy = policy or SelectionPolicy.constant(0.0, spec.n)
    grid = UniformGrid(spec.T, cfg.N)
    if cfg.y0 is None:
        y = GridFunction.zeros(grid, spec.n)
    elif cfg.y0.shape != (spec.n,):
        raise DimensionMismatch(f"y0 has shape {cfg.y0.shape}, problem n = {spec.n}")
    else:
        y = GridFunction(grid, np.tile(cfg.y0, (grid.N + 1, 1)))
    cols = _Columns(spec, grid.nodes)
    history: list[float] = []
    past: list[tuple[np.ndarray, np.ndarray, float]] = []
    converged = False
    for sweep in range(1, cfg.max_picard + 1):
        try:
            # Overflow raises here instead of warning, and inf/NaN never
            # get past the expression evaluator or GridFunction.
            with np.errstate(over="raise"):
                ty = _apply_operator(spec, cfg, policy, y, cols)[0]
                f = ty - y.values
                current = (y.values, f, float(np.max(np.abs(f))))
                new_vals = _next_iterate(ty, current, past, cfg.damping)
                res = float(np.max(np.abs(new_vals - y.values)))
                past.append(current)
                del past[: max(0, len(past) - ANDERSON_MEMORY)]
                y = GridFunction(grid, new_vals)
        except (EvalOverflowError, NonfiniteGridError, FloatingPointError) as exc:
            raise NonfiniteValue(
                f"non-finite values while applying the operator at sweep {sweep}: {exc}",
                iteration=sweep, node=-1,
            ) from exc
        history.append(res)
        if res <= cfg.picard_tol:
            converged = True
            break
    if not converged:
        raise MaxPicardExceeded(
            f"no fixed point within {cfg.max_picard} sweeps (last change {history[-1]:.3e})",
            residual_history=history,
        )
    # Recompute the trajectories at the final y so the bundle is self-consistent,
    # and measure how far one more application of the operator moves it.
    ty, u, f, rhs, ic1, ic2 = _apply_operator(spec, cfg, policy, y, cols)
    recheck = float(np.max(np.abs(ty - y.values)))
    w_all = cols.grid(spec.Q, y.values)
    max_vi = float(np.max(vi_residual(VIInstance(spec.K, w_all, spec.S), u.values)))
    # The formula pins the operator output at t = 0 to the c1 trapezoid exactly;
    # checking it on the recheck application verifies the wiring.  The self-gap
    # of the returned iterate is convergence-limited at O(picard residual).
    boundary = float(np.max(np.abs(ty[0] - ic1)))
    boundary_selfgap = float(np.max(np.abs(y.values[0] - ic1)))
    # y'(T) from differentiating the integral representation; reported, never enforced.
    dT = (
        frac_integral(spec.q - 1.0, rhs, grid.N)
        - frac_integral(spec.q, rhs, grid.N) / spec.T
        + (ic2 - ic1) / spec.T
    )
    yprime_gap = float(np.linalg.norm(dT - ic2))
    diagnostics = {
        "alpha": spec.alpha,
        "lambda": policy.lam.tolist(),
        "N": cfg.N,
        "q": spec.q,
        "T": spec.T,
        "damping": cfg.damping,
        "picard_tol": cfg.picard_tol,
        "vi_tol": cfg.vi_tol,
        "iterations": len(history),
        "converged": True,
        "picard_residuals": history,
        "final_residual": history[-1],
        "fixed_point_recheck": recheck,
        "max_vi_residual": max_vi,
        "boundary_residual": boundary,
        "boundary_selfgap": boundary_selfgap,
        "caputo_residual": caputo_residual(spec.q, y, rhs),
        "yprime_T_mismatch": yprime_gap,
    }
    return SolutionBundle(y=y, u=u, f=f, alpha=spec.alpha, lam=policy.lam, diagnostics=diagnostics)


@dataclass
class BandRun:
    """Outcome of one (alpha, lambda) solve inside a band sweep."""

    alpha: float
    lam: np.ndarray
    bundle: SolutionBundle | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.bundle is not None


def solve_band(
    spec: ProblemSpec,
    cfg: SolverConfig,
    alphas,
    lambdas,
) -> list[BandRun]:
    """One solve per (alpha, lambda) pair; failures are captured per run."""
    runs: list[BandRun] = []
    for alpha in alphas:
        spec_a = dataclasses.replace(spec, alpha=float(alpha))
        for lam in lambdas:
            policy = SelectionPolicy(np.broadcast_to(np.atleast_1d(np.asarray(lam, dtype=float)), (spec.n,)).copy())
            try:
                bundle = picard_solve(spec_a, cfg, policy)
                runs.append(BandRun(float(alpha), policy.lam, bundle, None))
            except Exception as exc:  # per-run status, partial results are useful
                runs.append(BandRun(float(alpha), policy.lam, None, f"{type(exc).__name__}: {exc}"))
    return runs


def band_envelope(runs: list[BandRun]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node min/max of y over the converged runs: (nodes, ymin, ymax)."""
    bundles = [r.bundle for r in runs if r.bundle is not None]
    if not bundles:
        raise ValueError("no converged runs to build an envelope from")
    nodes = bundles[0].y.grid.nodes
    stack = np.stack([b.y.values for b in bundles])
    return nodes, stack.min(axis=0), stack.max(axis=0)
