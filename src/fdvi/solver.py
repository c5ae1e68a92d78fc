"""The mild-solution engine.

One application of the discrete mild operator is

    T(y) = B[f + g(t,y)u] + l,   B[w](t) = I^q w(t) - (t/T) I^q w(T),
    l(t) = (t/T) int_0^T c2(s, y(s)) ds + (1 - t/T) int_0^T c1(s, y(s)) ds,

with f chosen by a constant selection policy from the field's alpha-level
and u solved from the variational inequality at all nodes in one batched
solve.  The bracket B is linear, so the fuzzy part B[f] (phi_part) and the
control part B[g(t,y)u] + l (psi_part) share one convolution of the whole
right-hand side.  Picard sweeps iterate the operator from y = 0; each
sweep applies it once, and the loop applies it once more at the converged
y, under the same overflow guard, for the bundle's u, f and certificates.
The damped step y <- (1 - theta) y + theta T(y) is
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

Every expression of g, Q, c1, c2 and the field's scale and offset is read
through _columns.  One that reads no y has the same column of values at
every sweep of every solve on the same grid, so _y_free_column keeps it per
(expression, grid, n) for the life of the process, read-only.  It is
evaluated where it is first needed, so its domain errors and overflows
surface where they always did; a failed evaluation is not cached and fails
again at its next use.  The t/T column of the kernel bracket and the
boundary term is the grid's own (UniformGrid.t_over_T).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    EvalOverflowError,
    MaxPicardExceeded,
    NonfiniteGridError,
    NonfiniteValue,
)
from .expr import Expression, evaluate
from .fractional import (GridFunction, UniformGrid, _read_csv, caputo_residual, frac_integral, frac_integral_all,
                         trapezoid_integral)
from .problem import ProblemSpec, SelectionPolicy, SolverConfig
from .vi import VIInstance, solve_vi, vi_residual

# Sweeps of history the Anderson step mixes: 0 gives the plain damped step,
# and _anderson_gamma's closed form takes at most 2.
ANDERSON_MEMORY = 2
# Smallest eigenvalue of the Gram matrix of dF, scaled to unit diagonal, below
# which the columns count as dependent and the plain step is taken instead.
_GRAM_FLOOR = 1e-12

_T_ONLY = frozenset({"t"})


@lru_cache(maxsize=128)
def _y_free_column(e: Expression, grid: UniformGrid, n: int) -> np.ndarray:
    """e, which reads no y, at every node of the grid for states in R^n; read-only.

    A failed evaluation raises and is not cached, so it raises again at its
    next use.
    """
    return np.broadcast_to(evaluate(e, grid.nodes, np.zeros(n)), grid.nodes.shape)


def _columns(exprs, y: GridFunction) -> np.ndarray:
    """The expressions at every node of y, evaluated in order; returns (N+1, len(exprs))."""
    out = np.empty((y.grid.N + 1, len(exprs)))
    for j, e in enumerate(exprs):
        out[:, j] = _y_free_column(e, y.grid, y.dim) if e.reads <= _T_ONLY else evaluate(e, y.grid.nodes, y.values)
    return out


def _g_times(spec: ProblemSpec, y: GridFunction, h_vals: np.ndarray) -> np.ndarray:
    """Rows g(t_i, y_i) @ h_i for all nodes; returns (N+1, n)."""
    k, m = h_vals.shape
    g_all = _columns([e for row in spec.g for e in row], y).reshape(k, spec.n, m)
    out = np.zeros((k, spec.n))
    for j in range(m):  # left to right: einsum/np.sum would reassociate and change output bits
        out += g_all[:, :, j] * h_vals[:, j : j + 1]
    return out


def phi_part(spec: ProblemSpec, w: GridFunction) -> GridFunction:
    """The kernel bracket B[w](t) = I^q w(t) - (t/T) I^q w(T); B[f] is the fuzzy part."""
    fi = frac_integral_all(spec.q, w).values
    return GridFunction(w.grid, fi - w.grid.t_over_T[:, None] * fi[-1][None, :])


def _add_boundary_term(spec: ProblemSpec, y: GridFunction, vals: np.ndarray) -> tuple[np.ndarray, ...]:
    """(vals + l, int c1, int c2), with the boundary term l(t) = (t/T) int c2 + (1 - t/T) int c1."""
    ic1 = trapezoid_integral(GridFunction(y.grid, _columns(spec.c1, y)))
    ic2 = trapezoid_integral(GridFunction(y.grid, _columns(spec.c2, y)))
    frac = y.grid.t_over_T[:, None]
    return vals + frac * ic2[None, :] + (1.0 - frac) * ic1[None, :], ic1, ic2


def psi_part(spec: ProblemSpec, y: GridFunction, h: GridFunction) -> GridFunction:
    """Control part: the kernel bracket of g(t,y)h plus the c1/c2 boundary term."""
    gh = GridFunction(y.grid, _g_times(spec, y, h.values))
    return GridFunction(y.grid, _add_boundary_term(spec, y, phi_part(spec, gh).values)[0])


def control_map(spec: ProblemSpec, y: GridFunction, vi_tol: float = 1e-10) -> tuple[GridFunction, np.ndarray]:
    """u(t_i) in SOL(K, Q(t_i, y_i) + S(.)) at every node, as one batched VI solve.

    With y fixed the node problems are independent and share K and S, so
    they are the rows of one instance.  solve_vi returns only when every
    row is certified to vi_tol; a NotConvergedError names the worst node.
    Returns (u, w), w = Q(t_i, y_i) the rows of that instance, so a
    residual check of u reads Q without evaluating it again.
    """
    w = _columns(spec.Q, y)
    return GridFunction(y.grid, solve_vi(VIInstance(spec.K, w, spec.S), tol=vi_tol, start=spec.anchor_u0)), w


def selection_map(spec: ProblemSpec, y: GridFunction, policy: SelectionPolicy) -> GridFunction:
    """f(t_i) = midpoint + (lam/2) width of the alpha-level box at (t_i, y_i)."""
    if policy.dim != spec.n:
        raise DimensionMismatch(f"policy has dimension {policy.dim}, problem n = {spec.n}")
    coeffs = _columns(spec.field.exprs, y)  # scale, offset of each component in turn
    lo, hi = spec.field.levels(coeffs[:, 0::2], coeffs[:, 1::2], spec.alpha)
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
    header, data = _read_csv(path)
    n = sum(1 for name in header if name.startswith("y"))
    m = sum(1 for name in header if name.startswith("u"))
    y = GridFunction(data.grid, data.values[:, :n])
    u = GridFunction(data.grid, data.values[:, n : n + m])
    f = GridFunction(data.grid, data.values[:, n + m : 2 * n + m])
    return y, u, f


def _apply_operator(spec, cfg, policy, y):
    """T(y) with one convolution; returns (T(y), u, f, rhs = f + g(t,y)u, int c1, int c2, Q(t,y))."""
    u, w = control_map(spec, y, vi_tol=cfg.vi_tol)
    f = selection_map(spec, y, policy)
    rhs = GridFunction(y.grid, f.values + _g_times(spec, y, u.values))
    ty, ic1, ic2 = _add_boundary_term(spec, y, phi_part(spec, rhs).values)
    return ty, u, f, rhs, ic1, ic2, w


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
    NonfiniteValue if an application blows up, the final one included.
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
    history: list[float] = []
    past: list[tuple[np.ndarray, np.ndarray, float]] = []
    # the pass after the converged sweep only applies the operator, at the returned y
    for sweep in range(1, cfg.max_picard + 2):
        try:
            # Overflow raises here instead of warning, and inf/NaN never
            # get past the expression evaluator or GridFunction.
            with np.errstate(over="raise"):
                ty, u, f, rhs, ic1, ic2, w = _apply_operator(spec, cfg, policy, y)
                if history and history[-1] <= cfg.picard_tol:
                    break
                fy = ty - y.values
                current = (y.values, fy, float(np.max(np.abs(fy))))
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
        if sweep == cfg.max_picard and res > cfg.picard_tol:
            raise MaxPicardExceeded(
                f"no fixed point within {cfg.max_picard} sweeps (last change {res:.3e})",
                residual_history=history,
            )
    recheck = float(np.max(np.abs(ty - y.values)))
    max_vi = float(np.max(vi_residual(VIInstance(spec.K, w, spec.S), u.values)))
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
    """One solve per (alpha, lambda) pair, alpha-major.

    Every alpha and lambda is checked before the first solve, so a bad one
    raises before any work is done.  Only a solve's failure is captured, in
    its run.
    """
    specs = [dataclasses.replace(spec, alpha=float(alpha)) for alpha in alphas]
    policies = [SelectionPolicy(np.broadcast_to(np.atleast_1d(np.asarray(lam, dtype=float)), (spec.n,)).copy())
                for lam in lambdas]
    runs: list[BandRun] = []
    for spec_a in specs:
        for policy in policies:
            try:
                bundle = picard_solve(spec_a, cfg, policy)
                runs.append(BandRun(spec_a.alpha, policy.lam, bundle, None))
            except Exception as exc:  # per-run status, partial results are useful
                runs.append(BandRun(spec_a.alpha, policy.lam, None, f"{type(exc).__name__}: {exc}"))
    return runs


def band_envelope(runs: list[BandRun]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node min/max of y over the converged runs: (nodes, ymin, ymax)."""
    bundles = [r.bundle for r in runs if r.bundle is not None]
    if not bundles:
        raise ValueError("no converged runs to build an envelope from")
    nodes = bundles[0].y.grid.nodes
    stack = np.stack([b.y.values for b in bundles])
    return nodes, stack.min(axis=0), stack.max(axis=0)
