"""The mild-solution engine.

One application of the discrete mild operator is

    T(y) = B[f + g(t,y)u] + l,   B[w](t) = I^q w(t) - (t/T) I^q w(T),
    l(t) = (t/T) int_0^T c2(s, y(s)) ds + (1 - t/T) int_0^T c1(s, y(s)) ds,

with f chosen by a constant selection policy from the field's alpha-level
and u solved from the variational inequality at all nodes in one batched
solve.  The bracket B is linear, so the fuzzy part B[f] (phi_part) and the
control part B[g(t,y)u] + l (psi_part) share one convolution of the whole
right-hand side.  Damped Picard sweeps y <- (1 - theta) y + theta T(y)
iterate the operator from y = 0.  Convergence is monitored empirically:
the fuzzy part is a set-valued contraction when rho = 2 L_F T^q / Gamma(q+1)
is below one (fdvi.hypotheses estimates it).
"""

from __future__ import annotations

import csv
import dataclasses
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


def _eval_grid(exprs, ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Evaluate a sequence of expressions over all nodes; returns (N+1, len(exprs))."""
    out = np.empty((ts.shape[0], len(exprs)))
    for j, e in enumerate(exprs):
        out[:, j] = np.broadcast_to(np.asarray(evaluate(e, ts, ys), dtype=float), ts.shape)
    return out


def _g_times(spec: ProblemSpec, ts: np.ndarray, ys: np.ndarray, h_vals: np.ndarray) -> np.ndarray:
    """Rows g(t_i, y_i) @ h_i for all nodes; returns (N+1, n)."""
    m = h_vals.shape[1]
    g_all = _eval_grid([e for row in spec.g for e in row], ts, ys).reshape(ts.shape[0], spec.n, m)
    out = np.zeros((ts.shape[0], spec.n))
    for j in range(m):  # left to right: einsum/np.sum would reassociate and change output bits
        out += g_all[:, :, j] * h_vals[:, j : j + 1]
    return out


def phi_part(spec: ProblemSpec, w: GridFunction) -> GridFunction:
    """The kernel bracket B[w](t) = I^q w(t) - (t/T) I^q w(T); B[f] is the fuzzy part."""
    fi = frac_integral_all(spec.q, w).values
    return GridFunction(w.grid, fi - (w.grid.nodes / spec.T)[:, None] * fi[-1][None, :])


def _add_boundary_term(spec: ProblemSpec, y: GridFunction, vals: np.ndarray) -> tuple[np.ndarray, ...]:
    """(vals + l, int c1, int c2), with the boundary term l(t) = (t/T) int c2 + (1 - t/T) int c1."""
    ts = y.grid.nodes
    ic1 = trapezoid_integral(GridFunction(y.grid, _eval_grid(spec.c1, ts, y.values)))
    ic2 = trapezoid_integral(GridFunction(y.grid, _eval_grid(spec.c2, ts, y.values)))
    frac = (ts / spec.T)[:, None]
    return vals + frac * ic2[None, :] + (1.0 - frac) * ic1[None, :], ic1, ic2


def psi_part(spec: ProblemSpec, y: GridFunction, h: GridFunction) -> GridFunction:
    """Control part: the kernel bracket of g(t,y)h plus the c1/c2 boundary term."""
    gh = GridFunction(y.grid, _g_times(spec, y.grid.nodes, y.values, h.values))
    return GridFunction(y.grid, _add_boundary_term(spec, y, phi_part(spec, gh).values)[0])


def control_map(spec: ProblemSpec, y: GridFunction, vi_tol: float = 1e-10) -> GridFunction:
    """u(t_i) in SOL(K, Q(t_i, y_i) + S(.)) at every node, as one batched VI solve.

    With y fixed the node problems are independent and share K and S, so
    they are the rows of one instance.  solve_vi returns only when every
    row is certified to vi_tol; a NotConvergedError names the worst node.
    """
    w_all = _eval_grid(spec.Q, y.grid.nodes, y.values)
    u = solve_vi(VIInstance(spec.K, w_all, spec.S), tol=vi_tol, start=spec.anchor_u0)
    return GridFunction(y.grid, u)


def selection_map(spec: ProblemSpec, y: GridFunction, policy: SelectionPolicy) -> GridFunction:
    """f(t_i) = midpoint + (lam/2) width of the alpha-level box at (t_i, y_i)."""
    if policy.dim != spec.n:
        raise DimensionMismatch(f"policy has dimension {policy.dim}, problem n = {spec.n}")
    lo, hi = spec.field.level_arrays(y.grid.nodes, y.values, spec.alpha)
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


def _apply_operator(spec, cfg, policy, y):
    """T(y) with one convolution; returns (T(y), u, f, rhs = f + g(t,y)u, int c1, int c2)."""
    u = control_map(spec, y, vi_tol=cfg.vi_tol)
    f = selection_map(spec, y, policy)
    rhs = GridFunction(y.grid, f.values + _g_times(spec, y.grid.nodes, y.values, u.values))
    ty, ic1, ic2 = _add_boundary_term(spec, y, phi_part(spec, rhs).values)
    return ty, u, f, rhs, ic1, ic2


def picard_solve(
    spec: ProblemSpec,
    cfg: SolverConfig | None = None,
    policy: SelectionPolicy | None = None,
) -> SolutionBundle:
    """Iterate the discrete mild operator to a fixed point.

    Starts from y = 0 (or cfg.y0), recomputes the control trajectory from
    scratch every sweep, and stops when the sup-node change drops below
    picard_tol.  Raises MaxPicardExceeded with the residual history when
    the cap is hit and NonfiniteValue if an iterate blows up.
    """
    cfg = cfg or SolverConfig()
    policy = policy or SelectionPolicy.constant(0.0, spec.n)
    grid = UniformGrid(spec.T, cfg.N)
    if cfg.y0 is None:
        y = GridFunction.zeros(grid, spec.n)
    else:
        y = GridFunction(grid, np.tile(cfg.y0, (grid.N + 1, 1)))
    history: list[float] = []
    theta = cfg.damping
    converged = False
    for sweep in range(1, cfg.max_picard + 1):
        try:
            # Overflow raises here instead of warning, and inf/NaN never
            # get past the expression evaluator or GridFunction.
            with np.errstate(over="raise"):
                ty = _apply_operator(spec, cfg, policy, y)[0]
                new_vals = (1.0 - theta) * y.values + theta * ty
                res = float(np.max(np.abs(new_vals - y.values)))
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
    ty, u, f, rhs, ic1, ic2 = _apply_operator(spec, cfg, policy, y)
    recheck = float(np.max(np.abs(ty - y.values)))
    w_all = _eval_grid(spec.Q, grid.nodes, y.values)
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
