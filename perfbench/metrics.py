"""The layer -> end-to-end -> workload predictions of the per-layer metrics.

Names and units of every metric live in BENCHMARK.json; this table adds,
for each per-layer metric, the end-to-end metric and workload a change to
that layer should move.  run_all.py copies it into its summary.
"""

_SOLVES = "op_wall_s_mean on solve-n1000 (and on the solve-n4000 scaling probe)"
_CONVOLUTION = ("op_wall_s_mean on solve-n1000, a small share there; it grows as N^2 and"
                " dominates at large N (solve-n4000 scaling probe)")

PREDICTIONS = {
    "vi.solve_vi.calls": _SOLVES + "; zero on verify",
    "vi.solve_vi.self_s": _SOLVES + "; zero on verify",
    "vi.vi_residual.calls": _SOLVES + "; zero on verify",
    "vi.vi_residual.self_s": _SOLVES + "; zero on verify",
    "vi.residuals_per_solve": _SOLVES + "; zero on verify",
    "solver.control_map.calls": _SOLVES,
    "solver.control_map.self_s": _SOLVES,
    "solver.selection_map.self_s": _SOLVES,
    "solver.phi_part.self_s": _SOLVES,
    "solver.psi_part.self_s": _SOLVES,
    "solver.picard_solve.self_s": _SOLVES,
    "solver.sweeps": _SOLVES,
    "solver.operator_calls_per_sweep": _SOLVES + " (17/16 today: the epilogue re-applies the operator)",
    "solver.rho_warning_s": _SOLVES,
    "solver.write_s": _SOLVES,
    "solver.bytes_written": _SOLVES,
    "fractional.frac_integral_all.calls": _CONVOLUTION,
    "fractional.frac_integral_all.self_s": _CONVOLUTION,
    "fractional.caputo_residual.self_s": _CONVOLUTION,
    "fractional.frac_integral.self_s": _CONVOLUTION,
    "fractional.trapezoid_integral.self_s": _CONVOLUTION,
    "fuzzy.fuzzy_metric.calls": "op_wall_s_mean on verify; never called by the solves",
    "fuzzy.fuzzy_metric.self_s": "op_wall_s_mean on verify; never called by the solves",
    "fuzzy.level_arrays.calls": "op_wall_s_mean on verify",
    "fuzzy.level_arrays.self_s": "op_wall_s_mean on verify",
    "hypotheses.estimate_field_lipschitz.self_s": "op_wall_s_mean on verify",
    "hypotheses.estimate_constants.self_s": "op_wall_s_mean on verify",
    "hypotheses.check_coercivity.self_s": "op_wall_s_mean on verify",
    "hypotheses.pattern_maximize.self_s": "op_wall_s_mean on verify",
    "hypotheses.polish_share": "op_wall_s_mean on verify",
    "expr.evaluate.calls": "op_wall_s_mean on every workload, mostly verify; work moved into build_problem shows in setup_s",
    "expr.evaluate.self_s": "op_wall_s_mean on every workload, mostly verify; work moved into build_problem shows in setup_s",
    "trace.op_wall_s": "n/a: mean wall time of a traced operation, the base of every traced share",
    "trace.overhead": "n/a: traced wall / untraced wall - 1, the cost of tracing itself",
}
