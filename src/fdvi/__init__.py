"""Solver and hypothesis verifier for fuzzy fractional differential
variational inequalities with integral boundary conditions."""

from .errors import (
    AnchorNotFeasible,
    ConfigError,
    DimensionMismatch,
    DomainError,
    FdviError,
    GridTooCoarse,
    IndexOutOfRange,
    MaxPicardExceeded,
    NonfiniteValue,
    NonMonotoneError,
    NotConvergedError,
    PoleError,
)
from .expr import Expression, parse
from .fractional import GridFunction, UniformGrid, caputo_residual, frac_integral, frac_integral_all, trapezoid_integral
from .fuzzy import FieldComponent, FuzzyBoxField, FuzzyIntervalNumber, fuzzy_metric, hausdorff
from .hypotheses import (
    HypothesisReport,
    SamplingDomain,
    check_coercivity,
    compute_delta,
    compute_eta_s,
    compute_rho,
    estimate_constants,
    verify,
)
from .problem import ProblemSpec, SelectionPolicy, SolverConfig
from .solver import (
    SolutionBundle,
    band_envelope,
    control_map,
    phi_part,
    picard_solve,
    psi_part,
    selection_map,
    solve_band,
)
from .special import gamma
from .vi import AffineOperator, BoxSet, VIInstance, solve_vi, vi_residual

__version__ = "0.1.0"
