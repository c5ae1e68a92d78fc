"""Sampled verification of the existence hypotheses and their constants.

The assumptions quantify over all of R^n; numerically we sample a declared
state box and report constants "as sampled over Y", refined by a local
pattern search around the best sample.  All estimates are lower bounds of
the true suprema, monotone under sample-count refinement with a fixed seed
(counter-based streams, order-independent max reductions).

CONSTANTS is the report's schema: each reported constant with its norm,
whether it is sampled, and the verdict, if any, that checks it is finite.  The
field Lipschitz constant, p, M0, M1, M2 use the Euclidean norm; the g and
Q bounds use 1-norms (entrywise sum for g), matching how such constants
are usually tabulated for worked instances.
The field Lipschitz constant L_F is measured in the fuzzy metric.  On a
convex box it is the sup over points of the field's local slope, which
FuzzyBoxField.slope computes from forward-mode derivatives of the field's
expressions, so L_F is one more row of estimate_constants' table, sampled
and polished like the rest, with no pairs of states.  A slope that is not
finite (sqrt at 0, say) makes L_F inf: the field is not Lipschitz on the
box, and A1 and the contraction verdict fail.  S's monotonicity is read from
AffineOperator and the anchor's membership in K from BoxSet.contains.

Every objective is batch-native.  Sampling evaluates each constant's
objective over the (time, state) grid in cache-sized blocks of at most
_BLOCK_ROWS rows, and only along the axes its expressions read
(Expression.reads): a constant none of whose expressions reads t is sampled
at the first time only, one none of whose expressions reads y at the first
state only.  The skipped rows or columns would repeat the first one, so the
value and the witness, the first maximum in (time, state) order, are those
of the full grid.  The polish (M0's moves the time alone) evaluates
speculatively: one batch holds the rest of the current pattern-search sweep
and later sweeps at the step each would use if no move improved, so the
halvings that end a search take a few objective calls instead of one per
sweep (see _pattern_maximize).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import AnchorNotFeasible, DomainError
from .expr import evaluate
from .fuzzy import FuzzyBoxField
from .fuzzy import fuzzy_metric  # noqa: F401 -- perfbench/tracing.py patches this binding
from .problem import ProblemSpec
from .special import gamma
from .vi import ANCHOR_TOL, AffineOperator, BoxSet

# Most (time, state) rows one sampling block evaluates.  Blocks this size
# stay in cache.
_BLOCK_ROWS = 2**15
# Rows a polish batch spans after an accepted move.  Below a few hundred rows
# an objective call costs about its fixed overhead, so speculating that far
# costs little even when the next row improves.
_POLISH_ROWS = 256


class Constant(NamedTuple):
    norm: str  # the report's "norms" entry
    sampled: bool = False  # estimate_constants samples it, so a claimed bound may name it
    verdict: str | None = None  # the A1/A3-A5 verdict that checks it is finite


# Every constant of the report's "constants" block, keyed by its report name.
CONSTANTS = {
    "L_F": Constant("euclidean", sampled=True, verdict="A1_lipschitz_field"),
    "p_sup": Constant("euclidean", sampled=True, verdict="A3_field_bound"),
    "eta_g": Constant("entrywise 1-norm", sampled=True, verdict="A4_g_bound"),
    "eta_Q": Constant("1-norm", sampled=True, verdict="A5_Q_bound"),
    "M0": Constant("euclidean", sampled=True),
    "M1": Constant("euclidean", sampled=True),
    "M2": Constant("euclidean", sampled=True),
    "mu": Constant("spectral (symmetric part)"),
    "coercive_liminf": Constant("euclidean"),
    "eta_S": Constant("euclidean"),
}
SAMPLED_CONSTANTS = tuple(name for name, row in CONSTANTS.items() if row.sampled)


def _stream(seed: int, idx: int) -> np.random.Generator:
    """Independent counter-based stream #idx for a seed in [0, 2^64)."""
    # an explicit uint64 key: numpy reads a list holding a seed >= 2^63 as float64
    return np.random.Generator(np.random.Philox(key=np.array([seed, idx], dtype=np.uint64)))


@dataclass(frozen=True)
class SamplingDomain:
    """Where and how densely to sample: a state box, node counts, a seed."""

    y_box_lo: np.ndarray
    y_box_hi: np.ndarray
    t_samples: int = 64
    y_samples: int = 4096
    seed: int = 0

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.y_box_lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.y_box_hi, dtype=float))
        if lo.shape != hi.shape:
            raise DomainError("sampling box endpoints must have equal length")
        if not np.isfinite((lo, hi)).all():
            raise DomainError("sampling box endpoints must be finite")
        if np.any(hi <= lo):
            raise DomainError("sampling box must be nondegenerate (lo < hi)")
        if not all(isinstance(k, numbers.Integral) for k in (self.t_samples, self.y_samples)):
            raise DomainError("sample counts must be integers")
        if self.t_samples < 2 or self.y_samples < 2:
            raise DomainError("sample counts must be at least 2")
        if not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "y_box_lo", lo)
        object.__setattr__(self, "y_box_hi", hi)

    @property
    def dim(self) -> int:
        return self.y_box_lo.shape[0]


def _pattern_maximize(fn, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray, sweeps: int = 80):
    """Deterministic coordinate pattern search; fn maps (k, d) points to (k,) values.

    A sweep tries the moves +step_i, -step_i for each coordinate i in turn
    and accepts each one that beats the best value so far.  A sweep that
    accepts no move halves the step; the search stops after `sweeps` sweeps
    or once the step falls below 1e-14 of the box.  The moves are evaluated
    speculatively: one batch holds the rest of the current sweep and then
    each later sweep at the step it would use if no move improved.  The
    first row of the batch that beats the best value is the move the
    one-at-a-time search accepts; the search takes that row's sweep and
    step and re-batches from the new point.  So its path is exactly that of
    trying the moves one at a time.  fn may return -inf to veto a point.

    The batch after an accepted move spans about _POLISH_ROWS rows (at least
    the rest of the sweep), and each batch in which no move improves doubles
    the next one, up to _BLOCK_ROWS rows.  The halvings that end a search
    then take a few calls, while each accepted move discards at most about
    _POLISH_ROWS rows plus as many as were evaluated since the last one.

    Every step the search takes is the first one halved k times, k <= sweeps,
    so the steps, each move's shift and the first k below the floor are
    tabulated once per search; a batch's schedule is arithmetic on k.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    best = float(fn(x[None])[0])
    d = x.shape[0]
    moves = 2 * d
    # row k: the first step (an eighth of the box) halved k times, one halving
    # at a time; no search halves it more often than it sweeps
    halvings = np.full((sweeps + 1, d), 0.5)
    halvings[0] = (hi - lo) / 8.0
    steps = np.multiply.accumulate(halvings, axis=0)
    axis = np.repeat(np.arange(d), 2)  # move m changes coordinate axis[m] ...
    shifts = np.tile([1.0, -1.0], d) * steps[:, axis]  # ... by shifts[k, m] at step k
    # the first k whose step is below the floor: a halving to it ends the search
    floor = 1e-14 * max(1.0, float(np.max(hi - lo)))
    below = np.flatnonzero(np.max(steps, axis=1) < floor)
    k_floor = int(below[0]) if below.size else sweeps + 1
    max_levels = max(1, _BLOCK_ROWS // moves)
    start_levels = min(max(1, _POLISH_ROWS // moves), max_levels)
    row_axis = np.tile(axis, min(max_levels, sweeps))  # the coordinate of each row of a batch
    row_lo, row_hi = lo[row_axis], hi[row_axis]
    sweep, first, k, improved, levels = 0, 0, 0, False, start_levels
    while True:
        if first == moves:  # the accepted move ended its sweep, which keeps its step
            sweep, first, improved = sweep + 1, 0, False
        if sweep >= sweeps:
            return best, x
        # the next `count` sweeps if no move from `first` on improves: the
        # current one at step k, each later one halving the step (except the
        # next, if the current one improved); the search stops after the
        # halving to the floor or after its last sweep, and `last` says so
        to_floor = max(k + 1, k_floor) - k + improved
        count = min(levels, sweeps - sweep, to_floor)
        last = count == to_floor or sweep + count >= sweeps
        level_k = k + np.maximum(np.arange(count) - improved, 0)
        end = count * moves
        ax = row_axis[first:end]
        trials = np.repeat(x[None], end - first, axis=0)
        trials[np.arange(end - first), ax] = np.minimum(
            np.maximum(x[ax] + shifts[level_k].ravel()[first:], row_lo[first:end]), row_hi[first:end])
        vals = fn(trials)
        better = np.flatnonzero(vals > best)
        if better.size == 0:
            if last:
                return best, x
            sweep, first, k, improved = sweep + count, 0, k + max(0, count - improved), False
            levels = min(2 * levels, max_levels)
            continue
        r = int(better[0])
        level, move = divmod(first + r, moves)
        best, x = float(vals[r]), trials[r]
        sweep, first, k, improved, levels = sweep + level, move + 1, int(level_k[level]), True, start_levels


def _sample_times(t_horizon: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Endpoints first (suprema often sit there), then uniform draws."""
    extra = rng.uniform(0.0, t_horizon, size=max(count - 2, 0))
    return np.concatenate(([0.0, t_horizon], extra))


def _row_sum(exprs, ts, ys, fn) -> np.ndarray:
    """Sum over exprs of fn(expr at (ts, ys)), left to right, in their broadcast shape.

    np.sum reassociates, and the report's constants are written at full
    precision, so the summation order is fixed here.  The sum starts from the
    first term rather than from zeros: fn is abs or square, which never give
    -0.0, so 0.0 + v would be v bit for bit.
    """
    terms = (fn(evaluate(e, ts, ys)) for e in exprs)
    acc = next(terms, 0.0)
    for v in terms:
        acc = acc + v
    shape = np.broadcast_shapes(np.shape(ts), ys.shape[:-1])
    return acc if np.shape(acc) == shape else np.broadcast_to(acc, shape)


def _sample_grid(dom: SamplingDomain, t_horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """The sampled times (stream 1) and states (stream 2) every grid constant is maximised over."""
    ts = _sample_times(t_horizon, dom.t_samples, _stream(dom.seed, 1))
    ys = dom.y_box_lo + (dom.y_box_hi - dom.y_box_lo) * _stream(dom.seed, 2).random((dom.y_samples, dom.dim))
    return ts, ys


def _grid_max(fn, exprs, ts: np.ndarray, states: np.ndarray):
    """(value, t, state) of the first maximum of fn over times x states in (time, state) order.

    fn maps (k, 1) times and (s, n) states to (k, s) values, and reads t and
    y only through the expressions exprs.  An axis that none of them reads is
    sampled at its first point alone: every row (or column) of the full grid
    would hold the same values, so its first maximum in (time, state) order
    lies in the first one, and value and witness are the same bits.  Times
    go in blocks of at most _BLOCK_ROWS grid rows.
    """
    reads = frozenset().union(*(e.reads for e in exprs))
    if "t" not in reads:
        ts = ts[:1]
    if reads <= {"t"}:
        states = states[:1]
    per_block = max(1, _BLOCK_ROWS // states.shape[0])
    best, wt, wy = -math.inf, 0.0, states[0]
    for start in range(0, ts.shape[0], per_block):
        block = ts[start : start + per_block]
        vals = fn(block[:, None], states)
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[i, j] > best:
            best, wt, wy = float(vals[i, j]), float(block[i]), states[j]
    return best, wt, wy


def _polished_max(fn, exprs, ts: np.ndarray, states: np.ndarray, t_horizon: float, box):
    """(value, witness) of _grid_max of fn, refined by pattern search over [0, t_horizon] x box.

    Without a box the state stays at the grid's witness, the search moves the
    time alone and the witness is {"t"}; with one it is {"t", "y"}.
    """
    best, wt, wy = _grid_max(fn, exprs, ts, states)
    if box:
        val, arg = _pattern_maximize(lambda x: fn(x[:, 0], x[:, 1:]), np.append(wt, wy),
                                     np.append(0.0, box[0]), np.append(t_horizon, box[1]))
    else:
        val, arg = _pattern_maximize(lambda x: fn(x[:, 0], wy), np.array([wt]), np.zeros(1), np.array([t_horizon]))
    if val > best:
        best, wt, wy = val, float(arg[0]), arg[1:]
    return best, {"t": wt, "y": wy.tolist()} if box else {"t": wt}


def _field_exprs(field: FuzzyBoxField) -> list:
    """Every scale and offset expression of the field: all that its objectives read."""
    return [e for comp in field.components for e in (comp.scale, comp.offset)]


def estimate_field_lipschitz(
    field: FuzzyBoxField, dom: SamplingDomain, t_horizon: float, polish: bool = True,
) -> float:
    """Largest sampled local slope of the field (FuzzyBoxField.slope) alone.

    With polish it is estimate_constants' L_F, bit for bit; without, the grid
    max alone, for the pre-solve rho warning.  inf means the field is not
    Lipschitz on the box.
    """
    ts, ys = _sample_grid(dom, t_horizon)
    if polish:
        return _polished_max(field.slope, _field_exprs(field), ts, ys, t_horizon, (dom.y_box_lo, dom.y_box_hi))[0]
    return _grid_max(field.slope, _field_exprs(field), ts, ys)[0]


def estimate_constants(spec: ProblemSpec, dom: SamplingDomain) -> dict:
    """Sampled suprema for the hypotheses' constants, keyed by their report names.

    Each constant, L_F too, is one row of one table: the max of its
    objective over one draw of the (t, state) grid, refined by pattern search
    from the first point where it is attained, kept in "witnesses".
    """
    if dom.dim != spec.n:
        raise DomainError(f"sampling box has dimension {dom.dim}, problem n = {spec.n}")
    lo, hi = dom.y_box_lo, dom.y_box_hi
    ts, ys = _sample_grid(dom, spec.T)

    def field_norm(t, states):
        """||F(t,y)|| as the Euclidean norm of the farthest support corner."""
        f_lo, f_hi = spec.field.level_arrays(t, states, 0.0)
        return np.linalg.norm(np.maximum(np.abs(f_lo), np.abs(f_hi)), axis=-1)

    def abs_sum(exprs):
        return lambda t, states: _row_sum(exprs, t, states, np.abs)

    def c_norm(exprs):
        return lambda t, states: np.sqrt(_row_sum(exprs, t, states, np.square))

    field_exprs, g = _field_exprs(spec.field), [e for row in spec.g for e in row]
    # name -> (objective of times and (..., n) states, broadcast together,
    # the expressions it reads, sampled states, polish box); without a box
    # the polish moves the time alone and the witness is a time
    table = {
        "L_F": (spec.field.slope, field_exprs, ys, (lo, hi)),
        "p_sup": (field_norm, field_exprs, ys, (lo, hi)),
        "eta_g": (abs_sum(g), g, ys, (lo, hi)),
        "eta_Q": (abs_sum(spec.Q), spec.Q, ys, (lo, hi)),
        "M1": (c_norm(spec.c1), spec.c1, ys, (lo, hi)),
        "M2": (c_norm(spec.c2), spec.c2, ys, (lo, hi)),
        "M0": (field_norm, field_exprs, np.zeros((1, spec.n)), None),
    }
    consts, witnesses = {}, {}
    for name, (fn, exprs, states, box) in table.items():
        consts[name], witnesses[name] = _polished_max(fn, exprs, ts, states, spec.T, box)
    consts["witnesses"] = witnesses
    return consts


_COERCIVITY_RADII = (1e2, 1e3, 1e4)


def check_coercivity(s: AffineOperator, k: BoxSet, u0, dom: SamplingDomain) -> tuple[bool, float, float]:
    """(monotone, mu_est, liminf_est) for assumption A6.

    monotone and mu_est are S's own, exact from the symmetric part; the
    liminf quotient <S(u), u - u0> / ||u||^2 is sampled at large radii.
    A bounded feasible box makes the liminf vacuous (+inf).
    """
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    if not k.contains(u0, tol=ANCHOR_TOL):
        raise AnchorNotFeasible(f"anchor {u0.tolist()} is not in K")
    if k.bounded:
        return s.monotone, s.mu, math.inf
    rng = _stream(dom.seed, 4)
    dirs = rng.standard_normal((min(dom.y_samples, 2048), s.dim))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    liminf = math.inf
    for radius in _COERCIVITY_RADII:
        pts = k.project(radius * dirs)
        norms = np.linalg.norm(pts, axis=1)
        keep = norms >= 0.5 * radius
        if not np.any(keep):
            continue
        kept = pts[keep]
        quot = np.einsum("ij,ij->i", s(kept), kept - u0) / norms[keep] ** 2
        liminf = min(liminf, float(np.min(quot)))
    return s.monotone, s.mu, liminf


def compute_rho(l_f: float, t_horizon: float, q: float) -> float:
    """Contraction constant 2 L_F T^q / Gamma(q+1) of the fuzzy operator part."""
    if l_f < 0.0:
        raise DomainError(f"Lipschitz constant must be nonnegative, got {l_f}")
    if t_horizon <= 0.0:
        raise DomainError(f"horizon must be positive, got {t_horizon}")
    if not 0.0 < q <= 2.0:
        raise DomainError(f"order q must lie in (0, 2], got {q}")
    return 2.0 * l_f * t_horizon**q / gamma(q + 1.0)


def compute_eta_s(s: AffineOperator, u0) -> float:
    """Bound eta_S with ||u*|| <= eta_S (1 + ||w||) for every VI solution u*.

    From <w + S(u*), u0 - u*> >= 0 and strong monotonicity with modulus
    mu = s.mu, ||u* - u0|| <= (||w|| + ||S(u0)||) / mu, hence
    eta_S = max(1/mu, ||u0|| + ||S(u0)||/mu) works.
    """
    if (mu := s.mu) <= 0.0:
        raise DomainError(f"eta_S needs strong monotonicity (mu > 0), got mu = {mu}")
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    return max(1.0 / mu, float(np.linalg.norm(u0)) + float(np.linalg.norm(s(u0))) / mu)


def compute_delta(
    m0: float, eta_g: float, eta_s: float, eta_q: float,
    m1: float, m2: float, t_horizon: float, q: float, rho: float,
) -> float:
    """A-priori sup-norm radius of the fixed-point argument (requires rho < 1)."""
    if rho >= 1.0:
        raise DomainError(f"delta requires rho < 1, got rho = {rho}")
    numerator = 2.0 * (m0 + eta_g * eta_s * (1.0 + eta_q)) * t_horizon**q / gamma(q + 1.0)
    numerator += (m1 + m2) * t_horizon
    return numerator / (1.0 - rho) + 1.0


@dataclass
class HypothesisReport:
    """Constants keyed by their report names, the contraction constant, the a-priori bound, verdicts."""

    constants: dict
    rho: float
    delta: float | None
    verdicts: dict
    overall_pass: bool
    witnesses: dict
    flags: list[str]
    sampling: dict

    def as_dict(self) -> dict:
        norms = {name: row.norm for name, row in CONSTANTS.items()}
        return {**asdict(self), "expected_sup_norm_bound": self.delta, "norms": norms}


def verify(spec: ProblemSpec, dom: SamplingDomain, claimed: dict | None = None) -> HypothesisReport:
    """Full hypothesis check: constants, coercivity, rho < 1, delta.

    ``claimed`` optionally maps sampled constants' names (SAMPLED_CONSTANTS)
    to user-declared bounds; a sampled value exceeding its declared bound is
    flagged (informational, never a pass/fail input).
    """
    unknown = sorted(set(claimed or {}) - set(SAMPLED_CONSTANTS))
    if unknown:
        raise DomainError(f"claimed bounds name constants that are not sampled: {unknown}")
    sampled = estimate_constants(spec, dom)
    witnesses = sampled.pop("witnesses")
    monotone, mu, liminf = check_coercivity(spec.S, spec.K, spec.anchor_u0, dom)
    eta_s = compute_eta_s(spec.S, spec.anchor_u0)
    c = {**sampled, "mu": mu, "coercive_liminf": liminf, "eta_S": eta_s}
    rho = compute_rho(c["L_F"], spec.T, spec.q)
    verdicts = {row.verdict: {"pass": math.isfinite(c[name]), name: c[name]}
                for name, row in CONSTANTS.items() if row.verdict}
    verdicts["A2_measurability"] = {
        "pass": True,
        "note": "field data are continuous expressions of (t, y); measurable by construction",
    }
    verdicts["A6_coercivity"] = {
        "pass": bool(monotone and liminf > 0.0),
        "monotone": bool(monotone),
        "mu": mu,
        "liminf_quotient": liminf,
    }
    verdicts["contraction"] = {"pass": bool(rho < 1.0), "rho": rho}
    delta = compute_delta(
        c["M0"], c["eta_g"], c["eta_S"], c["eta_Q"], c["M1"], c["M2"], spec.T, spec.q, rho,
    ) if rho < 1.0 else None
    flags = [
        f"sampled {name} = {sampled[name]:.6g} exceeds the declared bound {declared:.6g}"
        for name, declared in (claimed or {}).items()
        if sampled[name] > declared * (1.0 + 1e-9) + 1e-12
    ]
    return HypothesisReport(
        constants=c, rho=rho, delta=delta, verdicts=verdicts,
        overall_pass=all(v["pass"] for v in verdicts.values()),
        witnesses=witnesses, flags=flags,
        sampling={
            "seed": dom.seed, "t_samples": dom.t_samples, "y_samples": dom.y_samples,
            "y_box": {"lo": dom.y_box_lo.tolist(), "hi": dom.y_box_hi.tolist()},
            "note": "all suprema are sampled over the declared box and polished locally",
        },
    )
