"""Verification of the existence hypotheses and their constants.

The assumptions quantify over all of R^n; numerically we sample a declared
state box and report constants "as sampled over Y", refined by a local
pattern search around the best sample.  All sampled estimates are lower
bounds of the true suprema.  With a fixed seed, a refined grid extends the
coarse one (counter-based streams), so the grid maximum never falls under
sample-count refinement; the polished value can, since the search may
start from a different witness and climb less.
A6 is not sampled: S is affine, so check_coercivity reads S's modulus mu
and the coercivity liminf exactly from M and K (the liminf from the
faces of K's recession cone, or mu, a lower bound, when they are too many).

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

Every objective is batch-native.  One loop, _grid_max, samples each
constant's objective over the (time, state) grid in cache-sized blocks of
at most _BLOCK_ROWS rows, and only along the axes its expressions read
(Expression.reads): a constant none of whose expressions reads t is sampled
at the first time only, one none of whose expressions reads y at the first
state only.  The skipped rows or columns would repeat the first one, so the
value and the witness, the first maximum in (time, state) order, are those
of the full grid.  The rows go in time order, except those of a separable
sum: eta_g, eta_Q, M1 and M2 are sums of one term per expression
(SumObjective), and when no expression of such a sum reads both t and y,
each expression is evaluated once, over the axis it reads, and a bound per
time row (the sum with each y-reading term at its largest) orders the rows
and ends the loop: rounded addition, abs, square and sqrt are all
monotone, so no row's value exceeds its bound, and the rows whose bound is
below the best value cannot hold the maximum.  Each block's first maximum
replaces the best when it is larger, or equal at an earlier time, so the
value and witness are again the full grid's, bit for bit.  The polish
starts from the grid's value, moves only the coordinates its objective
reads (M0's, the time alone, if the field reads t) and evaluates
speculatively: one batch holds the rest of the current pattern-search sweep
and later sweeps at the step each would use if no move improved, so the
halvings that end a search take a few objective calls instead of one per
sweep (see _pattern_maximize).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
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
# Most one-sided coordinates of K whose 2^k recession-cone faces
# check_coercivity enumerates.  On the orthant of R^m that is one eigh batch
# of 2^m problems: 0.06 ms at m = 2, 1.4 ms at 8, 10 ms at 10.
_FACE_CAP = 10
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
        with np.errstate(over="ignore"):  # an overflowing width is this error, not a warning
            if not np.isfinite((lo, hi, hi - lo)).all():
                raise DomainError("sampling box endpoints and width hi - lo must be finite")
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


def _pattern_maximize(fn, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray, sweeps: int = 80,
                      value: float | None = None, live=None):
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
    value, if given, is fn's value at x0 and saves its evaluation there; it
    is not used if x0 lies outside the box, where the search starts from the
    clipped point.

    live, if given, is a (d,) mask of the coordinates fn reads.  A move of
    any other coordinate leaves fn's value as it was, so the one-at-a-time
    search never accepts it: the search tries only the live coordinates'
    moves, and with none it returns the start at once.  The steps and the
    floor are still those of the whole box, so the path is the one without
    the mask.

    The batch after an accepted move spans about _POLISH_ROWS rows (at least
    the rest of the sweep), and each batch in which no move improves doubles
    the next one, up to _BLOCK_ROWS rows.  The halvings that end a search
    then take a few calls, while each accepted move discards at most about
    _POLISH_ROWS rows plus as many as were evaluated since the last one.

    Every step the search takes is the first one halved k times, k <= sweeps,
    so the steps, each move's shift and the first k below the floor are
    tabulated once per search; a batch's schedule is arithmetic on k, and
    its shifts are slices of the flat table.
    """
    x0 = np.asarray(x0, dtype=float)
    x = np.clip(x0, lo, hi)
    best = float(fn(x[None])[0]) if value is None or not np.array_equal(x, x0) else value
    axes = np.arange(x.shape[0]) if live is None else np.flatnonzero(live)
    if axes.size == 0:
        return best, x
    moves = 2 * axes.size
    # row k: the first step (an eighth of the box) halved k times, one halving
    # at a time; no search halves it more often than it sweeps
    halvings = np.full((sweeps + 1, x.shape[0]), 0.5)
    halvings[0] = (hi - lo) / 8.0
    steps = np.multiply.accumulate(halvings, axis=0)
    # move m changes coordinate axes[m // 2] by shifts[k * moves + m] at step k: +step, then -step
    shifts = np.empty((sweeps + 1, axes.size, 2))
    shifts[..., 0] = steps[:, axes]
    shifts[..., 1] = -steps[:, axes]
    shifts = shifts.ravel()
    # the first k whose step is below the floor: a halving to it ends the search
    floor = 1e-14 * max(1.0, float(np.max(hi - lo)))
    below = np.flatnonzero(np.max(steps, axis=1) < floor)
    k_floor = int(below[0]) if below.size else sweeps + 1
    max_levels = max(1, _BLOCK_ROWS // moves)
    start_levels = min(max(1, _POLISH_ROWS // moves), max_levels)
    row_axis = axes[np.arange(min(max_levels, sweeps) * moves) // 2 % axes.size]  # each batch row's coordinate
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
        end = count * moves
        # the rest of the current sweep at step k, then the later sweeps at
        # steps k + 1, k + 2, ... (k, k + 1, ... if the current one improved)
        lead = k * moves
        shift = np.concatenate((shifts[lead + first : lead + moves],
                                shifts[lead + moves * (1 - improved) : lead + moves * (count - improved)]))
        ax = row_axis[first:end]
        trials = np.repeat(x[None], end - first, axis=0)
        trials[np.arange(end - first), ax] = np.minimum(
            np.maximum(x[ax] + shift, row_lo[first:end]), row_hi[first:end])
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
        sweep, first, k, improved, levels = sweep + level, move + 1, k + max(level - improved, 0), True, start_levels


def _sample_times(t_horizon: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Endpoints first (suprema often sit there), then uniform draws."""
    extra = rng.uniform(0.0, t_horizon, size=max(count - 2, 0))
    return np.concatenate(([0.0, t_horizon], extra))


class SumObjective(NamedTuple):
    """post(pre(e_1) + pre(e_2) + ...) at (times, states): eta_g's, eta_Q's, M1's and M2's objective.

    pre is np.abs or np.square, post None (the identity) or np.sqrt.  As data
    rather than a closure, _grid_max can see that the objective is a sum and
    bound its rows; called, it evaluates the sum like any other objective,
    for the rows in time order and the polish.
    """

    exprs: tuple
    pre: Callable
    post: Callable | None = None

    def __call__(self, ts, ys) -> np.ndarray:
        """The objective at times ts and states ys, in their broadcast shape."""
        shape = np.broadcast(ts, ys[..., 0]).shape
        val = self.total([self.pre(evaluate(e, ts, ys)) for e in self.exprs])
        return val if np.shape(val) == shape else np.broadcast_to(val, shape)

    def total(self, terms):
        """post of the sum of the terms (pre already applied), left to right.

        np.sum reassociates, and the report's constants are written at full
        precision, so the summation order is fixed here.  The sum starts from
        the first term rather than from zeros: pre is abs or square, which
        never give -0.0, so 0.0 + v would be v bit for bit.
        """
        acc = terms[0] if terms else 0.0
        for v in terms[1:]:
            acc = acc + v
        return acc if self.post is None else self.post(acc)


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
    lies in the first one, and value and witness are the same bits.

    Times go in blocks of at most _BLOCK_ROWS grid rows, in time order
    unless fn is a SumObjective none of whose expressions reads both t and
    y.  Such a sum evaluates each expression once, over the one axis it
    reads: a (T, 1) column of times or an (S,) row of states.  Row i's bound
    UB_i is the sum with each y-reading term replaced by its maximum over
    the states, added in the same order.  Rounded addition is monotone in
    each operand, the terms are taken after pre and post is monotone, so
    UB_i is at least every value of row i, bit for bit.  The sum's rows go
    in order of decreasing bound (ties in time order), in blocks that double
    from one row, until the next bound is below the best value found.
    Each block is evaluated with its rows in time order, and its argmax,
    its first maximum in (time, state) order, replaces the best when it is
    larger, or equal at an earlier time: the witness is the full grid's
    whatever order the blocks come in, and a row whose bound equals the
    best value may still tie.
    """
    reads = frozenset().union(*(e.reads for e in exprs))
    if "t" not in reads:
        ts = ts[:1]
    if reads <= {"t"}:
        states = states[:1]
    per_block = max(1, _BLOCK_ROWS // states.shape[0])
    if isinstance(fn, SumObjective) and not any("t" in e.reads and len(e.reads) > 1 for e in fn.exprs):
        reads_y = [bool(e.reads - {"t"}) for e in fn.exprs]
        column = (ts.shape[0], 1)
        terms = [fn.pre(evaluate(e, ts[:1, None], states)) if on_y
                 else np.broadcast_to(fn.pre(evaluate(e, ts[:, None], states[:1])), column)
                 for e, on_y in zip(fn.exprs, reads_y)]
        bound = np.broadcast_to(fn.total([np.max(v) if on_y else v for v, on_y in zip(terms, reads_y)]), column)[:, 0]
        order = np.argsort(-bound, kind="stable")
        bound, rows = bound[order], 1

        def block_values(start, rows):
            block = np.sort(order[start : start + rows])
            vals = fn.total([v if on_y else v[block] for v, on_y in zip(terms, reads_y)])
            return block, np.broadcast_to(vals, (block.shape[0], states.shape[0]))
    else:
        bound, rows = None, per_block

        def block_values(start, rows):
            return range(start, start + rows), fn(ts[start : start + rows, None], states)

    best, wi, wj, start = -math.inf, 0, 0, 0
    while start < ts.shape[0] and (bound is None or bound[start] >= best):
        block, vals = block_values(start, rows)
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if (top := vals[i, j]) > best or (top == best and block[i] < wi):
            best, wi, wj = float(top), int(block[i]), int(j)
        start, rows = start + rows, min(2 * rows, per_block)
    return best, float(ts[wi]), states[wj]


def _polished_max(fn, exprs, ts: np.ndarray, states: np.ndarray, t_horizon: float, box):
    """(value, witness) of _grid_max of fn, refined by pattern search over [0, t_horizon] x box.

    Without a box the state stays at the grid's witness, the search moves the
    time alone and the witness is {"t"}; with one it is {"t", "y"}.  The
    search is handed the grid's value, which is fn's at the witness bit for
    bit, so it does not evaluate fn there again, and moves only the
    coordinates the expressions read.
    """
    best, wt, wy = _grid_max(fn, exprs, ts, states)
    reads = frozenset().union(*(e.reads for e in exprs))
    if box:
        live = ["t" in reads] + [f"y{i}" in reads for i in range(1, wy.shape[0] + 1)]
        val, arg = _pattern_maximize(lambda x: fn(x[:, 0], x[:, 1:]), np.append(wt, wy),
                                     np.append(0.0, box[0]), np.append(t_horizon, box[1]), value=best, live=live)
    else:
        val, arg = _pattern_maximize(lambda x: fn(x[:, 0], wy), np.array([wt]), np.zeros(1), np.array([t_horizon]),
                                     value=best, live=["t" in reads])
    if val > best:
        best, wt, wy = val, float(arg[0]), arg[1:]
    return best, {"t": wt, "y": wy.tolist()} if box else {"t": wt}


def estimate_field_lipschitz(field: FuzzyBoxField, dom: SamplingDomain, t_horizon: float) -> float:
    """Largest local slope of the field (FuzzyBoxField.slope) over the sampled grid, unpolished.

    estimate_constants' L_F without its polish, for the pre-solve rho
    warning.  inf means the field is not Lipschitz on the box.
    """
    return _grid_max(field.slope, field.exprs, *_sample_grid(dom, t_horizon))[0]


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

    field_exprs, g = spec.field.exprs, tuple(e for row in spec.g for e in row)
    # name -> (objective of times and (..., n) states, broadcast together,
    # the expressions it reads, sampled states, polish box); without a box
    # the polish moves the time alone and the witness is a time
    table = {
        "L_F": (spec.field.slope, field_exprs, ys, (lo, hi)),
        "p_sup": (field_norm, field_exprs, ys, (lo, hi)),
        "eta_g": (SumObjective(g, np.abs), g, ys, (lo, hi)),
        "eta_Q": (SumObjective(spec.Q, np.abs), spec.Q, ys, (lo, hi)),
        "M1": (SumObjective(spec.c1, np.square, np.sqrt), spec.c1, ys, (lo, hi)),
        "M2": (SumObjective(spec.c2, np.square, np.sqrt), spec.c2, ys, (lo, hi)),
        "M0": (field_norm, field_exprs, np.zeros((1, spec.n)), None),
    }
    consts, witnesses = {}, {}
    for name, (fn, exprs, states, box) in table.items():
        consts[name], witnesses[name] = _polished_max(fn, exprs, ts, states, spec.T, box)
    consts["witnesses"] = witnesses
    return consts


def check_coercivity(s: AffineOperator, k: BoxSet, u0) -> tuple[bool, float, float, bool]:
    """(monotone, mu, liminf, exact) for assumption A6, read from S and K alone.

    monotone and mu are S's own, from the symmetric part A of M.  As u in K
    grows along u / ||u|| -> d, <S(u), u - u0> / ||u||^2 tends to d^T A d,
    so liminf is the least d^T A d over unit d in K's recession cone (d_i
    free, >= 0, <= 0 or 0 as K is unbounded both ways, above, below or
    neither); a bounded K gives +inf.  A minimizer lies inside one face of
    the cone (the free coordinates and some signed ones), where it is an
    eigenvector of A's principal submatrix whose signed entries are nonzero
    and oriented as the cone requires.  liminf is the least eigenvalue, over
    the faces, with such an eigenvector in eigh's basis: a repeated
    eigenvalue's eigenspace that meets a face's inside also meets a lower
    face's, where the eigenvalue appears again (3I on the orthant is 3 on
    the faces {1} and {2}).  The faces are one eigh batch, each embedded at
    full size with its other coordinates on a diagonal above every
    eigenvalue.  Rounding can put the value an ulp below mu; it is clamped
    to mu.  Past _FACE_CAP signed coordinates liminf is mu, a lower bound,
    and exact is False.
    """
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    if not k.contains(u0, tol=ANCHOR_TOL):
        raise AnchorNotFeasible(f"anchor {u0.tolist()} is not in K")
    mu = s.mu
    lo_open, hi_open = np.isinf(k.lo), np.isinf(k.hi)
    if not np.any(lo_open | hi_open):  # K is bounded
        return s.monotone, mu, math.inf, True
    orient = hi_open * 1.0 - lo_open  # +1 where d_i >= 0, -1 where d_i <= 0, 0 free or fixed
    signed = np.flatnonzero(orient)
    if signed.size > _FACE_CAP:
        return s.monotone, mu, mu, False
    # row f: the coordinates of face f, the free ones and the signed ones of f's bits
    on = np.repeat((lo_open & hi_open)[None], 2**signed.size, axis=0)
    on[:, signed] = (np.arange(2**signed.size)[:, None] >> np.arange(signed.size)) & 1
    if not on[0].any():  # the empty face holds no unit direction
        on = on[1:]
    sym = 0.5 * (s.M + s.M.T)
    sub = sym * (on[:, :, None] & on[:, None, :])
    diag = np.arange(s.dim)
    sub[:, diag, diag] += ~on * (1.0 + np.sum(np.abs(sym)))
    vals, vecs = np.linalg.eigh(sub)
    # an eigenvector is inside its face when its entries there, oriented, are all > 0 or all < 0
    weight = on * orient
    inner = np.abs(np.sum(np.sign(vecs * weight[:, :, None]), axis=1)) == np.count_nonzero(weight, axis=1)[:, None]
    return s.monotone, mu, max(mu, float(np.min(vals[inner]))), True


def compute_rho(l_f: float, t_horizon: float, q: float) -> float:
    """Contraction constant 2 L_F T^q / Gamma(q+1) of the fuzzy operator part."""
    if l_f < 0.0:
        raise DomainError(f"Lipschitz constant must be nonnegative, got {l_f}")
    if t_horizon <= 0.0:
        raise DomainError(f"horizon must be positive, got {t_horizon}")
    if not 0.0 < q <= 2.0:
        raise DomainError(f"order q must lie in (0, 2], got {q}")
    return _over_gamma(2.0 * l_f, t_horizon, q)


def _over_gamma(c: float, t_horizon: float, q: float) -> float:
    """c T^q / Gamma(q+1); an overflowing T^q reads as inf, times c = 0 as 0."""
    try:
        return c * t_horizon**q / gamma(q + 1.0)
    except OverflowError:
        return math.inf if c else 0.0


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
    numerator = _over_gamma(2.0 * (m0 + eta_g * eta_s * (1.0 + eta_q)), t_horizon, q)
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
        """The report as its JSON is written; nested dicts and lists are the report's own, not copies."""
        norms = {name: row.norm for name, row in CONSTANTS.items()}
        return {**vars(self), "expected_sup_norm_bound": self.delta, "norms": norms}


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
    monotone, mu, liminf, exact = check_coercivity(spec.S, spec.K, spec.anchor_u0)
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
    if not exact:
        flags.append(f"coercive_liminf is mu, a lower bound: K has more than {_FACE_CAP} one-sided "
                     "coordinates, too many recession-cone faces to enumerate")
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
