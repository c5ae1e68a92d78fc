"""Sampled verification of the existence hypotheses and their constants.

The assumptions quantify over all of R^n; numerically we sample a declared
state box and report constants "as sampled over Y", refined by a local
pattern search around the best sample.  All estimates are lower bounds of
the true suprema, monotone under sample-count refinement with a fixed seed
(counter-based streams, order-independent max reductions).

Norm conventions: the field Lipschitz constant, p, M0, M1, M2 use the
Euclidean norm; the g and Q bounds use 1-norms (entrywise sum for g),
matching how such constants are usually tabulated for worked instances.
The field Lipschitz constant is measured in fuzzy_metric, which is exact
from the alpha = 0 and alpha = 1 levels: the sampling pass evaluates it
for all pairs at once through FuzzyBoxField.level_arrays, the polish one
pair at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AnchorNotFeasible, DomainError
from .expr import evaluate
from .fuzzy import FuzzyBoxField, fuzzy_metric
from .problem import ProblemSpec
from .special import gamma
from .vi import AffineOperator, BoxSet

_MIN_PAIR_DIST = 1e-6


def _stream(seed: int, idx: int) -> np.random.Generator:
    """Independent counter-based stream #idx for a given seed."""
    return np.random.Generator(np.random.Philox(key=[int(seed) & (2**64 - 1), idx]))


@dataclass(frozen=True)
class SamplingDomain:
    """Where and how densely to sample: a state box, node counts, a seed."""

    y_box_lo: np.ndarray
    y_box_hi: np.ndarray
    t_samples: int = 64
    y_samples: int = 4096
    pair_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.y_box_lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.y_box_hi, dtype=float))
        if lo.shape != hi.shape:
            raise DomainError("sampling box endpoints must have equal length")
        if np.any(hi <= lo):
            raise DomainError("sampling box must be nondegenerate (lo < hi)")
        if self.t_samples < 2 or self.y_samples < 2 or self.pair_samples < 2:
            raise DomainError("sample counts must be at least 2")
        object.__setattr__(self, "y_box_lo", lo)
        object.__setattr__(self, "y_box_hi", hi)

    @property
    def dim(self) -> int:
        return self.y_box_lo.shape[0]


def _pattern_maximize(fn, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray, sweeps: int = 80):
    """Deterministic coordinate pattern search; fn may return -inf to veto a point."""
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    best = fn(x)
    step = (hi - lo) / 8.0
    for _ in range(sweeps):
        improved = False
        for i in range(x.shape[0]):
            for sgn in (1.0, -1.0):
                trial = x.copy()
                trial[i] = min(max(trial[i] + sgn * step[i], lo[i]), hi[i])
                val = fn(trial)
                if val > best:
                    best, x, improved = val, trial, True
        if not improved:
            step *= 0.5
            if np.max(step) < 1e-14 * max(1.0, float(np.max(hi - lo))):
                break
    return best, x


def _sample_times(t_horizon: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Endpoints first (suprema often sit there), then uniform draws."""
    extra = rng.uniform(0.0, t_horizon, size=max(count - 2, 0))
    return np.concatenate(([0.0, t_horizon], extra))


def _metric_over_pairs(field: FuzzyBoxField, ts, y1s, y2s) -> np.ndarray:
    """Vectorized fuzzy_metric between the field values at two states.

    The sup over levels is attained at alpha = 0 or 1 (see fuzzy_metric).
    """
    out = np.zeros(ts.shape[0])
    for alpha in (0.0, 1.0):
        lo1, hi1 = field.level_arrays(ts, y1s, alpha)
        lo2, hi2 = field.level_arrays(ts, y2s, alpha)
        out = np.maximum(out, np.max(np.maximum(np.abs(lo1 - lo2), np.abs(hi1 - hi2)), axis=1))
    return out


def estimate_field_lipschitz(
    field: FuzzyBoxField,
    box_lo,
    box_hi,
    t_horizon: float,
    pairs: int = 100_000,
    seed: int = 0,
    polish: bool = True,
) -> float:
    """Largest sampled quotient metric(F(t,y1), F(t,y2)) / ||y1 - y2||.

    Pairs are drawn as log-uniform-radius perturbations so short segments
    near steep regions are well represented; pairs closer than 1e-6 are
    discarded to avoid 0/0.
    """
    lo = np.atleast_1d(np.asarray(box_lo, dtype=float))
    hi = np.atleast_1d(np.asarray(box_hi, dtype=float))
    n = lo.shape[0]
    rng = _stream(seed, 3)
    y1 = lo + (hi - lo) * rng.random((pairs, n))
    dirs = rng.standard_normal((pairs, n))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    rmax = 0.5 * float(np.max(hi - lo))
    radii = np.exp(rng.uniform(math.log(1e-5), math.log(max(rmax, 2e-5)), size=pairs))
    y2 = np.clip(y1 + radii[:, None] * dirs, lo, hi)
    ts = np.concatenate(([0.0, t_horizon], rng.uniform(0.0, t_horizon, size=pairs - 2)))
    dist = np.linalg.norm(y1 - y2, axis=1)
    mask = dist >= _MIN_PAIR_DIST
    if not np.any(mask):
        return 0.0
    quot = np.zeros(pairs)
    quot[mask] = _metric_over_pairs(field, ts[mask], y1[mask], y2[mask]) / dist[mask]
    best_idx = int(np.argmax(quot))
    best = float(quot[best_idx])
    if not polish:
        return best

    def objective(x: np.ndarray) -> float:
        t = x[0]
        a = x[1 : 1 + n]
        b = x[1 + n :]
        d = float(np.linalg.norm(a - b))
        if d < _MIN_PAIR_DIST:
            return -math.inf
        return fuzzy_metric(field.at(t, a), field.at(t, b)) / d

    x0 = np.concatenate(([ts[best_idx]], y1[best_idx], y2[best_idx]))
    plo = np.concatenate(([0.0], lo, lo))
    phi = np.concatenate(([t_horizon], hi, hi))
    polished, _ = _pattern_maximize(objective, x0, plo, phi)
    return max(best, polished)


def _sup_over_samples(fn, ts, ys, t_horizon, lo, hi, polish=True):
    """Max of fn(t, y-batch) over the sample grid, refined by pattern search.

    fn must accept (scalar t, (k,n) states) and return (k,) values.
    Returns (value, witness_t, witness_y).
    """
    best = -math.inf
    wt, wy = 0.0, ys[0]
    for t in ts:
        vals = fn(float(t), ys)
        idx = int(np.argmax(vals))
        if vals[idx] > best:
            best = float(vals[idx])
            wt, wy = float(t), ys[idx]
    if polish:
        def objective(x: np.ndarray) -> float:
            return float(fn(float(x[0]), x[None, 1:])[0])

        x0 = np.concatenate(([wt], wy))
        plo = np.concatenate(([0.0], lo))
        phi = np.concatenate(([t_horizon], hi))
        val, arg = _pattern_maximize(objective, x0, plo, phi)
        if val > best:
            best, wt, wy = val, float(arg[0]), arg[1:]
    return best, wt, np.asarray(wy)


def _field_sup_norm(field: FuzzyBoxField, t: float, ys: np.ndarray) -> np.ndarray:
    """||F(t,y)|| as the Euclidean norm of the farthest support corner."""
    ts = np.full(ys.shape[0], t)
    lo, hi = field.level_arrays(ts, ys, 0.0)
    return np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi)), axis=1)


def _eval_batch(exprs, t: float, batch: np.ndarray) -> np.ndarray:
    """Evaluate expressions at (t, each state of the batch); returns (k, len(exprs))."""
    out = np.empty((batch.shape[0], len(exprs)))
    for j, e in enumerate(exprs):
        out[:, j] = np.broadcast_to(np.asarray(evaluate(e, t, batch), dtype=float), (batch.shape[0],))
    return out


def _column_sum(vals: np.ndarray) -> np.ndarray:
    """Row sums accumulated column by column, left to right.

    np.sum reassociates, and the report's constants are written at full
    precision, so the summation order is fixed here.
    """
    acc = np.zeros(vals.shape[0])
    for col in vals.T:
        acc += col
    return acc


def estimate_constants(spec: ProblemSpec, dom: SamplingDomain) -> dict:
    """Sampled suprema for the boundedness hypotheses; see module docstring for norms."""
    if dom.dim != spec.n:
        raise DomainError(f"sampling box has dimension {dom.dim}, problem n = {spec.n}")
    lo, hi = dom.y_box_lo, dom.y_box_hi
    ts = _sample_times(spec.T, dom.t_samples, _stream(dom.seed, 1))
    ys = lo + (hi - lo) * _stream(dom.seed, 2).random((dom.y_samples, spec.n))

    g_flat = [e for row in spec.g for e in row]

    def abs_sum(exprs):
        return lambda t, batch: _column_sum(np.abs(_eval_batch(exprs, t, batch)))

    def c_norm(exprs):
        return lambda t, batch: np.sqrt(_column_sum(_eval_batch(exprs, t, batch) ** 2))

    p_sup, p_t, p_y = _sup_over_samples(lambda t, b: _field_sup_norm(spec.field, t, b), ts, ys, spec.T, lo, hi)
    eta_g, g_t, g_y = _sup_over_samples(abs_sum(g_flat), ts, ys, spec.T, lo, hi)
    eta_q, q_t, q_y = _sup_over_samples(abs_sum(spec.Q), ts, ys, spec.T, lo, hi)
    m1, c1_t, c1_y = _sup_over_samples(c_norm(spec.c1), ts, ys, spec.T, lo, hi)
    m2, c2_t, c2_y = _sup_over_samples(c_norm(spec.c2), ts, ys, spec.T, lo, hi)
    origin = np.zeros((1, spec.n))
    m0, m0_t, _ = _sup_over_samples(
        lambda t, b: _field_sup_norm(spec.field, t, np.zeros((b.shape[0], spec.n))),
        ts, origin, spec.T, np.zeros(spec.n), np.zeros(spec.n),
    )
    l_f = estimate_field_lipschitz(
        spec.field, lo, hi, spec.T, pairs=dom.pair_samples, seed=dom.seed
    )
    return {
        "L_F": l_f,
        "p_sup": p_sup,
        "eta_g": eta_g,
        "eta_Q": eta_q,
        "M1": m1,
        "M2": m2,
        "M0": m0,
        "witnesses": {
            "p_sup": {"t": p_t, "y": p_y.tolist()},
            "eta_g": {"t": g_t, "y": g_y.tolist()},
            "eta_Q": {"t": q_t, "y": q_y.tolist()},
            "M1": {"t": c1_t, "y": c1_y.tolist()},
            "M2": {"t": c2_t, "y": c2_y.tolist()},
            "M0": {"t": m0_t},
        },
    }


_COERCIVITY_RADII = (1e2, 1e3, 1e4)


def check_coercivity(
    s: AffineOperator,
    k: BoxSet,
    u0,
    dom: SamplingDomain | None = None,
) -> tuple[bool, float, float]:
    """(monotone, mu_est, liminf_est) for assumption A6.

    mu_est is the exact smallest eigenvalue of the symmetric part; the
    liminf quotient <S(u), u - u0> / ||u||^2 is sampled at large radii.
    A bounded feasible box makes the liminf vacuous (+inf).
    """
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    if not np.allclose(k.project(u0), u0, atol=1e-9):
        raise AnchorNotFeasible(f"anchor {u0.tolist()} is not in K")
    mu_est = s.mu
    monotone = mu_est >= -1e-10
    if k.bounded:
        return monotone, mu_est, math.inf
    seed = dom.seed if dom is not None else 0
    count = min(dom.y_samples, 2048) if dom is not None else 1024
    rng = _stream(seed, 4)
    dirs = rng.standard_normal((count, s.dim))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    liminf = math.inf
    for radius in _COERCIVITY_RADII:
        pts = k.project(radius * dirs)
        norms = np.linalg.norm(pts, axis=1)
        keep = norms >= 0.5 * radius
        if not np.any(keep):
            continue
        kept = pts[keep]
        quot = np.einsum("ij,ij->i", kept @ s.M.T + s.b, kept - u0) / norms[keep] ** 2
        liminf = min(liminf, float(np.min(quot)))
    return monotone, mu_est, liminf


def compute_rho(l_f: float, t_horizon: float, q: float) -> float:
    """Contraction constant 2 L_F T^q / Gamma(q+1) of the fuzzy operator part."""
    if l_f < 0.0:
        raise DomainError(f"Lipschitz constant must be nonnegative, got {l_f}")
    if t_horizon <= 0.0:
        raise DomainError(f"horizon must be positive, got {t_horizon}")
    if not 0.0 < q <= 2.0:
        raise DomainError(f"order q must lie in (0, 2], got {q}")
    return 2.0 * l_f * t_horizon**q / gamma(q + 1.0)


def compute_eta_s(s: AffineOperator, u0, mu: float) -> float:
    """Bound eta_S with ||u*|| <= eta_S (1 + ||w||) for every VI solution u*.

    From <w + S(u*), u0 - u*> >= 0 and strong monotonicity,
    ||u* - u0|| <= (||w|| + ||S(u0)||) / mu, hence
    eta_S = max(1/mu, ||u0|| + ||S(u0)||/mu) works.
    """
    if mu <= 0.0:
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
    """Estimated constants, the contraction constant, the a-priori bound, verdicts."""

    L_F_est: float
    p_sup: float
    eta_g: float
    eta_Q: float
    mu_est: float
    coercive_liminf_est: float
    M1: float
    M2: float
    M0: float
    eta_S: float
    rho: float
    delta: float | None
    verdicts: dict
    overall_pass: bool
    witnesses: dict
    flags: list[str]
    sampling: dict
    norms: dict = field(default_factory=lambda: {
        "L_F": "euclidean", "p_sup": "euclidean", "M0": "euclidean",
        "M1": "euclidean", "M2": "euclidean",
        "eta_g": "entrywise 1-norm", "eta_Q": "1-norm",
        "mu": "spectral (symmetric part)", "coercive_quotient": "euclidean",
    })

    def as_dict(self) -> dict:
        return {
            "constants": {
                "L_F": self.L_F_est, "p_sup": self.p_sup, "eta_g": self.eta_g,
                "eta_Q": self.eta_Q, "mu": self.mu_est,
                "coercive_liminf": self.coercive_liminf_est,
                "M1": self.M1, "M2": self.M2, "M0": self.M0, "eta_S": self.eta_S,
            },
            "rho": self.rho,
            "delta": self.delta,
            "expected_sup_norm_bound": self.delta,
            "verdicts": self.verdicts,
            "overall_pass": self.overall_pass,
            "witnesses": self.witnesses,
            "flags": self.flags,
            "sampling": self.sampling,
            "norms": self.norms,
        }


def verify(spec: ProblemSpec, dom: SamplingDomain, claimed: dict | None = None) -> HypothesisReport:
    """Full hypothesis check: constants, coercivity, rho < 1, delta.

    ``claimed`` optionally maps constant names to user-declared bounds; a
    sampled value exceeding its declared bound is flagged (informational,
    never a pass/fail input).
    """
    consts = estimate_constants(spec, dom)
    monotone, mu_est, liminf = check_coercivity(spec.S, spec.K, spec.anchor_u0, dom)
    rho = compute_rho(consts["L_F"], spec.T, spec.q)
    coercive_ok = monotone and (liminf > 0.0)
    eta_s = compute_eta_s(spec.S, spec.anchor_u0, mu_est) if mu_est > 0.0 else math.inf
    verdicts = {
        "A1_lipschitz_field": {"pass": math.isfinite(consts["L_F"]), "L_F": consts["L_F"]},
        "A2_measurability": {
            "pass": True,
            "note": "field data are continuous expressions of (t, y); measurable by construction",
        },
        "A3_field_bound": {"pass": math.isfinite(consts["p_sup"]), "p_sup": consts["p_sup"]},
        "A4_g_bound": {"pass": math.isfinite(consts["eta_g"]), "eta_g": consts["eta_g"]},
        "A5_Q_bound": {"pass": math.isfinite(consts["eta_Q"]), "eta_Q": consts["eta_Q"]},
        "A6_coercivity": {
            "pass": bool(coercive_ok),
            "monotone": bool(monotone),
            "mu": mu_est,
            "liminf_quotient": liminf,
        },
        "contraction": {"pass": bool(rho < 1.0), "rho": rho},
    }
    overall = all(v["pass"] for v in verdicts.values())
    delta = None
    if rho < 1.0 and math.isfinite(eta_s):
        delta = compute_delta(
            consts["M0"], consts["eta_g"], eta_s, consts["eta_Q"],
            consts["M1"], consts["M2"], spec.T, spec.q, rho,
        )
    flags: list[str] = []
    name_map = {
        "L_F": consts["L_F"], "p_sup": consts["p_sup"], "eta_g": consts["eta_g"],
        "eta_Q": consts["eta_Q"], "M1": consts["M1"], "M2": consts["M2"], "M0": consts["M0"],
    }
    for name, declared in (claimed or {}).items():
        sampled = name_map.get(name)
        if sampled is not None and sampled > declared * (1.0 + 1e-9) + 1e-12:
            flags.append(
                f"sampled {name} = {sampled:.6g} exceeds the declared bound {declared:.6g}"
            )
    return HypothesisReport(
        L_F_est=consts["L_F"], p_sup=consts["p_sup"], eta_g=consts["eta_g"],
        eta_Q=consts["eta_Q"], mu_est=mu_est, coercive_liminf_est=liminf,
        M1=consts["M1"], M2=consts["M2"], M0=consts["M0"], eta_S=eta_s,
        rho=rho, delta=delta, verdicts=verdicts, overall_pass=bool(overall),
        witnesses=consts["witnesses"], flags=flags,
        sampling={
            "seed": dom.seed, "t_samples": dom.t_samples, "y_samples": dom.y_samples,
            "pair_samples": dom.pair_samples,
            "y_box": {"lo": dom.y_box_lo.tolist(), "hi": dom.y_box_hi.tolist()},
            "note": "all suprema are sampled over the declared box and polished locally",
        },
    )
