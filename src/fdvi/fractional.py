"""Discrete fractional integration on a uniform grid and a Caputo residual estimator.

The fractional integral uses product-trapezoid quadrature (Diethelm, Ford &
Freed, Nonlinear Dyn. 2002): the integrand is replaced by its
piecewise-linear interpolant while the weakly singular kernel
(t - tau)^(q-1) is integrated exactly over each panel.  This handles the
kernel's behavior near tau = t correctly and converges at O(h^2) for
smooth integrands.

The quadrature weights depend only on the lag between node and panel, so
one cached set of panel weights per (q, N, h), _panel_weights, serves both
entry points: frac_integral sums them directly at one node, and
frac_integral_all evaluates the same sum at every node as one O(N log N)
FFT convolution over all columns, with one cached kernel spectrum per
(q, N, h).
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, DomainError, GridTooCoarse, IndexOutOfRange, NonfiniteGridError
from .special import gamma

# rows formatted per write; joining the whole file at once raises peak memory
_CSV_BLOCK_ROWS = 256


@dataclass(frozen=True)
class UniformGrid:
    """Nodes t_i = i T / N for i = 0..N."""

    T: float
    N: int

    def __post_init__(self):
        if not self.T > 0.0:
            raise DomainError(f"horizon T must be positive, got {self.T}")
        if self.N < 2:
            raise DomainError(f"grid needs N >= 2, got {self.N}")

    @cached_property
    def nodes(self) -> np.ndarray:
        out = np.linspace(0.0, self.T, self.N + 1)
        out.flags.writeable = False
        return out

    @cached_property
    def t_over_T(self) -> np.ndarray:
        """t_i / T at each node."""
        out = self.nodes / self.T
        out.flags.writeable = False
        return out

    @property
    def h(self) -> float:
        return self.T / self.N


class GridFunction:
    """Values of a vector-valued function at the grid nodes, shape (N+1, n)."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: UniformGrid, values):
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != grid.N + 1:
            raise DimensionMismatch(
                f"values have {values.shape[0]} rows, grid has {grid.N + 1} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise NonfiniteGridError("grid function values must be finite")
        self.grid = grid
        self.values = values

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def zeros(cls, grid: UniformGrid, dim: int) -> "GridFunction":
        return cls(grid, np.zeros((grid.N + 1, dim)))

    def to_csv(self, path, columns=None) -> None:
        """Write "t,<columns>" rows at full double precision; columns default to v1..vn.

        Data rows are formatted with one %-string each ('%.17g' is the same
        float formatter as f"{x:.17g}") after the grid's t field, which is
        formatted once per grid, and written a block at a time.
        """
        if columns is None:
            columns = [f"v{i + 1}" for i in range(self.dim)]
        elif len(columns) != self.dim:
            raise DimensionMismatch(f"{len(columns)} column name(s) for {self.dim} column(s) of values")
        times = _csv_times(self.grid)
        row = ",".join(["%.17g"] * self.dim) + "\r\n"  # csv.writer's default terminator
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["t", *columns])
            for start in range(0, len(times), _CSV_BLOCK_ROWS):
                stop = start + _CSV_BLOCK_ROWS
                block = zip(times[start:stop], self.values[start:stop].tolist())
                fh.write("".join([t + row % tuple(r) for t, r in block]))

    @classmethod
    def read_csv(cls, path) -> "GridFunction":
        """Read what to_csv wrote; a t column that is not the grid's nodes, bit for bit, is a DomainError."""
        return _read_csv(path)[1]


def _read_csv(path) -> tuple[list[str], GridFunction]:
    """The header and the grid function of a CSV that GridFunction.to_csv wrote, in one pass."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise DomainError(f"{path}, line {reader.line_num}: {len(row)} fields, the header {len(header)}")
            rows.append([float(x) for x in row])
    if not rows:
        raise DomainError(f"{path}, line {reader.line_num + 1}: the file ends before its first data row")
    data = np.asarray(rows)
    ts = data[:, 0]
    grid = UniformGrid(float(ts[-1]), len(ts) - 1)
    off = np.flatnonzero(ts.view(np.int64) != grid.nodes.view(np.int64))
    if off.size:
        i = off[0]
        raise DomainError(f"{path}, line {i + 2}: t = {ts[i]:.17g} is not node {i} of the grid, {grid.nodes[i]:.17g}")
    return header, GridFunction(grid, data[:, 1:])


@lru_cache(maxsize=8)
def _csv_times(grid: UniformGrid) -> tuple[str, ...]:
    """Each node of the grid as the '%.17g,' that opens its CSV row.

    A band writes every run's CSV and the envelope on one grid, and
    fdvi example solves on one grid more than once.
    """
    return tuple(["%.17g," % t for t in grid.nodes.tolist()])


def _check_order(q: float) -> None:
    if not 0.0 < q <= 2.0:
        raise DomainError(f"integration order must lie in (0, 2], got {q}")


def frac_integral(q: float, phi: GridFunction, i: int) -> np.ndarray:
    """(1/Gamma(q)) * integral_0^{t_i} (t_i - tau)^(q-1) phi_hat(tau) dtau.

    phi_hat is the piecewise-linear interpolant of phi.  The direct sum at
    node i of the panel weights that frac_integral_all convolves:
    A_i phi_0 + B_1 phi_i + sum_{j=1}^{i-1} (A_{i-j} + B_{i-j+1}) phi_j.
    i = 0 returns the zero vector.
    """
    _check_order(q)
    grid = phi.grid
    if not 0 <= i <= grid.N:
        raise IndexOutOfRange(f"node index {i} outside 0..{grid.N}")
    if i == 0:
        return np.zeros(phi.dim)
    a, b = _panel_weights(q, grid.N, grid.h)
    vals = phi.values
    acc = a[i] * vals[0] + b[1] * vals[i] + (a[1:i] + b[2 : i + 1])[::-1] @ vals[1:i]
    return acc / gamma(q)


@lru_cache(maxsize=8)
def _panel_weights(q: float, n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Left/right panel endpoint weights A_k, B_k for lag k = index - panel start.

    A_k = integral over one panel at lag k of the kernel times the descending
    hat, B_k the ascending hat; both are nonnegative and A_k + B_k equals the
    exact kernel mass of the panel.
    """
    k = np.arange(0, n + 1, dtype=float)
    p0 = np.zeros(n + 1)
    p1 = np.zeros(n + 1)
    p0[1:] = k[1:] ** q - k[:-1] ** q
    p1[1:] = k[1:] ** (q + 1.0) - k[:-1] ** (q + 1.0)
    hk = np.float64(h) ** q  # an overflow here warns, or raises under the sweep's errstate
    a = np.zeros(n + 1)
    b = np.zeros(n + 1)
    a[1:] = hk * (p1[1:] / (q + 1.0) - k[:-1] * p0[1:] / q)
    b[1:] = hk * (k[1:] * p0[1:] / q - p1[1:] / (q + 1.0))
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


@lru_cache(maxsize=8)
def _kernel_spectrum(q: float, n: int, h: float) -> tuple[int, np.ndarray]:
    """FFT length and real spectrum of the lag kernel c_k = A_k + B_{k+1}, k = 1..n-1.

    Only the first n - 1 outputs of the convolution with phi_1..phi_{n-1}
    are used, so a length of at least 2n - 3 keeps them free of wrap-around.
    numpy.fft is reached through np.fft here: numpy loads it on first use,
    so importing fdvi and building a problem do not pay for it.
    """
    a, b = _panel_weights(q, n, h)
    nfft = 1 << (2 * n - 4).bit_length()  # the next power of two >= 2n - 3
    spec = np.fft.rfft(a[1:n] + b[2 : n + 1], nfft)
    spec.flags.writeable = False
    return nfft, spec


def frac_integral_all(q: float, phi: GridFunction) -> GridFunction:
    """frac_integral evaluated at every node at once.

    The lag-structured sum is a discrete convolution, evaluated as one
    zero-padded FFT product over all columns: O(N log N) per column, with
    the kernel's spectrum cached per (q, N, h).
    """
    _check_order(q)
    grid = phi.grid
    n = grid.N
    a, b = _panel_weights(q, n, grid.h)
    nfft, spec = _kernel_spectrum(q, n, grid.h)
    vals = phi.values
    out = np.zeros_like(vals)
    # node i: A_i phi_0 + B_1 phi_i + sum_{j=1}^{i-1} (A_{i-j} + B_{i-j+1}) phi_j
    out[1:] = a[1:, None] * vals[0][None, :] + b[1] * vals[1:]
    conv = np.fft.irfft(spec[:, None] * np.fft.rfft(vals[1:n], nfft, axis=0), nfft, axis=0)
    out[2:] += conv[: n - 1]
    out /= gamma(q)
    return GridFunction(grid, out)


def trapezoid_integral(phi: GridFunction) -> np.ndarray:
    """Composite trapezoid over the full grid."""
    return np.trapezoid(phi.values, dx=phi.grid.h, axis=0)


def _second_differences(values: np.ndarray, h: float) -> np.ndarray:
    """Central second differences, with boundary nodes copying their neighbor's stencil."""
    ypp = np.empty_like(values)
    ypp[1:-1] = (values[:-2] - 2.0 * values[1:-1] + values[2:]) / (h * h)
    ypp[0] = ypp[1]
    ypp[-1] = ypp[-2]
    return ypp


def caputo_estimate(q: float, y: GridFunction) -> np.ndarray:
    """Estimate the Caputo derivative of order q in (1, 2] at all nodes.

    The scheme integrates the piecewise-linear interpolant of the discrete
    second differences against the exact kernel (order 2-q), corrected so
    that it is exact on 1, t, t^2 and t^q.  Without the correction the t^q
    mode (always present in mild solutions, since the fractional integral of
    a nonvanishing forcing starts like t^q) keeps an O(1) error at small
    fixed node indices.  Its weight kappa, y's third difference at the origin
    over that of t^q, vanishes on quadratics.  The integral is linear, so
    kappa t^q's second differences are taken out before the one convolution
    and its exact derivative, Gamma(q+1) kappa, is added after it.
    """
    if not 1.0 < q <= 2.0:
        raise DomainError(f"Caputo order must lie in (1, 2], got {q}")
    grid = y.grid
    if grid.h * grid.h < sys.float_info.min:  # the second differences divide by h^2
        raise DomainError(f"Caputo estimate needs h^2 to be a normal float, got h = {grid.h:g} (T = {grid.T:g})")
    ypp = _second_differences(y.values, grid.h)
    if q == 2.0:
        return ypp
    pq = 3.0**q - 3.0 * 2.0**q + 3.0  # third difference of t^q at the origin, over h^q
    d3 = y.values[3] - 3.0 * y.values[2] + 3.0 * y.values[1] - y.values[0]
    kappa = d3 / (pq * grid.h**q)
    ypp -= np.outer(_second_differences(grid.nodes[:, None] ** q, grid.h)[:, 0], kappa)
    return frac_integral_all(2.0 - q, GridFunction(grid, ypp)).values + gamma(q + 1.0) * kappa


def caputo_residual(q: float, y: GridFunction, rhs: GridFunction) -> float:
    """Max norm of (Caputo estimate of y - rhs) over interior nodes i in [2, N-2].

    Two boundary layers on each side are excluded: the one-sided stencils
    there degrade the order and the diagnostic only needs interior evidence.
    """
    grid = y.grid
    if grid.N < 8:
        raise GridTooCoarse(f"Caputo residual needs N >= 8, got {grid.N}")
    if rhs.grid != grid or rhs.dim != y.dim:
        raise DimensionMismatch("y and rhs must live on the same grid with equal dimension")
    est = caputo_estimate(q, y)
    diff = est - rhs.values
    return float(np.max(np.abs(diff[2 : grid.N - 1])))
