import csv
import math

import numpy as np
import pytest
from scipy.integrate import quad

import fdvi.fractional
from fdvi.errors import DimensionMismatch, DomainError, GridTooCoarse, IndexOutOfRange
from fdvi.fractional import (
    GridFunction,
    UniformGrid,
    _kernel_spectrum,
    _panel_weights,
    caputo_residual,
    frac_integral,
    frac_integral_all,
    trapezoid_integral,
)
from fdvi.special import gamma
from oracles import frac_integral_moments


def const_one(grid):
    return GridFunction(grid, np.ones(grid.N + 1))


# --- fractional integral ---------------------------------------------------


def test_constant_integrand_closed_form():
    grid = UniformGrid(0.7, 1000)
    v = frac_integral(1.6, const_one(grid), 1000)[0]
    assert v == pytest.approx(0.7**1.6 / gamma(2.6), abs=1e-13)
    # consistency with the contraction constant: rho = 2 * 0.5 * T^q / Gamma(q+1)
    assert 2.0 * 0.5 * v == pytest.approx(0.3953, abs=5e-4)


def test_linear_integrand_closed_form():
    grid = UniformGrid(0.7, 500)
    phi = GridFunction(grid, grid.nodes.copy())
    for q in (1.1, 1.6, 2.0):
        v = frac_integral(q, phi, 500)[0]
        assert v == pytest.approx(0.7 ** (q + 1.0) / gamma(q + 2.0), abs=1e-13)


def test_q2_constant_is_double_integral():
    grid = UniformGrid(1.3, 400)
    phi = GridFunction(grid, np.full(grid.N + 1, 2.5))
    assert frac_integral(2.0, phi, 400)[0] == pytest.approx(2.5 * 1.3**2 / 2.0, rel=1e-13)


@pytest.mark.parametrize("make, error", [
    (lambda: UniformGrid(0.0, 8), DomainError),
    (lambda: UniformGrid(-0.7, 8), DomainError),
    (lambda: UniformGrid(0.7, 1), DomainError),
    (lambda: GridFunction(UniformGrid(0.7, 4), np.zeros(4)), DimensionMismatch),
], ids=["T_zero", "T_negative", "N_one", "rows"])
def test_grid_and_grid_function_shapes_are_checked(make, error):
    with pytest.raises(error):
        make()


def test_node_zero_returns_zero_and_bad_index_raises():
    grid = UniformGrid(0.7, 16)
    phi = const_one(grid)
    assert frac_integral(1.6, phi, 0)[0] == 0.0
    with pytest.raises(IndexOutOfRange):
        frac_integral(1.6, phi, 17)
    with pytest.raises(DomainError):
        frac_integral(2.5, phi, 4)


def _direct_frac_integral_all(q, phi):
    """The direct O(N^2) sum: one np.convolve per column (the FFT path's oracle)."""
    grid = phi.grid
    n = grid.N
    a, b = _panel_weights(q, n, grid.h)
    vals = phi.values
    out = np.zeros_like(vals)
    out[1:] = a[1:, None] * vals[0][None, :] + b[1] * vals[1:]
    c = a[1:n] + b[2 : n + 1]
    for col in range(vals.shape[1]):
        conv = np.convolve(c, vals[1 : n + 1, col])
        out[2:, col] += conv[: n - 1]
    return out / gamma(q)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 1000, 1025, 4096])
def test_fft_convolution_matches_the_direct_sum(n):
    rng = np.random.default_rng(n)
    grid = UniformGrid(0.7, n)
    for dim in (1, 2, 3):
        phi = GridFunction(grid, rng.standard_normal((n + 1, dim)) + np.sin(3 * grid.nodes)[:, None])
        for q in (0.3, 1.0, 1.6, 2.0):
            want = _direct_frac_integral_all(q, phi)
            got = frac_integral_all(q, phi).values
            assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))


def test_cached_kernel_spectrum_is_read_only():
    nfft, spec = _kernel_spectrum(1.6, 100, 0.7 / 100)
    assert nfft == 256  # the next power of two >= 2N - 3
    assert not spec.flags.writeable
    with pytest.raises(ValueError):
        spec[0] = 0.0


def test_all_nodes_matches_per_node():
    # the orders include the y'(T) diagnostic's q - 1 and the Caputo estimator's 2 - q
    grid = UniformGrid(0.7, 200)
    phi = GridFunction(grid, np.column_stack([np.sin(3 * grid.nodes), np.exp(-grid.nodes)]))
    for q in (1.3, 0.4, 0.6, 1.1, 1.6, 2.0):
        full = frac_integral_all(q, phi)
        for i in (0, 1, 2, 57, 200):
            assert np.allclose(full.values[i], frac_integral(q, phi, i), atol=1e-13)


@pytest.mark.parametrize("n", [8, 1000, 4000])
def test_per_node_sum_matches_the_exact_moment_rule(n):
    # the lag-weight sum against the same rule built from each panel's exact
    # kernel moments at absolute node positions (tests/oracles.py).  Worst
    # difference measured over these cases: 3.4e-14, at q = 0.4, N = 4000,
    # i = N, where the oracle is the less accurate one (its error on phi = 1
    # is 3.2e-14 against the lag sum's 1.2e-15); bound 1e-13 relative.
    grid = UniformGrid(0.7, n)
    phi = GridFunction(grid, np.column_stack([np.sin(3 * grid.nodes), np.exp(-grid.nodes), np.ones(n + 1)]))
    for q in (0.4, 0.6, 1.1, 1.6, 2.0):
        for i in (1, 2, n // 2, n):
            want = frac_integral_moments(q, phi, i)
            got = frac_integral(q, phi, i)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_linearity():
    grid = UniformGrid(0.7, 128)
    rng = np.random.default_rng(3)
    phi = GridFunction(grid, rng.standard_normal(grid.N + 1))
    psi = GridFunction(grid, rng.standard_normal(grid.N + 1))
    a, b = 1.7, -0.4
    combo = GridFunction(grid, a * phi.values + b * psi.values)
    lhs = frac_integral(1.6, combo, 100)
    rhs = a * frac_integral(1.6, phi, 100) + b * frac_integral(1.6, psi, 100)
    assert np.allclose(lhs, rhs, atol=1e-12)


def _semigroup_errors(q1, q2, node_counts):
    errs = []
    for n_nodes in node_counts:
        grid = UniformGrid(0.7, n_nodes)
        inner = frac_integral_all(q2, const_one(grid))
        outer = frac_integral_all(q1, inner)
        exact = grid.nodes ** (q1 + q2) / gamma(q1 + q2 + 1.0)
        errs.append(np.max(np.abs(outer.values[:, 0] - exact)))
    return errs


def test_semigroup_spot_check():
    # I^q1 (I^q2 1)(t) = t^(q1+q2) / Gamma(q1+q2+1), checked by nesting grids.
    # The outer integrand is t^q2, so full O(h^2) needs q2 well above 1.
    for q1, q2 in ((0.6, 1.4), (1.1, 1.5), (1.5, 1.5)):
        errs = _semigroup_errors(q1, q2, (256, 512))
        assert errs[0] <= 1e-4
        assert 3.5 <= errs[0] / errs[1] <= 4.6


def test_semigroup_weakly_singular_inner_exponent_still_converges():
    # t^0.7 has an unbounded second derivative at 0; the rate drops but holds
    errs = _semigroup_errors(0.8, 0.7, (256, 512))
    assert errs[0] <= 1e-4
    assert errs[0] / errs[1] >= 2.5


def test_smooth_integrand_convergence_order():
    t = 0.7
    for q in (1.1, 1.6, 2.0):
        exact = quad(lambda tau: (t - tau) ** (q - 1.0) * math.exp(tau), 0.0, t,
                     epsabs=1e-14, epsrel=1e-14)[0] / gamma(q)
        errs = []
        for n_nodes in (1000, 2000):
            grid = UniformGrid(t, n_nodes)
            phi = GridFunction(grid, np.exp(grid.nodes))
            errs.append(abs(frac_integral(q, phi, n_nodes)[0] - exact))
        assert 3.5 <= errs[0] / errs[1] <= 4.5


# --- trapezoid -------------------------------------------------------------


def test_trapezoid_constant():
    grid = UniformGrid(0.7, 100)
    phi = GridFunction(grid, np.full(grid.N + 1, 3.0))
    assert trapezoid_integral(phi)[0] == pytest.approx(2.1, rel=1e-14)


def test_trapezoid_exact_for_linear():
    grid = UniformGrid(1.0, 10)
    phi = GridFunction(grid, grid.nodes.copy())
    assert trapezoid_integral(phi)[0] == pytest.approx(0.5, abs=1e-15)


def test_trapezoid_sine_against_antiderivative():
    grid = UniformGrid(0.7, 1000)
    phi = GridFunction(grid, np.sin(grid.nodes))
    assert trapezoid_integral(phi)[0] == pytest.approx(1.0 - math.cos(0.7), abs=1e-7)


# --- Caputo residual -------------------------------------------------------


def test_caputo_affine_annihilated():
    for n_nodes in (64, 256):
        grid = UniformGrid(0.7, n_nodes)
        y = GridFunction(grid, 2.0 + 3.0 * grid.nodes)
        assert caputo_residual(1.6, y, GridFunction.zeros(grid, 1)) <= 1e-9


def test_caputo_quadratic_power_rule():
    # d^q/dt^q of t^2 = 2 t^(2-q) / Gamma(3-q), exact for this scheme
    for q in (1.2, 1.6):
        grid = UniformGrid(0.7, 256)
        y = GridFunction(grid, grid.nodes**2)
        rhs = GridFunction(grid, 2.0 * grid.nodes ** (2.0 - q) / gamma(3.0 - q))
        assert caputo_residual(q, y, rhs) <= 1e-10


def test_caputo_cubic_converges():
    q = 1.5
    prev = None
    for n_nodes in (128, 256, 512):
        grid = UniformGrid(0.7, n_nodes)
        y = GridFunction(grid, grid.nodes**3)
        rhs = GridFunction(grid, 6.0 * grid.nodes**1.5 / gamma(2.5))
        r = caputo_residual(q, y, rhs)
        if prev is not None:
            assert r / prev <= 0.7
        prev = r


def test_caputo_exact_on_singular_mode():
    # t^q has constant Caputo derivative Gamma(q+1); the starting correction
    # makes the estimator exact on it
    q = 1.6
    grid = UniformGrid(0.7, 500)
    y = GridFunction(grid, grid.nodes**q)
    rhs = GridFunction(grid, np.full(grid.N + 1, gamma(q + 1.0)))
    assert caputo_residual(q, y, rhs) <= 1e-12


def test_caputo_estimate_convolves_once_per_call(monkeypatch):
    # the t^q correction is subtracted before the one convolution, with no
    # second convolution of t^q kept per grid; a grid no other test uses
    calls = []
    convolve = fdvi.fractional.frac_integral_all
    monkeypatch.setattr(fdvi.fractional, "frac_integral_all", lambda q, phi: calls.append(q) or convolve(q, phi))
    q = 1.37
    grid = UniformGrid(0.61, 37)
    y = GridFunction(grid, np.column_stack([grid.nodes**q, np.cos(grid.nodes)]))
    for _ in range(2):
        est = fdvi.fractional.caputo_estimate(q, y)
        assert np.max(np.abs(est[:, 0] - gamma(q + 1.0))) <= 1e-12
    assert calls == [2.0 - q] * 2


def test_caputo_q2_is_second_difference():
    grid = UniformGrid(1.0, 64)
    y = GridFunction(grid, np.sin(grid.nodes))
    rhs = GridFunction(grid, -np.sin(grid.nodes))
    assert caputo_residual(2.0, y, rhs) <= 1e-3


def test_caputo_guards():
    grid = UniformGrid(0.7, 6)
    y = GridFunction(grid, grid.nodes.copy())
    with pytest.raises(GridTooCoarse):
        caputo_residual(1.6, y, GridFunction.zeros(grid, 1))
    grid = UniformGrid(0.7, 64)
    y = GridFunction(grid, grid.nodes.copy())
    with pytest.raises(DomainError):
        caputo_residual(0.9, y, GridFunction.zeros(grid, 1))
    other = GridFunction.zeros(UniformGrid(0.7, 32), 1)
    with pytest.raises(DimensionMismatch):
        caputo_residual(1.6, y, other)


# --- grid function io ------------------------------------------------------


def test_grid_function_csv_round_trip(tmp_path):
    grid = UniformGrid(0.7, 50)
    rng = np.random.default_rng(9)
    phi = GridFunction(grid, rng.standard_normal((51, 2)))
    path = tmp_path / "phi.csv"
    phi.to_csv(path)
    again = GridFunction.read_csv(path)
    assert again.grid == grid
    assert np.array_equal(again.values, phi.values)


@pytest.mark.parametrize("columns", [["a"], ["a", "b", "c"]])
def test_csv_column_names_must_match_the_values(tmp_path, columns):
    # a header of another width is one read_csv rejects, so nothing is written
    phi = GridFunction(UniformGrid(0.7, 4), np.zeros((5, 2)))
    with pytest.raises(DimensionMismatch):
        phi.to_csv(tmp_path / "phi.csv", columns)
    assert list(tmp_path.iterdir()) == []


def _cell_by_cell_csv(phi, path):
    """The cell-by-cell csv.writer output that GridFunction.to_csv must reproduce."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *[f"v{i + 1}" for i in range(phi.dim)]])
        for t, row in zip(phi.grid.nodes, phi.values):
            writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])


@pytest.mark.parametrize("rows", [3, 256, 257, 1001])
@pytest.mark.parametrize("dim", [1, 5])
def test_csv_writer_is_byte_identical_to_cell_by_cell(tmp_path, rows, dim):
    grid = UniformGrid(0.7, rows - 1)
    rng = np.random.default_rng(rows * dim)
    special = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 3.0])
    values = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-20, 20, (rows, dim))
    flat = values.reshape(-1)
    flat[: min(special.size, flat.size)] = special[: flat.size]
    phi = GridFunction(grid, values)
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    phi.to_csv(fast)
    _cell_by_cell_csv(phi, slow)
    assert fast.read_bytes() == slow.read_bytes()
    again = GridFunction.read_csv(fast)
    assert again.grid == grid
    assert np.array_equal(again.values.view(np.int64), phi.values.view(np.int64))


def test_grid_function_rejects_nonfinite():
    grid = UniformGrid(0.7, 4)
    with pytest.raises(DomainError):
        GridFunction(grid, np.array([0.0, 1.0, np.nan, 2.0, 3.0]))


def test_csv_time_column_is_cached_per_horizon_and_resolution(tmp_path):
    # the t field is formatted once per grid; grids that share N but not T,
    # or T but not N, must not share it, and a repeated write reads it back
    rng = np.random.default_rng(13)
    for t_horizon, n_cells in ((0.7, 100), (1.3, 100), (0.7, 99), (0.7, 100)):
        phi = GridFunction(UniformGrid(t_horizon, n_cells), rng.standard_normal((n_cells + 1, 2)))
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        phi.to_csv(fast)
        _cell_by_cell_csv(phi, slow)
        assert fast.read_bytes() == slow.read_bytes()
