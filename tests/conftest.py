"""Shared fixtures: the built-in worked instance and cached solves at several resolutions."""

import numpy as np
import pytest

from fdvi.config import build_problem, example_config
from fdvi.problem import SelectionPolicy, SolverConfig
from fdvi.solver import picard_solve


@pytest.fixture(scope="session")
def example_problem():
    return build_problem(example_config())


@pytest.fixture(scope="session")
def example_spec(example_problem):
    return example_problem.spec


def _solve(spec, n_nodes):
    cfg = SolverConfig(N=n_nodes)
    policy = SelectionPolicy.constant(0.0, spec.n)
    return picard_solve(spec, cfg, policy)


@pytest.fixture(scope="session")
def solved(example_spec):
    """Converged crisp (alpha = 1, lambda = 0) bundles keyed by N."""
    cache = {}

    def get(n_nodes):
        if n_nodes not in cache:
            cache[n_nodes] = _solve(example_spec, n_nodes)
        return cache[n_nodes]

    return get


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)
