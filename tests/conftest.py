import os

import numpy as np
import pytest

import fermipulse as fp


@pytest.fixture(scope="session")
def trap():
    return fp.TrapModel()


@pytest.fixture(scope="session")
def pulse():
    return fp.PulseModel.two_pi()


@pytest.fixture(scope="session")
def state_cache():
    """Session-wide cache of solved thermal states keyed by (N, tau, stat)."""
    cache = {}

    def get(n_atoms, tau, statistics=fp.Statistics.FERMI_DIRAC):
        key = (n_atoms, round(tau, 12), statistics)
        if key not in cache:
            cache[key] = fp.solve_fugacity(n_atoms, tau, statistics)
        return cache[key]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def package_env():
    """Environment for a child interpreter that imports this fermipulse."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fp.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
