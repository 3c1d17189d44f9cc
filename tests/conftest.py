import numpy as np
import pytest

from qsolidtorus.families import CoefficientFamily, default_families


@pytest.fixture(scope="session")
def families():
    return default_families()


@pytest.fixture(scope="session")
def unit_coeffs():
    return CoefficientFamily(tail_rule="constant", kappa=1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20250808)
