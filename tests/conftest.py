import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240807)


@pytest.fixture(scope="session")
def earth():
    from eqnav.kinematics import EarthModel

    return EarthModel()
