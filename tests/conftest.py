import numpy as np
import pytest
from hypothesis import settings

from trigan import density as dn
from trigan import hypothesis as hyp

# property tests draw the same examples on every run and have no time limit
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def tilted():
    return dn.make_density("tilted", resolution=129)


@pytest.fixture(scope="session")
def product2():
    return dn.make_density("product", dim=2, resolution=129)


@pytest.fixture(scope="session")
def coupled():
    return dn.make_density("coupled", resolution=129)


@pytest.fixture(scope="session")
def rough3():
    # non-separable 3D density: rank-3 map components mix four prefix corners
    vals = 0.2 + np.random.default_rng(43).random((17, 17, 17))
    return dn.normalize(dn.GridDensity(3, 17, vals))


@pytest.fixture(scope="session")
def uniform1():
    return dn.make_density("uniform", dim=1, resolution=129)


@pytest.fixture(scope="session")
def cfg1():
    # 1D quadratic family, certified box back-solved for K=2
    return hyp.make_config(1, K=2.0)


@pytest.fixture(scope="session")
def cfg2():
    return hyp.make_config(2, K=3.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260818)
