import sys

import numpy as np
import pytest

from expanderlab import spectral
from expanderlab.exponents import derived_exponents
from expanderlab.profiles import RadialGrid
from expanderlab.spectral import find_alpha_star, select_unstable_expander


@pytest.fixture(autouse=True)
def cold_shooter_slot():
    """Every test starts with spectral's shooter slot empty, so a test that
    counts solver work measures a cold slot whatever ran before it."""
    spectral._shooter.cache_clear()


@pytest.fixture
def refuse_numpy_linalg(monkeypatch):
    """numpy's least-squares and dense solvers raise under every name a
    loaded module binds them to: the first call of lstsq pages in about 1
    MiB and that of solve about 0.3 MiB, and no command needs either."""
    for name in ("lstsq", "solve"):
        target = getattr(np.linalg, name)

        def refused(*args, name=name, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")

        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(name) is target:
                monkeypatch.setattr(module, name, refused)


@pytest.fixture(scope="session")
def params53():
    return derived_exponents(5, 3.0)


@pytest.fixture(scope="session")
def params32():
    return derived_exponents(3, 2.0)


@pytest.fixture(scope="session")
def params117():
    return derived_exponents(11, 7.0)


@pytest.fixture(scope="session")
def grid_default():
    return RadialGrid.uniform()


@pytest.fixture(scope="session")
def alpha_star53(params53):
    return find_alpha_star(params53, bracket=(0.1, 50.0), tol=1e-6)


@pytest.fixture(scope="session")
def selected53(params53, grid_default):
    """Unstable expander used by the spectral, dynamics and demo tests."""
    return select_unstable_expander(params53, eps_target=0.05,
                                    grid=grid_default)


@pytest.fixture(scope="session")
def demo53(params53):
    from expanderlab.dynamics import nonuniqueness_demo
    return nonuniqueness_demo(params53, q=2.0, r=10.0)
