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
