import pytest
from hypothesis import settings

from wqalg import build_preset

# exact arithmetic on generated inputs has no useful per-example time limit
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def g2():
    return build_preset("g2")


@pytest.fixture(scope="session")
def e6():
    return build_preset("e6")


@pytest.fixture(scope="session")
def d4():
    return build_preset("dn", 4)


@pytest.fixture(scope="session")
def d5():
    return build_preset("dn", 5)


@pytest.fixture(scope="session")
def closure_presets(g2, e6, d4, d5):
    return [d4, d5, build_preset("dn", 6), build_preset("dn", 7),
            build_preset("dn", 8), e6, g2]
