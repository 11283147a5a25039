import numpy as np
import pytest
from hypothesis import settings

from prefmax import get_fixture

# Differential tests compare array kernels with scalar references example by
# example; a fixed example sequence and no per-example deadline keep them
# reproducible on a slow or loaded machine. Apply with
# `@settings.get_profile("differential")`.
settings.register_profile("differential", derandomize=True, deadline=None)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def vee():
    return get_fixture("vee-peak")


@pytest.fixture
def kinked():
    return get_fixture("kinked-threshold")


@pytest.fixture
def favored():
    return get_fixture("favored-one")


@pytest.fixture
def band():
    return get_fixture("band-threshold")


@pytest.fixture
def halfline():
    return get_fixture("halfline-plane")


@pytest.fixture
def segment():
    return get_fixture("segment-line")


@pytest.fixture
def radial():
    return get_fixture("radial-bowl")
