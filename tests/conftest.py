import json

import pytest
from hypothesis import settings

from conicbundle.conic import FibreConic
from conicbundle.surface import validate


S1_COEFFS = {"a": [1, 0], "d": [0, 1], "f": [1, -1], "b": [1, 0, 1], "e": [0, 1, 0]}
SPLIT_COEFFS = {"a": [0, 1], "d": [2, 1], "f": [2, 0], "b": [0, 0, 1], "e": [1, 0, 0]}


@pytest.fixture(scope="session")
def s1():
    return validate(
        S1_COEFFS["a"], S1_COEFFS["d"], S1_COEFFS["f"],
        S1_COEFFS["b"], S1_COEFFS["e"],
    )


@pytest.fixture(scope="session")
def split_surface():
    return validate(
        SPLIT_COEFFS["a"], SPLIT_COEFFS["d"], SPLIT_COEFFS["f"],
        SPLIT_COEFFS["b"], SPLIT_COEFFS["e"],
    )


@pytest.fixture(scope="session")
def xyz_conic():
    # x^2 - yz: the standard fully split conic
    return FibreConic(1, 0, 0, -1, 0, weight=1)


@pytest.fixture(scope="session")
def c11(s1):
    from conicbundle.surface import FibreIndex, fibre_conic

    return fibre_conic(s1, FibreIndex(1, 1))


@pytest.fixture(scope="session")
def c12(s1):
    from conicbundle.surface import FibreIndex, fibre_conic

    return fibre_conic(s1, FibreIndex(1, 2))


@pytest.fixture(scope="session")
def s1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("surfaces") / "s1.json"
    path.write_text(json.dumps(S1_COEFFS))
    return str(path)


@pytest.fixture(scope="session")
def split_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("surfaces") / "split.json"
    path.write_text(json.dumps(SPLIT_COEFFS))
    return str(path)


# Tier-1 must be reproducible and must not flake on per-example deadlines on
# a slow or shared machine: fixed example sequence, no deadline.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
