import os
import pathlib
import sys
import time

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from catring import build_presentation, complete, presentation_c4

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def src_env() -> dict:
    """The environment for a subprocess that imports catring from the
    source tree, as pytest's `pythonpath` setting does in this process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env

# wall-clock cost of building the shared rings, charged to the completion
# acceptance budget
RING_BUILD_SECONDS = {}


def _timed_ring(k):
    t0 = time.perf_counter()
    ring = complete(build_presentation(k))
    RING_BUILD_SECONDS[k] = time.perf_counter() - t0
    return ring


@pytest.fixture(scope="session")
def ring1():
    return _timed_ring(1)


@pytest.fixture(scope="session")
def ring2():
    return _timed_ring(2)


@pytest.fixture(scope="session")
def ring3():
    return _timed_ring(3)


@pytest.fixture(scope="session")
def ring4():
    return _timed_ring(4)


@pytest.fixture(scope="session")
def ring6():
    return complete(build_presentation(6))


@pytest.fixture(scope="session")
def ring_c4_hand():
    return complete(presentation_c4())


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES
