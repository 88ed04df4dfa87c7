import pytest
from hypothesis import settings

from arithinv import corpus

# Property tests draw the same examples on every run, and a slow example
# on a loaded machine is not a failure.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def bundled():
    return corpus.load_corpus()


@pytest.fixture(scope="session")
def fstats(bundled):
    return corpus.field_stats(bundled)


@pytest.fixture(scope="session")
def cstats(bundled):
    return corpus.curve_stats(bundled)
