import pytest
from hypothesis import Phase, settings

from arithinv import corpus

# Property tests draw the same examples on every run, and a slow example
# on a loaded machine is not a failure.  A failing example is reported as
# found, unshrunk: shrinking a broken law can take minutes.
settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    database=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
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
