import pytest

from negabench.core import max_n, set_max_n


@pytest.fixture(autouse=True)
def _restore_capacity_limit():
    # some tests move the global cap; cli.main puts it back after each call
    old = max_n()
    yield
    set_max_n(old)


@pytest.fixture
def nega_parts():
    """(re, im) of a NegaSpectrum at every point, as int64 arrays."""
    return lambda nf: nf.parts(slice(None))
