import pytest

from hgtrace import curve_lab
from hgtrace.field_core import build_ctx


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true",
                     help="also run the tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow; run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def ctx7():
    return build_ctx(7)


@pytest.fixture(scope="session")
def ctx11():
    return build_ctx(11)


@pytest.fixture(scope="session")
def ctx13():
    return build_ctx(13)


@pytest.fixture(scope="session")
def ctx37():
    return build_ctx(37)


@pytest.fixture(params=[1.0, 0.4], ids=["off-by-1", "off-by-0.4"])
def skewed_legendre_correlation(request, monkeypatch):
    """curve_lab._legendre_correlation with its value at lambda = 5 off by 1
    or by 0.4, and an empty legendre_trace_sweep cache; returns the error."""
    real = curve_lab._legendre_correlation

    def skewed(ctx):
        c = real(ctx)
        c[5] += request.param
        return c

    monkeypatch.setattr(curve_lab, "_legendre_correlation", skewed)
    curve_lab.legendre_trace_sweep.cache_clear()
    return request.param
