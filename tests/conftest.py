import numpy as np
import pytest

from qglab.groups import builtin_table
from qglab.qgcore import dual, function_algebra
from qglab.tensorlin import projection_residual, span_basis

SMALL_GROUPS = ("Z1", "Z2", "Z3", "Z4", "S3")
ALL_GROUPS = ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "S3", "D4", "Q8")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


_q_cache = {}


def get_group(name, side="fn"):
    """Construction cache shared across tests; objects are immutable.  The
    dual side is the memoised dual of the cached function algebra."""
    if side != "fn":
        return dual(get_group(name))
    if name not in _q_cache:
        _q_cache[name] = function_algebra(builtin_table(name))
    return _q_cache[name]


def membership_residual(basis, x):
    """Oracle: normalized least-squares distance from ``x`` to the span of ``basis``."""
    return projection_residual(span_basis(basis), x)


@pytest.fixture
def z2():
    return get_group("Z2")


@pytest.fixture
def z3():
    return get_group("Z3")


@pytest.fixture
def s3():
    return get_group("S3")


@pytest.fixture
def s3_dual():
    return get_group("S3", "dual")
