import numpy as np
import pytest

from qglab.groups import builtin_table
from qglab.qgcore import dual, function_algebra
from qglab.tensorlin import operator_norm, span_basis

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


def dense_projection_residual(ortho_basis, x):
    """Oracle: relative distance from ``x`` to the span of an orthonormal list
    of matrices, projecting one basis element at a time."""
    vec = x.reshape(-1).astype(complex)
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        return 0.0
    proj = np.zeros_like(vec)
    for b in ortho_basis:
        bvec = b.reshape(-1)
        proj += np.vdot(bvec, vec) * bvec
    return float(np.linalg.norm(vec - proj) / nrm)


def membership_residual(basis, x):
    """Oracle: normalized least-squares distance from ``x`` to the span of ``basis``."""
    return dense_projection_residual(span_basis(basis), x)


def tensor_ortho_basis(q):
    """Oracle: the orthonormal basis of ``M (x) M`` as the dense list of its
    ``n^2`` Kronecker products, first factor's index slow."""
    return [np.kron(a, b) for a in q.ortho_basis for b in q.ortho_basis]


def random_doubled(q, rng, norm_one=True):
    """Dense random element of ``M (x) M``: one complex Gaussian coefficient per
    Kronecker product, summed in list order."""
    basis = tensor_ortho_basis(q)
    c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    lam = sum(ci * b for ci, b in zip(c, basis))
    return lam / operator_norm(lam) if norm_one else lam


def random_algebra(q, rng):
    """Dense random norm-one element of ``M``."""
    c = rng.standard_normal(len(q.ortho_basis)) + 1j * rng.standard_normal(len(q.ortho_basis))
    x = sum(ci * b for ci, b in zip(c, q.ortho_basis))
    return x / operator_norm(x)


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
