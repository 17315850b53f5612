"""Product algebras held as their factor stacks: the factored projection and
draw against the dense Kronecker-list oracles, and no such list in the caches."""

import numpy as np
import pytest

from conftest import (
    SMALL_GROUPS,
    dense_projection_residual,
    get_group,
    perm_matrix,
    random_algebra,
    random_doubled,
    tensor_ortho_basis,
)

from qglab import suites
from qglab.groups import builtin_table
from qglab.qgcore import dual, function_algebra
from qglab.tensorlin import projection_residual


@pytest.mark.parametrize("side", ["fn", "dual"])
@pytest.mark.parametrize("name", SMALL_GROUPS)
class TestFactoredAgainstDenseList:
    def test_projection_residual(self, name, side, rng):
        q = get_group(name, side)
        n2 = q.dim ** 2
        lam = random_doubled(q, rng)
        noise = rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))
        dense = tensor_ortho_basis(q)
        for x in (lam, lam + 1e-3 * noise):
            factored = projection_residual((q.ortho_basis, q.ortho_basis), x)
            assert abs(factored - dense_projection_residual(dense, x)) <= 1e-12
        hat = dual(q).ortho_basis
        mixed = [np.kron(a, b) for a in q.ortho_basis for b in hat]
        w = perm_matrix(q.w)
        factored = projection_residual((q.ortho_basis, hat), w)
        assert abs(factored - dense_projection_residual(mixed, w)) <= 1e-12

    def test_draw_from_same_stream(self, name, side):
        q = get_group(name, side)
        coeff = suites._coefficients(np.random.default_rng(11), len(q.ortho_basis))
        x = suites._unit_elements(q, coeff[None])[0]
        assert np.abs(x - random_algebra(q, np.random.default_rng(11))).max() <= 1e-13
        # M (x) M is drawn as coordinates, scaled by the norm of its blocks
        coeff = suites._coefficients(np.random.default_rng(11), len(q.ortho_basis) ** 2)
        lam = suites._unit_doubled(q, coeff)
        assert np.abs(lam - random_doubled(q, np.random.default_rng(11))).max() <= 1e-13


def test_no_kronecker_list_cached_after_bound_suites():
    q = function_algebra(builtin_table("S3"))
    n2 = q.dim ** 2
    cfg = suites.RunConfig("S3", suites=("thm33", "thm44"), epsilons=(0.1,), draws=2, bound_draws=2)
    for obj in (q, dual(q)):
        for suite in cfg.suites:
            suites.SUITE_FUNCS[suite](obj, cfg, np.random.default_rng(0))
        for key, value in obj._cache.items():
            if isinstance(value, (list, tuple, np.ndarray)):
                products = [v for v in value if np.shape(v) == (n2, n2)]
                assert len(products) < n2, key
