"""Construction of quantum groups from Cayley tables, their duals, and the
structural identity catalog."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import ALL_GROUPS, SMALL_GROUPS, get_group, membership_residual

from qglab import qgcore
from qglab.funalg import tensor_algebra_decomposition
from qglab.groups import builtin_table
from qglab.qgcore import (
    KIND_FUNCTION,
    FiniteQuantumGroup,
    coassociativity_residual,
    comultiply,
    derived_unitaries,
    dual,
    function_algebra,
    left_fixed_vector,
    structure_identity_residuals,
)
from qglab.tensorlin import dagger, flip_matrix, operator_norm


def random_algebra_element(q, rng):
    c = rng.standard_normal(len(q.ortho_basis)) + 1j * rng.standard_normal(len(q.ortho_basis))
    return sum(ci * b for ci, b in zip(c, q.ortho_basis))


class TestFunctionAlgebra:
    def test_z2_unitary_is_block_swap(self, z2):
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = 1
        expected[3, 2] = expected[2, 3] = 1
        assert np.abs(z2.W - expected).max() == 0

    def test_trivial_group_scalars(self):
        q = get_group("Z1")
        assert q.W.shape == (1, 1)
        assert abs(q.W[0, 0] - 1) == 0
        assert max(structure_identity_residuals(q).values()) <= 1e-12

    def test_unitary_is_permutation(self, s3):
        w = s3.W
        assert np.array_equal(np.unique(w), np.array([0.0, 1.0]))
        assert np.array_equal(w.sum(axis=0), np.ones(36))
        assert np.array_equal(w.sum(axis=1), np.ones(36))

    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_algebra_star_closed_with_identity(self, name):
        q = get_group(name)
        basis = q.algebra_basis
        assert membership_residual(basis, np.eye(q.dim)) <= 1e-10
        for a in basis:
            assert membership_residual(basis, dagger(a)) <= 1e-10
            for b in basis:
                assert membership_residual(basis, a @ b) <= 1e-10


class TestStructureCatalog:
    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_function_algebra_catalog(self, name):
        residuals = structure_identity_residuals(get_group(name))
        assert max(residuals.values()) <= 1e-10, residuals

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_dual_catalog(self, name):
        residuals = structure_identity_residuals(get_group(name, "dual"))
        assert max(residuals.values()) <= 1e-10, residuals

    def test_z2_catalog_tight(self, z2):
        assert max(structure_identity_residuals(z2).values()) <= 1e-12

    def test_modular_conjugations_commute(self, s3):
        k1 = s3.Jhat.compose(s3.J)
        k2 = s3.J.compose(s3.Jhat)
        assert operator_norm(k1 - k2) <= 1e-10

    @pytest.mark.parametrize("name", ALL_GROUPS)
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_doubled_algebra_basis_is_orthonormal(self, name, side):
        q = get_group(name, side)
        # the dense Kronecker list of the orthonormal bases of M and Mhat
        basis = [np.kron(a, b) for a in q.ortho_basis for b in dual(q).ortho_basis]
        stacked = np.stack([b.reshape(-1) for b in basis])
        gram = stacked.conj() @ stacked.T
        assert np.abs(gram - np.eye(len(basis))).max() <= 1e-12
        # re-orthonormalizing the products gives the same membership residual
        residual = structure_identity_residuals(q)["W_in_doubled_algebra"]
        assert abs(residual - membership_residual(basis, q.W)) <= 1e-12

    @pytest.mark.parametrize("name", ["Z3", "S3"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_swapped_columns_of_w_break_pentagon_and_coassociativity(self, name, side):
        q = get_group(name, side)
        x = sum((k + 1) * b for k, b in enumerate(q.ortho_basis))
        assert structure_identity_residuals(q)["pentagonal"] == 0.0
        assert coassociativity_residual(q, x) == 0.0
        w = q.W.copy()
        w[:, [1, 2]] = w[:, [2, 1]]
        # built directly, so no construction check rejects the broken unitary
        broken = FiniteQuantumGroup(
            name=q.name,
            dim=q.dim,
            W=w,
            J=q.J,
            Jhat=q.Jhat,
            haar_vector=q.haar_vector,
            algebra_basis=q.algebra_basis,
            kind=q.kind,
            table=q.table,
        )
        assert structure_identity_residuals(broken)["pentagonal"] > 1e-10
        assert coassociativity_residual(broken, x) > 1e-10


class TestDerivedUnitaries:
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_commutant_equals_original_for_function_algebras(self, name):
        q = get_group(name)
        der = derived_unitaries(q)
        assert np.abs(der.wprime - q.W).max() <= 1e-12

    def test_dual_unitary_entrywise_z2(self, z2):
        der = derived_unitaries(z2)
        f = flip_matrix(2, 2)
        assert np.abs(der.what - f @ dagger(z2.W) @ f).max() == 0

    def test_dual_right_unitary_equals_commutant(self, s3):
        der = derived_unitaries(s3)
        assert np.abs(der.vhat - der.wprime).max() <= 1e-12

    def test_all_derived_unitary(self, s3, rng):
        der = derived_unitaries(s3)
        for u in der:
            assert operator_norm(dagger(u) @ u - np.eye(36)) <= 1e-12


class TestDual:
    def test_z2_dual_spans_circulants(self, z2):
        qd = dual(z2)
        lam0 = np.eye(2)
        lam1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert membership_residual(qd.algebra_basis, lam0) <= 1e-12
        assert membership_residual(qd.algebra_basis, lam1) <= 1e-12
        assert len(qd.algebra_basis) == 2

    def test_z2_slice_at_point_mass_is_translation(self, z2):
        from qglab.tensorlin import slice_first

        out = slice_first(z2.W, np.eye(2)[1])
        assert np.abs(out - np.array([[0.0, 1.0], [1.0, 0.0]])).max() <= 1e-14

    def test_dual_of_z3_bidual_restores_unitary(self, z3):
        # A copy of the dual with an empty cache, so the bidual is rebuilt
        # from the slices of What instead of returned from the memo.
        qdd = dual(replace(dual(z3), _cache={}))
        assert qdd is not z3
        assert qdd.kind == KIND_FUNCTION
        assert np.abs(qdd.W - z3.W).max() <= 1e-10

    def test_trivial_group_self_dual(self):
        q = get_group("Z1")
        qd = dual(q)
        assert np.abs(qd.W - q.W).max() == 0

    def test_dual_swaps_conjugations(self, s3):
        qd = dual(s3)
        assert np.abs(qd.J.u - s3.Jhat.u).max() == 0
        assert np.abs(qd.Jhat.u - s3.J.u).max() == 0

    def test_group_algebra_is_left_translations(self, s3):
        qd = dual(s3)
        table = builtin_table("S3")
        for g in range(6):
            lam = np.zeros((6, 6))
            for h in range(6):
                lam[table.product(g, h), h] = 1.0
            assert membership_residual(qd.algebra_basis, lam) <= 1e-10

    def test_dual_haar_vector_is_point_mass(self, s3):
        qd = dual(s3)
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.linalg.norm(qd.haar_vector - expected) <= 1e-10

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_bidual_is_the_same_object(self, name):
        q = get_group(name)
        qd = dual(q)
        assert dual(q) is qd
        assert dual(qd) is q

    def test_pair_freed_without_cyclic_collector(self):
        # the dual links back to q weakly, so q and its dual form no cycle
        # and reference counting alone frees them
        q = function_algebra(builtin_table("S3"))
        qd = dual(q)
        tensor_algebra_decomposition(qd)
        refs = [weakref.ref(q), weakref.ref(qd)]
        gc.disable()
        try:
            del q, qd
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_failed_dual_check_caches_nothing(self, monkeypatch):
        q = function_algebra(builtin_table("Z2"))

        def reject(candidate, tol=1e-10):
            raise ValueError(f"{candidate.name}: rejected")

        monkeypatch.setattr(qgcore, "_check_construction", reject)
        with pytest.raises(ValueError, match="rejected"):
            dual(q)
        assert "dual" not in q._cache

    def test_bidual_haar_vector_is_uniform(self, z3):
        qdd = dual(replace(dual(z3), _cache={}))
        assert qdd.kind == KIND_FUNCTION
        expected = np.ones(3) / np.sqrt(3)
        assert np.linalg.norm(qdd.haar_vector - expected) <= 1e-10

    def test_left_fixed_vector_of_function_algebra(self, s3):
        v = left_fixed_vector(s3.W, 6)
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.linalg.norm(v - expected) <= 1e-10


class TestComultiplication:
    def test_unital(self, s3):
        assert np.abs(comultiply(s3, np.eye(6)) - np.eye(36)).max() <= 1e-12

    def test_z2_classical_formula(self, z2):
        x = np.diag([2.0, 5.0])
        out = comultiply(z2, x)
        table = builtin_table("Z2")
        vals = [2.0, 5.0]
        expected = np.diag([vals[table.product(s, t)] for s in range(2) for t in range(2)])
        assert np.abs(out - expected).max() <= 1e-12

    @pytest.mark.parametrize("name", ["Z3", "S3"])
    def test_coassociativity(self, name, rng):
        q = get_group(name)
        x = random_algebra_element(q, rng)
        assert coassociativity_residual(q, x) <= 1e-10

    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_star_homomorphism(self, side, rng):
        q = get_group("S3", side)
        x = random_algebra_element(q, rng)
        y = random_algebra_element(q, rng)
        gx, gy, gxy = comultiply(q, x), comultiply(q, y), comultiply(q, x @ y)
        assert operator_norm(gx @ gy - gxy) <= 1e-10
        assert operator_norm(comultiply(q, dagger(x)) - dagger(gx)) <= 1e-10

    def test_image_commutes_with_doubled_commutant(self, s3, rng):
        x = random_algebra_element(s3, rng)
        gx = comultiply(s3, x)
        for b in s3.ortho_basis[:3]:
            yp = s3.J.conjugate(b)  # an element of the commutant
            for other in (np.kron(yp, np.eye(6)), np.kron(np.eye(6), yp)):
                assert operator_norm(gx @ other - other @ gx) <= 1e-10


class TestMembershipResidual:
    def test_member(self, s3):
        assert membership_residual(s3.algebra_basis, s3.algebra_basis[0]) <= 1e-12

    def test_orthogonal_unit(self, z2):
        off = np.zeros((2, 2))
        off[0, 1] = 1.0
        assert abs(membership_residual(z2.algebra_basis, off) - 1.0) <= 1e-12

    def test_random_combination(self, s3, rng):
        x = random_algebra_element(s3, rng)
        assert membership_residual(s3.algebra_basis, x) <= 1e-12

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError):
            membership_residual([], np.eye(2))
