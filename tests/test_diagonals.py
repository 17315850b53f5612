"""Invariance defects, the commutant compression, diagonal candidates, and the
certified commutator bound."""

import numpy as np
import pytest

from conftest import SMALL_GROUPS, get_group, membership_residual, random_doubled

from qglab.diagonals import (
    NetVector,
    build_diagonal,
    certify_commutator_bound,
    commutant_compression,
    compression_choi_matrix,
    compression_kraus_factor,
    compression_variant_residuals,
    diagonal_residuals,
    dual_quasicentral_residual,
    exact_nets,
    left_invariance_residual,
    perturbed_vector,
    right_invariance_residual,
)
from qglab.funalg import vector_state
from qglab.groups import builtin_table
from qglab.qgcore import derived_unitaries
from qglab.tensorlin import dagger, normalize, operator_norm, random_unit_vector


class TestInvarianceResiduals:
    def test_uniform_vector_exactly_right_invariant(self, s3, rng):
        xi = np.ones(6) / np.sqrt(6)
        for _ in range(5):
            zeta = random_unit_vector(rng, 6)
            assert right_invariance_residual(s3, xi, zeta) <= 1e-12

    def test_point_mass_off_identity_displaced(self, s3):
        n = 6
        xi = np.eye(n)[0]
        for g in range(1, n):
            zeta = np.eye(n)[g]
            assert abs(right_invariance_residual(s3, xi, zeta) - np.sqrt(2)) <= 1e-12

    def test_interpolated_family_is_continuous(self, z3):
        n = 3
        uniform = np.ones(n) / np.sqrt(n)
        zeta = np.eye(n)[1]
        previous = right_invariance_residual(z3, uniform, zeta)
        assert previous <= 1e-12
        ts = np.linspace(0.0, 1.0, 11)
        values = []
        for t in ts:
            xi = normalize((1 - t) * uniform + t * np.eye(n)[0])
            values.append(right_invariance_residual(z3, xi, zeta))
        assert values[0] <= 1e-12
        steps = np.abs(np.diff(values))
        assert steps.max() <= 0.5  # no jumps along the path

    def test_identity_point_mass_exactly_left_invariant(self, s3, rng):
        eta = np.eye(6)[0]
        for _ in range(5):
            zeta = random_unit_vector(rng, 6)
            assert left_invariance_residual(s3, eta, zeta) <= 1e-12

    def test_left_invariance_z2_uniform_value(self, z2):
        eta = np.ones(2) / np.sqrt(2)
        zeta = np.eye(2)[1]
        v = np.kron(eta, zeta)
        expected = np.linalg.norm(z2.W @ v - v)
        assert abs(left_invariance_residual(z2, eta, zeta) - expected) <= 1e-15
        assert expected > 0.9  # displaced by the swap on the second slot

    def test_left_invariance_displacement(self, s3):
        table = builtin_table("S3")
        n = 6
        for g in range(1, n):
            for h in range(n):
                eta, zeta = np.eye(n)[g], np.eye(n)[h]
                r = left_invariance_residual(s3, eta, zeta)
                if table.product(g, h) != h:
                    assert abs(r - np.sqrt(2)) <= 1e-12
                else:
                    assert r <= 1e-12

    def test_two_lipschitz_in_each_argument(self, s3, rng):
        for _ in range(10):
            xi1 = random_unit_vector(rng, 6)
            xi2 = random_unit_vector(rng, 6)
            zeta = random_unit_vector(rng, 6)
            r1 = right_invariance_residual(s3, xi1, zeta)
            r2 = right_invariance_residual(s3, xi2, zeta)
            assert abs(r1 - r2) <= 2.0 * np.linalg.norm(xi1 - xi2) + 1e-12
            l1 = left_invariance_residual(s3, xi1, zeta)
            l2 = left_invariance_residual(s3, xi2, zeta)
            assert abs(l1 - l2) <= 2.0 * np.linalg.norm(xi1 - xi2) + 1e-12
            z2b = random_unit_vector(rng, 6)
            r3 = right_invariance_residual(s3, xi1, z2b)
            assert abs(r1 - r3) <= 2.0 * np.linalg.norm(zeta - z2b) + 1e-12


def commutant_mismatch(q, a, b):
    """``|| W*(a (x) b) - W'*(a (x) b) ||``, with ``W'`` the commutant unitary."""
    wprime = derived_unitaries(q).wprime
    v = np.kron(a, b)
    return float(np.linalg.norm(dagger(q.W) @ v - dagger(wprime) @ v))


class TestCommutantMismatch:
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_function_algebras_have_no_mismatch(self, name, rng):
        q = get_group(name)
        xi = random_unit_vector(rng, q.dim)
        zeta = random_unit_vector(rng, q.dim)
        assert commutant_mismatch(q, xi, zeta) <= 1e-12
        assert commutant_mismatch(q, zeta, xi) <= 1e-12

    def test_abelian_dual_has_no_mismatch(self, rng):
        q = get_group("Z4", "dual")
        for _ in range(5):
            xi = random_unit_vector(rng, 4)
            zeta = random_unit_vector(rng, 4)
            assert commutant_mismatch(q, xi, zeta) <= 1e-12

    def test_nonabelian_dual_mismatch_logged(self, s3_dual, rng):
        values = [
            commutant_mismatch(
                s3_dual, random_unit_vector(rng, 6), random_unit_vector(rng, 6)
            )
            for _ in range(10)
        ]
        # no reference value exists here; just confirm the defect is bounded
        assert all(0.0 <= v <= 2.0 + 1e-12 for v in values)


class TestCommutantCompression:
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_unital(self, side, rng):
        q = get_group("S3", side)
        xi = random_unit_vector(rng, 6)
        out = commutant_compression(q, xi, np.eye(36))
        assert operator_norm(out - np.eye(6)) <= 1e-10

    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_range_in_algebra(self, side, rng):
        q = get_group("S3", side)
        xi = random_unit_vector(rng, 6)
        lam = random_doubled(q, rng)
        out = commutant_compression(q, xi, lam)
        assert membership_residual(q.algebra_basis, out) <= 1e-9

    def test_choi_positive(self, z3, rng):
        for _ in range(5):
            xi = random_unit_vector(rng, 3)
            choi = compression_choi_matrix(z3, xi)
            assert np.linalg.eigvalsh(choi)[0] >= -1e-9

    def test_choi_matches_map_on_matrix_units(self, z3, rng):
        xi = random_unit_vector(rng, 3)
        choi = compression_choi_matrix(z3, xi).reshape(9, 3, 9, 3)
        for idx in [(0, 0), (3, 7), (8, 2)]:
            unit = np.zeros((9, 9))
            unit[idx] = 1.0
            out = commutant_compression(z3, xi, unit)
            assert np.abs(choi[idx[0], :, idx[1], :] - out).max() <= 1e-12

    def test_kraus_factorization(self, s3, rng):
        xi = random_unit_vector(rng, 6)
        b = compression_kraus_factor(s3, xi)
        lam = random_doubled(s3, rng)
        assert np.abs(
            commutant_compression(s3, xi, lam) - b.conj().T @ lam @ b
        ).max() <= 1e-12

    def test_contractive_on_doubled_algebra(self, s3, rng):
        xi = random_unit_vector(rng, 6)
        lam = random_doubled(s3, rng)
        assert operator_norm(commutant_compression(s3, xi, lam)) <= 1.0 + 1e-10

    def test_simple_tensor_identity_commutative_case(self, z3, rng):
        xi = random_unit_vector(rng, 3)
        x = np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        y = np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        out = compression_variant_residuals(z3, xi, x, y)
        assert out["sandwich_star_left/plain"] <= 1e-10
        assert out["sandwich_star_left/modular"] <= 1e-10
        # the other conjugation order does not satisfy the factored form
        assert out["sandwich_star_right/plain"] > 1e-6

    def test_simple_tensor_identity_fails_noncommutative(self, s3_dual, rng):
        basis = s3_dual.ortho_basis
        c1 = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        c2 = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        x = sum(c * b for c, b in zip(c1, basis))
        y = sum(c * b for c, b in zip(c2, basis))
        out = compression_variant_residuals(s3_dual, random_unit_vector(rng, 6), x, y)
        # recorded finding: no convention variant holds on a noncommutative algebra
        assert min(out.values()) > 1e-6


class TestBuildDiagonal:
    def test_z2_explicit_vector(self, z2):
        xi = NetVector(np.ones(2) / np.sqrt(2), "uniform")
        eta = NetVector(np.eye(2)[0], "point")
        cand = build_diagonal(z2, xi, eta)
        # W'* (uniform (x) e0) = (e00 + e11)/sqrt(2) classically
        expected = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        assert np.linalg.norm(cand.vector - expected) <= 1e-12

    def test_state_normalization(self, s3, rng):
        xi = NetVector(random_unit_vector(rng, 6), "r")
        eta = NetVector(random_unit_vector(rng, 6), "r")
        cand = build_diagonal(s3, xi, eta)
        assert abs(cand.bifunctional.value(np.eye(36)) - 1.0) <= 1e-12

    def test_trivial_group(self):
        q = get_group("Z1")
        xi, eta = exact_nets(q)
        cand = build_diagonal(q, xi, eta)
        assert abs(cand.bifunctional.value(np.eye(1)) - 1.0) <= 1e-14

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            NetVector(np.array([1.0, 1.0]), "not normalized")


class TestExactNets:
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_function_algebra_nets_are_exact(self, name, rng):
        q = get_group(name)
        xi, eta = exact_nets(q)
        for _ in range(3):
            zeta = random_unit_vector(rng, q.dim)
            assert right_invariance_residual(q, xi.vector, zeta) <= 1e-12
            assert left_invariance_residual(q, eta.vector, zeta) <= 1e-12

    def test_z2_values(self, z2):
        xi, eta = exact_nets(z2)
        assert np.allclose(xi.vector, np.ones(2) / np.sqrt(2))
        assert np.allclose(eta.vector, np.eye(2)[0])

    def test_roles_swap_on_dual(self, s3_dual, rng):
        xi, eta = exact_nets(s3_dual)
        assert np.allclose(xi.vector, np.eye(6)[0])
        for _ in range(3):
            zeta = random_unit_vector(rng, 6)
            assert right_invariance_residual(s3_dual, xi.vector, zeta) <= 1e-12
            assert left_invariance_residual(s3_dual, eta.vector, zeta) <= 1e-12

    def test_generic_kind_rejected(self, s3):
        from dataclasses import replace

        generic = replace(s3, kind="generic", _cache={})
        with pytest.raises(ValueError):
            exact_nets(generic)


class TestDiagonalResiduals:
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_exact_nets_give_exact_diagonal(self, name):
        q = get_group(name)
        xi, eta = exact_nets(q)
        cand = build_diagonal(q, xi, eta)
        for s in range(q.dim):
            r1, r2 = diagonal_residuals(q, cand, vector_state(np.eye(q.dim)[s]))
            assert r1 <= 1e-10
            assert r2 <= 1e-10

    def test_trivial_group_zero(self):
        q = get_group("Z1")
        xi, eta = exact_nets(q)
        cand = build_diagonal(q, xi, eta)
        r1, r2 = diagonal_residuals(q, cand, vector_state(np.ones(1)))
        assert r1 <= 1e-14
        assert r2 <= 1e-14

    def test_perturbed_nets_degrade_linearly(self, z3, rng):
        xi_e, eta_e = exact_nets(z3)
        a = vector_state(np.eye(3)[1])
        for t in (0.05, 0.1, 0.2):
            xi = NetVector(perturbed_vector(xi_e.vector, t, rng), "p")
            eta = NetVector(perturbed_vector(eta_e.vector, t, rng), "p")
            cand = build_diagonal(z3, xi, eta)
            r1, r2 = diagonal_residuals(z3, cand, a)
            assert r1 <= 8.0 * t  # empirical slope stays moderate
            assert r2 <= 8.0 * t


class TestCommutatorBound:
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_exact_nets_annihilate_commutator(self, name, rng):
        q = get_group(name)
        xi, eta = exact_nets(q)
        zeta = random_unit_vector(rng, q.dim)
        lam = random_doubled(q, rng)
        cert = certify_commutator_bound(q, zeta, xi, eta, lam)
        assert cert.lhs <= 1e-9
        assert cert.passed

    def test_identity_operator_pairs_to_zero(self, s3, rng):
        xi, eta = exact_nets(s3)
        xi = NetVector(perturbed_vector(xi.vector, 0.3, rng), "p")
        zeta = random_unit_vector(rng, 6)
        cert = certify_commutator_bound(s3, zeta, xi, eta, np.eye(36))
        assert cert.lhs <= 1e-12

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.3])
    @pytest.mark.parametrize("name", ["Z4", "S3"])
    def test_monte_carlo_bound(self, name, eps, rng):
        q = get_group(name)
        xi_e, eta_e = exact_nets(q)
        xi = NetVector(perturbed_vector(xi_e.vector, eps, rng), "p")
        eta = NetVector(perturbed_vector(eta_e.vector, eps, rng), "p")
        for _ in range(100):
            zeta = random_unit_vector(rng, q.dim)
            lam = random_doubled(q, rng)
            cert = certify_commutator_bound(q, zeta, xi, eta, lam)
            assert cert.passed, (cert.lhs, cert.bound)

    def test_rejects_operators_outside_doubled_algebra(self, z2, rng):
        xi, eta = exact_nets(z2)
        zeta = random_unit_vector(rng, 2)
        outside = np.zeros((4, 4))
        outside[0, 1] = 1.0
        with pytest.raises(ValueError):
            certify_commutator_bound(z2, zeta, xi, eta, outside)


class TestDualQuasicentralDefect:
    @pytest.mark.parametrize("name", ["Z2", "Z4", "S3"])
    def test_exact_nets_give_zero(self, name, rng):
        q = get_group(name)
        xi, _ = exact_nets(q)
        zeta = random_unit_vector(rng, q.dim)
        assert dual_quasicentral_residual(q, zeta, xi.vector) <= 1e-9

    def test_sweep_logged(self, rng):
        q = get_group("Z4")
        xi_e, _ = exact_nets(q)
        values = []
        for t in (0.3, 0.1, 0.01):
            xi = perturbed_vector(xi_e.vector, t, rng)
            zeta = random_unit_vector(rng, 4)
            values.append(dual_quasicentral_residual(q, zeta, xi))
        # function algebras have an exactly trivial conjugation here
        assert max(values) <= 1e-9

    def test_fixed_vector_gives_zero(self, s3, rng):
        # zeta (x) xi an eigenvector with eigenvalue 1 of the comparison unitary
        xi, _ = exact_nets(s3)
        zeta = random_unit_vector(rng, 6)
        assert dual_quasicentral_residual(s3, zeta, xi.vector) <= 1e-9
