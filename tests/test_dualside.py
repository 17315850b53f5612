"""Dual-side exchange identities, the diagonal of the dual, and the quasi-central
approximate identity with its certified bounds."""

import numpy as np
import pytest

from conftest import ALL_GROUPS, SMALL_GROUPS, get_group, random_algebra, random_doubled

from qglab.diagonals import (
    NetVector,
    build_diagonal,
    diagonal_residuals,
    exact_nets,
    perturbed_vector,
)
from qglab.dualside import (
    _modular_sandwich,
    build_approximate_identity,
    certify_identity_bound,
    certify_quasicentral_bound,
    commutant_opposite_consistency,
    dual_context,
    dual_net_residuals,
    flip_relation_residuals,
    identity_shift_exchange_residual,
    pentagonal_consequence_residuals,
    quasicentral_exchange_residual,
    slice_convention_residual,
)
from qglab.funalg import algebra_decomposition, convolve, predual_norm, vector_state
from qglab.qgcore import derived_unitaries, dual
from qglab.tensorlin import dagger, flip_matrix, operator_norm, random_unit_vector


def dual_of_opposite(q):
    """``(W_op)^``: the multiplicative unitary of the dual of the opposite,
    ``Sigma W_op* Sigma`` with ``W_op = (Jhat (x) Jhat) W (Jhat (x) Jhat)``."""
    f = flip_matrix(q.dim, q.dim)
    wop = q.Jhat.tensor(q.Jhat).conjugate(q.W)
    return f @ dagger(wop) @ f


class TestDualContext:
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_closure_relation(self, side):
        # the commutant unitary of the dual is the dual of the opposite
        q = get_group("S3", side)
        ctx = dual_context(q)
        assert operator_norm(ctx.w_dual_comm - dual_of_opposite(q)) <= 1e-10

    @pytest.mark.parametrize("name", ALL_GROUPS)
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_read_from_dual_equals_formulas(self, name, side):
        # the dual-side unitaries read from dual(q) equal, bit for bit, their
        # formulas in q's own W, J and Jhat
        q = get_group(name, side)
        ctx = dual_context(q)
        n = q.dim
        f = flip_matrix(n, n)
        k = q.J.compose(q.Jhat)
        kk = np.kron(k, k)
        what = f @ dagger(q.W) @ f
        assert ctx.qhat is dual(q)
        assert np.array_equal(ctx.w_comm_op, kk @ q.W @ kk)
        assert np.array_equal(ctx.w_dual, what)
        assert np.array_equal(ctx.w_dual_comm, q.Jhat.tensor(q.Jhat).conjugate(what))
        assert np.array_equal(derived_unitaries(ctx.qhat).wop, q.J.tensor(q.J).conjugate(what))
        # the dual diagonal: commutant unitary of the dual versus the dual of
        # the opposite
        xi, eta = exact_nets(ctx.qhat)
        expected = dagger(dual_of_opposite(q)) @ np.kron(xi.vector, eta.vector)
        assert np.array_equal(build_diagonal(ctx.qhat, xi, eta).vector, expected)

    def test_function_algebra_collapses(self, s3):
        ctx = dual_context(s3)
        assert np.abs(ctx.w_comm - ctx.w).max() <= 1e-12
        assert np.abs(ctx.w_comm_op - ctx.w_op).max() <= 1e-12

    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_commutant_opposite_two_routes(self, side):
        q = get_group("Q8", side)
        assert commutant_opposite_consistency(dual_context(q)) <= 1e-10

    def test_all_unitaries_unitary(self, s3_dual):
        ctx = dual_context(s3_dual)
        for u in (ctx.w, ctx.w_comm, ctx.w_op, ctx.w_comm_op, ctx.w_dual, ctx.w_dual_comm):
            assert operator_norm(u.conj().T @ u - np.eye(u.shape[0])) <= 1e-10


class TestFlipRelations:
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_random_vectors(self, name, rng):
        ctx = dual_context(get_group(name))
        n = ctx.dim
        for _ in range(10):
            r1, r2 = flip_relation_residuals(ctx, random_unit_vector(rng, n), random_unit_vector(rng, n))
            assert r1 <= 1e-11
            assert r2 <= 1e-11

    def test_z2_basis_vectors(self, z2):
        ctx = dual_context(z2)
        e0 = np.eye(2)[0]
        r1, r2 = flip_relation_residuals(ctx, e0, e0)
        assert r1 == 0.0
        assert r2 == 0.0


class TestDualNetResiduals:
    def test_exact_nets_kill_invariance_terms(self, s3, rng):
        ctx = dual_context(s3)
        xi, eta = exact_nets(s3)
        c1, c2, c3, c4 = dual_net_residuals(ctx, xi.vector, eta.vector, random_unit_vector(rng, 6))
        assert c1 <= 1e-12
        assert c2 <= 1e-12

    def test_abelian_opposite_comparison_vanishes(self, rng):
        q = get_group("Z4")
        ctx = dual_context(q)
        for _ in range(5):
            vecs = [random_unit_vector(rng, 4) for _ in range(3)]
            c1, c2, c3, c4 = dual_net_residuals(ctx, *vecs)
            assert c3 <= 1e-12
            assert c4 <= 1e-12

    def test_nonabelian_opposite_comparison_nonzero(self, s3, rng):
        ctx = dual_context(s3)
        values = []
        for _ in range(10):
            vecs = [random_unit_vector(rng, 6) for _ in range(3)]
            values.append(dual_net_residuals(ctx, *vecs)[2])
        assert max(values) > 1e-3  # expected nonzero, logged not asserted


class TestExchangeIdentities:
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_pentagonal_consequences(self, name, side, rng):
        ctx = dual_context(get_group(name, side))
        r1, r2, r3 = pentagonal_consequence_residuals(ctx, rng, draws=20)
        tol = 1e-12 if name == "Z2" else 1e-10
        assert r1 <= tol
        assert r2 <= tol
        assert r3 <= tol

    def test_modular_sandwich_real_case(self, z2, rng):
        # with plain conjugations and a real unitary the sandwich reduces to
        # entrywise conjugation, so the identity becomes the transpose relation
        ctx = dual_context(z2)
        _, _, r3 = pentagonal_consequence_residuals(ctx, rng, draws=20)
        assert r3 <= 1e-12

    @pytest.mark.parametrize("name", ["S3", "Q8"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_legwise_modular_sandwich_equals_dense(self, name, side, rng):
        q = get_group(name, side)
        n = q.dim
        v = rng.standard_normal(n ** 3) + 1j * rng.standard_normal(n ** 3)
        dense = q.Jhat.tensor(q.Jhat, q.J).apply(v)
        assert np.array_equal(_modular_sandwich(q, v), dense)

    @pytest.mark.parametrize("name", ["Z2", "S3", "Q8"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_quasicentral_exchange(self, name, side, rng):
        ctx = dual_context(get_group(name, side))
        main, comm = quasicentral_exchange_residual(ctx, rng, draws=20)
        assert main <= (1e-12 if name == "Z2" else 1e-10)
        assert comm <= 1e-12

    @pytest.mark.parametrize("name", ["Z2", "S3", "Q8"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_identity_shift_exchange(self, name, side, rng):
        ctx = dual_context(get_group(name, side))
        main, comm = identity_shift_exchange_residual(ctx, rng, draws=20)
        assert main <= (1e-12 if name == "Z2" else 1e-10)
        assert comm <= 1e-12


class TestDualDiagonal:
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_exact_dual_nets_give_exact_diagonal(self, name):
        q = get_group(name)
        ctx = dual_context(q)
        xi, eta = exact_nets(ctx.qhat)
        cand = build_diagonal(ctx.qhat, xi, eta)
        for s in range(q.dim):
            r1, r2 = diagonal_residuals(ctx.qhat, cand, vector_state(np.eye(q.dim)[s]))
            assert r1 <= 1e-10, (name, s, r1)
            assert r2 <= 1e-10, (name, s, r2)

    def test_matches_direct_construction_on_dual(self, s3):
        # the vector state of (W_op)^* (xi (x) eta), built straight from the
        # dual of the opposite, is the diagonal build_diagonal gives on dual(q)
        ctx = dual_context(s3)
        xi, eta = exact_nets(ctx.qhat)
        direct = vector_state(dagger(dual_of_opposite(s3)) @ np.kron(xi.vector, eta.vector))
        via_dual_commutant = build_diagonal(ctx.qhat, xi, eta)
        assert np.abs(direct.rho - via_dual_commutant.bifunctional.rho).max() <= 1e-12

    def test_z3_diagonal_vector_is_pair_sum(self, z3):
        ctx = dual_context(z3)
        xi, eta = exact_nets(ctx.qhat)
        cand = build_diagonal(ctx.qhat, xi, eta)
        expected = np.zeros(9)
        for a in range(3):
            expected[a * 3 + a] = 1 / np.sqrt(3)
        assert np.linalg.norm(cand.vector - expected) <= 1e-12

    def test_trivial_group(self):
        q = get_group("Z1")
        ctx = dual_context(q)
        xi, eta = exact_nets(ctx.qhat)
        cand = build_diagonal(ctx.qhat, xi, eta)
        assert abs(cand.bifunctional.value(np.eye(1)) - 1.0) <= 1e-14

    def test_state_normalization(self, s3, rng):
        ctx = dual_context(s3)
        cand = build_diagonal(
            ctx.qhat,
            NetVector(random_unit_vector(rng, 6), "r"),
            NetVector(random_unit_vector(rng, 6), "r"),
        )
        assert abs(cand.bifunctional.value(np.eye(36)) - 1.0) <= 1e-12


class TestApproximateIdentity:
    def test_unital(self, s3, rng):
        ctx = dual_context(s3)
        u = build_approximate_identity(
            ctx,
            NetVector(random_unit_vector(rng, 6), "r"),
            NetVector(random_unit_vector(rng, 6), "r"),
        )
        assert abs(u.functional.value(np.eye(6)) - 1.0) <= 1e-12

    def test_z2_explicit_vector(self, z2):
        ctx = dual_context(z2)
        xi, eta = exact_nets(z2)
        u = build_approximate_identity(ctx, xi, eta)
        expected = np.kron(np.ones(2) / np.sqrt(2), np.eye(2)[0])
        assert np.linalg.norm(u.vector - expected) <= 1e-12
        # the sliced functional is evaluation at the identity element
        assert abs(u.functional.value(np.diag([1.0, 0.0])) - 1.0) <= 1e-12
        assert abs(u.functional.value(np.diag([0.0, 1.0]))) <= 1e-12

    @pytest.mark.parametrize("name", SMALL_GROUPS)
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_slice_convention_oracle(self, name, side, rng):
        q = get_group(name, side)
        ctx = dual_context(q)
        n = q.dim
        for _ in range(10):
            u = build_approximate_identity(
                ctx,
                NetVector(random_unit_vector(rng, n), "r"),
                NetVector(random_unit_vector(rng, n), "r"),
            )
            res = slice_convention_residual(
                ctx, u, random_unit_vector(rng, n), random_algebra(q, rng)
            )
            assert res <= 1e-10

    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_exact_nets_give_exact_identity(self, name):
        q = get_group(name)
        ctx = dual_context(q)
        xi, eta = exact_nets(q)
        u = build_approximate_identity(ctx, xi, eta)
        decomp = algebra_decomposition(q)
        for s in range(q.dim):
            a = vector_state(np.eye(q.dim)[s])
            assert predual_norm(convolve(q, u.functional, a) - a, decomp) <= 1e-10


class TestIdentityBound:
    def test_exact_nets(self, s3, rng):
        ctx = dual_context(s3)
        xi, eta = exact_nets(s3)
        u = build_approximate_identity(ctx, xi, eta)
        cert = certify_identity_bound(ctx, u, random_unit_vector(rng, 6), random_algebra(s3, rng))
        assert cert.term_pair <= 1e-10
        assert cert.term_triple <= 1e-10
        assert cert.lhs <= 1e-9
        assert cert.passed

    def test_identity_operator_trivial(self, s3, rng):
        ctx = dual_context(s3)
        xi, eta = exact_nets(s3)
        xi = NetVector(perturbed_vector(xi.vector, 0.2, rng), "p")
        u = build_approximate_identity(ctx, xi, eta)
        cert = certify_identity_bound(ctx, u, random_unit_vector(rng, 6), np.eye(6))
        assert cert.lhs <= 1e-12

    @pytest.mark.parametrize("name", ["Z4", "S3"])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.3])
    def test_monte_carlo(self, name, eps, rng):
        q = get_group(name)
        ctx = dual_context(q)
        xi_e, eta_e = exact_nets(q)
        xi = NetVector(perturbed_vector(xi_e.vector, eps, rng), "p")
        eta = NetVector(perturbed_vector(eta_e.vector, eps, rng), "p")
        u = build_approximate_identity(ctx, xi, eta)
        for _ in range(100):
            cert = certify_identity_bound(
                ctx, u, random_unit_vector(rng, q.dim), random_algebra(q, rng)
            )
            assert cert.passed, (cert.lhs, cert.bound)

    def test_rejects_outside_algebra(self, z2, rng):
        ctx = dual_context(z2)
        xi, eta = exact_nets(z2)
        u = build_approximate_identity(ctx, xi, eta)
        outside = np.zeros((2, 2))
        outside[1, 0] = 1.0
        with pytest.raises(ValueError):
            certify_identity_bound(ctx, u, random_unit_vector(rng, 2), outside)


class TestQuasicentralBound:
    def test_exact_nets(self, s3, rng):
        ctx = dual_context(s3)
        xi, eta = exact_nets(s3)
        u = build_approximate_identity(ctx, xi, eta)
        cert = certify_quasicentral_bound(
            ctx, u, random_unit_vector(rng, 6), random_doubled(s3, rng)
        )
        assert cert.lhs <= 1e-9
        assert cert.consistency <= 1e-10
        assert cert.passed

    def test_identity_operator_fixed(self, s3, rng):
        ctx = dual_context(s3)
        xi, eta = exact_nets(s3)
        xi = NetVector(perturbed_vector(xi.vector, 0.2, rng), "p")
        u = build_approximate_identity(ctx, xi, eta)
        cert = certify_quasicentral_bound(ctx, u, random_unit_vector(rng, 6), np.eye(36))
        assert cert.lhs <= 1e-12

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.3])
    def test_sweep_envelope(self, eps, rng):
        q = get_group("Z3")
        ctx = dual_context(q)
        xi_e, eta_e = exact_nets(q)
        xi = NetVector(perturbed_vector(xi_e.vector, eps, rng), "p")
        eta = NetVector(perturbed_vector(eta_e.vector, eps, rng), "p")
        u = build_approximate_identity(ctx, xi, eta)
        for _ in range(50):
            cert = certify_quasicentral_bound(
                ctx, u, random_unit_vector(rng, 3), random_doubled(q, rng)
            )
            assert cert.passed
            assert cert.consistency <= 1e-10

    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_monte_carlo_s3(self, side, rng):
        q = get_group("S3", side)
        ctx = dual_context(q)
        xi_e, eta_e = exact_nets(q)
        xi = NetVector(perturbed_vector(xi_e.vector, 0.1, rng), "p")
        eta = NetVector(perturbed_vector(eta_e.vector, 0.1, rng), "p")
        u = build_approximate_identity(ctx, xi, eta)
        for _ in range(50):
            cert = certify_quasicentral_bound(
                ctx, u, random_unit_vector(rng, 6), random_doubled(q, rng)
            )
            assert cert.passed
