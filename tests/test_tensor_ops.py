"""Tensor-leg kernels, Schatten norms, slices, and antilinear operators."""

import numpy as np
import pytest

from qglab.tensorlin import (
    AntilinearOp,
    apply_leg,
    dagger,
    flip_matrix,
    operator_norm,
    partial_trace,
    random_unit_vector,
    sandwich_legs,
    slice_first,
    span_basis,
    projection_residual,
    trace_norm,
    unitarity_residual,
)


def random_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def dense_leg_operator(op, legs, dims):
    """Independent dense construction: permute axes so the selected legs come
    first, tensor with the identity, permute back.  Index arithmetic only."""
    nlegs = len(dims)
    sel = [l - 1 for l in legs]
    rest = [i for i in range(nlegs) if i not in sel]
    perm = sel + rest
    d = int(np.prod(dims))
    # permutation matrix: basis vector with multi-index x goes to position of
    # the permuted multi-index
    multi = np.array(np.unravel_index(np.arange(d), dims)).T
    permuted = multi[:, perm]
    new_dims = [dims[i] for i in perm]
    target = np.ravel_multi_index(permuted.T, new_dims)
    p = np.zeros((d, d))
    p[target, np.arange(d)] = 1.0
    rest_dim = int(np.prod([dims[i] for i in rest])) if rest else 1
    return p.T @ np.kron(op, np.eye(rest_dim)) @ p


class TestApplyLeg:
    @pytest.mark.parametrize("legs", [(1, 2), (2, 3), (1, 3), (2, 1), (3, 1)])
    def test_matches_dense_construction(self, rng, legs):
        dims = (3, 2, 3)
        da = dims[legs[0] - 1] * dims[legs[1] - 1]
        op = random_matrix(rng, da)
        dense = dense_leg_operator(op, legs, dims)
        for _ in range(5):
            v = random_unit_vector(rng, int(np.prod(dims)))
            assert np.linalg.norm(apply_leg(op, legs, v, dims) - dense @ v) <= 1e-12

    def test_two_leg_agrees_with_kron(self, rng):
        w = random_matrix(rng, 4)
        v = random_unit_vector(rng, 8)
        out = apply_leg(w, (1, 2), v, (2, 2, 2))
        assert np.linalg.norm(out - np.kron(w, np.eye(2)) @ v) <= 1e-12

    def test_identity_on_disjoint_legs(self, rng):
        v = random_unit_vector(rng, 27)
        out = apply_leg(np.eye(9), (1, 3), v, (3, 3, 3))
        assert np.linalg.norm(out - v) <= 1e-14

    def test_swap_on_first_legs(self, rng):
        a, b, c = (random_unit_vector(rng, 2) for _ in range(3))
        v = np.kron(np.kron(a, b), c)
        out = apply_leg(flip_matrix(2, 2), (1, 2), v, (2, 2, 2))
        assert np.linalg.norm(out - np.kron(np.kron(b, a), c)) <= 1e-14

    def test_repeated_leg_rejected(self, rng):
        with pytest.raises(ValueError):
            apply_leg(np.eye(4), (1, 1), np.zeros(8), (2, 2, 2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_leg(np.eye(3), (1, 2), np.zeros(8), (2, 2, 2))

    def test_batch_matches_loop(self, rng):
        dims = (2, 3, 2)
        op = random_matrix(rng, 4)
        batch = random_matrix(rng, 12, 5)
        out = apply_leg(op, (1, 3), batch, dims)
        for j in range(5):
            assert np.linalg.norm(out[:, j] - apply_leg(op, (1, 3), batch[:, j], dims)) <= 1e-12

    def test_sandwich_conjugates(self, rng):
        dims = (2, 2, 2)
        op = random_matrix(rng, 4)
        rho = random_matrix(rng, 8)
        dense = dense_leg_operator(op, (2, 3), dims)
        out = sandwich_legs(op, (2, 3), rho, dims)
        assert np.abs(out - dense @ rho @ dagger(dense)).max() <= 1e-12


class TestFlip:
    def test_swaps_basis_vectors(self):
        e0, e1 = np.eye(2)
        f = flip_matrix(2, 2)
        assert np.allclose(f @ np.kron(e0, e1), np.kron(e1, e0))

    def test_involution_square_dims(self):
        f = flip_matrix(2, 2)
        assert np.allclose(f @ f, np.eye(4))

    def test_conjugation_swaps_factors(self, rng):
        a = random_matrix(rng, 2)
        b = random_matrix(rng, 2)
        f = flip_matrix(2, 2)
        assert np.abs(f @ np.kron(a, b) @ f - np.kron(b, a)).max() <= 1e-12

    def test_rectangular(self, rng):
        u = random_unit_vector(rng, 2)
        v = random_unit_vector(rng, 3)
        f = flip_matrix(2, 3)
        assert np.linalg.norm(f @ np.kron(u, v) - np.kron(v, u)) <= 1e-14


class TestSchattenNorms:
    def test_trace_norm_identity(self):
        assert abs(trace_norm(np.eye(5)) - 5.0) <= 1e-12

    def test_trace_norm_rank_one(self, rng):
        xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        eta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        m = np.outer(xi, eta.conj())
        expected = np.linalg.norm(xi) * np.linalg.norm(eta)
        assert abs(trace_norm(m) - expected) <= 1e-10
        # rank-one matrices are the equality case of trace >= operator norm
        assert abs(trace_norm(m) - operator_norm(m)) <= 1e-10

    def test_unitary_invariance(self, rng):
        a = random_matrix(rng, 3)
        u, _, vh = np.linalg.svd(random_matrix(rng, 3))
        assert abs(trace_norm(u @ a @ vh) - trace_norm(a)) <= 1e-10

    def test_triangle_inequality(self, rng):
        a = random_matrix(rng, 4)
        b = random_matrix(rng, 4)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10

    def test_operator_norm_unitary(self, rng):
        u, _, vh = np.linalg.svd(random_matrix(rng, 4))
        assert abs(operator_norm(u @ vh) - 1.0) <= 1e-12

    def test_operator_norm_diagonal(self):
        assert abs(operator_norm(np.diag([3.0, -1.0])) - 3.0) <= 1e-12

    def test_operator_norm_dominates_random_vectors(self, rng):
        a = random_matrix(rng, 2)
        top = operator_norm(a)
        vs = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        best = float(np.linalg.norm(vs @ a.T, axis=1).max())
        assert best <= top + 1e-12
        assert best >= top - 1e-3

    @pytest.mark.parametrize("shape", [(0, 0), (1, 1), (64, 64)])
    def test_operator_norm_of_zero_matrix(self, shape):
        assert operator_norm(np.zeros(shape)) == 0.0
        assert operator_norm(np.zeros(shape, dtype=complex)) == 0.0

    def test_operator_norm_of_tiny_entry_is_not_zero(self):
        a = np.zeros((8, 8))
        a[3, 5] = 1e-300
        top = operator_norm(a)
        assert top != 0.0
        assert abs(top - 1e-300) <= 1e-12 * 1e-300

    def test_operator_norm_of_nan_raises(self):
        a = np.zeros((4, 4))
        a[1, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            operator_norm(a)

    def test_trace_dominates_operator(self, rng):
        a = random_matrix(rng, 4)
        assert trace_norm(a) >= operator_norm(a) - 1e-12


class TestSlices:
    def test_factorized_identity_component(self, rng):
        w = random_unit_vector(rng, 3)
        a = random_matrix(rng, 3)
        out = slice_first(np.kron(np.eye(3), a), w)
        assert np.abs(out - a).max() <= 1e-12

    def test_simple_tensor(self, rng):
        w = random_unit_vector(rng, 3)
        a = random_matrix(rng, 3)
        b = random_matrix(rng, 3)
        out = slice_first(np.kron(a, b), w)
        scale = np.vdot(w, a @ w)
        assert np.abs(out - scale * b).max() <= 1e-12

    def test_entrywise_contraction(self, rng):
        x = random_matrix(rng, 6)
        w = random_unit_vector(rng, 2)
        out = slice_first(x, w)
        x4 = x.reshape(2, 3, 2, 3)
        for k in range(3):
            for l in range(3):
                manual = 0.0
                for a in range(2):
                    for c in range(2):
                        manual += w.conj()[a] * x4[a, k, c, l] * w[c]
                assert abs(out[k, l] - manual) <= 1e-12


class TestPartialTrace:
    def test_product_state(self, rng):
        a = random_matrix(rng, 2)
        b = random_matrix(rng, 3)
        assert np.abs(partial_trace(np.kron(a, b), (2, 3), 1) - np.trace(a) * b).max() <= 1e-12
        assert np.abs(partial_trace(np.kron(a, b), (2, 3), 2) - np.trace(b) * a).max() <= 1e-12

    def test_three_legs(self, rng):
        a, b, c = random_matrix(rng, 2), random_matrix(rng, 2), random_matrix(rng, 2)
        big = np.kron(np.kron(a, b), c)
        out = partial_trace(big, (2, 2, 2), 2)
        assert np.abs(out - np.trace(b) * np.kron(a, c)).max() <= 1e-12


class TestAntilinearOp:
    def test_plain_conjugation_fixes_real(self, rng):
        j = AntilinearOp(np.eye(3))
        a = rng.standard_normal((3, 3))
        assert np.abs(j.conjugate(a) - a).max() <= 1e-14

    def test_antilinearity_on_scalars(self):
        j = AntilinearOp(np.eye(2))
        assert np.abs(j.conjugate(1j * np.eye(2)) + 1j * np.eye(2)).max() <= 1e-14

    def test_conjugation_is_homomorphism(self, rng):
        u, _, vh = np.linalg.svd(random_matrix(rng, 2))
        j = AntilinearOp(u @ vh)
        a = random_matrix(rng, 2)
        b = random_matrix(rng, 2)
        lhs = j.conjugate(a) @ j.conjugate(b)
        rhs = j.conjugate(a @ b)
        # J a J J b J = J (ab) J needs J involutive; enforce by symmetrizing
        sym = AntilinearOp(np.eye(2))
        assert np.abs(sym.conjugate(a) @ sym.conjugate(b) - sym.conjugate(a @ b)).max() <= 1e-12

    def test_composition_is_linear(self, rng):
        p = np.eye(3)[[1, 0, 2]]
        j1 = AntilinearOp(p)
        j2 = AntilinearOp(np.eye(3))
        k = j1.compose(j2)
        v = random_unit_vector(rng, 3)
        assert np.linalg.norm(k @ v - j1.apply(j2.apply(v))) <= 1e-14

    def test_isometry(self, rng):
        p = np.eye(4)[[2, 3, 0, 1]]
        j = AntilinearOp(p)
        v = random_unit_vector(rng, 4)
        assert abs(np.linalg.norm(j.apply(v)) - 1.0) <= 1e-12
        # J^2 = 1 holds iff u @ conj(u) = 1
        assert operator_norm(j.u @ j.u.conj() - np.eye(4)) <= 1e-12

    def test_tensor(self, rng):
        p = np.eye(2)[[1, 0]]
        j = AntilinearOp(p)
        jj = j.tensor(j)
        u = random_unit_vector(rng, 2)
        v = random_unit_vector(rng, 2)
        assert np.linalg.norm(jj.apply(np.kron(u, v)) - np.kron(j.apply(u), j.apply(v))) <= 1e-12


class TestSpanTools:
    def test_member_has_zero_residual(self, rng):
        mats = [random_matrix(rng, 3) for _ in range(3)]
        basis = span_basis(mats)
        combo = 0.3 * mats[0] - 1.7j * mats[2]
        assert projection_residual((basis,), combo) <= 1e-12

    def test_orthogonal_element(self):
        basis = span_basis([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        off = np.zeros((2, 2))
        off[0, 1] = 1.0
        assert abs(projection_residual((basis,), off) - 1.0) <= 1e-12

    def test_unitarity_residual(self, rng):
        u, _, vh = np.linalg.svd(random_matrix(rng, 3))
        assert unitarity_residual(u @ vh) <= 1e-12
        assert unitarity_residual(2.0 * np.eye(2)) >= 1.0
