"""Convolution algebra: functionals, module actions, block decomposition, and
the quotient trace norms with their randomized sup oracle."""

import numpy as np
import pytest

from conftest import get_group, random_doubled, tensor_ortho_basis

from qglab import funalg
from qglab.funalg import (
    Block,
    BlockDecomposition,
    DecompositionError,
    Functional,
    _validate_decomposition,
    algebra_decomposition,
    block_decompose,
    convolve,
    module_action_left,
    module_action_right,
    predual_norm,
    product_map,
    sup_norm_estimate,
    tensor_algebra_decomposition,
    tensor_predual_norm,
    vector_state,
)
from qglab.groups import builtin_table
from qglab.qgcore import dual, function_algebra
from qglab.tensorlin import apply_leg, dagger, inner, random_unit_vector


def delta_state(n, s):
    return vector_state(np.eye(n)[s])


def group_lambda(table, g):
    lam = np.zeros((table.order, table.order))
    for h in range(table.order):
        lam[table.product(g, h), h] = 1.0
    return lam


class TestVectorStates:
    def test_matrix_unit(self):
        f = delta_state(3, 0)
        x = np.arange(9.0).reshape(3, 3)
        assert abs(f.value(x) - x[0, 0]) <= 1e-14

    def test_normalization(self, rng):
        zeta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = vector_state(zeta)
        assert abs(f.value(np.eye(4)) - np.linalg.norm(zeta) ** 2) <= 1e-12

    def test_two_evaluation_routes(self, z2, rng):
        v = random_unit_vector(rng, 2)
        wv = z2.W @ np.kron(v, v)
        f = vector_state(wv)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        direct = inner(x @ wv, wv)
        assert abs(f.value(x) - direct) <= 1e-12

    def test_positivity(self, s3, rng):
        zeta = random_unit_vector(rng, 6)
        f = vector_state(zeta)
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        val = f.value(x.conj().T @ x)
        assert val.real >= -1e-12
        assert abs(val.imag) <= 1e-12


class TestConvolution:
    def test_z2_point_masses(self, z2):
        out = convolve(z2, delta_state(2, 0), delta_state(2, 1))
        # evaluation at the product 0.1 = 1
        assert abs(out.value(np.diag([1.0, 0.0]))) <= 1e-14
        assert abs(out.value(np.diag([0.0, 1.0])) - 1.0) <= 1e-14

    @pytest.mark.parametrize(
        "name", ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "S3", "D4", "Q8"]
    )
    def test_matches_classical_convolution(self, name):
        table = builtin_table(name)
        q = get_group(name)
        n = table.order
        for g in range(n):
            for h in range(n):
                out = convolve(q, delta_state(n, g), delta_state(n, h))
                values = np.array([out.value(np.diag(np.eye(n)[s])) for s in range(n)])
                expected = np.zeros(n)
                expected[table.product(g, h)] = 1.0
                assert np.abs(values - expected).max() <= 1e-12

    def test_uniform_state_absorbs(self, s3, rng):
        n = 6
        uniform = vector_state(np.ones(n) / np.sqrt(n))
        zeta = random_unit_vector(rng, n)
        a = vector_state(zeta)
        out = convolve(s3, a, uniform)
        for s in range(n):
            es = np.diag(np.eye(n)[s])
            expected = a.value(np.eye(n)) * uniform.value(es)
            assert abs(out.value(es) - expected) <= 1e-12

    def test_associativity(self, s3, rng):
        states = [vector_state(random_unit_vector(rng, 6)) for _ in range(3)]
        lhs = convolve(s3, convolve(s3, states[0], states[1]), states[2])
        rhs = convolve(s3, states[0], convolve(s3, states[1], states[2]))
        decomp = algebra_decomposition(s3)
        assert predual_norm(lhs - rhs, decomp) <= 1e-10

    def test_banach_algebra_contractivity(self, s3, rng):
        decomp = algebra_decomposition(s3)
        for _ in range(5):
            a = vector_state(random_unit_vector(rng, 6))
            b = vector_state(random_unit_vector(rng, 6))
            prod = convolve(s3, a, b)
            assert predual_norm(prod, decomp) <= (
                predual_norm(a, decomp) * predual_norm(b, decomp) + 1e-9
            )


class TestModuleActions:
    def test_unit_acts_trivially(self, s3, rng):
        unit = delta_state(6, 0)  # the point mass at the identity
        v = random_unit_vector(rng, 36)
        x = vector_state(v)
        out = module_action_left(s3, unit, x)
        decomp = tensor_algebra_decomposition(s3)
        assert tensor_predual_norm(out - x, decomp) <= 1e-10

    def test_unital_pairing(self, z3, rng):
        a = vector_state(random_unit_vector(rng, 3))
        x = vector_state(random_unit_vector(rng, 9))
        out = module_action_left(z3, a, x)
        expected = a.value(np.eye(3)) * x.value(np.eye(9))
        assert abs(out.value(np.eye(9)) - expected) <= 1e-12

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_pairing_matrix_matches_vector_route(self, s3, rng, side):
        n = 6
        dims = (n, n, n)
        zeta = random_unit_vector(rng, n)
        v = random_unit_vector(rng, n * n)
        a = vector_state(zeta)
        x = vector_state(v)
        lam = random_doubled(s3, rng, norm_one=False)
        if side == "left":
            out = module_action_left(s3, a, x)
            moved = apply_leg(s3.W, (1, 2), np.kron(zeta, v), dims)
            direct = inner(apply_leg(lam, (2, 3), moved, dims), moved)
        else:
            out = module_action_right(s3, x, a)
            moved = apply_leg(s3.W, (2, 3), np.kron(v, zeta), dims)
            direct = inner(apply_leg(lam, (1, 3), moved, dims), moved)
        assert abs(out.value(lam) - direct) <= 1e-11


class TestProductMap:
    def test_elementary_tensor_is_convolution(self, s3, rng):
        za = random_unit_vector(rng, 6)
        zb = random_unit_vector(rng, 6)
        x = Functional(np.kron(vector_state(za).rho, vector_state(zb).rho))
        lhs = product_map(s3, x)
        rhs = convolve(s3, vector_state(za), vector_state(zb))
        assert predual_norm(lhs - rhs, algebra_decomposition(s3)) <= 1e-11

    def test_definition_unfolds(self, z3, rng):
        from qglab.qgcore import comultiply

        v = random_unit_vector(rng, 9)
        x = vector_state(v)
        out = product_map(z3, x)
        for s in range(3):
            es = np.diag(np.eye(3)[s])
            assert abs(out.value(es) - x.value(comultiply(z3, es))) <= 1e-12

    def test_linearity(self, z3, rng):
        x = vector_state(random_unit_vector(rng, 9))
        y = vector_state(random_unit_vector(rng, 9))
        combo = product_map(z3, Functional(2.0 * x.rho - 1j * y.rho))
        parts = Functional(2.0 * product_map(z3, x).rho - 1j * product_map(z3, y).rho)
        assert np.abs(combo.rho - parts.rho).max() <= 1e-12


class TestBlockDecompose:
    def test_diagonal_algebra(self, rng):
        basis = [np.diag(np.eye(4)[s]) for s in range(4)]
        decomp = block_decompose(basis, rng)
        assert decomp.block_sizes == [1, 1, 1, 1]
        assert all(b.multiplicity == 1 for b in decomp.blocks)

    def test_full_matrix_algebra(self, rng):
        basis = [m.reshape(2, 2) for m in np.eye(4)]
        decomp = block_decompose(basis, rng)
        assert decomp.block_sizes == [2]
        assert decomp.blocks[0].multiplicity == 1

    def test_s3_group_algebra_blocks(self, rng):
        table = builtin_table("S3")
        basis = [group_lambda(table, g) for g in range(6)]
        decomp = block_decompose(basis, rng)
        assert decomp.block_sizes == [1, 1, 2]
        # regular representation: multiplicity equals block size
        for b in decomp.blocks:
            assert b.multiplicity == b.size

    def test_q8_group_algebra_blocks(self, rng):
        table = builtin_table("Q8")
        basis = [group_lambda(table, g) for g in range(8)]
        decomp = block_decompose(basis, rng)
        assert decomp.block_sizes == [1, 1, 1, 1, 2]

    def test_isometries_orthonormal(self, rng):
        table = builtin_table("S3")
        basis = [group_lambda(table, g) for g in range(6)]
        decomp = block_decompose(basis, rng)
        cols = np.concatenate([b.isometry for b in decomp.blocks], axis=1)
        assert np.abs(cols.conj().T @ cols - np.eye(6)).max() <= 1e-10


class TestPredualNorm:
    def test_diagonal_algebra_l1(self, rng):
        q = get_group("Z4")
        decomp = algebra_decomposition(q)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        omega = Functional(np.diag(z))
        assert abs(predual_norm(omega, decomp) - np.abs(z).sum()) <= 1e-10

    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_positive_state_attains_at_identity(self, side, rng):
        q = get_group("S3", side)
        zeta = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        omega = vector_state(zeta)
        expected = np.linalg.norm(zeta) ** 2
        assert abs(predual_norm(omega, algebra_decomposition(q)) - expected) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_oracle_agreement_diagonal(self, n, rng):
        basis = [np.diag(np.eye(n)[s]) for s in range(n)]
        decomp = block_decompose(basis, rng)
        rho = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        block_value = predual_norm(Functional(rho), decomp)
        oracle = sup_norm_estimate(rho, basis, rng, samples=100_000, ascent_steps=60)
        assert oracle <= block_value + 1e-9  # soundness: every sample dominated
        assert abs(block_value - oracle) <= 1e-4

    def test_oracle_agreement_full_matrix(self, rng):
        basis = [m.reshape(2, 2) for m in np.eye(4)]
        decomp = block_decompose(basis, rng)
        rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        block_value = predual_norm(Functional(rho), decomp)
        oracle = sup_norm_estimate(rho, basis, rng, samples=100_000, ascent_steps=60)
        assert oracle <= block_value + 1e-9
        assert abs(block_value - oracle) <= 1e-4
        # for the full algebra the norm is the trace norm of the pairing matrix
        from qglab.tensorlin import trace_norm

        assert abs(block_value - trace_norm(rho)) <= 1e-10

    def test_norm_axioms(self, s3, rng):
        decomp = algebra_decomposition(s3)
        a = Functional(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        b = Functional(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        na, nb = predual_norm(a, decomp), predual_norm(b, decomp)
        assert abs(predual_norm(a * (-2.5j), decomp) - 2.5 * na) <= 1e-10
        assert predual_norm(a + b, decomp) <= na + nb + 1e-10


class TestTensorPredualNorm:
    def test_function_algebra_is_l1_on_square(self, rng):
        q = get_group("Z3")
        decomp = tensor_algebra_decomposition(q)
        z = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        x = Functional(np.diag(z))
        assert abs(tensor_predual_norm(x, decomp) - np.abs(z).sum()) <= 1e-10

    def test_vector_state_norm(self, rng):
        q = get_group("Z3")
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        x = vector_state(v)
        decomp = tensor_algebra_decomposition(q)
        assert abs(tensor_predual_norm(x, decomp) - np.linalg.norm(v) ** 2) <= 1e-9

    @pytest.mark.parametrize("name", ["Z2", "Z3"])
    def test_oracle_cross_check(self, name, rng):
        q = get_group(name)
        n = q.dim
        product = [np.kron(a, b) for a in q.algebra_basis for b in q.algebra_basis]
        decomp = tensor_algebra_decomposition(q)
        rho = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
        block_value = tensor_predual_norm(Functional(rho), decomp)
        oracle = sup_norm_estimate(rho, product, rng, samples=20_000, ascent_steps=60)
        assert oracle <= block_value + 1e-9
        assert abs(block_value - oracle) <= 1e-4


def _sorted_shapes(decomp):
    return sorted((b.size, b.multiplicity) for b in decomp.blocks)


def _validate_by_loop(decomp, factors, tol):
    """Reference for ``_validate_decomposition`` on a factor pair: the same two
    conditions, one dense Kronecker product of the basis at a time."""
    ortho = [np.kron(a, b) for a in factors[0] for b in factors[1]]
    if decomp.total_dim != ortho[0].shape[0]:
        raise DecompositionError("block dimensions do not tile the space")
    for block in decomp.blocks:
        compressed = []
        for b in ortho:
            c = dagger(block.isometry) @ b @ block.isometry
            x = block.compress(b) / block.multiplicity
            if np.abs(np.kron(x, np.eye(block.multiplicity)) - c).max() > tol:
                raise DecompositionError("compression is not of product form x (x) 1")
            compressed.append(x.reshape(-1))
        if np.linalg.matrix_rank(np.stack(compressed), tol=1e-8) != block.size ** 2:
            raise DecompositionError("compressed algebra is not the full matrix algebra")


class TestTensorDecompositionProductForm:
    """The decomposition of ``M (x) M`` read off that of ``M`` against the one
    found by the random algorithm on the basis of ``M (x) M``."""

    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "S3"])
    def test_matches_random_decomposition(self, name, side, rng):
        q = get_group(name, side)
        n = q.dim
        product = tensor_algebra_decomposition(q)
        random = block_decompose(tensor_ortho_basis(q), np.random.default_rng(n + 2))
        assert _sorted_shapes(product) == _sorted_shapes(random)
        for _ in range(3):
            rho = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
            x = Functional(rho)
            expected = tensor_predual_norm(x, random)
            assert abs(tensor_predual_norm(x, product) - expected) <= 1e-12 * expected

    def test_no_random_draw_on_doubled_algebra(self, monkeypatch):
        q = function_algebra(builtin_table("S3"))
        qd = dual(q)
        decomposed, validated = [], []
        decompose, validate = funalg.block_decompose, funalg._validate_decomposition

        def counting_decompose(basis, *args, **kwargs):
            decomposed.append(basis[0].shape[0])
            return decompose(basis, *args, **kwargs)

        def recording_validate(decomp, factors, tol):
            validated.append((decomp, factors))
            return validate(decomp, factors, tol)

        monkeypatch.setattr(funalg, "block_decompose", counting_decompose)
        monkeypatch.setattr(funalg, "_validate_decomposition", recording_validate)
        for obj in (q, qd):
            decomp = tensor_algebra_decomposition(obj)
            doubled = (obj.ortho_basis, obj.ortho_basis)
            assert any(
                d is decomp and len(f) == 2 and all(x is y for x, y in zip(f, doubled))
                for d, f in validated
            )
        # only the factor decompositions of M, on 6 dimensions, draw at random
        assert decomposed == [6, 6]

    @staticmethod
    def _with_isometries(q, isometries):
        blocks = tensor_algebra_decomposition(q).blocks
        return BlockDecomposition(
            [Block(b.size, b.multiplicity, iso) for b, iso in zip(blocks, isometries)]
        )

    @pytest.mark.parametrize("validate", [_validate_decomposition, _validate_by_loop])
    def test_product_form_accepted(self, validate):
        q = get_group("S3", "dual")
        validate(tensor_algebra_decomposition(q), (q.ortho_basis, q.ortho_basis), 1e-8)

    @pytest.mark.parametrize("validate", [_validate_decomposition, _validate_by_loop])
    def test_untransposed_kron_layout_rejected(self, validate):
        q = get_group("S3", "dual")
        factor = algebra_decomposition(q).blocks
        isometries = [np.kron(a.isometry, b.isometry) for a in factor for b in factor]
        with pytest.raises(DecompositionError, match="product form"):
            validate(self._with_isometries(q, isometries), (q.ortho_basis, q.ortho_basis), 1e-8)

    @pytest.mark.parametrize("validate", [_validate_decomposition, _validate_by_loop])
    def test_column_swapped_between_blocks_rejected(self, validate):
        q = get_group("S3", "dual")
        isometries = [b.isometry.copy() for b in tensor_algebra_decomposition(q).blocks]
        widest = sorted(range(len(isometries)), key=lambda i: isometries[i].shape[1])
        i, j = widest[-1], widest[-2]
        isometries[i][:, 0], isometries[j][:, 0] = (
            isometries[j][:, 0].copy(),
            isometries[i][:, 0].copy(),
        )
        with pytest.raises(DecompositionError):
            validate(self._with_isometries(q, isometries), (q.ortho_basis, q.ortho_basis), 1e-8)
