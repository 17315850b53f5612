"""Dual-side exchange identities, the diagonal of the dual, and the quasi-central
approximate identity with its certified bounds."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    ALL_GROUPS,
    SMALL_GROUPS,
    antilinear,
    antilinear_apply,
    antilinear_conjugate,
    antilinear_tensor,
    dense,
    dense_commutant_opposite_consistency,
    dense_derived_unitaries,
    dense_identity_certificate,
    dense_identity_shift_exchange_residual,
    dense_pentagonal_consequence_residuals,
    dense_quasicentral_certificate,
    dense_quasicentral_exchange_residual,
    doubled_stack,
    exact_identity_oracle,
    flip_matrix,
    get_group,
    identity_functional,
    identity_pairings,
    modular_sandwich,
    norming_element,
    oracle_draws,
    perm_matrix,
    quasicentral_matrices,
    quasicentral_pairings,
    random_algebra,
    random_doubled,
    slice_convention_oracle,
    swapped_columns,
    unitarity_residual,
)

from qglab import dualside
from qglab.diagonals import (
    NetVector,
    build_diagonal,
    diagonal_residuals,
    exact_nets,
    perturbed_vector,
)
from qglab.dualside import (
    DualContext,
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
from qglab.funalg import (
    Functional,
    algebra_decomposition,
    convolve,
    predual_norm,
    tensor_algebra_decomposition,
    vector_state,
)
from qglab.qgcore import derived_unitaries, dual
from qglab.suites import RunConfig, run_thm44
from qglab.tensorlin import (
    dagger,
    partial_trace,
    random_unit_vector,
)


def dual_of_opposite(q):
    """``(W_op)^``: the multiplicative unitary of the dual of the opposite,
    ``Sigma W_op* Sigma`` with ``W_op = (Jhat (x) Jhat) W (Jhat (x) Jhat)``."""
    f = flip_matrix(q.dim, q.dim)
    return f @ dagger(dense_derived_unitaries(q).wop) @ f


def state_vector(omega):
    """The vector ``zeta`` of a vector state ``omega_zeta``."""
    ((c, f),) = omega.terms
    assert c == 1.0 and f.shape[1] == 1
    return f[:, 0]


class TestDualContext:
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_closure_relation(self, side):
        # the commutant unitary of the dual is the dual of the opposite
        q = get_group("S3", side)
        ctx = dual_context(q)
        assert np.array_equal(perm_matrix(derived_unitaries(ctx.qhat).wprime), dual_of_opposite(q))

    @pytest.mark.parametrize("name", ALL_GROUPS)
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_read_from_dual_equals_formulas(self, name, side):
        # the maps read from dual(q) equal the maps of their dense formulas in
        # q's own W, J and Jhat, and the gathers equal the dense products bit
        # for bit
        q = get_group(name, side)
        ctx = dual_context(q)
        assert ctx.qhat is dual(q)
        dense_q = dense_derived_unitaries(q)
        what = dense_q.what
        j, jhat = antilinear(q.j), antilinear(q.jhat)
        jj, jhjh = antilinear_tensor(j, j), antilinear_tensor(jhat, jhat)
        der_hat = derived_unitaries(ctx.qhat)
        assert np.array_equal(perm_matrix(ctx.qhat.w), what)
        assert np.array_equal(perm_matrix(der_hat.wprime), antilinear_conjugate(jhjh, what))
        assert np.array_equal(perm_matrix(der_hat.wop), antilinear_conjugate(jj, what))
        assert np.array_equal(perm_matrix(derived_unitaries(q).wprime_op), dense_q.wprime_op)
        # the dual diagonal: commutant unitary of the dual versus the dual of
        # the opposite
        xi, eta = exact_nets(ctx.qhat)
        expected = dagger(dual_of_opposite(q)) @ np.kron(xi.vector, eta.vector)
        assert np.array_equal(state_vector(build_diagonal(ctx.qhat, xi, eta).bifunctional), expected)

    def test_function_algebra_collapses(self, s3):
        der = derived_unitaries(s3)
        assert np.array_equal(der.wprime, s3.w)
        assert np.array_equal(der.wprime_op, der.wop)

    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_commutant_opposite_two_routes(self, side):
        q = get_group("Q8", side)
        assert commutant_opposite_consistency(q) <= 1e-10

    def test_all_unitaries_unitary(self, s3_dual):
        ctx = dual_context(s3_dual)
        for q in (ctx.q, ctx.qhat):
            der, dense_q = derived_unitaries(q), dense_derived_unitaries(q)
            for m in (q.w, der.wprime, der.wop, der.wprime_op):
                assert np.array_equal(np.sort(m), np.arange(36))
            for u in (perm_matrix(q.w), dense_q.wprime, dense_q.wop, dense_q.wprime_op):
                assert unitarity_residual(u) <= 1e-10


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

    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("name", ["Z1", "S3", "D4"])
    def test_stack_equals_one_at_a_time(self, name, side, rng):
        ctx = dual_context(get_group(name, side))
        n = ctx.dim
        xi, zeta = (rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n)) for _ in range(2))
        r1, r2 = flip_relation_residuals(ctx, xi, zeta)
        assert r1.shape == r2.shape == (6,)
        for i in range(6):
            assert (r1[i], r2[i]) == flip_relation_residuals(ctx, xi[i], zeta[i])


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
    def test_pentagonal_consequences(self, name, side):
        r1, r2, r3 = pentagonal_consequence_residuals(get_group(name, side))
        tol = 1e-12 if name == "Z2" else 1e-10
        assert r1 <= tol
        assert r2 <= tol
        assert r3 <= tol

    def test_modular_sandwich_real_case(self, z2):
        # with plain conjugations and a real unitary the sandwich reduces to
        # entrywise conjugation, so the identity becomes the transpose relation
        _, _, r3 = pentagonal_consequence_residuals(z2)
        assert r3 <= 1e-12

    @pytest.mark.parametrize("name", ["S3", "Q8"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_legwise_modular_sandwich_equals_dense(self, name, side, rng):
        q = get_group(name, side)
        n = q.dim
        v = rng.standard_normal(n ** 3) + 1j * rng.standard_normal(n ** 3)
        jhat = antilinear(q.jhat)
        dense = antilinear_apply(antilinear_tensor(jhat, jhat, antilinear(q.j)), v)
        assert np.array_equal(modular_sandwich(q, v), dense)

    @pytest.mark.parametrize("name", ["Z2", "S3", "Q8"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_quasicentral_exchange(self, name, side):
        main, comm = quasicentral_exchange_residual(get_group(name, side))
        assert main <= (1e-12 if name == "Z2" else 1e-10)
        assert comm <= 1e-12

    @pytest.mark.parametrize("name", ["Z2", "S3", "Q8"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_identity_shift_exchange(self, name, side):
        main, comm = identity_shift_exchange_residual(get_group(name, side))
        assert main <= (1e-12 if name == "Z2" else 1e-10)
        assert comm <= 1e-12


LEMMA_RECORDS = (
    "lemma32/exchange_first",
    "lemma32/exchange_second",
    "lemma32/modular_sandwich",
    "lemma42/exchange_identity",
    "lemma42/leg_commutation",
    "lemma42/commutant_opposite_consistency",
    "lemma43/exchange_identity",
    "lemma43/leg_commutation",
)


def lemma_records(q):
    """The eight lemma records of ``q`` from the permutation index maps."""
    values = (
        *pentagonal_consequence_residuals(q),
        *quasicentral_exchange_residual(q),
        commutant_opposite_consistency(q),
        *identity_shift_exchange_residual(q),
    )
    return dict(zip(LEMMA_RECORDS, values))


def dense_lemma_records(q, rng, draws=20):
    """The same records from dense two-leg operators on random three-leg draws."""
    values = (
        *dense_pentagonal_consequence_residuals(q, rng, draws),
        *dense_quasicentral_exchange_residual(q, rng, draws),
        dense_commutant_opposite_consistency(q),
        *dense_identity_shift_exchange_residual(q, rng, draws),
    )
    return dict(zip(LEMMA_RECORDS, values))


MUTATIONS = {
    "swapped_W_columns": swapped_columns,
    "swapped_W_columns_1_n+1": lambda q: swapped_columns(q, 1, q.dim + 1),
    "J_and_Jhat_exchanged": lambda q: replace(q, j=q.jhat, jhat=q.j, _cache={}),
    "Jhat_set_to_J": lambda q: replace(q, jhat=q.j, _cache={}),
}


class TestLemmaIndexMaps:
    """The lemma records as index-map equalities, against the dense route."""

    @pytest.mark.parametrize("name", ALL_GROUPS)
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_equal_to_dense_oracle(self, name, side, rng):
        q = get_group(name, side)
        assert set(lemma_records(q).values()) == {0.0}
        assert set(dense_lemma_records(q, rng).values()) == {0.0}

    @pytest.mark.parametrize("name", ["Z3", "S3", "D4"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_swapped_columns_fire_with_dense_oracle(self, name, side, rng):
        broken = swapped_columns(get_group(name, side))
        exact, drawn = lemma_records(broken), dense_lemma_records(broken, rng)
        assert any(value > 1e-10 for value in exact.values())
        for record in LEMMA_RECORDS:
            assert (exact[record] > 1e-10) == (drawn[record] > 1e-10), record
            # ||A - B|| bounds every ||(A - B) v|| over unit vectors
            assert exact[record] >= drawn[record], record

    @pytest.mark.parametrize("name", ["S3", "D4"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_every_record_fires_under_some_mutation(self, name, side):
        fired = dict.fromkeys(LEMMA_RECORDS, 0.0)
        for mutate in MUTATIONS.values():
            for record, value in lemma_records(mutate(get_group(name, side))).items():
                fired[record] = max(fired[record], value)
        assert min(fired.values()) >= 1.0, fired


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
        assert np.abs(dense(direct) - dense(via_dual_commutant.bifunctional)).max() <= 1e-12

    def test_z3_diagonal_vector_is_pair_sum(self, z3):
        ctx = dual_context(z3)
        xi, eta = exact_nets(ctx.qhat)
        cand = build_diagonal(ctx.qhat, xi, eta)
        expected = np.zeros(9)
        for a in range(3):
            expected[a * 3 + a] = 1 / np.sqrt(3)
        assert np.linalg.norm(state_vector(cand.bifunctional) - expected) <= 1e-12

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
        # the functional's one factor is the slice of W W'^op* (xi (x) eta)
        ((_, factor),) = u.functional.terms
        sliced = partial_trace(expected.reshape(-1, 1), (2, 2), 1)
        assert np.linalg.norm(factor - sliced) <= 1e-12
        # the sliced functional is evaluation at the identity element
        assert abs(u.functional.value(np.diag([1.0, 0.0])) - 1.0) <= 1e-12
        assert abs(u.functional.value(np.diag([0.0, 1.0]))) <= 1e-12

    @pytest.mark.parametrize("name", SMALL_GROUPS)
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_slice_convention_oracle(self, name, side, rng):
        q = get_group(name, side)
        res = slice_convention_residual(dual_context(q), *oracle_draws(q, rng, 10))
        assert res.shape == (10,)
        assert res.max() <= 1e-10

    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_slice_convention_fires_on_first_leg_slice(self, side, rng, monkeypatch):
        # the shared identity functional read on the first leg instead of the
        # second (its factors transposed); 25 draws cross the ORACLE_CHUNK
        # edges, and the stacked residuals equal the per-draw oracle on the
        # identities built from the broken functional
        q = get_group("S3", side)
        ctx = dual_context(q)
        identity = dualside._identity_functional

        def first_leg(*args):
            return Functional(tuple((c, f.swapaxes(-1, -2)) for c, f in identity(*args).terms))

        monkeypatch.setattr(dualside, "_identity_functional", first_leg)
        xi, eta, zeta, x = oracle_draws(q, rng, 25)
        res = slice_convention_residual(ctx, xi, eta, zeta, x)
        assert res.min() > 1e-10
        expected = [
            slice_convention_oracle(ctx, build_approximate_identity(ctx, NetVector(a, "r"), NetVector(b, "r")), z, y)
            for a, b, z, y in zip(xi, eta, zeta, x)
        ]
        np.testing.assert_allclose(res, expected, rtol=1e-12, atol=1e-15)

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

    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("name", ["Z1", "S3", "D4"])
    def test_exact_identity_record_equals_per_state_oracle(self, name, side):
        # the record takes the basis vector states as one stack
        q = get_group(name, side)
        cfg = RunConfig(name, epsilons=(), draws=1)
        (record,) = [m for m in run_thm44(q, cfg, np.random.default_rng(0)) if m[0] == "exact_identity"]
        want = exact_identity_oracle(q)
        assert abs(record[1] - want) <= 1e-15
        assert (record[1] <= record[2]) == (want <= record[2])


def unit_vectors(q, rng, count):
    """``count`` unit vectors ``zeta``, one at a time, as a stack."""
    return np.stack([random_unit_vector(rng, q.dim) for _ in range(count)])


def draws(q, rng, count, element):
    """``count`` draws of ``(zeta, element)``, one at a time, as two stacks."""
    zeta, elements = zip(*[(random_unit_vector(rng, q.dim), element(q, rng)) for _ in range(count)])
    return np.stack(zeta), list(elements)


def perturbed_identity(q, rng, eps=0.1):
    ctx = dual_context(q)
    xi_e, eta_e = exact_nets(q)
    xi = NetVector(perturbed_vector(xi_e.vector, eps, rng), "p")
    eta = NetVector(perturbed_vector(eta_e.vector, eps, rng), "p")
    return ctx, build_approximate_identity(ctx, xi, eta)


def assert_matches_oracle(cert, oracles, names):
    """Every per-draw field of a batched certificate against the per-draw
    oracle, to 1e-12 relative (the inputs have norm one)."""
    for name in names:
        expected = np.array([o[name] for o in oracles])
        actual = np.stack(getattr(cert, name), axis=-1) if name == "terms" else getattr(cert, name)
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12, err_msg=name)


class TestIdentityBound:
    def test_exact_nets(self, s3, rng):
        ctx = dual_context(s3)
        xi, eta = exact_nets(s3)
        u = build_approximate_identity(ctx, xi, eta)
        cert = certify_identity_bound(ctx, u, unit_vectors(s3, rng, 1))
        assert cert.term_pair[0] <= 1e-10
        assert cert.term_triple[0] <= 1e-10
        assert cert.lhs[0] <= 1e-9
        assert cert.passed.all()

    def test_identity_operator_trivial(self, s3, rng):
        ctx = dual_context(s3)
        xi, eta = exact_nets(s3)
        xi = NetVector(perturbed_vector(xi.vector, 0.2, rng), "p")
        u = build_approximate_identity(ctx, xi, eta)
        zeta = random_unit_vector(rng, 6)[None]
        values, norms = identity_pairings(s3, u, zeta, np.eye(6)[None])
        assert values[0] <= 1e-12
        assert abs(norms[0] - 1.0) <= 1e-12

    @pytest.mark.parametrize("name", ["Z4", "S3"])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.3])
    def test_monte_carlo(self, name, eps, rng):
        q = get_group(name)
        ctx, u = perturbed_identity(q, rng, eps)
        cert = certify_identity_bound(ctx, u, unit_vectors(q, rng, 100))
        assert cert.lhs.shape == (100,)
        assert cert.passed.all(), (cert.lhs, cert.bound)

    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("name", ["Z1", "S3", "D4"])
    def test_matches_per_draw_oracle(self, name, side, rng):
        q = get_group(name, side)
        ctx, u = perturbed_identity(q, rng)
        zeta = unit_vectors(q, rng, 20)
        cert = certify_identity_bound(ctx, u, zeta)
        oracles = [dense_identity_certificate(q, u, z) for z in zeta]
        assert_matches_oracle(cert, oracles, ("lhs", "term_pair", "term_triple", "bound"))

    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("name", ["Z1", "S3", "D4"])
    def test_supremum_over_x(self, name, side, rng):
        # the left side is at least |pairing| / ||X|| at every drawn X, and
        # equals the pairing at the norm-one X that norms the functional
        q = get_group(name, side)
        ctx, u = perturbed_identity(q, rng)
        zeta, x = draws(q, rng, 20, random_algebra)
        x = np.stack(x) * 3.0
        sup = certify_identity_bound(ctx, u, zeta).lhs
        values, norms = identity_pairings(q, u, zeta, x)
        assert (values / norms <= sup * (1 + 1e-12) + 1e-15).all()
        decomp = algebra_decomposition(q)
        norming = np.stack([norming_element(dense(identity_functional(q, u, z)), decomp) for z in zeta])
        values, norms = identity_pairings(q, u, zeta, norming)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)
        np.testing.assert_allclose(values, sup, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("name", ["S3", "D4"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_fires_on_first_leg_slice(self, name, side, rng):
        # the slice of W W'^op* (xi (x) eta) read on the first leg instead of
        # the second: the factor of that functional is the transpose
        q = get_group(name, side)
        ctx = dual_context(q)
        u = build_approximate_identity(ctx, *exact_nets(q))
        ((c, f),) = u.functional.terms
        flipped = replace(u, functional=Functional(((c, f.T),)))
        zeta = unit_vectors(q, rng, 20)
        assert certify_identity_bound(ctx, u, zeta).passed.all()
        cert = certify_identity_bound(ctx, flipped, zeta)
        assert (cert.lhs - cert.bound).max() > 0.1


class TestQuasicentralBound:
    def test_exact_nets(self, s3, rng):
        ctx = dual_context(s3)
        xi, eta = exact_nets(s3)
        u = build_approximate_identity(ctx, xi, eta)
        cert = certify_quasicentral_bound(ctx, u, unit_vectors(s3, rng, 1))
        assert cert.lhs[0] <= 1e-9
        assert cert.consistency[0] <= 1e-10
        assert cert.passed.all()

    def test_identity_operator_fixed(self, s3, rng):
        ctx = dual_context(s3)
        xi, eta = exact_nets(s3)
        xi = NetVector(perturbed_vector(xi.vector, 0.2, rng), "p")
        u = build_approximate_identity(ctx, xi, eta)
        zeta = random_unit_vector(rng, 6)[None]
        definitional, vectorial, norms = quasicentral_pairings(s3, u, zeta, doubled_stack(s3, [np.eye(36)]))
        assert abs(definitional[0]) <= 1e-12
        assert abs(vectorial[0]) <= 1e-12
        assert abs(norms[0] - 1.0) <= 1e-12

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.3])
    def test_sweep_envelope(self, eps, rng):
        q = get_group("Z3")
        ctx, u = perturbed_identity(q, rng, eps)
        cert = certify_quasicentral_bound(ctx, u, unit_vectors(q, rng, 50))
        assert cert.passed.all()
        assert cert.consistency.max() <= 1e-10

    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("name", ["Z1", "S3", "D4"])
    def test_matches_per_draw_oracle(self, name, side, rng):
        q = get_group(name, side)
        ctx, u = perturbed_identity(q, rng)
        zeta = unit_vectors(q, rng, 20)
        cert = certify_quasicentral_bound(ctx, u, zeta)
        oracles = [dense_quasicentral_certificate(q, u, z) for z in zeta]
        assert_matches_oracle(cert, oracles, ("lhs", "terms", "bound", "consistency"))

    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("name", ["Z1", "S3", "D4"])
    def test_supremum_over_lam(self, name, side, rng):
        # the left side is at least |pairing| / ||Lam|| at every drawn Lam,
        # and equals the pairing at the norm-one Lam that norms the functional
        q = get_group(name, side)
        ctx, u = perturbed_identity(q, rng)
        zeta, lam = draws(q, rng, 20, lambda q, rng: random_doubled(q, rng, False))
        cert = certify_quasicentral_bound(ctx, u, zeta)
        definitional, vectorial, norms = quasicentral_pairings(q, u, zeta, doubled_stack(q, lam))
        assert (np.abs(definitional) / norms <= cert.lhs * (1 + 1e-12) + 1e-15).all()
        assert (np.abs(definitional - vectorial) / norms <= cert.consistency + 1e-15).all()
        decomp = tensor_algebra_decomposition(q)
        norming = [norming_element(quasicentral_matrices(q, u, z)[0], decomp) for z in zeta]
        definitional, _, norms = quasicentral_pairings(q, u, zeta, doubled_stack(q, norming))
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)
        np.testing.assert_allclose(np.abs(definitional), cert.lhs, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("name", ["S3", "D4"])
    def test_fires_under_exchanged_conjugations(self, name, rng):
        # J and Jhat exchanged on the group algebra, exact nets of the unbroken
        # object; the certifier reads only ctx.q
        q = get_group(name, "dual")
        broken = replace(q, j=q.jhat, jhat=q.j, _cache={})
        xi, eta = exact_nets(q)
        ctx, broken_ctx = dual_context(q), DualContext(q=broken, qhat=dual(q))
        u = build_approximate_identity(ctx, xi, eta)
        broken_u = build_approximate_identity(broken_ctx, xi, eta)
        zeta = unit_vectors(q, rng, 20)
        assert certify_quasicentral_bound(ctx, u, zeta).passed.all()
        cert = certify_quasicentral_bound(broken_ctx, broken_u, zeta)
        assert (cert.lhs - cert.bound).max() > 0.1

    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_consistency_fires_on_wrong_legs(self, side, rng):
        # the vectorial route reads W'^op on legs (1, 2) instead of (1, 3);
        # the definitional route and the bound do not use that map
        q = get_group("S3", side)
        broken = replace(q, _cache={})
        der = derived_unitaries(broken)
        three = {name: dict(maps) for name, maps in der.three.items()}
        three["wprime_op"][1, 3] = three["wprime_op"][1, 2]
        broken._cache["derived"] = der._replace(three=three)
        ctx, u = perturbed_identity(q, rng)
        zeta = unit_vectors(q, rng, 20)
        assert certify_quasicentral_bound(ctx, u, zeta).consistency.max() <= 1e-12
        cert = certify_quasicentral_bound(DualContext(q=broken, qhat=dual(q)), u, zeta)
        assert cert.consistency.max() > 1.0
        cfg = RunConfig("S3", epsilons=(0.1,))
        detail = {check: d for check, _, _, d in run_thm44(broken, cfg, np.random.default_rng(0))}
        assert float(detail["quasicentral_bound_margin_t_0.1"]["pairing_consistency"]) > 1.0

    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_monte_carlo_s3(self, side, rng):
        q = get_group("S3", side)
        ctx, u = perturbed_identity(q, rng)
        assert certify_quasicentral_bound(ctx, u, unit_vectors(q, rng, 50)).passed.all()
