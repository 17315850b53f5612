"""Invariance defects, the commutant compression, diagonal candidates, and the
certified commutator bound."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    ALL_GROUPS,
    SMALL_GROUPS,
    commutator_functional,
    commutator_pairings,
    dense,
    dense_commutator_certificate,
    dense_derived_unitaries,
    doubled_coordinates,
    doubled_stack,
    exact_diagonal_oracle,
    get_group,
    membership_residual,
    norming_element,
    perm_matrix,
    random_doubled,
    swapped_columns,
    theta_oracle,
)

from qglab import diagonals, qgcore, suites
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
from qglab.funalg import tensor_algebra_decomposition, vector_state
from qglab.groups import builtin_table
from qglab.tensorlin import dagger, normalize, operator_norm, random_unit_vector, slice_first


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
        expected = np.linalg.norm(perm_matrix(z2.w) @ v - v)
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
    wprime = dense_derived_unitaries(q).wprime
    v = np.kron(a, b)
    return float(np.linalg.norm(dagger(perm_matrix(q.w)) @ v - dagger(wprime) @ v))


class TestGathersEqualDense:
    """The index-map gathers against the dense products they replace, bit for bit."""

    @pytest.mark.parametrize("name", ALL_GROUPS)
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_diagonal_compression_and_invariance(self, name, side, rng):
        q = get_group(name, side)
        n = q.dim
        wprime = dense_derived_unitaries(q).wprime
        xi = NetVector(random_unit_vector(rng, n), "r")
        eta = NetVector(random_unit_vector(rng, n), "r")
        v = dagger(wprime) @ np.kron(xi.vector, eta.vector)
        ((_, factor),) = build_diagonal(q, xi, eta).bifunctional.terms
        assert np.array_equal(factor[:, 0], v)
        lam = random_doubled(q, rng)
        compressed = slice_first(wprime @ lam @ dagger(wprime), xi.vector)
        assert np.array_equal(commutant_compression(q, xi.vector, lam), compressed)
        kraus = dagger(wprime) @ np.kron(xi.vector.reshape(-1, 1), np.eye(n))
        assert np.array_equal(compression_kraus_factor(q, xi.vector), kraus)
        pair = np.kron(eta.vector, xi.vector)
        expected = float(np.linalg.norm(perm_matrix(q.w) @ pair - pair))
        assert right_invariance_residual(q, xi.vector, eta.vector) == expected


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

    def test_choi_record_fires_on_wrong_unitary(self, monkeypatch):
        def residual():
            cfg = suites.RunConfig("S3", construction="group-algebra", suites=("theta",), seed=7)
            report = suites.run_suites(cfg)
            return next(r.residual for r in report.records if r.check == "choi_consistency")

        assert residual() <= 1e-9
        # on the group algebra W differs from W', so a Choi matrix built from W
        # disagrees with the slice route of the compression; the suite passes
        # a stack of draws xi (draws, n)
        monkeypatch.setattr(
            diagonals,
            "compression_kraus_factor",
            lambda q, xi: dagger(perm_matrix(q.w)) @ np.stack([np.kron(v.reshape(-1, 1), np.eye(q.dim)) for v in xi]),
        )
        assert residual() > 1e-6

    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("name", ["S3", "D4"])
    def test_kraus_route_matches_choi_contraction(self, name, side, rng):
        # the choi_consistency record compares the slice route with B* Lam B;
        # the Choi matrix contracted with Lam is the route it replaced
        q = get_group(name, side)
        n = q.dim
        for _ in range(3):
            xi = random_unit_vector(rng, n)
            lam = random_doubled(q, rng)
            b = compression_kraus_factor(q, xi)
            choi = compression_choi_matrix(q, xi).reshape(n * n, n, n * n, n)
            contracted = np.einsum("IkJl,IJ->kl", choi, lam)
            assert np.abs(dagger(b) @ lam @ b - contracted).max() <= 1e-13

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


class TestStackedCompression:
    """The compression, its Kraus factor and the diagonal residuals on stacks,
    against one vector or state at a time."""

    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("name", ["Z1", "S3", "D4"])
    def test_stack_equals_one_at_a_time(self, name, side, rng):
        q = get_group(name, side)
        n = q.dim
        xi = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        lam = np.stack([random_doubled(q, rng) for _ in range(4)])
        one_lam = commutant_compression(q, xi, lam[0])
        stacked = commutant_compression(q, xi, lam)
        kraus = compression_kraus_factor(q, xi)
        assert stacked.shape == one_lam.shape == (4, n, n)
        assert kraus.shape == (4, n * n, n)
        for i in range(4):
            assert np.array_equal(stacked[i], commutant_compression(q, xi[i], lam[i]))
            assert np.array_equal(one_lam[i], commutant_compression(q, xi[i], lam[0]))
            assert np.array_equal(kraus[i], compression_kraus_factor(q, xi[i]))

    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("name", ["Z1", "S3", "D4"])
    def test_diagonal_residuals_one_per_state(self, name, side):
        q = get_group(name, side)
        xi, eta = exact_nets(q)
        cand = build_diagonal(q, xi, eta)
        r1, r2 = diagonal_residuals(q, cand, vector_state(np.eye(q.dim)))
        assert r1.shape == r2.shape == (q.dim,)
        for s in range(q.dim):
            m1, m2 = diagonal_residuals(q, cand, vector_state(np.eye(q.dim)[s]))
            assert (r1[s], r2[s]) == (m1, m2)


class TestStackedSuitePasses:
    """The theta suite's draws and the basis-state residuals of the exact
    diagonal in stacked passes, against the per-draw and per-state oracles."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("construction", suites.CONSTRUCTIONS)
    @pytest.mark.parametrize("name", ["Z1", "S3", "D4"])
    def test_theta_equals_per_draw_oracle(self, name, construction, seed):
        q = get_group(name, "fn" if construction == "function-algebra" else "dual")
        cfg = suites.RunConfig(name, seed=seed)
        stacked = suites.run_theta(q, cfg, suites._rng(cfg, "theta", construction))
        oracle = theta_oracle(q, cfg, suites._rng(cfg, "theta", construction))
        assert [m[0] for m in stacked] == [m[0] for m in oracle]
        for (check, value, tol, detail), (_, want, want_tol, want_detail) in zip(stacked, oracle):
            assert (tol, detail) == (want_tol, want_detail), check
            assert abs(value - want) <= 1e-15, check
            assert (tol is None or value <= tol) == (want_tol is None or want <= want_tol), check

    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("name", ["Z1", "S3", "D4"])
    def test_exact_diagonal_equals_per_state_oracle(self, name, side):
        q = get_group(name, side)
        for obj in (q, qgcore.dual(q)):  # obad's diagonal and dual's dual diagonal
            _, r1, r2 = suites._exact_diagonal(obj)
            want = exact_diagonal_oracle(obj)
            for value, expected in zip((r1, r2), want):
                assert abs(value - expected) <= 1e-15
                assert (value <= 1e-10) == (expected <= 1e-10)

    @pytest.mark.parametrize("name", ["S3", "D4"])
    def test_theta_draws_equal_per_draw_stream(self, name, monkeypatch):
        # one standard_normal call gives, bit for bit, the stream of drawing
        # each xi with random_unit_vector and its Lam's coordinates with
        # _coefficients, one draw at a time, and leaves the generator where
        # the per-draw stream does
        q = get_group(name, "dual")
        n, k = q.dim, len(q.ortho_basis) ** 2
        seen = {"xi": [], "coeff": [], "variants": []}
        compression, unit_doubled = diagonals.commutant_compression, suites._unit_doubled
        variants = diagonals.compression_variant_residuals

        def record_compression(q, xi, lam):
            if lam.ndim == 3:
                seen["xi"].append(xi)
            return compression(q, xi, lam)

        def record_doubled(q, coeff):
            seen["coeff"].append(coeff)
            return unit_doubled(q, coeff)

        def record_variants(q, xi, x, y):
            seen["variants"].append(xi)
            return variants(q, xi, x, y)

        monkeypatch.setattr(diagonals, "commutant_compression", record_compression)
        monkeypatch.setattr(suites, "_unit_doubled", record_doubled)
        monkeypatch.setattr(diagonals, "compression_variant_residuals", record_variants)
        suites.run_theta(q, suites.RunConfig(name), np.random.default_rng(3))
        assert [len(x) for x in seen["xi"]] == [len(c) for c in seen["coeff"]]
        per_pass = max(1, suites.THETA_BUDGET // n ** 4)
        assert max(len(x) for x in seen["xi"]) == min(per_pass, suites.THETA_DRAWS)
        rng = np.random.default_rng(3)
        draws = [(random_unit_vector(rng, n), suites._coefficients(rng, k)) for _ in range(suites.THETA_DRAWS)]
        assert np.array_equal(np.concatenate(seen["xi"]), np.stack([xi for xi, _ in draws]))
        assert np.array_equal(np.concatenate(seen["coeff"]), np.stack([c for _, c in draws]))
        assert np.array_equal(seen["variants"][0], random_unit_vector(rng, n))

    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("name", ["S3", "D4"])
    def test_theta_independent_of_budget(self, name, side, monkeypatch):
        # one draw per pass and all draws in one pass give the same bytes
        q = get_group(name, side)
        cfg = suites.RunConfig(name)

        def measurements(budget):
            monkeypatch.setattr(suites, "THETA_BUDGET", budget)
            return suites.run_theta(q, cfg, np.random.default_rng(7))

        one = measurements(1)
        assert one == measurements(suites.THETA_DRAWS * q.dim ** 4)
        assert one == measurements(suites.THETA_BUDGET)

    def test_range_in_algebra_fires_on_swapped_columns(self):
        # on the D4 group algebra with entries 1 and 9 of W swapped, the
        # compressions leave the algebra; unitality and choi_consistency
        # read W' on both of their routes and stay at rounding level
        broken = swapped_columns(get_group("D4", "dual"), 1, 9)
        cfg = suites.RunConfig("D4")
        stacked = dict((m[0], m[1]) for m in suites.run_theta(broken, cfg, np.random.default_rng(0)))
        oracle = dict((m[0], m[1]) for m in theta_oracle(broken, cfg, np.random.default_rng(0)))
        assert stacked["range_in_algebra"] > 0.1
        assert abs(stacked["range_in_algebra"] - oracle["range_in_algebra"]) <= 1e-15


class TestBuildDiagonal:
    def test_z2_explicit_vector(self, z2):
        xi = NetVector(np.ones(2) / np.sqrt(2), "uniform")
        eta = NetVector(np.eye(2)[0], "point")
        cand = build_diagonal(z2, xi, eta)
        # W'* (uniform (x) e0) = (e00 + e11)/sqrt(2) classically
        expected = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        ((_, factor),) = cand.bifunctional.terms
        assert np.linalg.norm(factor[:, 0] - expected) <= 1e-12

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

    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_swapped_columns_of_w_break_module_records(self, side):
        # built directly with an empty cache, so no construction check rejects
        # the broken unitary and nothing derived from the true W is reused
        broken = swapped_columns(get_group("Z3", side))
        _, r1, r2 = suites._exact_diagonal(broken)
        assert r1 > 1e-6
        assert r2 > 1e-6

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


def assert_matches_oracle(cert, oracles, names):
    """Every per-draw field of a batched certificate against the per-draw
    oracle, to 1e-12 relative (the inputs have norm one)."""
    for name in names:
        expected = np.array([o[name] for o in oracles])
        np.testing.assert_allclose(getattr(cert, name), expected, rtol=1e-12, atol=1e-12, err_msg=name)


class TestCommutatorBound:
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_exact_nets_annihilate_commutator(self, name, rng):
        q = get_group(name)
        xi, eta = exact_nets(q)
        zeta = random_unit_vector(rng, q.dim)
        cert = certify_commutator_bound(q, zeta[None], xi, eta)
        assert cert.lhs.shape == (1,)
        assert cert.lhs[0] <= 1e-9
        assert cert.passed.all()

    def test_identity_operator_pairs_to_zero(self, s3, rng):
        xi, eta = exact_nets(s3)
        xi = NetVector(perturbed_vector(xi.vector, 0.3, rng), "p")
        zeta = random_unit_vector(rng, 6)
        values, norms = commutator_pairings(s3, zeta[None], xi, eta, doubled_stack(s3, [np.eye(36)]))
        assert values[0] <= 1e-12
        assert abs(norms[0] - 1.0) <= 1e-12
        assert certify_commutator_bound(s3, zeta[None], xi, eta).lhs[0] > 0.1

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.3])
    @pytest.mark.parametrize("name", ["Z4", "S3"])
    def test_monte_carlo_bound(self, name, eps, rng):
        q = get_group(name)
        xi_e, eta_e = exact_nets(q)
        xi = NetVector(perturbed_vector(xi_e.vector, eps, rng), "p")
        eta = NetVector(perturbed_vector(eta_e.vector, eps, rng), "p")
        zeta = np.stack([random_unit_vector(rng, q.dim) for _ in range(100)])
        cert = certify_commutator_bound(q, zeta, xi, eta)
        assert cert.lhs.shape == (100,)
        assert cert.passed.all(), (cert.lhs, cert.bound)

    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("name", ["Z1", "S3", "D4"])
    def test_matches_per_draw_oracle(self, name, side, rng):
        q = get_group(name, side)
        xi_e, eta_e = exact_nets(q)
        xi = NetVector(perturbed_vector(xi_e.vector, 0.1, rng), "p")
        eta = NetVector(perturbed_vector(eta_e.vector, 0.1, rng), "p")
        zeta = np.stack([random_unit_vector(rng, q.dim) for _ in range(20)])
        cert = certify_commutator_bound(q, zeta, xi, eta)
        oracles = [dense_commutator_certificate(q, z, xi, eta) for z in zeta]
        assert_matches_oracle(cert, oracles, ("eps_invariance", "eps_commutation", "eps", "lhs", "bound"))

    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("name", ["Z1", "S3", "D4"])
    def test_supremum_over_lam(self, name, side, rng):
        # the left side is at least |pairing| / ||Lam|| at every drawn Lam, and
        # equals the pairing at the norm-one Lam that norms the functional
        q = get_group(name, side)
        xi_e, eta_e = exact_nets(q)
        xi = NetVector(perturbed_vector(xi_e.vector, 0.1, rng), "p")
        eta = NetVector(perturbed_vector(eta_e.vector, 0.1, rng), "p")
        zeta, lams = zip(*[(random_unit_vector(rng, q.dim), random_doubled(q, rng, False)) for _ in range(20)])
        zeta = np.stack(zeta)
        sup = certify_commutator_bound(q, zeta, xi, eta).lhs
        values, norms = commutator_pairings(q, zeta, xi, eta, doubled_stack(q, lams))
        assert (values / norms <= sup * (1 + 1e-12) + 1e-15).all()
        decomp = tensor_algebra_decomposition(q)
        norming = [norming_element(dense(commutator_functional(q, z, xi, eta)), decomp) for z in zeta]
        values, norms = commutator_pairings(q, zeta, xi, eta, doubled_stack(q, norming))
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)
        np.testing.assert_allclose(values, sup, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("name", ["S3", "D4"])
    @pytest.mark.parametrize("side, swap, k", [("fn", 2, 0), ("dual", "n+1", 2)])
    def test_fires_under_swapped_entries_of_w(self, name, side, swap, k):
        # entries 1 and 2 (function algebra) or 1 and n+1 (group algebra) of
        # W's map swapped, with the exact nets of the unbroken object and the
        # basis vector zeta = e_k; the supremum over Lam sees the swap
        q = get_group(name, side)
        broken = swapped_columns(q, 1, q.dim + 1 if swap == "n+1" else swap)
        xi, eta = exact_nets(q)
        zeta = np.eye(q.dim)[k][None]
        assert certify_commutator_bound(q, zeta, xi, eta).passed.all()
        cert = certify_commutator_bound(broken, zeta, xi, eta)
        assert cert.lhs[0] - cert.bound[0] > 0.1

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", ["S3", "D4"])
    @pytest.mark.parametrize("side, swap", [("fn", 2), ("dual", "n+1")])
    def test_suite_record_fires_under_swapped_entries_of_w(self, name, side, swap, seed):
        q = get_group(name, side)
        broken = swapped_columns(q, 1, q.dim + 1 if swap == "n+1" else swap)
        # the thm33 stream of a certificate run with this seed and construction
        cfg = suites.RunConfig(name, seed=seed)
        construction = "function-algebra" if side == "fn" else "group-algebra"

        def margin(obj):
            records = suites.run_thm33(obj, cfg, suites._rng(cfg, "thm33", construction))
            return {check: (value, tol) for check, value, tol, _ in records}["commutator_bound_margin_t_0.01"]

        value, tol = margin(broken)
        assert value > tol
        value, tol = margin(q)
        assert value <= tol

    def test_rejects_operators_outside_doubled_algebra(self, z2):
        outside = np.zeros((4, 4))
        outside[0, 1] = 1.0
        with pytest.raises(ValueError, match="Lam is not in the doubled algebra"):
            doubled_coordinates(z2, outside)


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
