"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line with its measured worst case.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from conftest import random_algebra, random_doubled

from qglab.diagonals import (
    NetVector,
    build_diagonal,
    certify_commutator_bound,
    commutant_compression,
    compression_choi_matrix,
    diagonal_residuals,
    exact_nets,
    perturbed_vector,
)
from qglab.dualside import (
    build_approximate_identity,
    certify_identity_bound,
    certify_quasicentral_bound,
    dual_context,
    identity_shift_exchange_residual,
    pentagonal_consequence_residuals,
    quasicentral_exchange_residual,
    slice_convention_residual,
)
from qglab.funalg import (
    Functional,
    algebra_decomposition,
    block_decompose,
    convolve,
    predual_norm,
    sup_norm_estimate,
    vector_state,
)
from qglab.groups import BUILTIN_NAMES, builtin_table
from qglab.qgcore import dual, function_algebra, structure_identity_residuals
from qglab.tensorlin import operator_norm, projection_residual, random_unit_vector

EPSILONS = (0.01, 0.1, 0.3)

CATALOG_RELATIONS = (
    "conjugate_relation",
    "modular_commutation",
    "dual_unitary",
    "right_unitary",
    "dual_right_unitary",
    "opposite_from_right",
    "opposite_from_modular",
    "commutant_equals_dual_right",
    "dual_of_opposite",
    "pentagonal",
)


def report(number, passed, message):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {tag} - {message}")
    assert passed, message


def both_sides(name):
    q = function_algebra(builtin_table(name))
    return q, dual(q)


@pytest.fixture(scope="module")
def constructions():
    """All builtin groups on both sides, built once for the expensive criteria."""
    out = {}
    for name in BUILTIN_NAMES:
        q, qd = both_sides(name)
        out[(name, "function-algebra")] = q
        out[(name, "group-algebra")] = qd
    return out


def test_criterion_1_structural_catalog():
    start = time.perf_counter()
    worst = 0.0
    for name in BUILTIN_NAMES:
        for q in both_sides(name):
            residuals = structure_identity_residuals(q)
            worst = max(worst, max(residuals[k] for k in CATALOG_RELATIONS))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-10 and elapsed <= 10.0,
        f"structural catalog on all builtins, both sides: worst residual "
        f"{worst:.2e} (tol 1e-10), runtime {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_2_exchange_identities(constructions):
    start = time.perf_counter()
    worst = 0.0
    for idx, ((name, side), q) in enumerate(sorted(constructions.items())):
        ctx = dual_context(q)
        rng = np.random.default_rng([2, idx])
        worst = max(worst, *pentagonal_consequence_residuals(ctx, rng, draws=50))
        worst = max(worst, quasicentral_exchange_residual(ctx, rng, draws=50)[0])
        worst = max(worst, identity_shift_exchange_residual(ctx, rng, draws=50)[0])
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 1e-10 and elapsed <= 30.0,
        f"five exchange identities, 50 draws, all builtins both sides: worst "
        f"{worst:.2e} (tol 1e-10), runtime {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_3_compression_map(constructions):
    worst_unital = worst_choi = worst_member = 0.0
    for idx, ((name, side), q) in enumerate(sorted(constructions.items())):
        rng = np.random.default_rng([3, idx])
        n = q.dim
        for _ in range(20):
            xi = random_unit_vector(rng, n)
            unital = operator_norm(commutant_compression(q, xi, np.eye(n * n)) - np.eye(n))
            min_eig = float(np.linalg.eigvalsh(compression_choi_matrix(q, xi))[0])
            lam = random_doubled(q, rng)
            member = projection_residual((q.ortho_basis,), commutant_compression(q, xi, lam))
            worst_unital = max(worst_unital, unital)
            worst_choi = max(worst_choi, -min_eig)
            worst_member = max(worst_member, member)
    ok = worst_unital <= 1e-10 and worst_choi <= 1e-9 and worst_member <= 1e-9
    report(
        3,
        ok,
        f"compression map, 20 draws per group and side: unitality {worst_unital:.2e} "
        f"(tol 1e-10), Choi negativity {worst_choi:.2e} (tol 1e-9), "
        f"range membership {worst_member:.2e} (tol 1e-9)",
    )


def test_criterion_4_exact_diagonal(constructions):
    worst = 0.0
    for name in BUILTIN_NAMES:
        q = constructions[(name, "function-algebra")]
        xi, eta = exact_nets(q)
        cand = build_diagonal(q, xi, eta)
        for s in range(q.dim):
            r1, r2 = diagonal_residuals(q, cand, vector_state(np.eye(q.dim)[s]))
            worst = max(worst, r1, r2)
    report(
        4,
        worst <= 1e-10,
        f"exact diagonal (uniform, identity point mass) on every function "
        f"algebra, all basis states: worst residual {worst:.2e} (tol 1e-10)",
    )


def test_criterion_5_commutator_bound_constant(constructions):
    violations = 0
    worst_margin = -np.inf
    draws = 100
    for idx, ((name, side), q) in enumerate(sorted(constructions.items())):
        rng = np.random.default_rng([5, idx])
        xi_e, eta_e = exact_nets(q)
        for eps in EPSILONS:
            xi = NetVector(perturbed_vector(xi_e.vector, eps, rng), "p")
            eta = NetVector(perturbed_vector(eta_e.vector, eps, rng), "p")
            for _ in range(draws):
                zeta = random_unit_vector(rng, q.dim)
                lam = random_doubled(q, rng)
                cert = certify_commutator_bound(q, zeta, xi, eta, lam, slack=1e-9)
                worst_margin = max(worst_margin, cert.lhs - cert.bound)
                if not cert.passed:
                    violations += 1
    report(
        5,
        violations == 0,
        f"commutator pairing bound (constant 3), eps in {EPSILONS}, "
        f"{draws} draws per group/side/eps, both sides: {violations} violations, "
        f"worst margin {worst_margin:.2e} (slack 1e-9)",
    )


def test_criterion_6_quasicentral_identity(constructions):
    worst_oracle = worst_exact = 0.0
    violations = 0
    worst_margin = -np.inf
    draws = 25
    for idx, ((name, side), q) in enumerate(sorted(constructions.items())):
        rng = np.random.default_rng([6, idx])
        ctx = dual_context(q)
        n = q.dim
        for _ in range(50):
            u = build_approximate_identity(
                ctx,
                NetVector(random_unit_vector(rng, n), "r"),
                NetVector(random_unit_vector(rng, n), "r"),
            )
            res = slice_convention_residual(ctx, u, random_unit_vector(rng, n), random_algebra(q, rng))
            worst_oracle = max(worst_oracle, res)
        xi_e, eta_e = exact_nets(q)
        u_exact = build_approximate_identity(ctx, xi_e, eta_e)
        decomp = algebra_decomposition(q)
        for s in range(n):
            a = vector_state(np.eye(n)[s])
            worst_exact = max(
                worst_exact, predual_norm(convolve(q, u_exact.functional, a) - a, decomp)
            )
        for eps in EPSILONS:
            xi = NetVector(perturbed_vector(xi_e.vector, eps, rng), "p")
            eta = NetVector(perturbed_vector(eta_e.vector, eps, rng), "p")
            u = build_approximate_identity(ctx, xi, eta)
            for _ in range(draws):
                zeta = random_unit_vector(rng, n)
                cert1 = certify_identity_bound(ctx, u, zeta, random_algebra(q, rng), slack=1e-9)
                cert2 = certify_quasicentral_bound(ctx, u, zeta, random_doubled(q, rng), slack=1e-9)
                worst_margin = max(worst_margin, cert1.lhs - cert1.bound, cert2.lhs - cert2.bound)
                violations += (not cert1.passed) + (not cert2.passed)
    ok = worst_oracle <= 1e-10 and worst_exact <= 1e-10 and violations == 0
    report(
        6,
        ok,
        f"approximate identity: slice oracle {worst_oracle:.2e} (tol 1e-10, 50 draws), "
        f"exact identity defect {worst_exact:.2e} (tol 1e-10), both constant-2 bounds: "
        f"{violations} violations, worst margin {worst_margin:.2e} (slack 1e-9)",
    )


def test_criterion_7_predual_norm_engine():
    rng = np.random.default_rng([7, 0])
    worst = 0.0
    diag_basis = [np.diag(np.eye(8)[s]) for s in range(8)]
    diag_decomp = block_decompose(diag_basis, rng)
    for _ in range(50):
        rho = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        block_value = predual_norm(Functional(rho), diag_decomp)
        oracle = sup_norm_estimate(rho, diag_basis, rng, samples=2000, ascent_steps=100)
        worst = max(worst, abs(block_value - oracle))
        assert oracle <= block_value + 1e-9

    table = builtin_table("S3")
    lam_basis = []
    for g in range(6):
        lam = np.zeros((6, 6))
        for h in range(6):
            lam[table.product(g, h), h] = 1.0
        lam_basis.append(lam)
    s3_decomp = block_decompose(lam_basis, rng)
    sizes = s3_decomp.block_sizes
    for _ in range(50):
        rho = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        block_value = predual_norm(Functional(rho), s3_decomp)
        oracle = sup_norm_estimate(rho, lam_basis, rng, samples=2000, ascent_steps=100)
        worst = max(worst, abs(block_value - oracle))
        assert oracle <= block_value + 1e-9
    ok = worst <= 1e-4 and sizes == [1, 1, 2]
    report(
        7,
        ok,
        f"predual norm vs randomized sup on 50 functionals (diagonal n=8 and the "
        f"S3 group algebra): worst gap {worst:.2e} (tol 1e-4); S3 blocks {sizes} "
        f"(expected [1, 1, 2])",
    )


def test_criterion_8_dual_diagonal(constructions):
    worst = 0.0
    for name in BUILTIN_NAMES:
        q = constructions[(name, "function-algebra")]
        ctx = dual_context(q)
        xi, eta = exact_nets(ctx.qhat)
        cand = build_diagonal(ctx.qhat, xi, eta)
        for s in range(q.dim):
            r1, r2 = diagonal_residuals(ctx.qhat, cand, vector_state(np.eye(q.dim)[s]))
            worst = max(worst, r1, r2)
    report(
        8,
        worst <= 1e-10,
        f"dual-side diagonal at exact dual nets on every builtin, all basis "
        f"states: worst residual {worst:.2e} (tol 1e-10)",
    )


def test_criterion_9_determinism_and_traceability():
    from qglab.suites import RunConfig, run_suites

    cfg = RunConfig(
        group_source="S3",
        suites=("structure", "thm33", "thm44"),
        epsilons=(0.1,),
        seed=11,
        draws=10,
        bound_draws=10,
        theta_draws=5,
    )
    first = run_suites(cfg)
    second = run_suites(cfg)
    identical = first.to_json_bytes() == second.to_json_bytes()
    anchored = all(r.anchor for r in first.records) and len(first.records) > 0
    report(
        9,
        identical and anchored,
        f"fixed seed gives byte-identical reports ({identical}); all "
        f"{len(first.records)} records carry a statement label ({anchored})",
    )
