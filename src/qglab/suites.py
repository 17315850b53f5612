"""Suite orchestration: run the selected check families over a group and its
two constructions and assemble a deterministic certificate report.

Suite names are part of the command-line contract:
``structure, lemma32, lemma42, lemma43, theta, thm33, obad, dual, thm44``.
Each suite function returns its measurements as ``(check, residual,
tolerance, detail)`` tuples; ``run_suites`` turns them into records carrying
the suite, group, construction and the label of the statement certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagonals, dualside, funalg, qgcore
from .groups import load_group
from .report import CheckRecord, CheckReport
from .tensorlin import (
    DimensionCapError,
    combine,
    max_tensor_entries,
    operator_norm,
    projection_residual,
    random_unit_vector,
)

__all__ = ["RunConfig", "run_suites", "SUITE_NAMES", "CONSTRUCTIONS"]

SUITE_NAMES = (
    "structure",
    "lemma32",
    "lemma42",
    "lemma43",
    "theta",
    "thm33",
    "obad",
    "dual",
    "thm44",
)

CONSTRUCTIONS = ("function-algebra", "group-algebra")

DEFAULT_EPSILONS = (0.01, 0.1, 0.3)

# statement label of each suite's records; CHECK_ANCHORS names the checks that
# certify a different statement from the rest of their suite
ANCHORS = {
    "structure": "Proposition 2.2",
    "lemma32": "Lemma 3.2",
    "lemma42": "Lemma 4.2",
    "lemma43": "Lemma 4.3",
    "theta": "Lemma 3.4",
    "thm33": "Theorem 3.3",
    "obad": "Corollary 3.6",
    "dual": "Corollary 4.1",
    "thm44": "Theorem 4.4",
}
CHECK_ANCHORS = {
    ("structure", "W_in_doubled_algebra"): "definition of the multiplicative unitary",
    ("structure", "coassociativity"): "definition of the comultiplication",
    ("dual", "quasicentral_identity_defect"): "Corollary 3.6 closing remark",
}

# what a suite function returns for each check: (check, residual, tolerance, detail)
Measurement = tuple[str, float, float | None, dict | None]


@dataclass(frozen=True)
class RunConfig:
    """Everything a reproducible verification run depends on."""

    group_source: str
    construction: str = "both"
    suites: tuple[str, ...] = SUITE_NAMES
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    seed: int = 0
    draws: int = 50
    bound_draws: int = 100
    theta_draws: int = 20
    tol: float | None = None


def _tol(cfg: RunConfig, default: float) -> float:
    return default if cfg.tol is None else cfg.tol


def _check_caps(order: int, suites: tuple[str, ...]) -> None:
    cap = max_tensor_entries()
    three_leg_max = max(1, int(round(cap ** (1.0 / 3.0))))
    while three_leg_max ** 3 > cap:
        three_leg_max -= 1
    two_leg_max = 2 * three_leg_max
    needs_three = [s for s in suites if s != "structure"]
    if needs_three and order > three_leg_max:
        raise DimensionCapError(
            f"group order {order} exceeds the three-leg cap {three_leg_max} "
            f"needed by suites {needs_three}; raise QGLAB_MAX_DIM to override"
        )
    if order > two_leg_max:
        raise DimensionCapError(
            f"group order {order} exceeds the two-leg cap {two_leg_max}; "
            "raise QGLAB_MAX_DIM to override"
        )


def _rng(cfg: RunConfig, suite: str, construction: str) -> np.random.Generator:
    return np.random.default_rng(
        [cfg.seed, SUITE_NAMES.index(suite), CONSTRUCTIONS.index(construction)]
    )


def _random_element(factors: tuple[np.ndarray, ...], rng: np.random.Generator) -> np.ndarray:
    """Random norm-one element of ``M`` or ``M (x) M`` given as factor stacks,
    one complex Gaussian coefficient per basis product, second index fast."""
    k = math.prod(len(f) for f in factors)
    coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    x = combine(factors, coeff)
    return x / operator_norm(x)


def _basis_states(q: qgcore.FiniteQuantumGroup) -> list[funalg.Functional]:
    return [funalg.vector_state(np.eye(q.dim)[s]) for s in range(q.dim)]


def _exact_diagonal(q) -> tuple[diagonals.DiagonalCandidate, float, float]:
    """The diagonal of ``q`` at its exact nets, with its module-commutator and
    approximate-identity residuals, each a max over the basis vector states."""
    xi, eta = diagonals.exact_nets(q)
    cand = diagonals.build_diagonal(q, xi, eta)
    r1 = r2 = 0.0
    for a in _basis_states(q):
        m1, m2 = diagonals.diagonal_residuals(q, cand, a)
        r1, r2 = max(r1, m1), max(r2, m2)
    return cand, r1, r2


def run_structure(q, cfg: RunConfig, rng) -> list[Measurement]:
    tol = _tol(cfg, 1e-10)
    out = [
        (check, value, _tol(cfg, 1e-8) if check == "W_in_doubled_algebra" else tol, None)
        for check, value in sorted(qgcore.structure_identity_residuals(q).items())
    ]
    if q.dim ** 3 <= max_tensor_entries():
        x = _random_element((q.ortho_basis,), rng)
        out.append(("coassociativity", qgcore.coassociativity_residual(q, x), tol, None))
    return out


def run_lemma32(q, cfg: RunConfig, rng) -> list[Measurement]:
    ctx = dualside.dual_context(q)
    residuals = dualside.pentagonal_consequence_residuals(ctx, rng, cfg.draws)
    names = ("exchange_first", "exchange_second", "modular_sandwich")
    draws = {"draws": cfg.draws}
    return [(name, value, _tol(cfg, 1e-10), draws) for name, value in zip(names, residuals)]


def run_lemma42(q, cfg: RunConfig, rng) -> list[Measurement]:
    ctx = dualside.dual_context(q)
    tol = _tol(cfg, 1e-10)
    main, comm = dualside.quasicentral_exchange_residual(ctx, rng, cfg.draws)
    consistency = dualside.commutant_opposite_consistency(ctx)
    draws = {"draws": cfg.draws}
    return [
        ("exchange_identity", main, tol, draws),
        ("leg_commutation", comm, _tol(cfg, 1e-12), draws),
        ("commutant_opposite_consistency", consistency, tol, draws),
    ]


def run_lemma43(q, cfg: RunConfig, rng) -> list[Measurement]:
    ctx = dualside.dual_context(q)
    main, comm = dualside.identity_shift_exchange_residual(ctx, rng, cfg.draws)
    draws = {"draws": cfg.draws}
    return [
        ("exchange_identity", main, _tol(cfg, 1e-10), draws),
        ("leg_commutation", comm, _tol(cfg, 1e-12), draws),
    ]


def run_theta(q, cfg: RunConfig, rng) -> list[Measurement]:
    n = q.dim
    unital = choi = member = 0.0
    for _ in range(cfg.theta_draws):
        xi = random_unit_vector(rng, n)
        theta_id = diagonals.commutant_compression(q, xi, np.eye(n * n))
        unital = max(unital, operator_norm(theta_id - np.eye(n)))
        choi_matrix = diagonals.compression_choi_matrix(q, xi)
        min_eig = float(np.linalg.eigvalsh(choi_matrix)[0])
        choi = max(choi, -min_eig)
        lam = _random_element((q.ortho_basis, q.ortho_basis), rng)
        theta_lam = diagonals.commutant_compression(q, xi, lam)
        member = max(member, projection_residual((q.ortho_basis,), theta_lam))
    xi = random_unit_vector(rng, n)
    x = _random_element((q.ortho_basis,), rng)
    y = _random_element((q.ortho_basis,), rng)
    variants = diagonals.compression_variant_residuals(q, xi, x, y)
    # The factored simple-tensor form only holds on commutative algebras (with
    # the star-left conjugation and matching weight); elsewhere the residuals
    # of all four convention variants are recorded without assertion.
    commutative = max(funalg.algebra_decomposition(q).block_sizes) == 1
    simple_tol = _tol(cfg, 1e-10) if commutative else None
    draws = {"draws": cfg.theta_draws}
    return [
        ("unitality", unital, _tol(cfg, 1e-10), draws),
        ("choi_negativity", choi, _tol(cfg, 1e-9), draws),
        ("range_in_algebra", member, _tol(cfg, 1e-9), draws),
        ("simple_tensor_identity", variants["sandwich_star_left/plain"], simple_tol, dict(variants)),
    ]


def run_thm33(q, cfg: RunConfig, rng) -> list[Measurement]:
    slack = _tol(cfg, 1e-9)
    xi_exact, eta_exact = diagonals.exact_nets(q)
    zeta = random_unit_vector(rng, q.dim)
    lam = _random_element((q.ortho_basis, q.ortho_basis), rng)
    cert = diagonals.certify_commutator_bound(q, zeta, xi_exact, eta_exact, lam, slack=slack)
    out = [("commutator_pairing_exact_nets", cert.lhs, slack, None)]
    for eps in cfg.epsilons:
        xi = diagonals.NetVector(
            diagonals.perturbed_vector(xi_exact.vector, eps, rng), f"perturbed t={eps}"
        )
        eta = diagonals.NetVector(
            diagonals.perturbed_vector(eta_exact.vector, eps, rng), f"perturbed t={eps}"
        )
        worst = -math.inf
        worst_eps = 0.0
        for _ in range(cfg.bound_draws):
            zeta = random_unit_vector(rng, q.dim)
            lam = _random_element((q.ortho_basis, q.ortho_basis), rng)
            cert = diagonals.certify_commutator_bound(q, zeta, xi, eta, lam, slack=slack)
            worst = max(worst, cert.lhs - cert.bound)
            worst_eps = max(worst_eps, cert.eps)
        detail = {"draws": cfg.bound_draws, "max_measured_eps": worst_eps}
        out.append((f"commutator_bound_margin_t_{eps:g}", worst, slack, detail))
    return out


def run_obad(q, cfg: RunConfig, rng) -> list[Measurement]:
    tol = _tol(cfg, 1e-10)
    cand, r1, r2 = _exact_diagonal(q)
    norm_defect = abs(cand.bifunctional.value(np.eye(q.dim ** 2)) - 1.0)
    states = {"states": q.dim}
    return [
        ("module_commutator", r1, tol, states),
        ("approximate_identity", r2, tol, states),
        ("state_normalization", norm_defect, tol, states),
    ]


def run_dual(q, cfg: RunConfig, rng) -> list[Measurement]:
    tol = _tol(cfg, 1e-10)
    ctx = dualside.dual_context(q)
    n = q.dim
    flip1 = flip2 = 0.0
    for _ in range(cfg.draws):
        xi = random_unit_vector(rng, n)
        zeta = random_unit_vector(rng, n)
        f1, f2 = dualside.flip_relation_residuals(ctx, xi, zeta)
        flip1, flip2 = max(flip1, f1), max(flip2, f2)
    draws = {"draws": cfg.draws}
    out = [
        ("flip_relation_dual", flip1, tol, draws),
        ("flip_relation_dual_commutant", flip2, tol, draws),
    ]

    # exact_nets already returns the role-correct pair for q's unitary:
    # xi right invariant, eta left invariant
    xi, eta = diagonals.exact_nets(q)
    zeta = random_unit_vector(rng, n)
    c1, c2, c3, c4 = dualside.dual_net_residuals(ctx, xi.vector, eta.vector, zeta)
    out += [("right_invariance_exact", c1, tol, None), ("left_invariance_exact", c2, tol, None)]
    if q.table is not None and q.table.is_abelian():
        out += [("opposite_comparison_left", c3, tol, None), ("opposite_comparison_right", c4, tol, None)]
    else:
        out.append(("opposite_comparison_logged", 0.0, None, {"c3": c3, "c4": c4}))

    # the dual diagonal is the diagonal of the dual at its own exact nets
    _, r1, r2 = _exact_diagonal(ctx.qhat)
    states = {"states": n}
    out += [("dual_module_commutator", r1, tol, states), ("dual_approximate_identity", r2, tol, states)]

    remark = diagonals.dual_quasicentral_residual(q, zeta, xi.vector)
    out.append(("quasicentral_identity_defect", remark, _tol(cfg, 1e-9), None))
    return out


def run_thm44(q, cfg: RunConfig, rng) -> list[Measurement]:
    ctx = dualside.dual_context(q)
    n = q.dim
    slack = _tol(cfg, 1e-9)
    tol = _tol(cfg, 1e-10)

    oracle = 0.0
    for _ in range(cfg.draws):
        xi = diagonals.NetVector(random_unit_vector(rng, n), "random")
        eta = diagonals.NetVector(random_unit_vector(rng, n), "random")
        u = dualside.build_approximate_identity(ctx, xi, eta)
        zeta = random_unit_vector(rng, n)
        x = _random_element((q.ortho_basis,), rng)
        oracle = max(oracle, dualside.slice_convention_residual(ctx, u, zeta, x))
    out = [("slice_convention_oracle", oracle, tol, {"draws": cfg.draws})]

    xi_exact, eta_exact = diagonals.exact_nets(q)
    u_exact = dualside.build_approximate_identity(ctx, xi_exact, eta_exact)
    ident = 0.0
    decomp = funalg.algebra_decomposition(q)
    for a in _basis_states(q):
        diff = funalg.convolve(q, u_exact.functional, a) - a
        ident = max(ident, funalg.predual_norm(diff, decomp))
    out.append(("exact_identity", ident, tol, {"states": n}))

    for eps in cfg.epsilons:
        xi = diagonals.NetVector(
            diagonals.perturbed_vector(xi_exact.vector, eps, rng), f"perturbed t={eps}"
        )
        eta = diagonals.NetVector(
            diagonals.perturbed_vector(eta_exact.vector, eps, rng), f"perturbed t={eps}"
        )
        u = dualside.build_approximate_identity(ctx, xi, eta)
        bai_margin = qc_margin = -math.inf
        consistency = 0.0
        for _ in range(cfg.bound_draws):
            zeta = random_unit_vector(rng, n)
            x = _random_element((q.ortho_basis,), rng)
            cert = dualside.certify_identity_bound(ctx, u, zeta, x, slack=slack)
            bai_margin = max(bai_margin, cert.lhs - cert.bound)
            lam = _random_element((q.ortho_basis, q.ortho_basis), rng)
            qcert = dualside.certify_quasicentral_bound(ctx, u, zeta, lam, slack=slack)
            qc_margin = max(qc_margin, qcert.lhs - qcert.bound)
            consistency = max(consistency, qcert.consistency)
        out.append((f"identity_bound_margin_t_{eps:g}", bai_margin, slack, {"draws": cfg.bound_draws}))
        detail = {"draws": cfg.bound_draws, "pairing_consistency": consistency}
        out.append((f"quasicentral_bound_margin_t_{eps:g}", qc_margin, slack, detail))
    return out

SUITE_FUNCS = {
    "structure": run_structure,
    "lemma32": run_lemma32,
    "lemma42": run_lemma42,
    "lemma43": run_lemma43,
    "theta": run_theta,
    "thm33": run_thm33,
    "obad": run_obad,
    "dual": run_dual,
    "thm44": run_thm44,
}


def _constructions(choice: str) -> tuple[str, ...]:
    if choice == "both":
        return CONSTRUCTIONS
    if choice in CONSTRUCTIONS:
        return (choice,)
    raise ValueError(f"unknown construction {choice!r}; choose from {CONSTRUCTIONS + ('both',)}")


def run_suites(cfg: RunConfig) -> CheckReport:
    """Execute the selected suites; deterministic for a fixed config and seed."""
    for suite in cfg.suites:
        if suite not in SUITE_FUNCS:
            raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    for name in ("draws", "bound_draws", "theta_draws"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {getattr(cfg, name)}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {cfg.seed}")
    for eps in cfg.epsilons:
        if not math.isfinite(eps):
            raise ValueError(f"epsilons must be finite, got {eps}")
    if cfg.tol is not None and not math.isfinite(cfg.tol):
        raise ValueError(f"tol must be finite, got {cfg.tol}")
    table = load_group(cfg.group_source)
    _check_caps(table.order, tuple(cfg.suites))
    report = CheckReport(seed=cfg.seed)
    fa = qgcore.function_algebra(table)
    for construction in _constructions(cfg.construction):
        q = fa if construction == "function-algebra" else qgcore.dual(fa)
        for suite in cfg.suites:
            measurements = SUITE_FUNCS[suite](q, cfg, _rng(cfg, suite, construction))
            report.extend([
                CheckRecord(
                    suite=suite,
                    check=check,
                    group=table.name,
                    construction=construction,
                    anchor=CHECK_ANCHORS.get((suite, check), ANCHORS[suite]),
                    residual=residual,
                    tolerance=tolerance,
                    detail=detail,
                )
                for check, residual, tolerance, detail in measurements
            ])
    return report
