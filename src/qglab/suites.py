"""Suite orchestration: run the selected check families over a group and its
two constructions and assemble a deterministic certificate report.

Suite names are part of the command-line contract:
``structure, lemma32, lemma42, lemma43, theta, thm33, obad, dual, thm44``.
Each record carries the label of the statement it certifies.
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

# statement labels carried by certificate records
ANCHOR_RELATIONS = "Proposition 2.2"
ANCHOR_COMULT = "definition of the comultiplication"
ANCHOR_W_MEMBER = "definition of the multiplicative unitary"
ANCHOR_LEMMA_PENT = "Lemma 3.2"
ANCHOR_THETA = "Lemma 3.4"
ANCHOR_THM_COMM = "Theorem 3.3"
ANCHOR_COR_MAIN = "Corollary 3.6"
ANCHOR_REMARK = "Corollary 3.6 closing remark"
ANCHOR_COR_DUAL = "Corollary 4.1"
ANCHOR_LEMMA_QC = "Lemma 4.2"
ANCHOR_LEMMA_BAI = "Lemma 4.3"
ANCHOR_THM_QC = "Theorem 4.4"


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


def _random_element(basis: list[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """Random norm-one element of the span of ``basis`` (of ``M`` or ``M (x) M``)."""
    coeff = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    x = sum(c * b for c, b in zip(coeff, basis))
    return x / operator_norm(x)


def _basis_states(q: qgcore.FiniteQuantumGroup) -> list[funalg.Functional]:
    return [funalg.vector_state(np.eye(q.dim)[s]) for s in range(q.dim)]


def run_structure(q, cfg: RunConfig, rng, group: str, construction: str) -> list[CheckRecord]:
    records = []
    tol = _tol(cfg, 1e-10)
    three_leg_ok = q.dim ** 3 <= max_tensor_entries()
    residuals = qgcore.structure_identity_residuals(q)
    for check, value in sorted(residuals.items()):
        if check == "pentagonal" and not three_leg_ok:
            continue
        anchor = ANCHOR_W_MEMBER if check == "W_in_doubled_algebra" else ANCHOR_RELATIONS
        check_tol = _tol(cfg, 1e-8) if check == "W_in_doubled_algebra" else tol
        records.append(
            CheckRecord(
                suite="structure",
                check=check,
                group=group,
                construction=construction,
                anchor=anchor,
                residual=value,
                tolerance=check_tol,
            )
        )
    if three_leg_ok:
        x = _random_element(q.ortho_basis, rng)
        records.append(
            CheckRecord(
                suite="structure",
                check="coassociativity",
                group=group,
                construction=construction,
                anchor=ANCHOR_COMULT,
                residual=qgcore.coassociativity_residual(q, x),
                tolerance=tol,
            )
        )
    return records


def run_lemma32(q, cfg: RunConfig, rng, group: str, construction: str) -> list[CheckRecord]:
    ctx = dualside.dual_context(q)
    tol = _tol(cfg, 1e-10)
    r1, r2, r3 = dualside.pentagonal_consequence_residuals(ctx, rng, cfg.draws)
    names = ("exchange_first", "exchange_second", "modular_sandwich")
    return [
        CheckRecord(
            suite="lemma32",
            check=name,
            group=group,
            construction=construction,
            anchor=ANCHOR_LEMMA_PENT,
            residual=value,
            tolerance=tol,
            detail={"draws": cfg.draws},
        )
        for name, value in zip(names, (r1, r2, r3))
    ]


def run_lemma42(q, cfg: RunConfig, rng, group: str, construction: str) -> list[CheckRecord]:
    ctx = dualside.dual_context(q)
    tol = _tol(cfg, 1e-10)
    main, comm = dualside.quasicentral_exchange_residual(ctx, rng, cfg.draws)
    consistency = dualside.commutant_opposite_consistency(ctx)
    mk = lambda check, value, t: CheckRecord(
        suite="lemma42",
        check=check,
        group=group,
        construction=construction,
        anchor=ANCHOR_LEMMA_QC,
        residual=value,
        tolerance=t,
        detail={"draws": cfg.draws},
    )
    return [
        mk("exchange_identity", main, tol),
        mk("leg_commutation", comm, _tol(cfg, 1e-12)),
        mk("commutant_opposite_consistency", consistency, tol),
    ]


def run_lemma43(q, cfg: RunConfig, rng, group: str, construction: str) -> list[CheckRecord]:
    ctx = dualside.dual_context(q)
    tol = _tol(cfg, 1e-10)
    main, comm = dualside.identity_shift_exchange_residual(ctx, rng, cfg.draws)
    return [
        CheckRecord(
            suite="lemma43",
            check="exchange_identity",
            group=group,
            construction=construction,
            anchor=ANCHOR_LEMMA_BAI,
            residual=main,
            tolerance=tol,
            detail={"draws": cfg.draws},
        ),
        CheckRecord(
            suite="lemma43",
            check="leg_commutation",
            group=group,
            construction=construction,
            anchor=ANCHOR_LEMMA_BAI,
            residual=comm,
            tolerance=_tol(cfg, 1e-12),
            detail={"draws": cfg.draws},
        ),
    ]


def run_theta(q, cfg: RunConfig, rng, group: str, construction: str) -> list[CheckRecord]:
    n = q.dim
    unital = choi = member = 0.0
    for _ in range(cfg.theta_draws):
        xi = random_unit_vector(rng, n)
        theta_id = diagonals.commutant_compression(q, xi, np.eye(n * n))
        unital = max(unital, operator_norm(theta_id - np.eye(n)))
        choi_matrix = diagonals.compression_choi_matrix(q, xi)
        min_eig = float(np.linalg.eigvalsh(choi_matrix)[0])
        choi = max(choi, -min_eig)
        lam = _random_element(qgcore.tensor_ortho_basis(q), rng)
        theta_lam = diagonals.commutant_compression(q, xi, lam)
        member = max(member, projection_residual(q.ortho_basis, theta_lam))
    xi = random_unit_vector(rng, n)
    x = _random_element(q.ortho_basis, rng)
    y = _random_element(q.ortho_basis, rng)
    variants = diagonals.compression_variant_residuals(q, xi, x, y)
    mk = lambda check, value, t, detail=None: CheckRecord(
        suite="theta",
        check=check,
        group=group,
        construction=construction,
        anchor=ANCHOR_THETA,
        residual=value,
        tolerance=t,
        detail=detail,
    )
    # The factored simple-tensor form only holds on commutative algebras (with
    # the star-left conjugation and matching weight); elsewhere the residuals
    # of all four convention variants are recorded without assertion.
    simple_tol = _tol(cfg, 1e-10) if qgcore.algebra_is_commutative(q) else None
    return [
        mk("unitality", unital, _tol(cfg, 1e-10), {"draws": cfg.theta_draws}),
        mk("choi_negativity", choi, _tol(cfg, 1e-9), {"draws": cfg.theta_draws}),
        mk("range_in_algebra", member, _tol(cfg, 1e-9), {"draws": cfg.theta_draws}),
        mk(
            "simple_tensor_identity",
            variants["sandwich_star_left/plain"],
            simple_tol,
            dict(variants),
        ),
    ]


def run_thm33(q, cfg: RunConfig, rng, group: str, construction: str) -> list[CheckRecord]:
    records = []
    slack = _tol(cfg, 1e-9)
    xi_exact, eta_exact = diagonals.exact_nets(q)
    zeta = random_unit_vector(rng, q.dim)
    lam = _random_element(qgcore.tensor_ortho_basis(q), rng)
    cert = diagonals.certify_commutator_bound(q, zeta, xi_exact, eta_exact, lam, slack=slack)
    records.append(
        CheckRecord(
            suite="thm33",
            check="commutator_pairing_exact_nets",
            group=group,
            construction=construction,
            anchor=ANCHOR_THM_COMM,
            residual=cert.lhs,
            tolerance=slack,
        )
    )
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
            lam = _random_element(qgcore.tensor_ortho_basis(q), rng)
            cert = diagonals.certify_commutator_bound(q, zeta, xi, eta, lam, slack=slack)
            worst = max(worst, cert.lhs - cert.bound)
            worst_eps = max(worst_eps, cert.eps)
        records.append(
            CheckRecord(
                suite="thm33",
                check=f"commutator_bound_margin_t_{eps:g}",
                group=group,
                construction=construction,
                anchor=ANCHOR_THM_COMM,
                residual=worst,
                tolerance=slack,
                detail={"draws": cfg.bound_draws, "max_measured_eps": worst_eps},
            )
        )
    return records


def run_obad(q, cfg: RunConfig, rng, group: str, construction: str) -> list[CheckRecord]:
    tol = _tol(cfg, 1e-10)
    xi, eta = diagonals.exact_nets(q)
    cand = diagonals.build_diagonal(q, xi, eta)
    r1 = r2 = 0.0
    for a in _basis_states(q):
        m1, m2 = diagonals.diagonal_residuals(q, cand, a)
        r1, r2 = max(r1, m1), max(r2, m2)
    norm_defect = abs(cand.bifunctional.value(np.eye(q.dim ** 2)) - 1.0)
    mk = lambda check, value: CheckRecord(
        suite="obad",
        check=check,
        group=group,
        construction=construction,
        anchor=ANCHOR_COR_MAIN,
        residual=value,
        tolerance=tol,
        detail={"states": q.dim},
    )
    return [
        mk("module_commutator", r1),
        mk("approximate_identity", r2),
        mk("state_normalization", norm_defect),
    ]


def run_dual(q, cfg: RunConfig, rng, group: str, construction: str) -> list[CheckRecord]:
    records = []
    tol = _tol(cfg, 1e-10)
    ctx = dualside.dual_context(q)
    n = q.dim
    flip1 = flip2 = 0.0
    for _ in range(cfg.draws):
        xi = random_unit_vector(rng, n)
        zeta = random_unit_vector(rng, n)
        f1, f2 = dualside.flip_relation_residuals(ctx, xi, zeta)
        flip1, flip2 = max(flip1, f1), max(flip2, f2)
    mk = lambda check, value, t, detail=None: CheckRecord(
        suite="dual",
        check=check,
        group=group,
        construction=construction,
        anchor=ANCHOR_COR_DUAL,
        residual=value,
        tolerance=t,
        detail=detail,
    )
    records.append(mk("flip_relation_dual", flip1, tol, {"draws": cfg.draws}))
    records.append(mk("flip_relation_dual_commutant", flip2, tol, {"draws": cfg.draws}))

    # exact_nets already returns the role-correct pair for q's unitary:
    # xi right invariant, eta left invariant
    xi, eta = diagonals.exact_nets(q)
    zeta = random_unit_vector(rng, n)
    c1, c2, c3, c4 = dualside.dual_net_residuals(ctx, xi.vector, eta.vector, zeta)
    abelian = q.table is not None and q.table.is_abelian()
    records.append(mk("right_invariance_exact", c1, tol))
    records.append(mk("left_invariance_exact", c2, tol))
    if abelian:
        records.append(mk("opposite_comparison_left", c3, tol))
        records.append(mk("opposite_comparison_right", c4, tol))
    else:
        records.append(
            mk("opposite_comparison_logged", 0.0, None, {"c3": c3, "c4": c4})
        )

    # dual diagonal at the dual-role exact nets: point mass first, uniform second
    xi_d, eta_d = diagonals.exact_nets(ctx.qhat)
    cand = dualside.build_dual_diagonal(ctx, xi_d, eta_d)
    r1 = r2 = 0.0
    for a in _basis_states(ctx.qhat):
        m1, m2 = diagonals.diagonal_residuals(ctx.qhat, cand, a)
        r1, r2 = max(r1, m1), max(r2, m2)
    records.append(mk("dual_module_commutator", r1, tol, {"states": n}))
    records.append(mk("dual_approximate_identity", r2, tol, {"states": n}))

    remark = diagonals.dual_quasicentral_residual(q, zeta, xi.vector)
    records.append(
        CheckRecord(
            suite="dual",
            check="quasicentral_identity_defect",
            group=group,
            construction=construction,
            anchor=ANCHOR_REMARK,
            residual=remark,
            tolerance=_tol(cfg, 1e-9),
        )
    )
    return records


def run_thm44(q, cfg: RunConfig, rng, group: str, construction: str) -> list[CheckRecord]:
    records = []
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
        x = _random_element(q.ortho_basis, rng)
        oracle = max(oracle, dualside.slice_convention_residual(ctx, u, zeta, x))
    records.append(
        CheckRecord(
            suite="thm44",
            check="slice_convention_oracle",
            group=group,
            construction=construction,
            anchor=ANCHOR_THM_QC,
            residual=oracle,
            tolerance=tol,
            detail={"draws": cfg.draws},
        )
    )

    xi_exact, eta_exact = diagonals.exact_nets(q)
    u_exact = dualside.build_approximate_identity(ctx, xi_exact, eta_exact)
    ident = 0.0
    decomp = funalg.algebra_decomposition(q)
    for a in _basis_states(q):
        diff = funalg.convolve(q, u_exact.functional, a) - a
        ident = max(ident, funalg.predual_norm(diff, decomp))
    records.append(
        CheckRecord(
            suite="thm44",
            check="exact_identity",
            group=group,
            construction=construction,
            anchor=ANCHOR_THM_QC,
            residual=ident,
            tolerance=tol,
            detail={"states": n},
        )
    )

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
            x = _random_element(q.ortho_basis, rng)
            cert = dualside.certify_identity_bound(ctx, u, zeta, x, slack=slack)
            bai_margin = max(bai_margin, cert.lhs - cert.bound)
            lam = _random_element(qgcore.tensor_ortho_basis(q), rng)
            qcert = dualside.certify_quasicentral_bound(ctx, u, zeta, lam, slack=slack)
            qc_margin = max(qc_margin, qcert.lhs - qcert.bound)
            consistency = max(consistency, qcert.consistency)
        records.append(
            CheckRecord(
                suite="thm44",
                check=f"identity_bound_margin_t_{eps:g}",
                group=group,
                construction=construction,
                anchor=ANCHOR_THM_QC,
                residual=bai_margin,
                tolerance=slack,
                detail={"draws": cfg.bound_draws},
            )
        )
        records.append(
            CheckRecord(
                suite="thm44",
                check=f"quasicentral_bound_margin_t_{eps:g}",
                group=group,
                construction=construction,
                anchor=ANCHOR_THM_QC,
                residual=qc_margin,
                tolerance=slack,
                detail={"draws": cfg.bound_draws, "pairing_consistency": consistency},
            )
        )
    return records


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
    table = load_group(cfg.group_source)
    _check_caps(table.order, tuple(cfg.suites))
    report = CheckReport(seed=cfg.seed)
    fa = qgcore.function_algebra(table)
    for construction in _constructions(cfg.construction):
        q = fa if construction == "function-algebra" else qgcore.dual(fa)
        for suite in cfg.suites:
            rng = _rng(cfg, suite, construction)
            report.extend(SUITE_FUNCS[suite](q, cfg, rng, table.name, construction))
    return report
