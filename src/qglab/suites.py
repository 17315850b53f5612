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
    vector_norms,
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
# draws of the theta suite, recorded in its {"draws": 20} detail
THETA_DRAWS = 20
# dense doubled-algebra entries one stacked theta pass holds per array: a draw
# holds its Lam, n^4 entries, so a pass takes max(1, THETA_BUDGET // n^4)
# draws and memory does not grow with the draw count
THETA_BUDGET = 2 * 64 ** 2

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


def _coefficients(rng: np.random.Generator, k: int) -> np.ndarray:
    """One complex Gaussian coefficient per basis element (or product)."""
    return rng.standard_normal(k) + 1j * rng.standard_normal(k)


def _unit_doubled(q: qgcore.FiniteQuantumGroup, coeff: np.ndarray) -> np.ndarray:
    """The dense elements ``(..., n^2, n^2)`` of ``M (x) M`` with the
    coordinates ``coeff`` ``(..., k)`` (second index of a basis product fast),
    scaled to norm one; the norms are read from their blocks in
    ``tensor_algebra_decomposition``."""
    lam = combine((q.ortho_basis,) * 2, coeff)
    return lam / funalg.block_norms(funalg.tensor_algebra_decomposition(q).element_blocks(lam))[..., None, None]


def _unit_elements(q: qgcore.FiniteQuantumGroup, coeff: np.ndarray) -> np.ndarray:
    """Dense elements ``(draws, n, n)`` of ``M`` with the coordinates ``coeff``
    ``(draws, k)``, scaled to norm one by one stacked SVD."""
    x = combine((q.ortho_basis,), coeff)
    return x / np.linalg.svd(x, compute_uv=False)[:, :1, None]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of ``v`` over its norm, the sum of squares of its real and
    imaginary parts as ``tensorlin.normalize`` takes it."""
    return v / vector_norms(v)[:, None]


# draws certified by one certifier call: the default --bound-draws, so that a
# default run makes one call per record and memory does not grow with the count
BOUND_BATCH = 100


def _draw_batches(rng: np.random.Generator, count: int, widths: tuple[int, ...]):
    """``count`` draws in batches of at most ``BOUND_BATCH``, each batch one
    ``standard_normal`` call.  A draw is one complex Gaussian vector per width
    ``w``, its ``w`` real parts then its ``w`` imaginary parts: the stream of
    ``_coefficients(rng, w)`` (and of ``random_unit_vector`` before its
    normalisation) for each width in turn, one draw after another.  Yields the
    stacks ``(size, w)``, one per width."""
    left = count
    while left:
        size = min(left, BOUND_BATCH)
        yield _complex_parts(rng.standard_normal((size, 2 * sum(widths))), widths)
        left -= size


def _complex_parts(flat: np.ndarray, widths: tuple[int, ...]) -> list[np.ndarray]:
    """Split the rows of ``flat`` into one complex stack per width, real parts
    first; the generator keeps no reference to ``flat`` while a batch is used."""
    parts, start = [], 0
    for w in widths:
        parts.append(flat[:, start:start + w] + 1j * flat[:, start + w:start + 2 * w])
        start += 2 * w
    return parts


def _exact_diagonal(q) -> tuple[float, float]:
    """The module-commutator and approximate-identity residuals of the
    diagonal of ``q`` at its exact nets, each a max over the basis vector
    states, taken as one stack."""
    xi, eta = diagonals.exact_nets(q)
    cand = diagonals.build_diagonal(q, xi, eta)
    r1, r2 = diagonals.diagonal_residuals(q, cand, funalg.vector_state(np.eye(q.dim)))
    return float(r1.max()), float(r2.max())


def run_structure(q, cfg: RunConfig, rng) -> list[Measurement]:
    tol = _tol(cfg, 1e-10)
    out = [
        (check, value, _tol(cfg, 1e-8) if check == "W_in_doubled_algebra" else tol, None)
        for check, value in sorted(qgcore.structure_identity_residuals(q).items())
    ]
    if q.dim ** 3 <= max_tensor_entries():
        x = _unit_elements(q, _coefficients(rng, len(q.ortho_basis))[None])[0]
        out.append(("coassociativity", qgcore.coassociativity_residual(q, x), tol, None))
    return out


def run_lemma32(q, cfg: RunConfig, rng) -> list[Measurement]:
    residuals = dualside.pentagonal_consequence_residuals(q)
    names = ("exchange_first", "exchange_second", "modular_sandwich")
    return [(name, value, _tol(cfg, 1e-10), None) for name, value in zip(names, residuals)]


def run_lemma42(q, cfg: RunConfig, rng) -> list[Measurement]:
    tol = _tol(cfg, 1e-10)
    main, comm = dualside.quasicentral_exchange_residual(q)
    return [
        ("exchange_identity", main, tol, None),
        ("leg_commutation", comm, _tol(cfg, 1e-12), None),
        ("commutant_opposite_consistency", dualside.commutant_opposite_consistency(q), tol, None),
    ]


def run_lemma43(q, cfg: RunConfig, rng) -> list[Measurement]:
    main, comm = dualside.identity_shift_exchange_residual(q)
    return [
        ("exchange_identity", main, _tol(cfg, 1e-10), None),
        ("leg_commutation", comm, _tol(cfg, 1e-12), None),
    ]


def _theta_residuals(q, xi: np.ndarray, lam: np.ndarray) -> tuple[float, float]:
    """Choi consistency and range membership of the compression
    ``Lam -> (omega_xi (x) id)(W' Lam W'*)``, each the max over the draws of
    the stacks ``xi`` ``(draws, n)`` and ``lam`` ``(draws, n^2, n^2)``."""
    theta_lam = diagonals.commutant_compression(q, xi, lam)
    # the Kraus route B* Lam B against the slice route
    b = diagonals.compression_kraus_factor(q, xi)
    choi = operator_norm(theta_lam - b.conj().swapaxes(-1, -2) @ lam @ b)
    member = projection_residual((q.ortho_basis,), theta_lam)
    return float(choi.max()), float(member.max())


def run_theta(q, cfg: RunConfig, rng) -> list[Measurement]:
    n, k = q.dim, len(q.ortho_basis) ** 2
    per_pass = max(1, THETA_BUDGET // n ** 4)
    choi = member = 0.0
    ((xi, coeff),) = _draw_batches(rng, THETA_DRAWS, (n, k))
    for start in range(0, THETA_DRAWS, per_pass):
        part = slice(start, start + per_pass)
        c, m = _theta_residuals(q, _unit_rows(xi[part]), _unit_doubled(q, coeff[part]))
        choi, member = max(choi, c), max(member, m)
    xi = random_unit_vector(rng, n)
    x, y = (_unit_elements(q, _coefficients(rng, len(q.ortho_basis))[None])[0] for _ in range(2))
    variants = diagonals.compression_variant_residuals(q, xi, x, y)
    # The factored simple-tensor form only holds on commutative algebras (with
    # the star-left conjugation and matching weight); elsewhere the residuals
    # of all four convention variants are recorded without assertion.
    commutative = max(funalg.algebra_decomposition(q).block_sizes) == 1
    simple_tol = _tol(cfg, 1e-10) if commutative else None
    draws = {"draws": THETA_DRAWS}
    return [
        ("choi_consistency", choi, _tol(cfg, 1e-9), draws),
        ("range_in_algebra", member, _tol(cfg, 1e-9), draws),
        ("simple_tensor_identity", variants["sandwich_star_left/plain"], simple_tol, dict(variants)),
    ]


def run_thm33(q, cfg: RunConfig, rng) -> list[Measurement]:
    slack = _tol(cfg, 1e-9)
    xi_exact, eta_exact = diagonals.exact_nets(q)

    ((zeta,),) = _draw_batches(rng, 1, (q.dim,))
    cert = diagonals.certify_commutator_bound(q, _unit_rows(zeta), xi_exact, eta_exact, slack=slack)
    out = [("commutator_pairing_exact_nets", float(cert.lhs[0]), slack, None)]
    for eps in cfg.epsilons:
        xi = diagonals.NetVector(
            diagonals.perturbed_vector(xi_exact.vector, eps, rng), f"perturbed t={eps}"
        )
        eta = diagonals.NetVector(
            diagonals.perturbed_vector(eta_exact.vector, eps, rng), f"perturbed t={eps}"
        )
        worst = -math.inf
        worst_eps = 0.0
        for (zeta,) in _draw_batches(rng, cfg.bound_draws, (q.dim,)):
            cert = diagonals.certify_commutator_bound(q, _unit_rows(zeta), xi, eta, slack=slack)
            worst = max(worst, float((cert.lhs - cert.bound).max()))
            worst_eps = max(worst_eps, float(cert.eps.max()))
        detail = {"draws": cfg.bound_draws, "max_measured_eps": worst_eps}
        out.append((f"commutator_bound_margin_t_{eps:g}", worst, slack, detail))
    return out


def run_obad(q, cfg: RunConfig, rng) -> list[Measurement]:
    tol = _tol(cfg, 1e-10)
    r1, r2 = _exact_diagonal(q)
    states = {"states": q.dim}
    return [("module_commutator", r1, tol, states), ("approximate_identity", r2, tol, states)]


def run_dual(q, cfg: RunConfig, rng) -> list[Measurement]:
    tol = _tol(cfg, 1e-10)
    ctx = dualside.dual_context(q)
    n = q.dim
    flip1 = flip2 = 0.0
    for xi, zeta in _draw_batches(rng, cfg.draws, (n, n)):
        f1, f2 = dualside.flip_relation_residuals(ctx, _unit_rows(xi), _unit_rows(zeta))
        flip1, flip2 = max(flip1, float(f1.max())), max(flip2, float(f2.max()))
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
    if q.table.is_abelian():
        out += [("opposite_comparison_left", c3, tol, None), ("opposite_comparison_right", c4, tol, None)]
    else:
        out.append(("opposite_comparison_logged", 0.0, None, {"c3": c3, "c4": c4}))

    # the dual diagonal is the diagonal of the dual at its own exact nets
    r1, r2 = _exact_diagonal(ctx.qhat)
    states = {"states": n}
    out += [("dual_module_commutator", r1, tol, states), ("dual_approximate_identity", r2, tol, states)]

    remark = diagonals.dual_quasicentral_residual(q, zeta, xi.vector)
    out.append(("quasicentral_identity_defect", remark, _tol(cfg, 1e-9), None))
    return out


def run_thm44(q, cfg: RunConfig, rng) -> list[Measurement]:
    ctx = dualside.dual_context(q)
    n, k = q.dim, len(q.ortho_basis)
    slack = _tol(cfg, 1e-9)
    tol = _tol(cfg, 1e-10)

    oracle = 0.0
    for xi, eta, zeta, x in _draw_batches(rng, cfg.draws, (n, n, n, k)):
        xi, eta, zeta, x = _unit_rows(xi), _unit_rows(eta), _unit_rows(zeta), _unit_elements(q, x)
        oracle = max(oracle, float(dualside.slice_convention_residual(ctx, xi, eta, zeta, x).max()))
    out = [("slice_convention_oracle", oracle, tol, {"draws": cfg.draws})]

    xi_exact, eta_exact = diagonals.exact_nets(q)
    u_exact = dualside.build_approximate_identity(ctx, xi_exact, eta_exact)
    e = funalg.vector_state(np.eye(n))
    diff = funalg.convolve(q, u_exact.functional, e) - e
    ident = funalg.predual_norm(diff, funalg.algebra_decomposition(q)).max()
    out.append(("exact_identity", float(ident), tol, {"states": n}))

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
        for (zeta,) in _draw_batches(rng, cfg.bound_draws, (n,)):
            zeta = _unit_rows(zeta)
            cert = dualside.certify_identity_bound(ctx, u, zeta, slack=slack)
            bai_margin = max(bai_margin, float((cert.lhs - cert.bound).max()))
            qcert = dualside.certify_quasicentral_bound(ctx, u, zeta, slack=slack)
            qc_margin = max(qc_margin, float((qcert.lhs - qcert.bound).max()))
            consistency = max(consistency, float(qcert.consistency.max()))
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
    for i, suite in enumerate(cfg.suites):
        if suite not in SUITE_FUNCS:
            raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
        if suite in cfg.suites[:i]:
            raise ValueError(f"suite {suite!r} is repeated")
    for name in ("draws", "bound_draws"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {getattr(cfg, name)}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {cfg.seed}")
    labels = [f"{eps:g}" for eps in cfg.epsilons]  # the labels in the record names
    for i, eps in enumerate(cfg.epsilons):
        if not math.isfinite(eps):
            raise ValueError(f"epsilons must be finite, got {eps}")
        first = labels.index(labels[i])
        if first < i:
            raise ValueError(f"epsilons {cfg.epsilons[first]} and {eps} share the label {labels[i]}")
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
