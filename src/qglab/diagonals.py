"""Approximate diagonals from vectors on the Hilbert space.

A unit vector pair ``(xi, eta)`` with small right/left invariance defects is
turned into the two-leg vector ``W'* (xi (x) eta)`` whose vector state is an
approximate diagonal for the convolution algebra.  This module measures the
invariance defects, builds the diagonal, evaluates its bimodule residuals, and
certifies the commutator pairing bound with its sharp constant 3.  ``W`` and
``W'`` are applied by gathers on their index maps (``qgcore.derived_unitaries``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funalg import (
    Functional,
    algebra_decomposition,
    algebra_norm,
    convolve,
    module_action_left,
    module_action_right,
    predual_norm,
    product_map,
    tensor_algebra_decomposition,
    tensor_predual_norm,
    vector_state,
)
from .qgcore import (
    KIND_DUAL,
    KIND_FUNCTION,
    FiniteQuantumGroup,
    chain,
    comultiply,
    derived_unitaries,
    dual,
    inverse,
)
from .tensorlin import (
    normalize,
    operator_norm,
    partial_trace,
    projection_residual,
    slice_first,
)

__all__ = [
    "NetVector",
    "DiagonalCandidate",
    "CommutatorCertificate",
    "right_invariance_residual",
    "left_invariance_residual",
    "commutant_compression",
    "compression_kraus_factor",
    "compression_choi_matrix",
    "compression_variant_residuals",
    "build_diagonal",
    "diagonal_residuals",
    "certify_commutator_bound",
    "exact_nets",
    "perturbed_vector",
    "dual_quasicentral_residual",
]

# relative residual above which a certifier rejects an operator as outside its algebra
MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class NetVector:
    """A unit vector standing in for one member of a net, with a label."""

    vector: np.ndarray
    label: str

    def __post_init__(self):
        defect = abs(np.linalg.norm(self.vector) - 1.0)
        if defect > 1e-12:
            raise ValueError(f"net vector {self.label!r} has norm defect {defect:.3e}")


@dataclass(frozen=True)
class DiagonalCandidate:
    """The vector state of ``W'* (xi (x) eta)`` as a candidate diagonal."""

    xi: NetVector
    eta: NetVector
    bifunctional: Functional


def right_invariance_residual(
    q: FiniteQuantumGroup, xi: np.ndarray, zeta: np.ndarray
) -> float:
    """``|| W (zeta (x) xi) - zeta (x) xi ||`` (the strong-amenability defect)."""
    v = np.kron(zeta, xi)
    return float(np.linalg.norm(v[inverse(q.w)] - v))


def left_invariance_residual(
    q: FiniteQuantumGroup, eta: np.ndarray, zeta: np.ndarray
) -> float:
    """``|| W (eta (x) zeta) - eta (x) zeta ||`` (the co-amenability defect)."""
    v = np.kron(eta, zeta)
    return float(np.linalg.norm(v[inverse(q.w)] - v))


def commutant_compression(
    q: FiniteQuantumGroup, xi: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """The unital completely positive compression of the doubled algebra into
    ``M``: ``Lam -> (omega_xi (x) id)(W' Lam W'*)``."""
    r = inverse(derived_unitaries(q).wprime)
    return slice_first(lam[np.ix_(r, r)], xi)


def compression_kraus_factor(q: FiniteQuantumGroup, xi: np.ndarray) -> np.ndarray:
    """The ``n^2 x n`` matrix ``B`` with columns ``W'*(xi (x) e_l)``; the
    compression equals ``Lam -> B* Lam B``."""
    return np.kron(xi.reshape(-1, 1), np.eye(q.dim))[derived_unitaries(q).wprime]


def compression_choi_matrix(q: FiniteQuantumGroup, xi: np.ndarray) -> np.ndarray:
    """Choi matrix of the compression as a map ``B(H (x) H) -> B(H)``,
    assembled from the Kraus factor ``B`` of ``compression_kraus_factor``
    (so it is positive by construction)."""
    b = compression_kraus_factor(q, xi)
    n2, n = b.shape
    # choi[(I, k), (J, l)] = compression(E_IJ)[k, l] = conj(B[I, k]) B[J, l]
    return np.einsum("Ik,Jl->IkJl", b.conj(), b).reshape(n2 * n, n2 * n)


def compression_variant_residuals(
    q: FiniteQuantumGroup,
    xi: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
) -> dict[str, float]:
    """Residuals of the four slice/conjugation variants of the compression on a
    simple tensor ``x (x) y`` against the factored form
    ``(omega (x) id)((x (x) 1) G(y))``.

    Both the weight vector entering the slice (``xi`` versus ``J Jhat xi``)
    and the order of the conjugation are convention choices; all four
    combinations are measured so reports can record which one satisfies the
    identity rather than assuming it.
    """
    der = derived_unitaries(q)
    wp, wp_adj = der.wprime, inverse(der.wprime)
    lam = np.kron(x, y)
    # J Jhat xi: the linear operator U_J U_Jhat, applied by a gather
    jjh_xi = xi[inverse(chain(q.j, q.jhat))]
    factored = np.kron(x, np.eye(q.dim)) @ comultiply(q, y)
    out = {}
    for conj_label, conj in (
        ("sandwich_star_right", lam[np.ix_(wp_adj, wp_adj)]),
        ("sandwich_star_left", lam[np.ix_(wp, wp)]),
    ):
        for w_label, weight in (("plain", xi), ("modular", jjh_xi)):
            lhs = slice_first(conj, weight)
            rhs = slice_first(factored, weight)
            out[f"{conj_label}/{w_label}"] = operator_norm(lhs - rhs)
    return out


def build_diagonal(q: FiniteQuantumGroup, xi: NetVector, eta: NetVector) -> DiagonalCandidate:
    """The candidate diagonal ``omega_{W'*(xi (x) eta)}``."""
    v = np.kron(xi.vector, eta.vector)[derived_unitaries(q).wprime]
    return DiagonalCandidate(xi=xi, eta=eta, bifunctional=vector_state(v))


def diagonal_residuals(
    q: FiniteQuantumGroup, cand: DiagonalCandidate, a: Functional
) -> tuple[float, float]:
    """The two approximate-diagonal residuals of a candidate against ``a``:
    the bimodule commutator norm and the approximate-identity defect."""
    x = cand.bifunctional
    commutator = module_action_left(q, a, x) - module_action_right(q, x, a)
    r1 = tensor_predual_norm(commutator, tensor_algebra_decomposition(q))
    ident = convolve(q, product_map(q, x), a) - a
    r2 = predual_norm(ident, algebra_decomposition(q))
    return r1, r2


@dataclass(frozen=True)
class CommutatorCertificate:
    """One certified instance of the commutator pairing bound ``3 eps ||Lam||``."""

    eps_invariance: float
    eps_commutation: float
    eps: float
    lhs: float
    bound: float
    slack: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.bound + self.slack


def certify_commutator_bound(
    q: FiniteQuantumGroup,
    zeta: np.ndarray,
    xi: NetVector,
    eta: NetVector,
    lam: np.ndarray,
    slack: float = 1e-9,
) -> CommutatorCertificate:
    """Certify ``|(omega_zeta . x - x . omega_zeta)(Lam)| <= 3 eps ||Lam||`` for
    the candidate diagonal ``x`` built from ``(xi, eta)``.

    ``eps`` is the max of the two measured hypothesis residuals: the right
    invariance defect of ``xi`` at ``zeta`` and the predual norm of the
    convolution commutator of ``omega_zeta`` and ``omega_eta``.  ``||Lam||`` is
    the norm of ``M (x) M`` (``funalg.algebra_norm``), equal to the operator norm
    for the ``Lam`` that pass the membership check.
    """
    res = projection_residual((q.ortho_basis, q.ortho_basis), lam)
    if res > MEMBERSHIP_TOL:
        raise ValueError(f"Lam is not in the doubled algebra (residual {res:.3e})")
    eps1 = right_invariance_residual(q, xi.vector, zeta)
    wz = vector_state(zeta)
    we = vector_state(eta.vector)
    comm = convolve(q, wz, we) - convolve(q, we, wz)
    eps2 = predual_norm(comm, algebra_decomposition(q))
    eps = max(eps1, eps2)
    cand = build_diagonal(q, xi, eta)
    x = cand.bifunctional
    lhs = abs((module_action_left(q, wz, x) - module_action_right(q, x, wz)).value(lam))
    return CommutatorCertificate(
        eps_invariance=eps1,
        eps_commutation=eps2,
        eps=eps,
        lhs=lhs,
        bound=3.0 * eps * algebra_norm(lam, tensor_algebra_decomposition(q)),
        slack=slack,
    )


def exact_nets(q: FiniteQuantumGroup) -> tuple[NetVector, NetVector]:
    """The exactly invariant vector pair for a shipped construction.

    Function algebra: the uniform vector is exactly right invariant and the
    point mass at the identity exactly left invariant.  On the dual the two
    roles swap.  Other constructions have no exactness guarantee and are
    rejected; use perturbation sweeps instead.
    """
    n = q.dim
    uniform = np.ones(n) / np.sqrt(n)
    point = np.zeros(n)
    point[0] = 1.0
    if q.kind == KIND_FUNCTION:
        return NetVector(uniform, "uniform"), NetVector(point, "identity point mass")
    if q.kind == KIND_DUAL:
        return NetVector(point, "identity point mass"), NetVector(uniform, "uniform")
    raise ValueError(f"no exact nets for construction kind {q.kind!r}")


def perturbed_vector(exact: np.ndarray, t: float, rng: np.random.Generator) -> np.ndarray:
    """``normalize((1 - t) exact + t u)`` for a random unit ``u``; a one-parameter
    family with a controlled invariance defect."""
    u = rng.standard_normal(exact.shape[0]) + 1j * rng.standard_normal(exact.shape[0])
    u = normalize(u)
    return normalize((1.0 - t) * exact + t * u)


def dual_quasicentral_residual(
    q: FiniteQuantumGroup, zeta: np.ndarray, xi: np.ndarray
) -> float:
    """Predual norm (on the dual algebra) of the difference of second-leg slice
    functionals of ``What_op* What (zeta (x) xi)`` and ``zeta (x) xi``.

    This is the quasicentrality defect of the approximate identity generated by
    ``xi`` on the dual side; it tends to zero with the invariance defects.
    """
    n = q.dim
    qd = dual(q)
    der = derived_unitaries(qd)
    v0 = np.kron(zeta, xi)
    v1 = v0[inverse(qd.w)][der.wop]
    diff = _second_leg_functional(v1, n) - _second_leg_functional(v0, n)
    return predual_norm(diff, algebra_decomposition(qd))


def _second_leg_functional(v: np.ndarray, n: int) -> Functional:
    """The functional ``x -> <(1 (x) x) v, v>``: one partial trace of ``v``."""
    return Functional(((1.0, partial_trace(v.reshape(-1, 1), (n, n), 1)),))
