"""Approximate diagonals from vectors on the Hilbert space.

A unit vector pair ``(xi, eta)`` with small right/left invariance defects is
turned into the two-leg vector ``W'* (xi (x) eta)`` whose vector state is an
approximate diagonal for the convolution algebra.  This module measures the
invariance defects, builds the diagonal, evaluates its bimodule residuals, and
certifies the commutator pairing bound with its sharp constant 3.  ``W`` and
``W'`` are applied by gathers on their index maps (``qgcore.derived_unitaries``).

The commutator bound is a norm inequality in the predual of ``M (x) M``:
``certify_commutator_bound`` takes its supremum over ``||Lam|| <= 1``, the
predual norm of ``omega_zeta . x - x . omega_zeta``, at every vector of a
stack ``zeta``.  That norm is the sum of the trace norms of the functional's
block compressions in ``funalg.tensor_algebra_decomposition``.  The
functional depends on ``zeta`` only through its vector state, so the
compressions are sesquilinear in ``zeta``: their forms are built once per call
from ``funalg.module_action_left`` and ``module_action_right`` on the stack of
basis vector states, and evaluated for all vectors by one product.  The
hypothesis residual ``omega_zeta * omega_eta - omega_eta * omega_zeta`` is
``funalg.convolve`` on the stack of vector states.  No element of ``M (x) M``
is drawn or formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funalg import (
    Functional,
    algebra_decomposition,
    at_vectors,
    convolve,
    module_action_left,
    module_action_right,
    predual_norm,
    product_map,
    tensor_algebra_decomposition,
    tensor_predual_norm,
    trace_norms,
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
) -> float | np.ndarray:
    """``|| W (zeta (x) xi) - zeta (x) xi ||`` (the strong-amenability defect);
    one per vector for a stack ``zeta`` ``(draws, n)``."""
    v = np.multiply.outer(zeta, xi).reshape(zeta.shape[:-1] + (-1,))
    d = v[..., inverse(q.w)] - v
    return float(np.linalg.norm(d)) if d.ndim == 1 else np.linalg.norm(d, axis=-1)


def left_invariance_residual(
    q: FiniteQuantumGroup, eta: np.ndarray, zeta: np.ndarray
) -> float:
    """``|| W (eta (x) zeta) - eta (x) zeta ||`` (the co-amenability defect)."""
    v = np.multiply.outer(eta, zeta).reshape(-1)
    return float(np.linalg.norm(v[inverse(q.w)] - v))


def commutant_compression(
    q: FiniteQuantumGroup, xi: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """The unital completely positive compression of the doubled algebra into
    ``M``: ``Lam -> (omega_xi (x) id)(W' Lam W'*)``.  A stack ``xi``
    ``(..., n)`` gives one compression per vector, of one ``Lam`` or of the
    matching stack ``lam`` ``(..., n^2, n^2)``."""
    r = inverse(derived_unitaries(q).wprime)
    # np.take keeps the gathered rows and columns in C order, the layout the
    # slice's sums are ordered by
    return slice_first(np.take(np.take(lam, r, axis=-2), r, axis=-1), xi)


def compression_kraus_factor(q: FiniteQuantumGroup, xi: np.ndarray) -> np.ndarray:
    """The ``n^2 x n`` matrix ``B`` with columns ``W'*(xi (x) e_l)``; the
    compression equals ``Lam -> B* Lam B``.  A stack ``xi`` ``(..., n)``
    gives the stack of factors ``(..., n^2, n)``."""
    b = xi[..., :, None, None] * np.eye(q.dim)
    return b.reshape(xi.shape[:-1] + (-1, q.dim))[..., derived_unitaries(q).wprime, :]


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
    v = np.multiply.outer(xi.vector, eta.vector).reshape(-1)[derived_unitaries(q).wprime]
    return DiagonalCandidate(xi=xi, eta=eta, bifunctional=vector_state(v))


def diagonal_residuals(
    q: FiniteQuantumGroup, cand: DiagonalCandidate, a: Functional
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """The two approximate-diagonal residuals of a candidate against ``a``:
    the bimodule commutator norm and the approximate-identity defect, one
    pair of values per functional of a stack ``a``."""
    x = cand.bifunctional
    commutator = module_action_left(q, a, x) - module_action_right(q, x, a)
    r1 = tensor_predual_norm(commutator, tensor_algebra_decomposition(q))
    ident = convolve(q, product_map(q, x), a) - a
    r2 = predual_norm(ident, algebra_decomposition(q))
    return r1, r2


@dataclass(frozen=True)
class CommutatorCertificate:
    """Certified instances of the commutator bound ``3 eps``, one entry per
    draw; ``lhs`` is the predual norm of the commutator functional."""

    eps_invariance: np.ndarray
    eps_commutation: np.ndarray
    eps: np.ndarray
    lhs: np.ndarray
    bound: np.ndarray
    slack: float

    @property
    def passed(self) -> np.ndarray:
        return self.lhs <= self.bound + self.slack


def certify_commutator_bound(
    q: FiniteQuantumGroup,
    zeta: np.ndarray,
    xi: NetVector,
    eta: NetVector,
    slack: float = 1e-9,
) -> CommutatorCertificate:
    """Certify ``||omega_zeta . x - x . omega_zeta|| <= 3 eps`` in the predual
    of ``M (x) M`` for the candidate diagonal ``x`` built from ``(xi, eta)``,
    at each vector of the stack ``zeta`` ``(draws, n)``: the supremum over
    ``||Lam|| <= 1`` of ``|(omega_zeta . x - x . omega_zeta)(Lam)|``.

    ``eps`` is the max of the two measured hypothesis residuals: the right
    invariance defect of ``xi`` at ``zeta`` and the predual norm of the
    convolution commutator of ``omega_zeta`` and ``omega_eta``.  The left side
    is the sum of the block trace norms of the commutator functional's
    compressions, sesquilinear in ``zeta`` and formed once at the basis
    vectors.
    """
    eps1 = right_invariance_residual(q, xi.vector, zeta)
    oz, oe = vector_state(zeta), vector_state(eta.vector)
    eps2 = trace_norms(algebra_decomposition(q).compress((convolve(q, oz, oe) - convolve(q, oe, oz)).terms))
    eps = np.maximum(eps1, eps2)
    return CommutatorCertificate(
        eps_invariance=eps1,
        eps_commutation=eps2,
        eps=eps,
        lhs=trace_norms(at_vectors(_commutator_forms(q, xi, eta), zeta)),
        bound=3.0 * eps,
        slack=slack,
    )


def _commutator_forms(q: FiniteQuantumGroup, xi: NetVector, eta: NetVector) -> list[np.ndarray]:
    """The block forms of ``omega_zeta . x - x . omega_zeta`` for the diagonal
    ``x`` of ``(xi, eta)``: ``funalg.module_action_left`` minus
    ``module_action_right`` on the stack of vector states at ``zeta = e_0, ...,
    e_{n-1}`` (``funalg.BlockDecomposition.cross_compress``)."""
    x = build_diagonal(q, xi, eta).bifunctional
    e = vector_state(np.eye(q.dim))
    forms = module_action_left(q, e, x) - module_action_right(q, x, e)
    return tensor_algebra_decomposition(q).cross_compress(forms.terms)


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
    v0 = np.multiply.outer(zeta, xi).reshape(-1)
    v1 = v0[inverse(qd.w)][der.wop]
    diff = _second_leg_functional(v1, n) - _second_leg_functional(v0, n)
    return predual_norm(diff, algebra_decomposition(qd))


def _second_leg_functional(v: np.ndarray, n: int) -> Functional:
    """The functional ``x -> <(1 (x) x) v, v>``: one partial trace of ``v``."""
    return Functional(((1.0, partial_trace(v.reshape(-1, 1), (n, n), 1)),))
