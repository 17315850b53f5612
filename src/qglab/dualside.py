"""Dual-side machinery: the exchange identities between the multiplicative
unitaries of a quantum group and of its dual, and the quasi-central
approximate identity with its two certified bounds.  The diagonal of the dual
algebra is ``diagonals.build_diagonal`` applied to the dual object.

Every unitary here is a permutation held as its index map
(``qgcore.derived_unitaries``).  The Lemma 3.2, 4.2 and 4.3 exchange
identities compare composed maps on three legs; each residual is the exact
operator norm ``||A - B||``, formed only when the two maps differ.  The flip
relations and the certified bounds apply the unitaries to vectors by gathers,
``U v = v[inverse(m)]`` and ``U* v = v[m]``.

The two certifiers of Theorem 4.4 certify norm inequalities in a predual at
their supremum: for each vector of a stack ``zeta``, the left side is the
predual norm of a functional (on ``M`` for the identity bound, on ``M (x) M``
for the quasi-central bound), the sum of the trace norms of its block
compressions.  Each functional is sesquilinear in ``zeta``, so its block forms
are built once per call, by ``funalg.convolve`` (identity bound) or
``Functional.tensor`` (quasi-central bound) on the stack of basis vector
states, and evaluated for all vectors by one product; each invariance defect
is the norm of a moved two-leg vector.  No element of ``M`` or ``M (x) M`` is
drawn.  The approximate identity is ``funalg.product_map`` of a vector state
(``_identity_functional``), read on stacks of draws by the slice-convention
oracle and on one draw by ``build_approximate_identity``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagonals import (
    NetVector,
    left_invariance_residual,
    right_invariance_residual,
)
from .funalg import (
    Functional,
    algebra_decomposition,
    at_vectors,
    convolve,
    product_map,
    tensor_algebra_decomposition,
    trace_norms,
    vector_state,
)
from .qgcore import (
    FiniteQuantumGroup,
    chain,
    derived_unitaries,
    dual,
    flip_index,
    inverse,
    leg_map,
    map_residual,
    tensor_map,
)
from .tensorlin import partial_trace, vector_norms

__all__ = [
    "DualContext",
    "dual_context",
    "flip_relation_residuals",
    "dual_net_residuals",
    "pentagonal_consequence_residuals",
    "quasicentral_exchange_residual",
    "identity_shift_exchange_residual",
    "QuasicentralIdentity",
    "build_approximate_identity",
    "slice_convention_residual",
    "IdentityBoundCertificate",
    "certify_identity_bound",
    "QuasicentralBoundCertificate",
    "certify_quasicentral_bound",
    "commutant_opposite_consistency",
]


@dataclass(frozen=True)
class DualContext:
    """A quantum group and its dual."""

    q: FiniteQuantumGroup
    qhat: FiniteQuantumGroup

    @property
    def dim(self) -> int:
        return self.q.dim


def dual_context(q: FiniteQuantumGroup) -> DualContext:
    """``q`` with its dual, read from the memo of ``qgcore.dual``."""
    return DualContext(q=q, qhat=dual(q))


def flip_relation_residuals(
    ctx: DualContext, xi: np.ndarray, zeta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The two vector identities relating dual-side unitaries to flipped
    originals: ``What*(xi (x) zeta) = sigma(W(zeta (x) xi))`` and
    ``What'*(xi (x) zeta) = sigma(W_op(zeta (x) xi))``; one pair of residuals
    per draw of the stacks ``xi`` and ``zeta`` ``(..., n)``."""
    der, der_hat = derived_unitaries(ctx.q), derived_unitaries(ctx.qhat)
    flip = flip_index(ctx.dim)
    lead = xi.shape[:-1] + (-1,)
    v = (xi[..., :, None] * zeta[..., None, :]).reshape(lead)
    w = (zeta[..., :, None] * xi[..., None, :]).reshape(lead)
    r1 = vector_norms(v[..., ctx.qhat.w] - w[..., inverse(ctx.q.w)[flip]])
    r2 = vector_norms(v[..., der_hat.wprime] - w[..., inverse(der.wop)[flip]])
    return r1, r2


def dual_net_residuals(
    ctx: DualContext, xi: np.ndarray, eta: np.ndarray, zeta: np.ndarray
) -> tuple[float, float, float, float]:
    """The four dual-diagonal hypothesis residuals: right/left invariance of the
    pair and the two opposite-unitary comparisons."""
    w, wop = inverse(ctx.q.w), inverse(derived_unitaries(ctx.q).wop)
    vze = np.multiply.outer(zeta, eta).reshape(-1)
    vxz = np.multiply.outer(xi, zeta).reshape(-1)
    c1 = right_invariance_residual(ctx.q, xi, zeta)
    c2 = left_invariance_residual(ctx.q, eta, zeta)
    c3 = float(np.linalg.norm(vze[w] - vze[wop]))
    c4 = float(np.linalg.norm(vxz[w] - vxz[wop]))
    return c1, c2, c3, c4


def pentagonal_consequence_residuals(q: FiniteQuantumGroup) -> tuple[float, float, float]:
    """Three unconditional exchange identities between ``W`` and ``W'``, the
    third in the modular sandwich form ``W*_13 W*_23 = S W_13 W_23 S`` with
    ``S = Jhat (x) Jhat (x) J``.  ``S A S`` is the linear operator
    ``U conj(A) conj(U)`` for the unitary part ``U`` of ``S``; with ``U`` and
    ``A`` real permutations it is the permutation ``U A U``."""
    three = derived_unitaries(q).three
    w, w_adj, wp_adj = three["w"], three["w*"], three["wprime*"]
    s = tensor_map(tensor_map(q.jhat, q.jhat), q.j)
    return (
        map_residual(chain(w[1, 2], wp_adj[2, 3]), chain(wp_adj[2, 3], w[1, 3], w[1, 2])),
        map_residual(chain(w[2, 3], wp_adj[1, 2]), chain(wp_adj[1, 2], wp_adj[1, 3], w[2, 3])),
        map_residual(chain(w_adj[1, 3], w_adj[2, 3]), chain(s, w[1, 3], w[2, 3], s)),
    )


def quasicentral_exchange_residual(q: FiniteQuantumGroup) -> tuple[float, float]:
    """The exchange identity behind the quasi-central bound, plus the
    commutation it relies on (``W'_13`` with ``W'^op*_23``)."""
    three = derived_unitaries(q).three
    w, wp, wp_adj, wpo_adj = three["w"], three["wprime"], three["wprime*"], three["wprime_op*"]
    main = map_residual(
        chain(wpo_adj[1, 3], wp[1, 3], wpo_adj[2, 3], w[2, 3]),
        chain(wp_adj[1, 2], wpo_adj[2, 3], wp[2, 3], wp[1, 2], wp_adj[2, 3], w[2, 3]),
    )
    comm = map_residual(chain(wp[1, 3], wpo_adj[2, 3]), chain(wpo_adj[2, 3], wp[1, 3]))
    return main, comm


def identity_shift_exchange_residual(q: FiniteQuantumGroup) -> tuple[float, float]:
    """The exchange identity behind the approximate-identity bound, plus the
    first-leg commutation it relies on (``W_13`` with ``W'^op*_12``)."""
    three = derived_unitaries(q).three
    w, wp_adj, wpo_adj = three["w"], three["wprime*"], three["wprime_op*"]
    main = map_residual(
        chain(w[2, 3], w[1, 2], wpo_adj[1, 2]),
        chain(w[1, 2], wpo_adj[1, 2], w[1, 3], w[2, 3], wp_adj[1, 3]),
    )
    # W_13 and W'^op*_12 share only the first leg, where their factors commute
    comm = map_residual(chain(w[1, 3], wpo_adj[1, 2]), chain(wpo_adj[1, 2], w[1, 3]))
    return main, comm


def commutant_opposite_consistency(q: FiniteQuantumGroup) -> float:
    """Residual between the two available expressions for the opposite of the
    commutant unitary: conjugation of ``W`` by ``J Jhat`` on both legs versus
    the adjoint of ``(1 (x) Jhat J) W' (1 (x) J Jhat)``.  With real permutation
    unitary parts, ``J Jhat`` is the permutation ``U_J U_Jhat``."""
    der = derived_unitaries(q)
    dims = (q.dim, q.dim)
    one_k = leg_map(chain(q.jhat, q.j), (2,), dims)
    one_k_inv = leg_map(chain(q.j, q.jhat), (2,), dims)
    return map_residual(der.wprime_op, inverse(chain(one_k, der.wprime, one_k_inv)))


@dataclass(frozen=True)
class QuasicentralIdentity:
    """The approximate-identity functional built from a net pair: the second-leg
    slice of the vector state of ``W W'^op* (xi (x) eta)``."""

    xi: NetVector
    eta: NetVector
    functional: Functional


def build_approximate_identity(
    ctx: DualContext, xi: NetVector, eta: NetVector
) -> QuasicentralIdentity:
    return QuasicentralIdentity(xi=xi, eta=eta, functional=_identity_functional(ctx.q, xi.vector, eta.vector))


def _identity_functional(q: FiniteQuantumGroup, xi: np.ndarray, eta: np.ndarray) -> Functional:
    """The approximate identity of ``(xi, eta)``, the second-leg slice of the
    vector state of ``W W'^op* (xi (x) eta)``: ``funalg.product_map`` of the
    vector state of ``W'^op* (xi (x) eta)``; stacks ``(draws, n)`` give a
    stack of functionals."""
    v = (xi[..., :, None] * eta[..., None, :]).reshape(xi.shape[:-1] + (-1,))
    return product_map(q, vector_state(v[..., derived_unitaries(q).wprime_op]))


# draws of slice_convention_residual evaluated together: its three-leg stacks
# hold n^3 entries per draw, so memory stays flat in the draw count
ORACLE_CHUNK = 10


def slice_convention_residual(
    ctx: DualContext,
    xi: np.ndarray,
    eta: np.ndarray,
    zeta: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Consistency oracle for the slice convention, one residual per draw of
    the stacks ``xi``, ``eta``, ``zeta`` ``(draws, n)`` and ``x``
    ``(draws, n, n)``: ``X(u * omega_zeta)`` for the approximate identity ``u``
    of ``(xi, eta)``, ``funalg.convolve`` of the functional that
    ``build_approximate_identity`` reads with the vector state of ``zeta``,
    must match the three-leg inner product
    ``<X_3 W_23 W_12 W'^op*_12 (xi (x) eta (x) zeta), same>``.

    A wrong reading of the second-leg slice fails this loudly.  The draws are
    evaluated ``ORACLE_CHUNK`` at a time.
    """
    q, n = ctx.q, ctx.dim
    three = derived_unitaries(q).three
    moved = chain(three["wprime_op"][1, 2], three["w*"][1, 2], three["w*"][2, 3])
    out = []
    for start in range(0, len(zeta), ORACLE_CHUNK):
        xi_c, eta_c, zeta_c, x_c = (a[start:start + ORACLE_CHUNK] for a in (xi, eta, zeta, x))
        d = len(zeta_c)
        ((_, g),) = convolve(q, _identity_functional(q, xi_c, eta_c), vector_state(zeta_c)).terms
        lhs = (g.conj() * (x_c @ g)).sum((1, 2))
        t = xi_c[:, :, None, None] * eta_c[:, None, :, None] * zeta_c[:, None, None, :]
        t = t.reshape(d, -1)[:, moved].reshape(d, n * n, n)
        rhs = (t.conj() * (t @ x_c.swapaxes(1, 2))).sum((1, 2))
        out.append(np.abs(lhs - rhs))
    return np.concatenate(out)


@dataclass(frozen=True)
class IdentityBoundCertificate:
    """Certified instances of the approximate-identity bound with constant 2,
    one entry per draw."""

    lhs: np.ndarray
    term_pair: np.ndarray
    term_triple: np.ndarray
    bound: np.ndarray
    slack: float

    @property
    def passed(self) -> np.ndarray:
        return self.lhs <= self.bound + self.slack


def certify_identity_bound(
    ctx: DualContext,
    u: QuasicentralIdentity,
    zeta: np.ndarray,
    slack: float = 1e-9,
) -> IdentityBoundCertificate:
    """Certify ``||u * omega_zeta - omega_zeta|| <= 2 (t1 + t2)`` in the
    predual of ``M``, where ``t1 = ||W W'* (xi (x) zeta) - xi (x) zeta||`` and
    ``t2`` is the triple-leg left-invariance defect of ``eta`` against
    ``W'*_13``, at each vector of the stack ``zeta`` ``(draws, n)``.  The left
    side is the supremum of ``|X(u * omega_zeta) - X(omega_zeta)|`` over
    ``||X|| <= 1`` in ``M``.

    The functional is sesquilinear in ``zeta``: its block forms are built once
    from the factors of ``u * omega_{e_e}`` and ``omega_{e_e}``.

    Of its inputs, this record detects a wrong slice leg of ``u``: the factor
    read on the first leg instead of the second makes it fire.  It cannot
    detect a broken ``W``, ``J`` or ``Jhat``: ``t1`` and ``t2`` are measured
    with the same maps as the left side, so the bound grows with the defect.
    The ``structure`` records ``W_from_table``, ``J_from_table`` and
    ``Jhat_from_table`` detect those."""
    q = ctx.q
    lhs = trace_norms(at_vectors(_identity_forms(q, u), zeta))
    t1, t2 = _identity_terms(q, u, zeta)
    return IdentityBoundCertificate(lhs=lhs, term_pair=t1, term_triple=t2, bound=2.0 * (t1 + t2), slack=slack)


def _identity_forms(q: FiniteQuantumGroup, u: QuasicentralIdentity) -> list[np.ndarray]:
    """The block forms of ``u * omega_zeta - omega_zeta`` on ``M``:
    ``funalg.convolve`` of ``u`` with the stack of vector states at the basis
    vectors in place of ``zeta``, minus that stack
    (``funalg.BlockDecomposition.cross_compress``)."""
    e = vector_state(np.eye(q.dim))
    return algebra_decomposition(q).cross_compress((convolve(q, u.functional, e) - e).terms)


def _identity_terms(
    q: FiniteQuantumGroup, u: QuasicentralIdentity, zeta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pair and triple-leg defects ``t1`` and ``t2`` for each draw.
    ``W'_13`` leaves leg 2 (``eta``) alone and ``W*_23`` leg 1, so ``t2`` is
    summed over the first-leg index ``a`` of ``W'_13``-moved ``xi (x) zeta``."""
    n, w_adj, wp = q.dim, inverse(q.w), derived_unitaries(q).wprime
    pair = (u.xi.vector[None, :, None] * zeta[:, None, :]).reshape(len(zeta), -1)
    moved = pair[:, wp]
    t1 = np.linalg.norm(moved[:, w_adj] - pair, axis=-1)
    moved = moved.reshape(-1, n, n)
    t2 = 0.0
    for a in range(n):
        v = (u.eta.vector[None, :, None] * moved[:, a, None, :]).reshape(len(zeta), -1)
        t2 = t2 + np.linalg.norm(v[:, w_adj] - v, axis=-1) ** 2
    return t1, np.sqrt(t2)


@dataclass(frozen=True)
class QuasicentralBoundCertificate:
    """Certified instances of the quasi-central pairing bound with constant 2,
    one entry per draw."""

    lhs: np.ndarray
    terms: tuple[np.ndarray, np.ndarray, np.ndarray]
    bound: np.ndarray
    slack: float
    consistency: np.ndarray

    @property
    def passed(self) -> np.ndarray:
        return self.lhs <= self.bound + self.slack


def certify_quasicentral_bound(
    ctx: DualContext,
    u: QuasicentralIdentity,
    zeta: np.ndarray,
    slack: float = 1e-9,
) -> QuasicentralBoundCertificate:
    """Certify the quasi-central residual
    ``||(omega_zeta (x) u)(W'* W'^op . W'^op* W') - omega_zeta (x) u||`` in the
    predual of ``M (x) M`` against ``2 (r1 + r2 + r3)`` built from the three
    invariance defects entering the estimate, at each vector of the stack
    ``zeta`` ``(draws, n)``: the supremum over ``||Lam|| <= 1`` of the pairing
    with ``W'* W'^op Lam W'^op* W' - Lam``.

    The functional is formed both definitionally (on the factors
    ``zeta (x) F`` of the terms of ``u``) and through the three-leg vectors;
    ``consistency`` is the predual norm of their difference, which bounds the
    difference of the two pairings at every ``Lam``.  Both are block forms,
    sesquilinear in ``zeta`` and built once at the basis vectors.
    """
    q = ctx.q
    definitional, vectorial = (at_vectors(forms, zeta) for forms in _quasicentral_forms(q, u))
    r1, r2, r3 = _quasicentral_terms(q, u, zeta)
    return QuasicentralBoundCertificate(
        lhs=trace_norms(definitional),
        terms=(r1, r2, r3),
        bound=2.0 * (r1 + r2 + r3),
        slack=slack,
        consistency=trace_norms([a - b for a, b in zip(definitional, vectorial)]),
    )


def _quasicentral_forms(q: FiniteQuantumGroup, u: QuasicentralIdentity) -> tuple[list, list]:
    """The block forms of the two routes to the quasi-central pairing, at the
    basis vectors in place of ``zeta`` (``funalg.BlockDecomposition.cross_compress``)."""
    n = q.dim
    der = derived_unitaries(q)
    decomp = tensor_algebra_decomposition(q)
    basis = np.eye(n)

    # W'* W'^op Lam W'^op* W' is U* Lam U for U = W'^op* W', so the conjugated
    # pairing is the vector functional of U F = F[inverse(r)]
    r = chain(inverse(der.wprime_op), der.wprime)
    ((c, fz),) = vector_state(basis).tensor(u.functional).terms
    definitional = decomp.cross_compress([(c, fz[:, inverse(r)]), (-c, fz)])

    # <Lam_13 t, t> on three-leg vectors t, the middle leg traced into the columns
    y = np.multiply.outer(u.xi.vector, u.eta.vector).reshape(-1)
    triple = np.multiply.outer(basis, y).reshape(n, -1)
    base = triple[:, der.three["wprime_op"][2, 3]][:, der.three["w*"][2, 3]]
    moved = base[:, der.three["wprime*"][1, 3]][:, der.three["wprime_op"][1, 3]]
    moved, base = (partial_trace(t[..., None], (n, n, n), 2) for t in (moved, base))
    return definitional, decomp.cross_compress([(1.0, moved), (-1.0, base)])


def _quasicentral_terms(
    q: FiniteQuantumGroup, u: QuasicentralIdentity, zeta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three invariance defects of ``zeta (x) xi (x) eta`` for each draw.
    Each moves two of the three legs, so its norm is that of the moved pair
    times the norm of the third vector."""
    y = np.multiply.outer(u.xi.vector, u.eta.vector).reshape(-1)
    w_adj, wp = inverse(q.w), derived_unitaries(q).wprime
    zeta_norm = np.linalg.norm(zeta, axis=-1)
    pair = (zeta[:, :, None] * u.xi.vector[None, None, :]).reshape(len(zeta), -1)
    return (
        zeta_norm * np.linalg.norm(y[w_adj[wp]] - y),
        np.linalg.norm(pair[:, inverse(wp)] - pair, axis=-1) * np.linalg.norm(u.eta.vector),
        zeta_norm * np.linalg.norm(y[inverse(wp)[q.w]] - y),
    )
