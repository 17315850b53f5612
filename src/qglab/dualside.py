"""Dual-side machinery: the exchange identities between the multiplicative
unitaries of a quantum group and of its dual, and the quasi-central
approximate identity with its two certified bounds.  The diagonal of the dual
algebra is ``diagonals.build_diagonal`` applied to the dual object.

Every unitary here is a permutation held as its index map
(``qgcore.derived_unitaries``).  The Lemma 3.2, 4.2 and 4.3 exchange
identities compare composed maps on three legs; each residual is the exact
operator norm ``||A - B||``, formed only when the two maps differ.  The flip
relations and the certified bounds apply the unitaries to vectors by gathers,
``U v = v[inverse(m)]`` and ``U* v = v[m]``; only algebra elements (``x`` and
``Lam``) act densely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagonals import (
    MEMBERSHIP_TOL,
    NetVector,
    _second_leg_functional,
    left_invariance_residual,
    right_invariance_residual,
)
from .funalg import (
    Functional,
    algebra_norm,
    convolve,
    tensor_algebra_decomposition,
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
from .tensorlin import apply_leg, inner, operator_norm, projection_residual

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
) -> tuple[float, float]:
    """The two vector identities relating dual-side unitaries to flipped
    originals: ``What*(xi (x) zeta) = sigma(W(zeta (x) xi))`` and
    ``What'*(xi (x) zeta) = sigma(W_op(zeta (x) xi))``."""
    der, der_hat = derived_unitaries(ctx.q), derived_unitaries(ctx.qhat)
    flip = flip_index(ctx.dim)
    v = np.kron(xi, zeta)
    w = np.kron(zeta, xi)
    r1 = float(np.linalg.norm(v[ctx.qhat.w] - w[inverse(ctx.q.w)][flip]))
    r2 = float(np.linalg.norm(v[der_hat.wprime] - w[inverse(der.wop)][flip]))
    return r1, r2


def dual_net_residuals(
    ctx: DualContext, xi: np.ndarray, eta: np.ndarray, zeta: np.ndarray
) -> tuple[float, float, float, float]:
    """The four dual-diagonal hypothesis residuals: right/left invariance of the
    pair and the two opposite-unitary comparisons."""
    w, wop = inverse(ctx.q.w), inverse(derived_unitaries(ctx.q).wop)
    vze = np.kron(zeta, eta)
    vxz = np.kron(xi, zeta)
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
    v = np.kron(xi.vector, eta.vector)[derived_unitaries(ctx.q).wprime_op][inverse(ctx.q.w)]
    return QuasicentralIdentity(xi=xi, eta=eta, functional=_second_leg_functional(v, ctx.dim))


def slice_convention_residual(
    ctx: DualContext,
    u: QuasicentralIdentity,
    zeta: np.ndarray,
    x: np.ndarray,
) -> float:
    """Consistency oracle for the slice convention: ``X(u * omega_zeta)``
    computed by convolution must match the three-leg inner product
    ``<X_3 W_23 W_12 W'^op*_12 (xi (x) eta (x) zeta), same>``.

    A wrong reading of the second-leg slice fails this loudly.
    """
    n = ctx.dim
    three = derived_unitaries(ctx.q).three
    conv = convolve(ctx.q, u.functional, vector_state(zeta))
    lhs = conv.value(x)
    t = np.kron(np.kron(u.xi.vector, u.eta.vector), zeta)
    t = t[three["wprime_op"][1, 2]][three["w*"][1, 2]][three["w*"][2, 3]]
    rhs = inner(apply_leg(x, (3,), t, (n, n, n)), t)
    return abs(lhs - rhs)


@dataclass(frozen=True)
class IdentityBoundCertificate:
    """One certified instance of the approximate-identity bound with constant 2."""

    lhs: float
    term_pair: float
    term_triple: float
    bound: float
    slack: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.bound + self.slack


def certify_identity_bound(
    ctx: DualContext,
    u: QuasicentralIdentity,
    zeta: np.ndarray,
    x: np.ndarray,
    slack: float = 1e-9,
) -> IdentityBoundCertificate:
    """Certify ``|X(u * omega_zeta) - X(omega_zeta)| <= 2 ||X|| (t1 + t2)`` where
    ``t1 = ||W W'* (xi (x) zeta) - xi (x) zeta||`` and ``t2`` is the triple-leg
    left-invariance defect of ``eta`` against ``W'*_13``."""
    res = projection_residual((ctx.q.ortho_basis,), x)
    if res > MEMBERSHIP_TOL:
        raise ValueError(f"X is not in the algebra (residual {res:.3e})")
    der = derived_unitaries(ctx.q)
    wz = vector_state(zeta)
    lhs = abs(convolve(ctx.q, u.functional, wz).value(x) - wz.value(x))
    pair = np.kron(u.xi.vector, zeta)
    t1 = float(np.linalg.norm(pair[der.wprime][inverse(ctx.q.w)] - pair))
    triple = np.kron(np.kron(u.xi.vector, u.eta.vector), zeta)
    base = triple[der.three["wprime"][1, 3]]
    t2 = float(np.linalg.norm(base[der.three["w*"][2, 3]] - base))
    bound = 2.0 * operator_norm(x) * (t1 + t2)
    return IdentityBoundCertificate(lhs=lhs, term_pair=t1, term_triple=t2, bound=bound, slack=slack)


@dataclass(frozen=True)
class QuasicentralBoundCertificate:
    """One certified instance of the quasi-central pairing bound with constant 2."""

    lhs: float
    terms: tuple[float, float, float]
    bound: float
    slack: float
    consistency: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.bound + self.slack


def certify_quasicentral_bound(
    ctx: DualContext,
    u: QuasicentralIdentity,
    zeta: np.ndarray,
    lam: np.ndarray,
    slack: float = 1e-9,
) -> QuasicentralBoundCertificate:
    """Certify the quasi-central pairing residual
    ``|(omega_zeta (x) u)(W'* W'^op Lam W'^op* W' - Lam)|`` against
    ``2 ||Lam|| (r1 + r2 + r3)`` built from the three invariance defects
    entering the estimate.

    The pairing is evaluated both definitionally (on the factors ``zeta (x) F``
    of the terms of ``u``) and through the three-leg contraction; their
    agreement is reported as ``consistency``.  ``||Lam||`` is the norm of
    ``M (x) M`` (``funalg.algebra_norm``), equal to the operator norm for the
    ``Lam`` that pass the membership check.
    """
    res = projection_residual((ctx.q.ortho_basis, ctx.q.ortho_basis), lam)
    if res > MEMBERSHIP_TOL:
        raise ValueError(f"Lam is not in the doubled algebra (residual {res:.3e})")
    n = ctx.dim
    dims = (n, n, n)
    der = derived_unitaries(ctx.q)
    # U* v = v[m] and U v = v[m*] for the maps m, m* of U and U* on three legs
    w, w_adj, wp, wp_adj, wpo = (
        der.three[name] for name in ("w", "w*", "wprime", "wprime*", "wprime_op")
    )

    # W'* W'^op Lam W'^op* W' is U* Lam U for U = W'^op* W'
    r = chain(inverse(der.wprime_op), der.wprime)
    conj = lam[np.ix_(r, r)]
    lhs_def = vector_state(zeta).tensor(u.functional).value(conj - lam)

    triple = np.kron(zeta, np.kron(u.xi.vector, u.eta.vector))
    base = triple[wpo[2, 3]][w_adj[2, 3]]
    moved = base[wp_adj[1, 3]][wpo[1, 3]]
    lhs_vec = inner(apply_leg(lam, (1, 3), moved, dims), moved) - inner(
        apply_leg(lam, (1, 3), base, dims), base
    )
    consistency = abs(lhs_def - lhs_vec)

    r1 = float(np.linalg.norm(triple[w_adj[2, 3]][wp[2, 3]] - triple))
    r2 = float(np.linalg.norm(triple[wp_adj[1, 2]] - triple))
    r3 = float(np.linalg.norm(triple[wp_adj[2, 3]][w[2, 3]] - triple))
    bound = 2.0 * algebra_norm(lam, tensor_algebra_decomposition(ctx.q)) * (r1 + r2 + r3)
    return QuasicentralBoundCertificate(
        lhs=abs(lhs_def),
        terms=(r1, r2, r3),
        bound=bound,
        slack=slack,
        consistency=consistency,
    )
