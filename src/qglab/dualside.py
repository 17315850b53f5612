"""Dual-side machinery: the exchange identities between the multiplicative
unitaries of a quantum group and of its dual, and the quasi-central
approximate identity with its two certified bounds.  The diagonal of the dual
algebra is ``diagonals.build_diagonal`` applied to the dual object.

Three-leg identities are verified as vector residuals over random draws; the
dense three-leg operators are never materialized.
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
from .funalg import Functional, convolve, vector_state
from .qgcore import FiniteQuantumGroup, derived_unitaries, dual
from .tensorlin import (
    apply_leg,
    dagger,
    flip_matrix,
    inner,
    operator_norm,
    projection_residual,
    random_unit_vector,
)

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
    """A quantum group, its dual, and every unitary the dual-side checks need."""

    q: FiniteQuantumGroup
    qhat: FiniteQuantumGroup
    w: np.ndarray
    w_comm: np.ndarray        # commutant unitary W'
    w_op: np.ndarray          # opposite unitary W^op
    w_comm_op: np.ndarray     # opposite of the commutant W'^op
    w_dual: np.ndarray        # What
    w_dual_comm: np.ndarray   # commutant unitary of the dual

    @property
    def dim(self) -> int:
        return self.q.dim


def dual_context(q: FiniteQuantumGroup) -> DualContext:
    """The unitary family of ``q`` and of its dual, read from the two objects."""
    der = derived_unitaries(q)
    qhat = dual(q)
    return DualContext(
        q=q,
        qhat=qhat,
        w=q.W,
        w_comm=der.wprime,
        w_op=der.wop,
        w_comm_op=der.wprime_op,
        w_dual=qhat.W,
        w_dual_comm=derived_unitaries(qhat).wprime,
    )


def commutant_opposite_consistency(ctx: DualContext) -> float:
    """Residual between the two available expressions for the opposite of the
    commutant unitary: conjugation of ``W`` by ``J Jhat`` on both legs versus
    the adjoint of ``(1 (x) Jhat J) W' (1 (x) J Jhat)``."""
    n = ctx.dim
    k = ctx.q.J.compose(ctx.q.Jhat)
    k2 = ctx.q.Jhat.compose(ctx.q.J)
    one_k = np.kron(np.eye(n), k2)
    one_k_inv = np.kron(np.eye(n), k)
    alt = dagger(one_k @ ctx.w_comm @ one_k_inv)
    return operator_norm(ctx.w_comm_op - alt)


def flip_relation_residuals(
    ctx: DualContext, xi: np.ndarray, zeta: np.ndarray
) -> tuple[float, float]:
    """The two vector identities relating dual-side unitaries to flipped
    originals: ``What*(xi (x) zeta) = sigma(W(zeta (x) xi))`` and
    ``What'*(xi (x) zeta) = sigma(W_op(zeta (x) xi))``."""
    n = ctx.dim
    f = flip_matrix(n, n)
    v = np.kron(xi, zeta)
    w = np.kron(zeta, xi)
    r1 = float(np.linalg.norm(dagger(ctx.w_dual) @ v - f @ (ctx.w @ w)))
    r2 = float(np.linalg.norm(dagger(ctx.w_dual_comm) @ v - f @ (ctx.w_op @ w)))
    return r1, r2


def dual_net_residuals(
    ctx: DualContext, xi: np.ndarray, eta: np.ndarray, zeta: np.ndarray
) -> tuple[float, float, float, float]:
    """The four dual-diagonal hypothesis residuals: right/left invariance of the
    pair and the two opposite-unitary comparisons."""
    w, wop = ctx.w, ctx.w_op
    vze = np.kron(zeta, eta)
    vxz = np.kron(xi, zeta)
    c1 = right_invariance_residual(ctx.q, xi, zeta)
    c2 = left_invariance_residual(ctx.q, eta, zeta)
    c3 = float(np.linalg.norm(w @ vze - wop @ vze))
    c4 = float(np.linalg.norm(w @ vxz - wop @ vxz))
    return c1, c2, c3, c4


def _modular_sandwich(q: FiniteQuantumGroup, v: np.ndarray) -> np.ndarray:
    """``(Jhat (x) Jhat (x) J) v`` one leg at a time: the three antilinear
    factors share one complex conjugation, after which each unitary part acts
    on its own leg, so the ``n^3 x n^3`` tensor product is never formed."""
    dims = (q.dim,) * 3
    out = apply_leg(q.J.u, (3,), v.conj(), dims)
    out = apply_leg(q.Jhat.u, (2,), out, dims)
    return apply_leg(q.Jhat.u, (1,), out, dims)


def pentagonal_consequence_residuals(
    ctx: DualContext, rng: np.random.Generator, draws: int
) -> tuple[float, float, float]:
    """Three unconditional exchange identities between ``W`` and ``W'`` (and the
    modular sandwich form of ``W*W*``), as max vector residuals over random
    three-leg draws."""
    n = ctx.dim
    dims = (n, n, n)
    w, wp = ctx.w, ctx.w_comm
    r1 = r2 = r3 = 0.0
    for _ in range(draws):
        v = random_unit_vector(rng, n ** 3)
        lhs = apply_leg(w, (1, 2), apply_leg(dagger(wp), (2, 3), v, dims), dims)
        rhs = apply_leg(dagger(wp), (2, 3), apply_leg(w, (1, 3), apply_leg(w, (1, 2), v, dims), dims), dims)
        r1 = max(r1, float(np.linalg.norm(lhs - rhs)))

        lhs = apply_leg(w, (2, 3), apply_leg(dagger(wp), (1, 2), v, dims), dims)
        rhs = apply_leg(
            dagger(wp), (1, 2),
            apply_leg(dagger(wp), (1, 3), apply_leg(w, (2, 3), v, dims), dims),
            dims,
        )
        r2 = max(r2, float(np.linalg.norm(lhs - rhs)))

        lhs = apply_leg(dagger(w), (1, 3), apply_leg(dagger(w), (2, 3), v, dims), dims)
        inner_vec = apply_leg(w, (1, 3), apply_leg(w, (2, 3), _modular_sandwich(ctx.q, v), dims), dims)
        rhs = _modular_sandwich(ctx.q, inner_vec)
        r3 = max(r3, float(np.linalg.norm(lhs - rhs)))
    return r1, r2, r3


def quasicentral_exchange_residual(
    ctx: DualContext, rng: np.random.Generator, draws: int
) -> tuple[float, float]:
    """The exchange identity behind the quasi-central bound, plus the
    commutation it relies on (``W'_13`` with ``W'^op*_23``); both as max
    vector residuals."""
    n = ctx.dim
    dims = (n, n, n)
    wp, wpo, w = ctx.w_comm, ctx.w_comm_op, ctx.w
    main = comm = 0.0
    for _ in range(draws):
        v = random_unit_vector(rng, n ** 3)
        lhs = apply_leg(
            dagger(wpo), (1, 3),
            apply_leg(wp, (1, 3), apply_leg(dagger(wpo), (2, 3), apply_leg(w, (2, 3), v, dims), dims), dims),
            dims,
        )
        t = apply_leg(w, (2, 3), v, dims)
        t = apply_leg(dagger(wp), (2, 3), t, dims)
        t = apply_leg(wp, (1, 2), t, dims)
        t = apply_leg(wp, (2, 3), t, dims)
        t = apply_leg(dagger(wpo), (2, 3), t, dims)
        rhs = apply_leg(dagger(wp), (1, 2), t, dims)
        main = max(main, float(np.linalg.norm(lhs - rhs)))

        ab = apply_leg(wp, (1, 3), apply_leg(dagger(wpo), (2, 3), v, dims), dims)
        ba = apply_leg(dagger(wpo), (2, 3), apply_leg(wp, (1, 3), v, dims), dims)
        comm = max(comm, float(np.linalg.norm(ab - ba)))
    return main, comm


def identity_shift_exchange_residual(
    ctx: DualContext, rng: np.random.Generator, draws: int
) -> tuple[float, float]:
    """The exchange identity behind the approximate-identity bound, plus the
    first-leg commutation it relies on (``W_13`` with ``W'^op*_12``)."""
    n = ctx.dim
    dims = (n, n, n)
    w, wp, wpo = ctx.w, ctx.w_comm, ctx.w_comm_op
    main = comm = 0.0
    for _ in range(draws):
        v = random_unit_vector(rng, n ** 3)
        lhs = apply_leg(w, (2, 3), apply_leg(w, (1, 2), apply_leg(dagger(wpo), (1, 2), v, dims), dims), dims)
        t = apply_leg(dagger(wp), (1, 3), v, dims)
        t = apply_leg(w, (2, 3), t, dims)
        t = apply_leg(w, (1, 3), t, dims)
        t = apply_leg(dagger(wpo), (1, 2), t, dims)
        rhs = apply_leg(w, (1, 2), t, dims)
        main = max(main, float(np.linalg.norm(lhs - rhs)))

        # W_13 and W'^op*_12 share only the first leg, where their factors commute
        ab = apply_leg(w, (1, 3), apply_leg(dagger(wpo), (1, 2), v, dims), dims)
        ba = apply_leg(dagger(wpo), (1, 2), apply_leg(w, (1, 3), v, dims), dims)
        comm = max(comm, float(np.linalg.norm(ab - ba)))
    return main, comm


@dataclass(frozen=True)
class QuasicentralIdentity:
    """The approximate-identity functional built from a net pair: the second-leg
    slice of the vector state of ``W W'^op* (xi (x) eta)``."""

    xi: NetVector
    eta: NetVector
    vector: np.ndarray
    functional: Functional


def build_approximate_identity(
    ctx: DualContext, xi: NetVector, eta: NetVector
) -> QuasicentralIdentity:
    v = ctx.w @ dagger(ctx.w_comm_op) @ np.kron(xi.vector, eta.vector)
    return QuasicentralIdentity(xi=xi, eta=eta, vector=v, functional=_second_leg_functional(v, ctx.dim))


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
    dims = (n, n, n)
    conv = convolve(ctx.q, u.functional, vector_state(zeta))
    lhs = conv.value(x)
    t = np.kron(np.kron(u.xi.vector, u.eta.vector), zeta)
    t = apply_leg(dagger(ctx.w_comm_op), (1, 2), t, dims)
    t = apply_leg(ctx.w, (1, 2), t, dims)
    t = apply_leg(ctx.w, (2, 3), t, dims)
    rhs = inner(apply_leg(x, (3,), t, dims), t)
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
    n = ctx.dim
    dims = (n, n, n)
    wz = vector_state(zeta)
    lhs = abs(convolve(ctx.q, u.functional, wz).value(x) - wz.value(x))
    pair = np.kron(u.xi.vector, zeta)
    t1 = float(np.linalg.norm(ctx.w @ (dagger(ctx.w_comm) @ pair) - pair))
    triple = np.kron(np.kron(u.xi.vector, u.eta.vector), zeta)
    base = apply_leg(dagger(ctx.w_comm), (1, 3), triple, dims)
    t2 = float(np.linalg.norm(apply_leg(ctx.w, (2, 3), base, dims) - base))
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
    agreement is reported as ``consistency``.
    """
    res = projection_residual((ctx.q.ortho_basis, ctx.q.ortho_basis), lam)
    if res > MEMBERSHIP_TOL:
        raise ValueError(f"Lam is not in the doubled algebra (residual {res:.3e})")
    n = ctx.dim
    dims = (n, n, n)
    wp, wpo, w = ctx.w_comm, ctx.w_comm_op, ctx.w

    conj = dagger(wp) @ wpo @ lam @ dagger(wpo) @ wp
    lhs_def = vector_state(zeta).tensor(u.functional).value(conj - lam)

    triple = np.kron(zeta, np.kron(u.xi.vector, u.eta.vector))
    base = apply_leg(w, (2, 3), apply_leg(dagger(wpo), (2, 3), triple, dims), dims)
    moved = apply_leg(dagger(wpo), (1, 3), apply_leg(wp, (1, 3), base, dims), dims)
    lhs_vec = inner(apply_leg(lam, (1, 3), moved, dims), moved) - inner(
        apply_leg(lam, (1, 3), base, dims), base
    )
    consistency = abs(lhs_def - lhs_vec)

    t = apply_leg(w, (2, 3), triple, dims)
    r1 = float(np.linalg.norm(apply_leg(dagger(wp), (2, 3), t, dims) - triple))
    r2 = float(np.linalg.norm(apply_leg(wp, (1, 2), triple, dims) - triple))
    t = apply_leg(wp, (2, 3), triple, dims)
    r3 = float(np.linalg.norm(apply_leg(dagger(w), (2, 3), t, dims) - triple))
    bound = 2.0 * operator_norm(lam) * (r1 + r2 + r3)
    return QuasicentralBoundCertificate(
        lhs=abs(lhs_def),
        terms=(r1, r2, r3),
        bound=bound,
        slack=slack,
        consistency=consistency,
    )
