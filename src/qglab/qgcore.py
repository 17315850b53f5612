"""Finite quantum groups from Cayley tables: the multiplicative unitary, modular
conjugations, Haar data, the dual construction, and the structural identity
catalog.

Conventions (all enforced by the identity suite rather than argued abstractly):

* For the function algebra of a finite group ``G`` on ``H = C^n`` the left
  multiplicative unitary acts on basis vectors by
  ``W (e_a (x) e_b) = e_a (x) e_{a.b}``, equivalently the comultiplication
  ``G(x) = W* (1 (x) x) W`` sends a diagonal function ``f`` to
  ``f(s t)``.
* ``J`` is entrywise conjugation, ``Jhat v (s) = conj(v(s^-1))``.
* The dual object lives on the same Hilbert space with
  ``What = Sigma W* Sigma`` and the modular conjugations swapped.
* An algebra is its orthonormal basis stack; a product algebra is the pair of
  its factor stacks: ``(M, M)`` for ``M (x) M``, ``(M, Mhat)`` for ``W``'s algebra.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .groups import GroupTable
from .tensorlin import (
    AntilinearOp,
    apply_leg,
    dagger,
    flip_matrix,
    max_tensor_entries,
    operator_norm,
    projection_residual,
    span_basis,
    unitarity_residual,
)

__all__ = [
    "FiniteQuantumGroup",
    "DerivedUnitaries",
    "function_algebra",
    "dual",
    "comultiply",
    "coassociativity_residual",
    "derived_unitaries",
    "structure_identity_residuals",
    "left_fixed_vector",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-10

KIND_FUNCTION = "function_algebra"
KIND_DUAL = "dual_of_function_algebra"


@dataclass(frozen=True)
class FiniteQuantumGroup:
    """A finite-dimensional quantum group realized on ``H = C^dim``.

    ``algebra_basis`` spans the von Neumann algebra ``M`` acting on ``H``; the
    Haar weight of every shipped construction is the (unnormalized) trace, so
    the scaling constant is 1 and only the two modular conjugations are kept.
    """

    name: str
    dim: int
    W: np.ndarray
    J: AntilinearOp
    Jhat: AntilinearOp
    haar_vector: np.ndarray
    algebra_basis: list[np.ndarray] | np.ndarray
    kind: str = "generic"
    table: GroupTable | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def ortho_basis(self) -> np.ndarray:
        """Orthonormal (Hilbert-Schmidt) basis of ``M`` as a stack, cached."""
        if "ortho_basis" not in self._cache:
            self._cache["ortho_basis"] = span_basis(self.algebra_basis)
        return self._cache["ortho_basis"]


class DerivedUnitaries(NamedTuple):
    wprime: np.ndarray       # commutant unitary (J (x) J) W (J (x) J)
    wop: np.ndarray          # opposite unitary (Jh (x) Jh) W (Jh (x) Jh)
    what: np.ndarray         # dual unitary Sigma W* Sigma
    v: np.ndarray            # right unitary
    vhat: np.ndarray         # dual right unitary (equals wprime)
    wprime_op: np.ndarray    # opposite of the commutant (K (x) K) W (K (x) K), K = J Jhat


def function_algebra(table: GroupTable) -> FiniteQuantumGroup:
    """Function algebra of a finite group: diagonal ``M`` with the classical
    comultiplication implemented by a permutation multiplicative unitary."""
    n = table.order
    w = np.zeros((n * n, n * n))
    for a in range(n):
        for b in range(n):
            w[a * n + table.product(a, b), a * n + b] = 1.0
    inv = np.zeros((n, n))
    for s, si in enumerate(table.inverses):
        inv[si, s] = 1.0
    basis = [np.diag(np.eye(n)[s]) for s in range(n)]
    q = FiniteQuantumGroup(
        name=table.name,
        dim=n,
        W=w,
        J=AntilinearOp(np.eye(n)),
        Jhat=AntilinearOp(inv),
        haar_vector=np.ones(n) / np.sqrt(n),
        algebra_basis=basis,
        kind=KIND_FUNCTION,
        table=table,
    )
    _check_construction(q)
    return q


def _check_construction(q: FiniteQuantumGroup) -> None:
    worst = max(structure_identity_residuals(q).values())
    if worst > DEFAULT_TOL:
        raise ValueError(
            f"{q.name} ({q.kind}): structural identity residual {worst:.3e} exceeds {DEFAULT_TOL:.1e}"
        )


def dual(q: FiniteQuantumGroup) -> FiniteQuantumGroup:
    """The dual quantum group on the same Hilbert space.

    ``What = Sigma W* Sigma``; the dual algebra is spanned by the first-leg
    slices of ``W``; the two modular conjugations swap.  The stored Haar vector
    is the unit vector fixed by the first-leg action of ``W`` itself; it
    implements the counit of the original object, which is the cyclic trace
    vector of the dual Haar weight (for the group algebra of ``G`` this is the
    point mass at the identity).

    The dual is built once per object and cached on it, and ``q`` is recorded
    as the dual of the result, so ``dual(dual(q)) is q`` (Pontryagin duality)
    while ``q`` is alive.  The link back to ``q`` is a weak reference, so the
    pair forms no reference cycle and is freed as soon as ``q`` is dropped.
    """
    cached = q._cache.get("dual")
    if isinstance(cached, weakref.ref):
        cached = cached()
    if cached is not None:
        return cached
    n = q.dim
    f = flip_matrix(n, n)
    what = f @ dagger(q.W) @ f
    basis = _slice_span(q.W, n)
    if projection_residual((basis,), np.eye(n)) > 1e-8:
        raise ValueError(f"{q.name}: slice span of W is degenerate (identity not in span)")
    kind = {KIND_FUNCTION: KIND_DUAL, KIND_DUAL: KIND_FUNCTION}.get(q.kind, "generic")
    qd = FiniteQuantumGroup(
        name=f"{q.name}^",
        dim=n,
        W=what,
        J=q.Jhat,
        Jhat=q.J,
        haar_vector=left_fixed_vector(q.W, n),
        algebra_basis=basis,
        kind=kind,
        table=q.table,
    )
    _check_construction(qd)
    qd._cache["dual"] = weakref.ref(q)
    q._cache["dual"] = qd
    return qd


def _slice_span(w: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the span of the first-leg slices of ``w``, where
    ``[(omega_{e_a, e_c} (x) id)(w)][k, l] = <w (e_a (x) e_l), e_c (x) e_k>``."""
    slices = w.reshape(dim, dim, dim, dim).transpose(2, 0, 1, 3)
    return span_basis(slices.reshape(dim * dim, dim, dim))


def left_fixed_vector(w: np.ndarray, dim: int) -> np.ndarray:
    """Unit vector ``v`` with ``w (v (x) z) = v (x) z`` for every ``z``.

    The fixed-vector equations are linear in ``v``; the solution space is
    one-dimensional for every shipped construction and the returned vector is
    the cyclic trace vector of the dual Haar weight.
    """
    w4 = (w - np.eye(dim * dim)).reshape(dim, dim, dim, dim)
    # stack the maps v -> (W - 1)(v (x) e_j), rows indexed by (output, j)
    mat = w4.transpose(0, 1, 3, 2).reshape(dim * dim * dim, dim)
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    null_dim = int((s < 1e-10 * max(1.0, s[0])).sum()) + (dim - len(s))
    if null_dim != 1:
        raise ValueError(f"left-fixed subspace has dimension {null_dim}, expected 1")
    v = vh[-1].conj()
    # fix the global phase: make the largest entry real positive
    k = int(np.argmax(np.abs(v)))
    v = v * (np.abs(v[k]) / v[k])
    return v


def comultiply(q: FiniteQuantumGroup, x: np.ndarray) -> np.ndarray:
    """The comultiplication ``G(x) = W* (1 (x) x) W`` on ``H (x) H``."""
    n = q.dim
    return dagger(q.W) @ np.kron(np.eye(n), x) @ q.W


def coassociativity_residual(q: FiniteQuantumGroup, x: np.ndarray) -> float:
    """Max norm of ``(G (x) id)G(x) - (id (x) G)G(x)`` applied to the three-leg basis."""
    n = q.dim
    gx = comultiply(q, x)
    dims = (n, n, n)
    basis = np.eye(n ** 3)
    lhs = apply_leg(dagger(q.W), (1, 2), apply_leg(gx, (2, 3), apply_leg(q.W, (1, 2), basis, dims), dims), dims)
    rhs = apply_leg(dagger(q.W), (2, 3), apply_leg(gx, (1, 3), apply_leg(q.W, (2, 3), basis, dims), dims), dims)
    return operator_norm(lhs - rhs)


def derived_unitaries(q: FiniteQuantumGroup) -> DerivedUnitaries:
    """The commutant, opposite, dual and right unitaries attached to ``W``."""
    if "derived" not in q._cache:
        n = q.dim
        f = flip_matrix(n, n)
        jj = q.J.tensor(q.J)
        jhjh = q.Jhat.tensor(q.Jhat)
        what = f @ dagger(q.W) @ f
        k = q.J.compose(q.Jhat)  # the linear involution J Jhat
        kk = np.kron(k, k)
        q._cache["derived"] = DerivedUnitaries(
            wprime=jj.conjugate(q.W),
            wop=jhjh.conjugate(q.W),
            what=what,
            v=jhjh.conjugate(what),
            vhat=jj.conjugate(q.W),
            wprime_op=kk @ q.W @ kk,
        )
    return q._cache["derived"]


def _pentagonal_residual(q: FiniteQuantumGroup) -> float:
    n = q.dim
    dims = (n, n, n)
    basis = np.eye(n ** 3)
    lhs = apply_leg(q.W, (1, 2), apply_leg(q.W, (1, 3), apply_leg(q.W, (2, 3), basis, dims), dims), dims)
    rhs = apply_leg(q.W, (2, 3), apply_leg(q.W, (1, 2), basis, dims), dims)
    return operator_norm(lhs - rhs)


def structure_identity_residuals(q: FiniteQuantumGroup) -> dict[str, float]:
    """Residuals of the full structural relation catalog.

    Keys are stable identifiers; all residuals are operator norms.  The
    membership of ``W`` in ``M (x) Mhat`` is included as a recorded check.
    """
    if "structure_residuals" in q._cache:
        return q._cache["structure_residuals"]
    n = q.dim
    w = q.W
    f = flip_matrix(n, n)
    der = derived_unitaries(q)
    jhat_j = q.Jhat.tensor(q.J)
    out: dict[str, float] = {}
    out["unitarity_W"] = unitarity_residual(w)
    out["conjugate_relation"] = operator_norm(dagger(w) - jhat_j.conjugate(w))
    # with scaling constant 1 the modular phase is 1: the conjugations commute
    out["modular_commutation"] = operator_norm(q.Jhat.compose(q.J) - q.J.compose(q.Jhat))
    out["dual_unitary"] = operator_norm(der.what - f @ dagger(w) @ f)
    out["right_unitary"] = operator_norm(
        der.v - q.Jhat.tensor(q.Jhat).conjugate(f @ dagger(w) @ f)
    )
    out["dual_right_unitary"] = operator_norm(der.vhat - q.J.tensor(q.J).conjugate(w))
    out["opposite_from_right"] = operator_norm(der.wop - f @ dagger(der.v) @ f)
    out["opposite_from_modular"] = operator_norm(der.wop - q.Jhat.tensor(q.Jhat).conjugate(w))
    out["commutant_equals_dual_right"] = operator_norm(der.wprime - der.vhat)
    if n ** 3 <= max_tensor_entries():
        out["pentagonal"] = _pentagonal_residual(q)
    # commutant unitary of the dual versus the dual of the opposite
    whatprime = q.Jhat.tensor(q.Jhat).conjugate(der.what)
    wophat = f @ dagger(der.wop) @ f
    out["dual_of_opposite"] = operator_norm(whatprime - wophat)
    for label, u in [
        ("unitarity_Wprime", der.wprime),
        ("unitarity_Wop", der.wop),
        ("unitarity_What", der.what),
        ("unitarity_V", der.v),
    ]:
        out[label] = unitarity_residual(u)
    # W sits in M (x) Mhat; dual(q) is not built yet while q is checked
    out["W_in_doubled_algebra"] = projection_residual((q.ortho_basis, _slice_span(w, n)), w)
    q._cache["structure_residuals"] = out
    return out
