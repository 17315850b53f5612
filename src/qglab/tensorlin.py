"""Dense complex linear algebra substrate: tensor legs, Schatten norms, slices,
flips and antilinear operators.

Conventions used throughout the package:

* Vectors on a tensor product of Hilbert spaces are flat 1-d complex arrays in
  row-major (big-endian) leg order: the basis vector ``e_a (x) e_b`` of
  ``C^m (x) C^n`` sits at index ``a * n + b``.
* Legs are numbered from 1, matching the subscript convention ``W_12`` used in
  operator formulas, so ``apply_leg(W, (1, 3), v, (n, n, n))`` applies ``W`` to
  legs 1 and 3 of a three-leg vector.
* The inner product ``<u, v>`` is linear in the first argument.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionCapError",
    "AntilinearOp",
    "max_tensor_entries",
    "dagger",
    "inner",
    "flip_matrix",
    "apply_leg",
    "sandwich_legs",
    "partial_trace",
    "trace_norm",
    "operator_norm",
    "unitarity_residual",
    "slice_first",
    "span_basis",
    "combine",
    "project",
    "projection_residual",
    "compress_basis",
    "random_unit_vector",
    "normalize",
]

DEFAULT_MAX_TENSOR_ENTRIES = 12 ** 3


class DimensionCapError(ValueError):
    """Raised when a dense tensor object would exceed the configured size cap."""


def max_tensor_entries() -> int:
    """Largest allowed entry count for a dense multi-leg vector.

    Defaults to 12**3 and can be overridden with the QGLAB_MAX_DIM environment
    variable.
    """
    raw = os.environ.get("QGLAB_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_TENSOR_ENTRIES
    try:
        value = int(raw)
    except ValueError as exc:
        raise DimensionCapError(f"QGLAB_MAX_DIM must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise DimensionCapError(f"QGLAB_MAX_DIM must be positive, got {value}")
    return value


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """``<u, v>``, linear in ``u``."""
    return complex(np.vdot(v, u))


def normalize(v: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("cannot normalize the zero vector")
    return v / nrm


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalize(v)


def flip_matrix(dim_a: int, dim_b: int) -> np.ndarray:
    """Unitary implementing ``v (x) w -> w (x) v`` on ``C^a (x) C^b``."""
    d = dim_a * dim_b
    out = np.zeros((d, d))
    a = np.arange(dim_a).repeat(dim_b)
    b = np.tile(np.arange(dim_b), dim_a)
    out[b * dim_a + a, a * dim_b + b] = 1.0
    return out


def _split_legs(legs: tuple[int, ...], dims: tuple[int, ...]) -> tuple[list[int], list[int]]:
    nlegs = len(dims)
    if len(set(legs)) != len(legs):
        raise ValueError(f"repeated leg index in {legs}")
    for leg in legs:
        if not 1 <= leg <= nlegs:
            raise ValueError(f"leg {leg} out of range for {nlegs} legs")
    sel = [leg - 1 for leg in legs]
    rest = [i for i in range(nlegs) if i not in sel]
    return sel, rest


def apply_leg(
    op: np.ndarray,
    legs: tuple[int, ...],
    v: np.ndarray,
    dims: tuple[int, ...],
) -> np.ndarray:
    """Apply ``op`` to the selected legs of ``v``, identity on the others.

    ``v`` may be a flat vector of length ``prod(dims)`` or a matrix whose rows
    carry the leg structure (columns are treated as a batch).  The computation
    is a reshape-permute-contract; the full many-leg operator is never formed.
    """
    sel, rest = _split_legs(legs, dims)
    batched = v.ndim == 2
    shape = tuple(dims) + ((v.shape[1],) if batched else ())
    full = list(range(len(shape)))
    rest_axes = rest + ([len(dims)] if batched else [])
    sel_dim = int(np.prod([dims[i] for i in sel]))
    if op.shape != (sel_dim, sel_dim):
        raise ValueError(f"operator shape {op.shape} does not act on legs {legs} of dims {dims}")
    t = v.reshape(shape).transpose(sel + rest_axes)
    out = op @ t.reshape(sel_dim, -1)
    out = out.reshape([shape[i] for i in sel] + [shape[i] for i in rest_axes])
    inv = np.argsort(sel + rest_axes)
    out = out.transpose(inv)
    return out.reshape(v.shape[0], v.shape[1]) if batched else out.reshape(-1)


def sandwich_legs(
    op: np.ndarray,
    legs: tuple[int, ...],
    rho: np.ndarray,
    dims: tuple[int, ...],
) -> np.ndarray:
    """Conjugate a matrix on ``prod(dims)`` by ``op`` acting on the given legs:
    returns ``op_legs @ rho @ op_legs*``."""
    step = apply_leg(op, legs, rho, dims)
    return dagger(apply_leg(op, legs, dagger(step), dims))


def partial_trace(rho: np.ndarray, dims: tuple[int, ...], leg: int) -> np.ndarray:
    """Trace out one leg (1-based) of a matrix on ``prod(dims)``."""
    nlegs = len(dims)
    if not 1 <= leg <= nlegs:
        raise ValueError(f"leg {leg} out of range for {nlegs} legs")
    t = rho.reshape(tuple(dims) + tuple(dims))
    axis = leg - 1
    out = np.trace(t, axis1=axis, axis2=axis + nlegs)
    kept = int(np.prod([d for i, d in enumerate(dims) if i != axis]))
    return out.reshape(kept, kept)


def trace_norm(a: np.ndarray) -> float:
    """Schatten-1 norm (sum of singular values)."""
    return float(np.linalg.svd(a, compute_uv=False).sum())


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value.

    A matrix with no non-zero entry (empty included) has norm exactly 0 and
    skips the SVD; any non-zero, NaN or inf entry goes through it.
    """
    if not a.any():
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def unitarity_residual(a: np.ndarray) -> float:
    return operator_norm(dagger(a) @ a - np.eye(a.shape[0]))


def slice_first(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Slice away the first leg of an operator on ``H1 (x) H2`` with the vector
    state of ``u``: the matrix of ``(omega_u (x) id)(x)``,
    ``out[k, l] = <x (u (x) e_l), u (x) e_k>``.
    """
    d1 = u.shape[0]
    d2 = x.shape[0] // d1
    x4 = x.reshape(d1, d2, d1, d2)
    return np.einsum("a,abcd,c->bd", u.conj(), x4, u)


def span_basis(mats: list[np.ndarray]) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of the span of the matrices, stacked."""
    if not len(mats):
        raise ValueError("empty matrix list")
    stacked = np.stack([m.reshape(-1) for m in mats]).astype(complex)
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    rank = int((s > 1e-10 * s[0]).sum()) if s.size else 0
    return vh[:rank].reshape((rank,) + mats[0].shape)


# A product algebra is the pair ``(a, b)`` of its factors' orthonormal stacks; one
# stack ``(a,)`` is the pair ``(a, _SCALARS)`` with a trivial second leg.
_SCALARS = np.ones((1, 1, 1))


def combine(factors: tuple[np.ndarray, ...], coeff: np.ndarray) -> np.ndarray:
    """``sum_ij coeff[i, j] a_i (x) b_j`` as ``A^T C B`` on the layout realigned
    to ``(m^2, n^2)``; ``coeff`` may be flat, ``j`` fast."""
    a, b = (*factors, _SCALARS)[:2]
    m, n = a.shape[-1], b.shape[-1]
    x = a.reshape(len(a), -1).T @ coeff.reshape(len(a), len(b)) @ b.reshape(len(b), -1)
    return x.reshape(m, m, n, n).transpose(0, 2, 1, 3).reshape(m * n, m * n)


def project(factors: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """Projection onto the product algebra: the coefficients are
    ``conj(A) X conj(B)^T`` for ``x`` realigned to ``X`` of shape ``(m^2, n^2)``."""
    a, b = (*factors, _SCALARS)[:2]
    m, n = a.shape[-1], b.shape[-1]
    big = x.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)
    return combine(factors, a.reshape(len(a), -1).conj() @ big @ b.reshape(len(b), -1).conj().T)


def projection_residual(factors: tuple[np.ndarray, ...], x: np.ndarray) -> float:
    """Relative distance from ``x`` to the product algebra of the factor stacks."""
    nrm = np.linalg.norm(x)
    if nrm == 0:
        return 0.0
    return float(np.linalg.norm(x - project(factors, x)) / nrm)


def compress_basis(factors: tuple[np.ndarray, ...], v: np.ndarray) -> np.ndarray:
    """``v* (a_i (x) b_j) v`` for every basis product, stacked with ``j`` fast."""
    a, b = (*factors, _SCALARS)[:2]
    v3 = v.reshape(a.shape[-1], b.shape[-1], -1)
    left = np.einsum("ipc,pqr->iqcr", a, v3.conj(), optimize=True)  # v* (a_i (x) 1)
    right = np.einsum("jqd,cds->jqcs", b, v3, optimize=True)  # (1 (x) b_j) v
    out = np.einsum("iqcr,jqcs->ijrs", left, right, optimize=True)
    return out.reshape(len(a) * len(b), v.shape[1], v.shape[1])


@dataclass(frozen=True)
class AntilinearOp:
    """Antilinear operator ``v -> u @ conj(v)`` with unitary ``u``.

    Models modular conjugations.  Composing two antilinear operators yields a
    linear one; conjugating a linear operator by the same antilinear operator
    on both sides yields a linear operator.  Both case analyses are explicit
    here so that mixed products cannot silently drop a conjugation.
    """

    u: np.ndarray

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.u @ v.conj()

    def conjugate(self, a: np.ndarray) -> np.ndarray:
        """The linear operator ``J a J`` (same antilinear ``J`` on both sides)."""
        return self.u @ a.conj() @ self.u.conj()

    def compose(self, other: "AntilinearOp") -> np.ndarray:
        """Matrix of the linear operator ``self o other``."""
        return self.u @ other.u.conj()

    def tensor(self, *others: "AntilinearOp") -> "AntilinearOp":
        u = self.u
        for op in others:
            u = np.kron(u, op.u)
        return AntilinearOp(u)
