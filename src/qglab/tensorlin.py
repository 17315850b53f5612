"""Dense complex linear algebra substrate: tensor legs, Schatten norms, slices
and product algebras.

Conventions used throughout the package:

* Vectors on a tensor product of Hilbert spaces are flat 1-d complex arrays in
  row-major (big-endian) leg order: the basis vector ``e_a (x) e_b`` of
  ``C^m (x) C^n`` sits at index ``a * n + b``.
* Legs are numbered from 1, matching the subscript convention ``W_12`` used in
  operator formulas, so ``apply_leg(lam, (1, 3), v, (n, n, n))`` applies ``lam``
  to legs 1 and 3 of a three-leg vector.
* The inner product ``<u, v>`` is linear in the first argument.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "DimensionCapError",
    "max_tensor_entries",
    "dagger",
    "inner",
    "apply_leg",
    "partial_trace",
    "trace_norm",
    "operator_norm",
    "slice_first",
    "span_basis",
    "combine",
    "coordinates",
    "project",
    "projection_residual",
    "compress_basis",
    "random_unit_vector",
    "normalize",
    "vector_norms",
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


def vector_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis of ``v``, one per stacked vector: the
    root of the dot products of the real and imaginary parts, as
    ``np.linalg.norm`` takes it of one vector, so each value is the same."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalize(v)


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


def partial_trace(f: np.ndarray, dims: tuple[int, ...], leg: int) -> np.ndarray:
    """Factor of a partial trace: for ``f`` ``(..., prod(dims), r)``, the
    matrix ``g`` with ``g g* = Tr_leg(f f*)``, tracing out one leg (1-based);
    leading axes of ``f`` are a stack.  The traced leg moves into the
    columns: a transpose and a reshape."""
    nlegs = len(dims)
    if not 1 <= leg <= nlegs:
        raise ValueError(f"leg {leg} out of range for {nlegs} legs")
    lead = f.shape[:-2]
    k = len(lead)
    kept = [k + i for i in range(nlegs) if i != leg - 1]
    t = f.reshape(lead + tuple(dims) + (-1,)).transpose(*range(k), *kept, k + leg - 1, k + nlegs)
    return t.reshape(lead + (math.prod(dims) // dims[leg - 1], -1))


def trace_norm(a: np.ndarray) -> float:
    """Schatten-1 norm (sum of singular values)."""
    return float(np.linalg.svd(a, compute_uv=False).sum())


def operator_norm(a: np.ndarray) -> float | np.ndarray:
    """Largest singular value; one per matrix of a stack ``a`` ``(..., d, d)``,
    by one stacked SVD.

    A single matrix with no non-zero entry (empty included) has norm exactly 0
    and skips the SVD; any non-zero, NaN or inf entry goes through it.
    """
    if a.ndim == 2 and not a.any():
        return 0.0
    top = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(top) if top.ndim == 0 else top


def slice_first(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Slice away the first leg of an operator on ``H1 (x) H2`` with the vector
    state of ``u``: the matrix of ``(omega_u (x) id)(x)``,
    ``out[k, l] = <x (u (x) e_l), u (x) e_k>``.  Leading axes of ``x``
    ``(..., d, d)`` and ``u`` ``(..., d1)`` are stacks that broadcast.
    """
    d1 = u.shape[-1]
    d2 = x.shape[-1] // d1
    x4 = x.reshape(x.shape[:-2] + (d1, d2, d1, d2))
    return np.einsum("...a,...abcd,...c->...bd", u.conj(), x4, u)


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
    """``sum_ij coeff[..., i * len(b) + j] a_i (x) b_j`` as ``A^T C B`` on the
    layout realigned to ``(m^2, n^2)``; leading axes of ``coeff`` are a stack."""
    a, b = (*factors, _SCALARS)[:2]
    m, n = a.shape[-1], b.shape[-1]
    lead = coeff.shape[:-1]
    c = coeff.reshape(lead + (len(a), len(b)))
    x = a.reshape(len(a), -1).T @ c @ b.reshape(len(b), -1)
    return x.reshape(lead + (m, m, n, n)).swapaxes(-3, -2).reshape(lead + (m * n, m * n))


def coordinates(factors: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """Coefficients of the projection of ``x`` onto the product algebra, ``j``
    fast: ``conj(A) X conj(B)^T`` for ``x`` realigned to ``X`` of shape
    ``(m^2, n^2)``; leading axes of ``x`` are a stack."""
    a, b = (*factors, _SCALARS)[:2]
    m, n = a.shape[-1], b.shape[-1]
    lead = x.shape[:-2]
    big = x.reshape(lead + (m, n, m, n)).swapaxes(-3, -2).reshape(lead + (m * m, n * n))
    c = a.reshape(len(a), -1).conj() @ big @ b.reshape(len(b), -1).conj().T
    return c.reshape(lead + (-1,))


def project(factors: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """Projection onto the product algebra of the factor stacks."""
    return combine(factors, coordinates(factors, x))


def projection_residual(factors: tuple[np.ndarray, ...], x: np.ndarray) -> float | np.ndarray:
    """Relative distance from ``x`` to the product algebra of the factor stacks,
    in the Hilbert-Schmidt norm, 0 for ``x = 0``; one per element of a stack
    ``x`` ``(..., d, d)``."""
    flat = x.reshape(x.shape[:-2] + (-1,))
    nrm = vector_norms(flat)
    res = vector_norms(flat - project(factors, x).reshape(flat.shape))
    out = res / np.where(nrm == 0, 1.0, nrm)
    return float(out) if out.ndim == 0 else out


def compress_basis(factors: tuple[np.ndarray, ...], v: np.ndarray) -> np.ndarray:
    """``v* (a_i (x) b_j) v`` for every basis product, stacked with ``j`` fast;
    leading axes of ``v`` ``(..., dim, r)`` are a stack, giving
    ``(..., k, r, r)``.  Two products with the factors, then one contraction
    over both legs; the products ``a_i (x) b_j`` are never formed."""
    a, b = (*factors, _SCALARS)[:2]
    m, n = a.shape[-1], b.shape[-1]
    lead, r = v.shape[:-2], v.shape[-1]
    v4 = v.reshape((-1, 1, m, n * r))
    # v* (a_i (x) 1) as (stack, i, c, (q, r)), and (1 (x) b_j) v as (stack, j, c, q, s)
    left = a.swapaxes(-1, -2) @ v4.conj()
    right = b[:, None] @ v4.reshape(-1, 1, m, n, r)
    left = left.reshape(len(v4), len(a), m * n, r).swapaxes(-1, -2).reshape(len(v4), -1, m * n)
    right = right.reshape(len(v4), len(b), m * n, r).swapaxes(1, 2).reshape(len(v4), m * n, -1)
    out = (left @ right).reshape(-1, len(a), r, len(b), r).swapaxes(2, 3)
    return out.reshape(lead + (len(a) * len(b), r, r))
