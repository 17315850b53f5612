"""The convolution algebra of a finite quantum group and its tensor square.

Functionals are stored as full pairing matrices ``rho`` on ``B(H)`` with
``omega(x) = Tr(rho x)``; only the restriction to the algebra ``M`` is
meaningful, and norms are quotient trace norms computed through a multimatrix
block decomposition of ``M``; ``M (x) M`` is the factor pair ``(M, M)``, never
a list of its ``n^2`` basis products.  The decomposition algorithm and the
randomized sup oracle validating it are independent of each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qgcore import FiniteQuantumGroup
from .tensorlin import (
    compress_basis,
    dagger,
    operator_norm,
    partial_trace,
    project,
    sandwich_legs,
    span_basis,
    trace_norm,
)

__all__ = [
    "Functional",
    "Block",
    "BlockDecomposition",
    "vector_state",
    "convolve",
    "module_action_left",
    "module_action_right",
    "product_map",
    "block_decompose",
    "predual_norm",
    "tensor_predual_norm",
    "sup_norm_estimate",
    "algebra_decomposition",
    "tensor_algebra_decomposition",
]


@dataclass(frozen=True)
class Functional:
    """An element of the predual of ``M`` or of ``M (x) M``, paired by
    ``omega(x) = Tr(rho x)`` against ``H`` or ``H (x) H``."""

    rho: np.ndarray

    def value(self, x: np.ndarray) -> complex:
        return complex(np.trace(self.rho @ x))

    def __add__(self, other: "Functional") -> "Functional":
        return Functional(self.rho + other.rho)

    def __sub__(self, other: "Functional") -> "Functional":
        return Functional(self.rho - other.rho)

    def __mul__(self, scalar: complex) -> "Functional":
        return Functional(self.rho * scalar)

    __rmul__ = __mul__


def vector_state(zeta: np.ndarray) -> Functional:
    """The vector functional ``x -> <x zeta, zeta>`` as a rank-one pairing
    matrix; ``zeta`` on ``H (x) H`` gives a functional on the doubled algebra."""
    return Functional(np.outer(zeta, zeta.conj()))


def convolve(q: FiniteQuantumGroup, a: Functional, b: Functional) -> Functional:
    """Convolution ``(a * b)(x) = (a (x) b)(G(x))``.

    On pairing matrices this is the first-leg partial trace of
    ``W (rho_a (x) rho_b) W*``; for the function algebra of ``G`` it is the
    classical convolution on ``l1(G)``.
    """
    n = q.dim
    rho = q.W @ np.kron(a.rho, b.rho) @ dagger(q.W)
    return Functional(partial_trace(rho, (n, n), 1))


def module_action_left(q: FiniteQuantumGroup, a: Functional, x: Functional) -> Functional:
    """``a . x``: convolution by ``a`` from the left in the first coordinate."""
    n = q.dim
    big = np.kron(a.rho, x.rho)
    big = sandwich_legs(q.W, (1, 2), big, (n, n, n))
    return Functional(partial_trace(big, (n, n * n), 1))


def module_action_right(q: FiniteQuantumGroup, x: Functional, a: Functional) -> Functional:
    """``x . a``: convolution by ``a`` from the right in the second coordinate."""
    n = q.dim
    big = np.kron(x.rho, a.rho)
    big = sandwich_legs(q.W, (2, 3), big, (n, n, n))
    return Functional(partial_trace(big, (n, n, n), 2))


def product_map(q: FiniteQuantumGroup, x: Functional) -> Functional:
    """Push a functional on the doubled algebra through the comultiplication,
    ``x -> x o G``; on elementary tensors this is convolution."""
    n = q.dim
    rho = q.W @ x.rho @ dagger(q.W)
    return Functional(partial_trace(rho, (n, n), 1))


@dataclass(frozen=True)
class Block:
    """One central block of a multimatrix algebra: ``M_size`` with the given
    multiplicity, embedded by an isometry whose columns are ordered with the
    matrix index slow and the multiplicity index fast."""

    size: int
    multiplicity: int
    isometry: np.ndarray

    def compress(self, rho: np.ndarray) -> np.ndarray:
        """Adjoint of the inclusion: compress a pairing matrix to the block factor."""
        c = dagger(self.isometry) @ rho @ self.isometry
        c4 = c.reshape(self.size, self.multiplicity, self.size, self.multiplicity)
        return np.einsum("pjqj->pq", c4)


@dataclass(frozen=True)
class BlockDecomposition:
    """Simultaneous block diagonalization of a *-algebra of matrices."""

    blocks: list[Block]

    @property
    def block_sizes(self) -> list[int]:
        return sorted(b.size for b in self.blocks)

    @property
    def total_dim(self) -> int:
        return sum(b.size * b.multiplicity for b in self.blocks)


class DecompositionError(RuntimeError):
    """Random draws failed to split the algebra; retried and gave up."""


def _center_basis(basis: list[np.ndarray]) -> list[np.ndarray]:
    """Basis of the center of the spanned algebra, via the commutator kernel."""
    k = len(basis)
    gram = np.zeros((k, k), dtype=complex)
    for b in basis:
        comm = np.stack([(bk @ b - b @ bk).reshape(-1) for bk in basis])
        gram += comm.conj() @ comm.T
    w, v = np.linalg.eigh(gram)
    keep = w < 1e-9 * max(1.0, float(w[-1]))
    out = []
    for i in range(k):
        if keep[i]:
            out.append(sum(v[j, i] * basis[j] for j in range(k)))
    if not out:
        raise DecompositionError("algebra has empty center (identity missing from span?)")
    return out


def _cluster_eigenvalues(vals: np.ndarray, gap: float) -> list[np.ndarray]:
    order = np.argsort(vals)
    groups: list[list[int]] = [[int(order[0])]]
    for i in order[1:]:
        if vals[i] - vals[groups[-1][-1]] > gap:
            groups.append([])
        groups[-1].append(int(i))
    return [np.array(g) for g in groups]


def _random_hermitian(basis: list[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    coeff = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    y = sum(c * b for c, b in zip(coeff, basis))
    return y + dagger(y)


def _split_block(
    comp: list[np.ndarray], rng: np.random.Generator, gap: float
) -> tuple[int, int, np.ndarray]:
    """Split one central block into (size, multiplicity, local isometry)."""
    d = comp[0].shape[0]
    y = _random_hermitian(comp, rng)
    w, v = np.linalg.eigh(y)
    groups = _cluster_eigenvalues(w, gap * max(1.0, float(np.abs(w).max())))
    sizes = {len(g) for g in groups}
    if len(sizes) != 1:
        raise DecompositionError(f"uneven eigenvalue clusters {sorted(sizes)}")
    mult = sizes.pop()
    size = len(groups)
    if size * mult != d:
        raise DecompositionError("cluster count does not tile the block")
    frames = [v[:, g] for g in groups]
    if size == 1:
        return 1, mult, np.eye(d, dtype=complex)
    transport = _random_hermitian(comp, rng) + 1j * _random_hermitian(comp, rng)
    cols = [frames[0]]
    for p in range(1, size):
        mp = dagger(frames[p]) @ transport @ frames[0]
        u, s, vh = np.linalg.svd(mp)
        if s.min() < 1e-8 * max(1.0, s.max()):
            raise DecompositionError("singular transport between eigenframes")
        cols.append(frames[p] @ (u @ vh))
    return size, mult, np.concatenate(cols, axis=1)


# entrywise tolerance of the product-form validation, and the number of random
# draws block_decompose tries before it gives up
DECOMPOSE_TOL = 1e-8
DECOMPOSE_RETRIES = 5


def block_decompose(basis: list[np.ndarray], rng: np.random.Generator) -> BlockDecomposition:
    """Artin-Wedderburn decomposition of the *-algebra spanned by ``basis``.

    A random self-adjoint central element splits ``H`` into the central
    subspaces; a random self-adjoint algebra element inside each block splits
    off the multiplicity.  Degenerate random draws are retried with fresh
    randomness up to ``DECOMPOSE_RETRIES`` times.
    """
    ortho = span_basis(basis)
    center = _center_basis(ortho)
    last_error: Exception | None = None
    for _ in range(DECOMPOSE_RETRIES):
        try:
            z = _random_hermitian(center, rng)
            w, v = np.linalg.eigh(z)
            groups = _cluster_eigenvalues(w, 1e-6 * max(1.0, float(np.abs(w).max())))
            if len(groups) != len(center):
                raise DecompositionError(
                    f"central element produced {len(groups)} clusters for a "
                    f"{len(center)}-dimensional center"
                )
            blocks = []
            for g in groups:
                p = v[:, g]
                comp = [dagger(p) @ b @ p for b in ortho]
                size, mult, local = _split_block(comp, rng, 1e-6)
                blocks.append(Block(size=size, multiplicity=mult, isometry=p @ local))
            decomp = BlockDecomposition(blocks=blocks)
            _validate_decomposition(decomp, (ortho,), DECOMPOSE_TOL)
            return decomp
        except DecompositionError as exc:
            last_error = exc
    raise DecompositionError(f"block decomposition failed after {DECOMPOSE_RETRIES} draws: {last_error}")


def _validate_decomposition(
    decomp: BlockDecomposition, factors: tuple[np.ndarray, ...], tol: float
) -> None:
    """Check that every block compresses the algebra of the factor stacks to
    ``x (x) 1`` with ``x`` ranging over all of ``M_size``; one pass per block."""
    d = int(np.prod([f.shape[-1] for f in factors]))
    if decomp.total_dim != d:
        raise DecompositionError(f"block dimensions sum to {decomp.total_dim}, expected {d}")
    for block in decomp.blocks:
        s, m = block.size, block.multiplicity
        c = compress_basis(factors, block.isometry).reshape(-1, s, m, s, m)
        x = np.einsum("kpjqj->kpq", c) / m
        recon = np.einsum("kpq,jl->kpjql", x, np.eye(m))
        if np.abs(recon - c).max() > tol:
            raise DecompositionError("compression is not of product form x (x) 1")
        rank = int(np.linalg.matrix_rank(x.reshape(len(x), s * s), tol=1e-8))
        if rank != s ** 2:
            raise DecompositionError(f"compressed algebra has dimension {rank}, expected {s ** 2}")


def predual_norm(omega: Functional, decomp: BlockDecomposition) -> float:
    """Quotient trace norm of a functional restricted to the decomposed algebra:
    the sum of trace norms of the block compressions."""
    return float(sum(trace_norm(block.compress(omega.rho)) for block in decomp.blocks))


def tensor_predual_norm(x: Functional, decomp: BlockDecomposition) -> float:
    """Predual norm on the doubled algebra; same block formula on ``H (x) H``."""
    return float(sum(trace_norm(block.compress(x.rho)) for block in decomp.blocks))


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def sup_norm_estimate(
    rho: np.ndarray,
    basis: list[np.ndarray],
    rng: np.random.Generator,
    samples: int = 2000,
    ascent_steps: int = 120,
) -> float:
    """Randomized lower estimate of ``sup { |Tr(rho x)| : x in M, ||x|| <= 1 }``.

    Independent of the block machinery: contractions are sampled as polar
    parts of random algebra elements, a deterministic polar candidate is
    included, and the best sample is refined by gradient ascent on the unitary
    group of the algebra.  Every evaluated point is projected back into the
    algebra and clipped to the unit ball, so each value is a certified lower
    bound for the sup.
    """
    ortho = span_basis(basis)
    d = rho.shape[0]

    def score(x: np.ndarray) -> float:
        x = project((ortho,), x)
        top = operator_norm(x)
        if top > 1.0:
            x = x / top
        return abs(np.trace(rho @ x))

    candidates = [np.eye(d, dtype=complex), _polar_unitary(project((ortho,), dagger(rho)))]
    coeffs = rng.standard_normal((samples, len(ortho))) + 1j * rng.standard_normal(
        (samples, len(ortho))
    )
    ys = np.einsum("sk,kij->sij", coeffs, ortho)
    u, _, vh = np.linalg.svd(ys)
    polars = u @ vh
    values = np.abs(np.einsum("ij,sji->s", rho, polars))
    best_idx = np.argsort(values)[-3:]
    best = max(float(values[i]) for i in best_idx)
    best = max(best, max(score(c) for c in candidates))

    starts = [polars[i] for i in best_idx] + candidates
    for u0 in starts:
        u0 = project((ortho,), u0)
        top = operator_norm(u0)
        if top > 1e-12:
            u0 = u0 / max(1.0, top)
        current = u0
        value = abs(np.trace(rho @ current))
        step = 0.5
        for _ in range(ascent_steps):
            pairing = np.trace(rho @ current)
            phase = pairing / abs(pairing) if abs(pairing) > 1e-14 else 1.0
            # Riemannian gradient direction on the unitary group of M
            grad = project((ortho,), 1j * np.conj(phase) * dagger(rho))
            herm = (grad @ dagger(current) + current @ dagger(grad)) / 2
            herm = project((ortho,), (herm + dagger(herm)) / 2)
            moved = False
            while step > 1e-9:
                trial = project((ortho,), _polar_unitary(current + step * herm @ current))
                trial = trial / max(1.0, operator_norm(trial))
                tval = abs(np.trace(rho @ trial))
                if tval > value + 1e-15:
                    current, value, moved = trial, tval, True
                    break
                step *= 0.5
            if not moved:
                break
        best = max(best, float(value))
    return best


def algebra_decomposition(q: FiniteQuantumGroup) -> BlockDecomposition:
    """Block decomposition of ``M``, cached on the quantum group object."""
    if "decomp" not in q._cache:
        q._cache["decomp"] = block_decompose(
            q.algebra_basis, rng=np.random.default_rng(q.dim + 1)
        )
    return q._cache["decomp"]


def tensor_algebra_decomposition(q: FiniteQuantumGroup) -> BlockDecomposition:
    """Block decomposition of ``M (x) M``, cached on the quantum group object.

    By Artin-Wedderburn the blocks of ``A (x) B`` are the products of the
    blocks of the factors: ``M_{s_a} (x) M_{s_b} = M_{s_a s_b}`` with
    multiplicity ``m_a m_b`` and isometry ``iso_a (x) iso_b``, its columns
    regrouped so the matrix index ``(p_a, p_b)`` is slow and the multiplicity
    index ``(j_a, j_b)`` fast.  So the decomposition is read off that of ``M``,
    with no random draw on ``M (x) M``, and validated against ``(M, M)``.
    """
    if "tensor_decomp" not in q._cache:
        factor = algebra_decomposition(q).blocks
        blocks = []
        for a in factor:
            for b in factor:
                iso = np.kron(a.isometry, b.isometry)
                iso = iso.reshape(-1, a.size, a.multiplicity, b.size, b.multiplicity)
                iso = iso.transpose(0, 1, 3, 2, 4).reshape(len(iso), -1)
                blocks.append(Block(a.size * b.size, a.multiplicity * b.multiplicity, iso))
        decomp = BlockDecomposition(blocks=blocks)
        _validate_decomposition(decomp, (q.ortho_basis, q.ortho_basis), DECOMPOSE_TOL)
        q._cache["tensor_decomp"] = decomp
    return q._cache["tensor_decomp"]
