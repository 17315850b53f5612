"""The convolution algebra of a finite quantum group and its tensor square.

A functional is a short signed sum of vector functionals, held as the terms
``(c, F)`` of ``omega(x) = sum c Tr(F* x F)``: the paper's Hilbert-space vectors,
never a pairing matrix.  Only the restriction to the algebra ``M`` is
meaningful, and norms are quotient trace norms computed through a multimatrix
block decomposition of ``M``; ``M (x) M`` is the factor pair ``(M, M)``.
For the constructions from a Cayley table the decomposition of ``M`` is read
from the table (``algebra_decomposition``), otherwise found by
``block_decompose``; either is validated against the basis, every basis
element compressing to ``x (x) 1`` in every block.

The decomposition of ``M (x) M`` is read off that of ``M``: its blocks are the
products of the factor's blocks.  One element of ``M (x) M`` drawn from a
fixed-seed generator checks it, every block compressing that element to
``x (x) 1``, which fails if the isometries' columns are grouped wrongly.  An
element's blocks ``x`` (``BlockDecomposition.element_blocks``) give its norm,
the largest norm of its blocks.  Every stacked computation takes leading draw
axes: a functional's factors ``F`` ``(..., dim, r)`` may carry leading stack
axes, one functional per index, and ``vector_state``, ``Functional.tensor``,
``convolve``, ``product_map`` and the module actions act on each at once.  How
``W`` acts on a factor, the rows gathered and the leg traced into the columns,
is written here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qgcore import KIND_FUNCTION, FiniteQuantumGroup, derived_unitaries, inverse, is_table_construction
from .tensorlin import (
    combine,
    compress_basis,
    dagger,
    partial_trace,
    span_basis,
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
    "trace_norms",
    "block_norms",
    "at_vectors",
    "algebra_decomposition",
    "tensor_algebra_decomposition",
]


@dataclass(frozen=True)
class Functional:
    """An element of the predual of ``M`` or of ``M (x) M``: the terms
    ``(c, F)`` give ``omega(x) = sum c Tr(F* x F)`` against ``H`` or ``H (x) H``.
    The factors ``F`` ``(..., dim, r)`` may carry leading stack axes, making a
    stack of functionals."""

    terms: tuple[tuple[complex, np.ndarray], ...]

    def value(self, x: np.ndarray) -> complex | np.ndarray:
        """``omega(x)``: a complex number, or one value per functional of a
        stack, leading axes of ``x`` ``(..., dim, dim)`` broadcasting against
        the stack.  Each value is ``sum c <x F, F>``, the factors flattened
        into one dot product as ``np.vdot`` takes it."""
        total = 0.0
        for c, f in self.terms:
            g = x @ f
            total = total + c * np.vecdot(f.reshape(f.shape[:-2] + (-1,)), g.reshape(g.shape[:-2] + (-1,)))
        return complex(total) if np.ndim(total) == 0 else total

    def tensor(self, other: "Functional") -> "Functional":
        """``self (x) other``: the Kronecker products of the factors, the
        stack axes broadcast (``_kron``)."""
        return Functional(tuple((c * d, _kron(f, g)) for c, f in self.terms for d, g in other.terms))

    def __add__(self, other: "Functional") -> "Functional":
        return Functional(self.terms + other.terms)

    def __sub__(self, other: "Functional") -> "Functional":
        return self + other * -1.0

    def __mul__(self, scalar: complex) -> "Functional":
        return Functional(tuple((c * scalar, f) for c, f in self.terms))

    __rmul__ = __mul__


def _kron(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``np.kron`` of the last two axes of ``f`` and ``g``, formed by
    broadcasting; their leading stack axes broadcast against each other."""
    p = f[..., :, None, :, None] * g[..., None, :, None, :]
    return p.reshape(p.shape[:-4] + (p.shape[-4] * p.shape[-3], p.shape[-2] * p.shape[-1]))


def vector_state(zeta: np.ndarray) -> Functional:
    """The vector functional ``x -> <x zeta, zeta>``: one term, ``zeta`` as a
    column; ``zeta`` on ``H (x) H`` gives a functional on the doubled algebra.
    A stack ``zeta`` ``(..., dim)`` gives the stack of its vector states."""
    return Functional(((1.0, zeta[..., None]),))


def convolve(q: FiniteQuantumGroup, a: Functional, b: Functional) -> Functional:
    """Convolution ``(a * b)(x) = (a (x) b)(G(x))``; for the function algebra
    of ``G`` it is the classical convolution on ``l1(G)``."""
    return product_map(q, a.tensor(b))


def _module_action(q: FiniteQuantumGroup, x: Functional, legs: tuple[int, int], leg: int) -> Functional:
    """Apply ``W`` on ``legs`` of every three-leg factor of ``x`` (a gather of
    its rows) and trace out ``leg``."""
    dims = (q.dim,) * 3
    rows = derived_unitaries(q).three["w*"][legs]
    return Functional(tuple((c, partial_trace(f[..., rows, :], dims, leg)) for c, f in x.terms))


def module_action_left(q: FiniteQuantumGroup, a: Functional, x: Functional) -> Functional:
    """``a . x``: convolution by ``a`` from the left in the first coordinate."""
    return _module_action(q, a.tensor(x), (1, 2), 1)


def module_action_right(q: FiniteQuantumGroup, x: Functional, a: Functional) -> Functional:
    """``x . a``: convolution by ``a`` from the right in the second coordinate."""
    return _module_action(q, x.tensor(a), (2, 3), 2)


def product_map(q: FiniteQuantumGroup, x: Functional) -> Functional:
    """Push a functional on the doubled algebra through the comultiplication,
    ``x -> x o G``: the first-leg partial trace of ``W F`` for each factor,
    ``W F`` a gather of the rows of ``F``."""
    n = q.dim
    rows = inverse(q.w)
    return Functional(tuple((c, partial_trace(f[..., rows, :], (n, n), 1)) for c, f in x.terms))


@dataclass(frozen=True)
class Block:
    """One central block of a multimatrix algebra: ``M_size`` with the given
    multiplicity, embedded by an isometry whose columns are ordered with the
    matrix index slow and the multiplicity index fast."""

    size: int
    multiplicity: int
    isometry: np.ndarray


@dataclass(frozen=True)
class BlockDecomposition:
    """Simultaneous block diagonalization of a *-algebra of matrices.

    Stacked quantities come as one array per group of ``plan``: for an element,
    its blocks ``(..., blocks, size, size)``; for a functional, its block
    compressions of the same shape, so that ``omega(x) = sum_b tr(x_b
    compress_b(omega))``."""

    blocks: list[Block]

    @property
    def block_sizes(self) -> list[int]:
        return sorted(b.size for b in self.blocks)

    @property
    def total_dim(self) -> int:
        return sum(b.size * b.multiplicity for b in self.blocks)

    @cached_property
    def plan(self) -> list[tuple[int, int, list[int], np.ndarray]]:
        """The blocks grouped by size and multiplicity, smallest first: for each
        group ``(size, multiplicity, indices, adjoints)``, the indices of its
        blocks and their isometries' adjoints stacked,
        ``(blocks, size * multiplicity, dim)``; built once per decomposition."""
        groups: dict[tuple[int, int], list[int]] = {}
        for i, b in enumerate(self.blocks):
            groups.setdefault((b.size, b.multiplicity), []).append(i)
        return [
            (s, m, idx, np.stack([dagger(self.blocks[i].isometry) for i in idx]))
            for (s, m), idx in sorted(groups.items())
        ]

    def _factor_blocks(self, f: np.ndarray) -> list[np.ndarray]:
        """``iso* F`` for every block, the multiplicity index moved into the
        columns: ``(..., blocks, size, multiplicity * r)`` per group for a
        factor ``(..., dim, r)``; one product with the group's stacked
        adjoints."""
        out = []
        for s, _, idx, adj in self.plan:
            h = adj.reshape(-1, adj.shape[-1]) @ f
            out.append(h.reshape(h.shape[:-2] + (len(idx), s, -1)))
        return out

    def _element_compressions(self, x: np.ndarray) -> list[np.ndarray]:
        """``iso* x iso`` ``(..., blocks, size * multiplicity, size *
        multiplicity)`` per group for the elements ``x`` ``(..., dim, dim)``;
        the left product with all of a group's adjoints at once."""
        out = []
        for _, _, _, adj in self.plan:
            h = (adj.reshape(-1, adj.shape[-1]) @ x).reshape(x.shape[:-2] + adj.shape)
            out.append(h @ adj.conj().swapaxes(-1, -2))
        return out

    def element_blocks(self, x: np.ndarray) -> list[np.ndarray]:
        """The blocks ``(..., blocks, size, size)`` per group of the elements
        ``x`` ``(..., dim, dim)`` of the algebra: ``iso* x iso = x_b (x) 1``,
        with ``x_b`` the average over the multiplicity.  Operator norms are
        ``block_norms`` of them."""
        return [
            _multiplicity_average(c, s, m)
            for (s, m, _, _), c in zip(self.plan, self._element_compressions(x))
        ]

    def compress(self, terms) -> list[np.ndarray]:
        """Block compressions of the functional with the terms ``(c, F)``, ``F``
        ``(..., dim, r)`` with any leading stack axes: ``sum c G G*`` with
        ``G = iso* F`` split into its multiplicity columns; one product per
        term and group."""
        out = [0.0] * len(self.plan)
        for c, f in terms:
            for i, g in enumerate(self._factor_blocks(f)):
                out[i] = out[i] + c * (g @ g.conj().swapaxes(-1, -2))
        return out

    def cross_compress(self, terms) -> list[np.ndarray]:
        """For terms ``(c, F)`` whose factors ``F`` ``(e, dim, r)`` are taken at
        the basis vectors ``e_e`` of a space, the forms
        ``Q[e, f] = sum c G_e G_f*`` ``(e, e, blocks, size, size)``: the
        functional whose factors are ``sum_e zeta_e F_e`` compresses to
        ``sum_ef zeta_e conj(zeta_f) Q[e, f]`` (``at_vectors``).  One product
        per term and group, the basis index and the block rows stacked."""
        out = [0.0] * len(self.plan)
        for c, f in terms:
            for i, g in enumerate(self._factor_blocks(f)):
                e, b, s = g.shape[:3]
                h = g.transpose(1, 0, 2, 3).reshape(b, e * s, -1)
                q = (h @ h.conj().swapaxes(-1, -2)).reshape(b, e, s, e, s).transpose(1, 3, 0, 2, 4)
                out[i] = out[i] + c * q
        return out


def at_vectors(forms: list[np.ndarray], zeta: np.ndarray) -> list[np.ndarray]:
    """The compressions ``sum_ef zeta_e conj(zeta_f) Q[e, f]`` of the forms of
    ``BlockDecomposition.cross_compress``, one per vector of the stack ``zeta``
    ``(draws, e)``: one product with the rank-one matrices ``zeta zeta*``.

    OpenBLAS takes a product with one row as a matrix-vector product and
    splits its sum over its threads, so for one vector the product is an
    ``einsum``, whose rounding does not follow the thread count."""
    zz = (zeta[:, :, None] * zeta.conj()[:, None, :]).reshape(len(zeta), -1)
    product = np.matmul if len(zeta) > 1 else lambda a, b: np.einsum("de,ef->df", a, b)
    return [product(zz, q.reshape(zz.shape[1], -1)).reshape((len(zeta),) + q.shape[2:]) for q in forms]


def trace_norms(compressions: list[np.ndarray]) -> np.ndarray:
    """Sum of the trace norms of the blocks, one per stacked functional.  A
    block of size 1 is ``|c|``; larger blocks share one SVD per group."""
    total = 0.0
    for c in compressions:
        if c.shape[-1] == 1:
            total = total + np.abs(c[..., 0, 0]).sum(-1)
        else:
            total = total + np.linalg.svd(c, compute_uv=False).sum((-2, -1))
    return total


def block_norms(blocks: list[np.ndarray]) -> np.ndarray:
    """Operator norm of each stacked element: the largest norm of its blocks."""
    norms = []
    for x in blocks:
        if x.shape[-1] == 1:
            norms.append(np.abs(x[..., 0, 0]))
        else:
            norms.append(np.linalg.svd(x, compute_uv=False)[..., 0])
    return np.concatenate(norms, axis=-1).max(-1)


class DecompositionError(RuntimeError):
    """Random draws failed to split the algebra; retried and gave up."""


def _center_basis(basis: np.ndarray) -> np.ndarray:
    """Basis of the center of the algebra spanned by the stack ``basis``, via
    the commutator kernel: the Gram matrix of the commutators summed over one
    basis element at a time, its ``k`` commutators one stacked product, so
    ``k n^2`` entries are live."""
    k = len(basis)
    gram = np.zeros((k, k), dtype=complex)
    for b in basis:
        comm = (basis @ b - b @ basis).reshape(k, -1)
        gram += comm.conj() @ comm.T
    w, v = np.linalg.eigh(gram)
    keep = w < 1e-9 * max(1.0, float(w[-1]))
    if not keep.any():
        raise DecompositionError("algebra has empty center (identity missing from span?)")
    return np.tensordot(v[:, keep].T, basis, 1)


def _cluster_eigenvalues(vals: np.ndarray, gap: float) -> list[np.ndarray]:
    order = np.argsort(vals)
    groups: list[list[int]] = [[int(order[0])]]
    for i in order[1:]:
        if vals[i] - vals[groups[-1][-1]] > gap:
            groups.append([])
        groups[-1].append(int(i))
    return [np.array(g) for g in groups]


def _random_hermitian(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    coeff = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    y = sum(c * b for c, b in zip(coeff, basis))
    return y + dagger(y)


def _split_block(
    comp: np.ndarray, rng: np.random.Generator, gap: float
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
# draws _split_center tries before it gives up
DECOMPOSE_TOL = 1e-8
DECOMPOSE_RETRIES = 5


def block_decompose(basis: list[np.ndarray], rng: np.random.Generator) -> BlockDecomposition:
    """Artin-Wedderburn decomposition of the *-algebra spanned by ``basis``,
    its center found as the commutator kernel (``_center_basis``) and split by
    ``_split_center``."""
    ortho = span_basis(basis)
    return _split_center(ortho, _center_basis(ortho), rng)


def _split_center(ortho: np.ndarray, center: np.ndarray, rng: np.random.Generator) -> BlockDecomposition:
    """Decomposition of the algebra of the orthonormal stack ``ortho`` whose
    center is spanned by the stack ``center``.

    A random self-adjoint central element splits ``H`` into the central
    subspaces; a random self-adjoint algebra element inside each block splits
    off the multiplicity.  Degenerate random draws are retried with fresh
    randomness up to ``DECOMPOSE_RETRIES`` times.
    """
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
                comp = dagger(p) @ ortho @ p
                size, mult, local = _split_block(comp, rng, 1e-6)
                blocks.append(Block(size=size, multiplicity=mult, isometry=p @ local))
            decomp = BlockDecomposition(blocks=blocks)
            _validate_decomposition(decomp, (ortho,), DECOMPOSE_TOL)
            return decomp
        except DecompositionError as exc:
            last_error = exc
    raise DecompositionError(f"block decomposition failed after {DECOMPOSE_RETRIES} draws: {last_error}")


def _multiplicity_average(c: np.ndarray, s: int, m: int) -> np.ndarray:
    """The blocks ``x`` ``(..., s, s)`` of compressions ``c`` ``(..., s * m,
    s * m)`` meant to be ``x (x) 1``: the average over the multiplicity."""
    return np.trace(c.reshape(c.shape[:-2] + (s, m, s, m)), axis1=-3, axis2=-1) / m


def _product_form(c: np.ndarray, s: int, m: int) -> tuple[np.ndarray, float]:
    """The blocks ``x`` of compressions ``c`` meant to be ``x (x) 1``
    (``_multiplicity_average``) and the largest entrywise distance of ``c``
    from ``x (x) 1``."""
    x = _multiplicity_average(c, s, m)
    c = c.reshape(c.shape[:-2] + (s, m, s, m))
    return x, float(np.abs(x[..., :, None, :, None] * np.eye(m)[:, None, :] - c).max())


def _validate_decomposition(decomp: BlockDecomposition, factors: tuple[np.ndarray, ...], tol: float) -> None:
    """Check that every block compresses the algebra of the factor stacks to
    ``x (x) 1`` with ``x`` ranging over all of ``M_size``; one pass per group
    of ``decomp.plan``: one stacked compression of the basis products, the
    product form checked on the stack, the rank from one batched SVD."""
    d = int(np.prod([f.shape[-1] for f in factors]))
    if decomp.total_dim != d:
        raise DecompositionError(f"block dimensions sum to {decomp.total_dim}, expected {d}")
    for s, m, idx, adj in decomp.plan:
        c = compress_basis(factors, adj.conj().swapaxes(-1, -2))
        x, err = _product_form(c, s, m)
        if err > tol:
            raise DecompositionError("compression is not of product form x (x) 1")
        rank = (np.linalg.svd(x.reshape(len(idx), -1, s * s), compute_uv=False) > 1e-8).sum(-1)
        if (rank != s ** 2).any():
            raise DecompositionError(f"compressed algebra has dimension {rank.min()}, expected {s ** 2}")


def _product_blocks(factor: BlockDecomposition) -> list[Block]:
    """The blocks of ``M (x) M`` from the decomposition of ``M``.

    Block ``(a, b)`` is ``M_{s_a} (x) M_{s_b} = M_{s_a s_b}`` with multiplicity
    ``m_a m_b`` and isometry ``iso_a (x) iso_b``, formed by broadcasting with
    its columns grouped so the matrix index ``(p_a, p_b)`` is slow and the
    multiplicity index ``(j_a, j_b)`` fast.  It compresses ``x_a (x) x_b`` to
    ``kron(x_a, x_b) (x) 1``; as ``x_a`` spans ``M_{s_a}``, these span
    ``M_{s_a s_b}``."""
    blocks = []
    for a in factor.blocks:
        ia = a.isometry.reshape(-1, a.size, a.multiplicity)
        for b in factor.blocks:
            ib = b.isometry.reshape(-1, b.size, b.multiplicity)
            s, m = a.size * b.size, a.multiplicity * b.multiplicity
            iso = ia[:, None, :, None, :, None] * ib[None, :, None, :, None, :]
            blocks.append(Block(s, m, iso.reshape(-1, s * m)))
    return blocks


def _check_product_blocks(
    decomp: BlockDecomposition, factors: tuple[np.ndarray, ...], rng: np.random.Generator
) -> None:
    """Compress one random element of the product algebra by every block,
    ``iso* Lam iso``, and raise ``DecompositionError`` unless each is of the
    form ``x (x) 1``: this checks the column grouping of the isometries."""
    k = len(factors[0]) * len(factors[1])
    lam = combine(factors, rng.standard_normal(k) + 1j * rng.standard_normal(k))
    for (s, m, _, _), c in zip(decomp.plan, decomp._element_compressions(lam)):
        if _product_form(c, s, m)[1] > DECOMPOSE_TOL:
            raise DecompositionError("compression is not of product form x (x) 1")


def predual_norm(omega: Functional, decomp: BlockDecomposition) -> float | np.ndarray:
    """Quotient trace norm of a functional restricted to the decomposed algebra:
    the sum of trace norms of the block compressions; one per functional of a
    stack."""
    norms = trace_norms(decomp.compress(omega.terms))
    return float(norms) if np.ndim(norms) == 0 else norms


def tensor_predual_norm(x: Functional, decomp: BlockDecomposition) -> float | np.ndarray:
    """Predual norm on the doubled algebra; same block formula on ``H (x) H``,
    one per functional of a stack."""
    norms = trace_norms(decomp.compress(x.terms))
    return float(norms) if np.ndim(norms) == 0 else norms


def algebra_decomposition(q: FiniteQuantumGroup) -> BlockDecomposition:
    """Block decomposition of ``M``, cached on the quantum group object.

    For the two constructions from a Cayley table it is read from the table:
    the function algebra is ``n`` blocks of size 1 at the ``e_s``, with no
    random draw; the center of the group algebra is spanned by its class sums
    ``sum_{s in C} lambda(s)``, split by ``_split_center`` with its fixed-seed
    draws.  Both are validated against ``q.ortho_basis``.  Other objects go
    through ``block_decompose``.
    """
    if "decomp" not in q._cache:
        rng = np.random.default_rng(q.dim + 1)
        if not is_table_construction(q):
            decomp = block_decompose(q.algebra_basis, rng)
        elif q.kind == KIND_FUNCTION:
            decomp = BlockDecomposition(blocks=[Block(1, 1, e[:, None]) for e in np.eye(q.dim, dtype=complex)])
            _validate_decomposition(decomp, (q.ortho_basis,), DECOMPOSE_TOL)
        else:
            decomp = _split_center(q.ortho_basis, _class_sums(q), rng)
        q._cache["decomp"] = decomp
    return q._cache["decomp"]


def _class_sums(q: FiniteQuantumGroup) -> np.ndarray:
    """Orthonormal stack of the class sums of the group algebra, one per
    conjugacy class of ``q.table``: the sums of its elements of
    ``q.ortho_basis`` (``lambda(s) / sqrt(n)``, indexed by ``s``) over the
    root of the class size."""
    classes = q.table.conjugacy_classes()
    weights = np.zeros((len(classes), q.dim))
    for k, cls in enumerate(classes):
        weights[k, list(cls)] = 1.0 / np.sqrt(len(cls))
    return np.tensordot(weights, q.ortho_basis, 1)


def tensor_algebra_decomposition(q: FiniteQuantumGroup) -> BlockDecomposition:
    """Block decomposition of ``M (x) M``, cached on the quantum group object.

    By Artin-Wedderburn the blocks of ``A (x) B`` are the products of the
    blocks of the factors (``_product_blocks``), so the decomposition is read
    off that of ``M``, with no random draw on ``M (x) M``.  One element of
    ``M (x) M`` from a fixed-seed generator checks the product form of every
    block (``_check_product_blocks``).
    """
    if "tensor_decomp" not in q._cache:
        decomp = BlockDecomposition(blocks=_product_blocks(algebra_decomposition(q)))
        _check_product_blocks(decomp, (q.ortho_basis, q.ortho_basis), np.random.default_rng(q.dim + 2))
        q._cache["tensor_decomp"] = decomp
    return q._cache["tensor_decomp"]
