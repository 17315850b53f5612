"""Finite quantum groups from Cayley tables: the multiplicative unitary, modular
conjugations, the dual construction, and the structural identity catalog.

Conventions (all enforced by the identity suite rather than argued abstractly):

* For the function algebra of a finite group ``G`` on ``H = C^n`` the left
  multiplicative unitary acts on basis vectors by
  ``W (e_a (x) e_b) = e_a (x) e_{a.b}``, equivalently the comultiplication
  ``G(x) = W* (1 (x) x) W`` sends a diagonal function ``f`` to
  ``f(s t)``.
* ``W`` and the unitary parts of ``J`` and ``Jhat`` are permutations, held
  only as their integer index maps ``w``, ``j`` and ``jhat``
  (``U e_k = e_{m[k]}``); a quantum group whose maps are not permutations of
  the right length is rejected with ``ValueError`` naming the field.
  ``derived_unitaries`` holds each unitary built from them as its index map,
  and every unitary is applied by a gather: ``U v = v[inverse(m)]``,
  ``U* v = v[m]`` and ``U* Lam U = Lam[m][:, m]``.  Identities between
  unitaries compare composed index maps, and the comultiplication and
  coassociativity are gathers at them.  The dense ``W`` is formed only for
  the ``W_in_doubled_algebra`` record.
* ``J`` is entrywise conjugation, ``Jhat v (s) = conj(v(s^-1))``.
* The dual object lives on the same Hilbert space with
  ``What = Sigma W* Sigma`` and the modular conjugations swapped.
* Every quantum group is one of the two constructions from a Cayley table:
  the function algebra (``function_algebra``) or its dual, the group algebra.
* An algebra is its orthonormal basis stack; a product algebra is the pair of
  its factor stacks: ``(M, M)`` for ``M (x) M``, ``(M, Mhat)`` for ``W``'s algebra.
  Both stacks are written from the table (``_table_bases``): the diagonal
  units ``e_s e_s*`` and ``lambda(s) / sqrt(n)``, ``lambda(s) e_b = e_{sb}``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .groups import GroupTable
from .tensorlin import max_tensor_entries, operator_norm, projection_residual

__all__ = [
    "FiniteQuantumGroup",
    "DerivedUnitaries",
    "function_algebra",
    "dual",
    "comultiply",
    "coassociativity_residual",
    "derived_unitaries",
    "structure_identity_residuals",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-10

KIND_FUNCTION = "function_algebra"
KIND_DUAL = "dual_of_function_algebra"


@dataclass(frozen=True, eq=False)
class FiniteQuantumGroup:
    """A finite quantum group built from the Cayley table ``table``, realized
    on ``H = C^n`` for ``n = table.order``.

    ``kind`` is ``KIND_FUNCTION`` for the function algebra of the table or
    ``KIND_DUAL`` for its dual, the group algebra; any other kind is rejected
    with ``ValueError``.  The algebra ``M`` is written from the table
    (``ortho_basis``).  The Haar weight of both constructions is the
    (unnormalized) trace, so the scaling constant is 1 and only the two
    modular conjugations are kept.  The invariant vectors are known in closed
    form from ``kind`` (see ``diagonals.exact_nets``), so none is stored.

    ``w``, ``j`` and ``jhat`` are the index maps (``U e_k = e_{m[k]}``) of the
    multiplicative unitary and of the unitary parts of the two modular
    conjugations, which are entrywise conjugation followed by ``U``.

    Two quantum groups compare equal only when they are the same object, and
    hash by identity, so an object can key a dict or sit in a set.
    """

    table: GroupTable
    kind: str
    w: np.ndarray
    j: np.ndarray
    jhat: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in (KIND_FUNCTION, KIND_DUAL):
            raise ValueError(f"{self.table.name}: unknown construction kind {self.kind!r}")
        for name, size in (("w", self.dim ** 2), ("j", self.dim), ("jhat", self.dim)):
            m = getattr(self, name)
            what = f"{self.name} ({self.kind}): {name}"
            if not (isinstance(m, np.ndarray) and np.issubdtype(m.dtype, np.integer) and m.shape == (size,)):
                raise ValueError(
                    f"{what} must be an integer index map of shape ({size},), "
                    f"got {np.asarray(m).dtype} of shape {np.shape(m)}"
                )
            # size entries cover range(size) exactly when they are a permutation
            if not np.bincount(m[(m >= 0) & (m < size)], minlength=size).all():
                raise ValueError(f"{what} is not a permutation of range({size})")

    @property
    def dim(self) -> int:
        return self.table.order

    @property
    def name(self) -> str:
        return self.table.name + ("^" if self.kind == KIND_DUAL else "")

    @property
    def ortho_basis(self) -> np.ndarray:
        """Orthonormal (Hilbert-Schmidt) basis of ``M`` as a stack, written
        from the Cayley table (``_table_bases``) and cached."""
        if "ortho_basis" not in self._cache:
            self._cache["ortho_basis"] = _table_bases(self)[0]
        return self._cache["ortho_basis"]


class DerivedUnitaries(NamedTuple):
    """Index maps ``m`` with ``U e_j = e_{m[j]}``.  For ``name`` in ``w``,
    ``wprime`` and ``wprime_op``, ``three[name]`` and ``three[name + "*"]`` hold
    the maps of that unitary and of its adjoint on legs ``(1, 2)``, ``(1, 3)``
    and ``(2, 3)`` of three."""

    wprime: np.ndarray       # commutant unitary (J (x) J) W (J (x) J)
    wop: np.ndarray          # opposite unitary (Jh (x) Jh) W (Jh (x) Jh)
    wprime_op: np.ndarray    # opposite of the commutant (K (x) K) W (K (x) K), K = J Jhat
    three: dict[str, dict[tuple[int, int], np.ndarray]]


def function_algebra(table: GroupTable) -> FiniteQuantumGroup:
    """Function algebra of a finite group: diagonal ``M`` with the classical
    comultiplication implemented by a permutation multiplicative unitary,
    ``W (e_a (x) e_b) = e_a (x) e_{ab}``, ``J = 1`` and ``Jhat: s -> s^-1``."""
    n = table.order
    a, b = np.indices((n, n)).reshape(2, -1)
    q = FiniteQuantumGroup(
        table=table,
        kind=KIND_FUNCTION,
        w=a * n + np.array(table.table)[a, b],
        j=np.arange(n),
        jhat=np.array(table.inverses),
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
    """The dual quantum group on the same Hilbert space: the other
    construction from ``q.table``.

    ``What = Sigma W* Sigma``, the map ``chain(flip, inverse(w), flip)``; the
    dual algebra, spanned by the first-leg slices of ``W``, is written from
    the table (``_table_bases``), and the dual's ``W_in_doubled_algebra``
    record compares it with ``What``; the two modular conjugations swap.

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
    flip = flip_index(q.dim)
    qd = FiniteQuantumGroup(
        table=q.table,
        kind=KIND_DUAL if q.kind == KIND_FUNCTION else KIND_FUNCTION,
        w=chain(flip, inverse(q.w), flip),
        j=q.jhat,
        jhat=q.j,
    )
    _check_construction(qd)
    qd._cache["dual"] = weakref.ref(q)
    q._cache["dual"] = qd
    return qd


def comultiply(q: FiniteQuantumGroup, x: np.ndarray) -> np.ndarray:
    """The comultiplication ``G(x) = W* (1 (x) x) W`` on ``H (x) H``, gathered at
    the index map of ``W``."""
    return np.kron(np.eye(q.dim), x)[np.ix_(q.w, q.w)]


def coassociativity_residual(q: FiniteQuantumGroup, x: np.ndarray) -> float:
    """Operator norm of ``(G (x) id)G(x) - (id (x) G)G(x)`` on the three legs.

    With ``x3 = 1 (x) 1 (x) x`` the two sides are ``x3[a][:, a]`` and
    ``x3[b][:, b]`` for the maps ``a = W_23 W_12`` and
    ``b = W_23 Sigma_12 W_23``.  They agree exactly when ``x3[d p, d q]`` equals
    ``x3[p, q]`` for ``d = b a*``.  As ``d`` is a bijection, it suffices to
    compare the ``n^4`` pairs ``(p, q)`` that share legs 1 and 2, which hold
    the support of ``x3``; the ``n^3 x n^3`` sides are formed only when they
    differ.
    """
    n = q.dim
    w3 = derived_unitaries(q).three["w"]
    m12, m23 = w3[1, 2], w3[2, 3]
    a = chain(m23, m12)
    b = chain(m23, leg_map(flip_index(n), (1, 2), (n, n, n)), m23)
    # d p for p = (legs 1 and 2, leg 3), split into those two parts
    legs12, leg3 = np.divmod(chain(b, inverse(a)).reshape(n * n, n), n)
    moved = np.where(legs12[:, :, None] == legs12[:, None, :], x[leg3[:, :, None], leg3[:, None, :]], 0)
    if np.array_equal(moved, np.broadcast_to(x, moved.shape)):
        return 0.0
    x3 = np.kron(np.eye(n * n), x)
    return operator_norm(x3[np.ix_(a, a)] - x3[np.ix_(b, b)])


def derived_unitaries(q: FiniteQuantumGroup) -> DerivedUnitaries:
    """The index maps of the commutant and opposite unitaries, and of ``W``,
    ``W'`` and ``W'^op`` on pairs of three legs, composed once and cached.

    For a real permutation ``U``, conjugating by the antilinear ``U conj`` on
    both sides is the permutation ``U A U``, so each derived map is a chain.
    """
    if "derived" not in q._cache:
        n, w = q.dim, q.w
        jj, jhjh, kk = (tensor_map(m, m) for m in (q.j, q.jhat, chain(q.j, q.jhat)))
        wprime, wprime_op = chain(jj, w, jj), chain(kk, w, kk)
        three = {}
        for name, u in (("w", w), ("wprime", wprime), ("wprime_op", wprime_op)):
            for key, m in ((name, u), (name + "*", inverse(u))):
                three[key] = _three_leg_maps(m, n)
        q._cache["derived"] = DerivedUnitaries(
            wprime=wprime, wop=chain(jhjh, w, jhjh), wprime_op=wprime_op, three=three
        )
    return q._cache["derived"]


def _three_leg_maps(m: np.ndarray, n: int) -> dict[tuple[int, int], np.ndarray]:
    """The index maps of the permutation ``m`` of ``C^n (x) C^n`` on legs
    ``(1, 2)``, ``(1, 3)`` and ``(2, 3)`` of three, by integer broadcasting:
    the maps ``leg_map`` gives.  On legs ``(1, 3)``, ``m`` sends ``(a, c)`` to
    ``divmod(m[a n + c], n)``, and leg 2 keeps its place ``b n``."""
    i = np.arange(n)
    hi, lo = np.divmod(m.reshape(n, n), n)
    return {
        (1, 2): (m[:, None] * n + i).reshape(-1),
        (1, 3): (hi[:, None, :] * (n * n) + i[:, None] * n + lo[:, None, :]).reshape(-1),
        (2, 3): (i[:, None] * (n * n) + m).reshape(-1),
    }


def tensor_map(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Index map of ``A (x) B`` for the permutations ``a`` and ``b``."""
    return (a[:, None] * len(b) + b[None, :]).reshape(-1)


def flip_index(n: int) -> np.ndarray:
    """Index map of the flip ``Sigma`` on ``C^n (x) C^n``, its own inverse."""
    return np.arange(n * n).reshape(n, n).T.reshape(-1)


def leg_map(p: np.ndarray, legs: tuple[int, ...], dims: tuple[int, ...]) -> np.ndarray:
    """Index map of the permutation ``p`` acting on ``legs`` (numbered from 1) of
    the basis of ``prod(dims)``, identity on the other legs."""
    sel = [leg - 1 for leg in legs]
    sub = tuple(dims[i] for i in sel)
    idx = np.indices(dims).reshape(len(dims), -1)
    idx[sel] = np.unravel_index(p[np.ravel_multi_index(tuple(idx[sel]), sub)], sub)
    return np.ravel_multi_index(tuple(idx), dims)


def chain(*maps: np.ndarray) -> np.ndarray:
    """Index map of the operator product of the permutations, the last acting
    first: ``chain(a, b)[i] = a[b[i]]``."""
    out = maps[-1]
    for m in maps[-2::-1]:
        out = m[out]
    return out


def inverse(m: np.ndarray) -> np.ndarray:
    """Index map of the adjoint (the inverse) of a permutation."""
    return np.argsort(m)


def map_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Operator norm of the difference of two permutations given as index maps:
    exactly 0.0 when the maps agree, and the matrices are formed only when
    they differ."""
    if np.array_equal(lhs, rhs):
        return 0.0
    return operator_norm(_matrix(lhs) - _matrix(rhs))


def _matrix(m: np.ndarray) -> np.ndarray:
    """The dense permutation matrix of the index map ``m``: column ``k`` is
    ``e_{m[k]}``."""
    return np.eye(len(m))[:, m]


def _pentagonal_residual(q: FiniteQuantumGroup) -> float:
    """Operator norm of ``W_12 W_13 W_23 - W_23 W_12``, composed as index maps."""
    w3 = derived_unitaries(q).three["w"]
    m12, m13, m23 = w3[1, 2], w3[1, 3], w3[2, 3]
    return map_residual(chain(m12, m13, m23), chain(m23, m12))


def structure_identity_residuals(q: FiniteQuantumGroup) -> dict[str, float]:
    """Residuals of the structural relation catalog, all operator norms.

    The relations between unitaries compare composed index maps.  The
    ``*_from_table`` records compare the maps ``w``, ``j`` and ``jhat`` that
    ``q`` holds (written by ``function_algebra``, composed by ``dual``) with
    the maps written here from the Cayley table, so an edited map moves only
    the first side.  The membership of ``W`` in ``M (x) Mhat`` is included as
    a recorded check; it is the one record that forms the dense ``W``, and
    both factor stacks are written from the table, so it too compares ``w``
    with a second route.
    """
    if "structure_residuals" in q._cache:
        return q._cache["structure_residuals"]
    n, w, j, jhat = q.dim, q.w, q.j, q.jhat
    der = derived_unitaries(q)
    flip = flip_index(n)
    jhat_j = tensor_map(jhat, j)
    jhjh = tensor_map(jhat, jhat)
    what = chain(flip, inverse(w), flip)
    # right unitary V, equal to the commutant unitary of the dual
    v = chain(jhjh, what, jhjh)
    out: dict[str, float] = {}
    out["conjugate_relation"] = map_residual(inverse(w), chain(jhat_j, w, jhat_j))
    # with scaling constant 1 the modular phase is 1: the conjugations commute
    out["modular_commutation"] = map_residual(chain(jhat, j), chain(j, jhat))
    out["opposite_from_right"] = map_residual(der.wop, chain(flip, inverse(v), flip))
    if n ** 3 <= max_tensor_entries():
        out["pentagonal"] = _pentagonal_residual(q)
    for label, m, got in zip(("W", "J", "Jhat"), _table_maps(q), (w, j, jhat)):
        out[f"{label}_from_table"] = map_residual(m, got)
    # W sits in M (x) Mhat, both written from the table
    out["W_in_doubled_algebra"] = projection_residual(_table_bases(q), _matrix(w))
    q._cache["structure_residuals"] = out
    return out


def _table_bases(q: FiniteQuantumGroup) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal stacks of ``M`` and ``Mhat`` written from the Cayley table,
    apart from the maps ``q`` holds: on the function algebra the diagonal
    units ``e_s e_s*`` and ``lambda(s) / sqrt(n)`` with ``lambda(s) e_b =
    e_{sb}``, each indexed by ``s``; on the group algebra the same two
    swapped."""
    n = q.dim
    i = np.arange(n)
    units = np.zeros((n, n, n), dtype=complex)
    units[i, i, i] = 1.0
    lam = np.zeros((n, n, n), dtype=complex)
    lam[i[:, None], np.array(q.table.table), i] = 1.0 / np.sqrt(n)
    return (units, lam) if q.kind == KIND_FUNCTION else (lam, units)


def _table_maps(q: FiniteQuantumGroup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index maps of ``W``, ``J`` and ``Jhat`` written here from the Cayley
    table, apart from the maps ``q`` holds: on the function algebra
    ``W: (a, b) -> (a, ab)``, ``J = 1`` and ``Jhat: s -> s^-1``; on the group
    algebra ``W: (b, a) -> (a^-1 b, a)``, ``J: s -> s^-1`` and ``Jhat = 1``."""
    n = q.dim
    prod = np.array(q.table.table)
    inv = np.array(q.table.inverses)
    ident = np.arange(n)
    first, second = np.indices((n, n)).reshape(2, -1)
    if q.kind == KIND_FUNCTION:
        return first * n + prod[first, second], ident, inv
    return prod[inv[second], first] * n + second, inv, ident
