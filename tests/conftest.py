import json
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import pytest

from qglab import suites
from qglab.diagonals import (
    _commutator_forms,
    build_diagonal,
    commutant_compression,
    compression_kraus_factor,
    compression_variant_residuals,
    diagonal_residuals,
    exact_nets,
)
from qglab.dualside import _quasicentral_forms, build_approximate_identity, dual_context
from qglab.funalg import (
    Functional,
    algebra_decomposition,
    at_vectors,
    block_norms,
    convolve,
    module_action_left,
    module_action_right,
    predual_norm,
    tensor_algebra_decomposition,
    vector_state,
)
from qglab.groups import builtin_table, parse_cayley
from qglab.qgcore import chain, derived_unitaries, dual, function_algebra, inverse
from qglab.tensorlin import (
    apply_leg,
    coordinates,
    dagger,
    inner,
    operator_norm,
    project,
    projection_residual,
    random_unit_vector,
    span_basis,
    trace_norm,
)

SMALL_GROUPS = ("Z1", "Z2", "Z3", "Z4", "S3")
ALL_GROUPS = ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "S3", "D4", "Q8")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


_q_cache = {}


def get_group(name, side="fn"):
    """Construction cache shared across tests; objects are immutable.  The
    dual side is the memoised dual of the cached function algebra."""
    if side != "fn":
        return dual(get_group(name))
    if name not in _q_cache:
        _q_cache[name] = function_algebra(builtin_table(name))
    return _q_cache[name]


def swapped_columns(q, j=1, k=2):
    """``q`` with columns ``j`` and ``k`` of ``W`` swapped (entries ``j`` and ``k``
    of its index map), built directly so that no construction check rejects it."""
    w = q.w.copy()
    w[[j, k]] = w[[k, j]]
    return replace(q, w=w, _cache={})


def perm_matrix(m):
    """Oracle: the dense matrix of the permutation with index map ``m``, column
    ``k`` equal to ``e_{m[k]}``.  Every dense ``W``, ``J`` and ``Jhat`` of the
    tests is built from ``q``'s maps here."""
    return np.eye(len(m))[:, m]


@dataclass(frozen=True)
class AntilinearOp:
    """Oracle type: the antilinear operator ``v -> u @ conj(v)``, ``u`` unitary."""

    u: np.ndarray


def antilinear(m):
    """The antilinear operator whose unitary part has the index map ``m``, such
    as ``antilinear(q.j)`` for ``J``."""
    return AntilinearOp(perm_matrix(m))


def flip_matrix(dim_a, dim_b):
    """Oracle: the unitary ``v (x) w -> w (x) v`` on ``C^a (x) C^b``."""
    d = dim_a * dim_b
    out = np.zeros((d, d))
    a = np.arange(dim_a).repeat(dim_b)
    b = np.tile(np.arange(dim_b), dim_a)
    out[b * dim_a + a, a * dim_b + b] = 1.0
    return out


def left_fixed_vector(w, dim):
    """Oracle: the unit vector ``v`` with ``w (v (x) z) = v (x) z`` for every
    ``z``, from an SVD of the stacked maps ``v -> (w - 1)(v (x) e_j)``, with
    its largest entry made real and positive."""
    w4 = (w - np.eye(dim * dim)).reshape(dim, dim, dim, dim)
    mat = w4.transpose(0, 1, 3, 2).reshape(dim * dim * dim, dim)
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    null_dim = int((s < 1e-10 * max(1.0, s[0])).sum())
    if null_dim != 1:
        raise ValueError(f"left-fixed subspace has dimension {null_dim}, expected 1")
    v = vh[-1].conj()
    k = int(np.argmax(np.abs(v)))
    return v * (np.abs(v[k]) / v[k])


def unitarity_residual(a):
    """Oracle: ``||a* a - 1||``."""
    return operator_norm(dagger(a) @ a - np.eye(a.shape[0]))


# Antilinear operators ``v -> u @ conj(v)`` as dense matrices: the routes the
# index maps of ``derived_unitaries`` replace.

def antilinear_apply(j, v):
    return j.u @ v.conj()


def antilinear_conjugate(j, a):
    """The linear operator ``J a J`` (same antilinear ``J`` on both sides)."""
    return j.u @ a.conj() @ j.u.conj()


def antilinear_compose(j, k):
    """Matrix of the linear operator ``j o k``."""
    return j.u @ k.u.conj()


def antilinear_tensor(*ops):
    u = ops[0].u
    for op in ops[1:]:
        u = np.kron(u, op.u)
    return AntilinearOp(u)


class DenseUnitaries(NamedTuple):
    wprime: np.ndarray       # commutant unitary (J (x) J) W (J (x) J)
    wop: np.ndarray          # opposite unitary (Jh (x) Jh) W (Jh (x) Jh)
    what: np.ndarray         # dual unitary Sigma W* Sigma
    v: np.ndarray            # right unitary
    vhat: np.ndarray         # dual right unitary (equals wprime)
    wprime_op: np.ndarray    # opposite of the commutant (K (x) K) W (K (x) K), K = J Jhat


def dense_derived_unitaries(q):
    """Oracle: the derived unitaries as dense ``n^2 x n^2`` matrices, from the
    matrices of ``W``, ``J`` and ``Jhat``."""
    n = q.dim
    f = flip_matrix(n, n)
    w, j, jhat = perm_matrix(q.w), antilinear(q.j), antilinear(q.jhat)
    jj = antilinear_tensor(j, j)
    jhjh = antilinear_tensor(jhat, jhat)
    what = f @ dagger(w) @ f
    k = antilinear_compose(j, jhat)  # the linear involution J Jhat
    kk = np.kron(k, k)
    return DenseUnitaries(
        wprime=antilinear_conjugate(jj, w),
        wop=antilinear_conjugate(jhjh, w),
        what=what,
        v=antilinear_conjugate(jhjh, what),
        vhat=antilinear_conjugate(jj, w),
        wprime_op=kk @ w @ kk,
    )


def dense_projection_residual(ortho_basis, x):
    """Oracle: relative distance from ``x`` to the span of an orthonormal list
    of matrices, projecting one basis element at a time."""
    vec = x.reshape(-1).astype(complex)
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        return 0.0
    proj = np.zeros_like(vec)
    for b in ortho_basis:
        bvec = b.reshape(-1)
        proj += np.vdot(bvec, vec) * bvec
    return float(np.linalg.norm(vec - proj) / nrm)


def membership_residual(basis, x):
    """Oracle: normalized least-squares distance from ``x`` to the span of ``basis``."""
    return dense_projection_residual(span_basis(basis), x)


def svd_slice_span(q):
    """Oracle: the SVD route to the slice span of ``W``, an orthonormal basis
    of the span of the first-leg slices ``<W (e_a (x) e_l), e_c (x) e_k>`` of
    the dense ``W`` built from ``q.w``."""
    n = q.dim
    slices = perm_matrix(q.w).reshape(n, n, n, n).transpose(2, 0, 1, 3)
    return span_basis(slices.reshape(n * n, n, n))


def permutation_group(name, generators):
    """Cayley table, in qglab's JSON form, of the group the permutations
    generate (a copy of ``perfbench/run.py``'s).

    Elements are listed in breadth-first order from the identity, so the
    identity is at index 0; ``table[i][j]`` is the index of ``p_i o p_j``.
    """
    identity = tuple(range(len(generators[0])))
    elems, index = [identity], {identity: 0}
    for p in elems:  # elems grows while it is walked
        for g in generators:
            h = tuple(g[k] for k in p)
            if h not in index:
                index[h] = len(elems)
                elems.append(h)
    table = [[index[tuple(a[k] for k in b)] for b in elems] for a in elems]
    return {"name": name, "order": len(elems), "table": table}


# generators of the groups built from permutations in the tests; D6 from the
# 6-cycle and the reflection i -> -i
GENERATED = {
    "A4": [(1, 2, 0, 3), (1, 0, 3, 2)],
    "D6": [(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)],
}


def generated_table(name):
    """The ``GroupTable`` of one of the ``GENERATED`` groups."""
    return parse_cayley(json.dumps(permutation_group(name, GENERATED[name])))


def tensor_ortho_basis(q):
    """Oracle: the orthonormal basis of ``M (x) M`` as the dense list of its
    ``n^2`` Kronecker products, first factor's index slow."""
    return [np.kron(a, b) for a in q.ortho_basis for b in q.ortho_basis]


def random_doubled(q, rng, norm_one=True):
    """Dense random element of ``M (x) M``: one complex Gaussian coefficient per
    Kronecker product, summed in list order."""
    basis = tensor_ortho_basis(q)
    c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    lam = sum(ci * b for ci, b in zip(c, basis))
    return lam / operator_norm(lam) if norm_one else lam


def random_algebra(q, rng):
    """Dense random norm-one element of ``M``."""
    c = rng.standard_normal(len(q.ortho_basis)) + 1j * rng.standard_normal(len(q.ortho_basis))
    x = sum(ci * b for ci, b in zip(c, q.ortho_basis))
    return x / operator_norm(x)


def oracle_draws(q, rng, count):
    """``count`` draws of ``(xi, eta, zeta, x)`` for the slice-convention
    oracle, one at a time (three unit vectors, then a norm-one element of
    ``M``), as four stacks."""
    n = q.dim
    one = [
        (random_unit_vector(rng, n), random_unit_vector(rng, n), random_unit_vector(rng, n), random_algebra(q, rng))
        for _ in range(count)
    ]
    return tuple(np.stack(a) for a in zip(*one))


def dense(omega):
    """Oracle: the pairing matrix ``rho = sum c F F*`` of a functional, so that
    ``omega(x) = Tr(rho x)``."""
    return sum(c * (f @ dagger(f)) for c, f in omega.terms)


def functional_from_matrix(rho):
    """The functional ``x -> Tr(rho x)`` of an arbitrary square matrix, one term
    per eigenvector of its Hermitian part ``h`` and of ``k`` in ``rho = h + i k``."""
    terms = []
    for scale, part in ((1.0, (rho + dagger(rho)) / 2), (1j, (rho - dagger(rho)) / 2j)):
        w, v = np.linalg.eigh(part)
        terms += [(scale * w[j], v[:, [j]]) for j in range(len(w))]
    return Functional(tuple(terms))


# The dense pairing-matrix route: every functional as its n^k x n^k matrix,
# conjugated by W on the full space and traced with np.trace.

def dense_partial_trace(rho, dims, leg):
    """Oracle: trace out one leg (1-based) of a matrix on ``prod(dims)``."""
    nlegs = len(dims)
    t = rho.reshape(tuple(dims) + tuple(dims))
    out = np.trace(t, axis1=leg - 1, axis2=leg - 1 + nlegs)
    kept = int(np.prod(dims)) // dims[leg - 1]
    return out.reshape(kept, kept)


def _conjugate(u, rho):
    return u @ rho @ dagger(u)


def dense_convolve(q, rho_a, rho_b):
    return dense_partial_trace(_conjugate(perm_matrix(q.w), np.kron(rho_a, rho_b)), (q.dim, q.dim), 1)


def dense_product_map(q, rho):
    return dense_partial_trace(_conjugate(perm_matrix(q.w), rho), (q.dim, q.dim), 1)


def dense_module_action_left(q, rho_a, rho_x):
    w12 = np.kron(perm_matrix(q.w), np.eye(q.dim))
    return dense_partial_trace(_conjugate(w12, np.kron(rho_a, rho_x)), (q.dim,) * 3, 1)


def dense_module_action_right(q, rho_x, rho_a):
    w23 = np.kron(np.eye(q.dim), perm_matrix(q.w))
    return dense_partial_trace(_conjugate(w23, np.kron(rho_x, rho_a)), (q.dim,) * 3, 2)


def dense_second_leg(v, n):
    """Pairing matrix of ``x -> <(1 (x) x) v, v>``."""
    return np.einsum("abad->bd", np.outer(v, v.conj()).reshape(n, n, n, n))


def dense_predual_norm(rho, decomp):
    """Sum over blocks of the trace norm of ``iso* rho iso`` with the
    multiplicity traced out."""
    total = 0.0
    for b in decomp.blocks:
        c = (dagger(b.isometry) @ rho @ b.isometry).reshape(b.size, b.multiplicity, b.size, b.multiplicity)
        total += trace_norm(np.einsum("pjqj->pq", c))
    return total


def block_compress(block, omega):
    """Oracle: the compression of a functional to one block factor,
    ``sum c G G*`` with ``G = iso* F`` and the multiplicity index moved into
    the columns, one block at a time."""
    gs = [(c, (dagger(block.isometry) @ f).reshape(block.size, -1)) for c, f in omega.terms]
    return sum(c * (g @ dagger(g)) for c, g in gs)


def norming_element(rho, decomp):
    """Oracle: the norm-one element ``lam`` of the algebra with
    ``Tr(rho lam) = dense_predual_norm(rho, decomp)``: in each block the
    unitary ``B A*`` of the SVD ``A S B*`` of ``iso* rho iso`` with the
    multiplicity traced out, acting as ``1`` on the multiplicity."""
    lam = 0
    for b in decomp.blocks:
        c = (dagger(b.isometry) @ rho @ b.isometry).reshape(b.size, b.multiplicity, b.size, b.multiplicity)
        a, _, bh = np.linalg.svd(np.einsum("pjqj->pq", c))
        u = np.kron(dagger(bh) @ dagger(a), np.eye(b.multiplicity))
        lam = lam + b.isometry @ u @ dagger(b.isometry)
    return lam


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
    """Oracle: randomized lower estimate of ``sup { |Tr(rho x)| : x in M, ||x|| <= 1 }``.

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


# The dense structure residuals: two-leg operators applied to the identity on
# all three legs, n^3 x n^3.

def dense_pentagonal_residual(q):
    """Oracle: ``||W_12 W_13 W_23 - W_23 W_12||`` from the dense matrices."""
    n, w = q.dim, perm_matrix(q.w)
    dims = (n, n, n)
    basis = np.eye(n ** 3)
    lhs = apply_leg(w, (1, 2), apply_leg(w, (1, 3), apply_leg(w, (2, 3), basis, dims), dims), dims)
    rhs = apply_leg(w, (2, 3), apply_leg(w, (1, 2), basis, dims), dims)
    return operator_norm(lhs - rhs)


def dense_coassociativity_residual(q, x):
    """Oracle: ``||(G (x) id)G(x) - (id (x) G)G(x)||`` from the dense matrices."""
    n, w = q.dim, perm_matrix(q.w)
    gx = dagger(w) @ np.kron(np.eye(n), x) @ w
    dims = (n, n, n)
    basis = np.eye(n ** 3)
    lhs = apply_leg(dagger(w), (1, 2), apply_leg(gx, (2, 3), apply_leg(w, (1, 2), basis, dims), dims), dims)
    rhs = apply_leg(dagger(w), (2, 3), apply_leg(gx, (1, 3), apply_leg(w, (2, 3), basis, dims), dims), dims)
    return operator_norm(lhs - rhs)


# The dense exchange residuals of Lemmas 3.2, 4.2 and 4.3: two-leg unitaries
# applied with apply_leg to random three-leg vectors, each residual the max of
# ||(A - B) v|| over the draws.

def modular_sandwich(q, v):
    """``(Jhat (x) Jhat (x) J) v`` one leg at a time: the three antilinear
    factors share one complex conjugation, after which each unitary part acts
    on its own leg."""
    dims = (q.dim,) * 3
    u_j, u_jhat = perm_matrix(q.j), perm_matrix(q.jhat)
    out = apply_leg(u_j, (3,), v.conj(), dims)
    out = apply_leg(u_jhat, (2,), out, dims)
    return apply_leg(u_jhat, (1,), out, dims)


def dense_pentagonal_consequence_residuals(q, rng, draws):
    n = q.dim
    dims = (n, n, n)
    w, wp = perm_matrix(q.w), dense_derived_unitaries(q).wprime
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
        inner_vec = apply_leg(w, (1, 3), apply_leg(w, (2, 3), modular_sandwich(q, v), dims), dims)
        rhs = modular_sandwich(q, inner_vec)
        r3 = max(r3, float(np.linalg.norm(lhs - rhs)))
    return r1, r2, r3


def dense_quasicentral_exchange_residual(q, rng, draws):
    n = q.dim
    dims = (n, n, n)
    der = dense_derived_unitaries(q)
    wp, wpo, w = der.wprime, der.wprime_op, perm_matrix(q.w)
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


def dense_identity_shift_exchange_residual(q, rng, draws):
    n = q.dim
    dims = (n, n, n)
    der = dense_derived_unitaries(q)
    w, wp, wpo = perm_matrix(q.w), der.wprime, der.wprime_op
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

        ab = apply_leg(w, (1, 3), apply_leg(dagger(wpo), (1, 2), v, dims), dims)
        ba = apply_leg(dagger(wpo), (1, 2), apply_leg(w, (1, 3), v, dims), dims)
        comm = max(comm, float(np.linalg.norm(ab - ba)))
    return main, comm


def dense_commutant_opposite_consistency(q):
    """``||W'^op - ((1 (x) Jhat J) W' (1 (x) J Jhat))*||`` from the dense matrices."""
    n = q.dim
    der = dense_derived_unitaries(q)
    j, jhat = antilinear(q.j), antilinear(q.jhat)
    one_k = np.kron(np.eye(n), antilinear_compose(jhat, j))
    one_k_inv = np.kron(np.eye(n), antilinear_compose(j, jhat))
    return operator_norm(der.wprime_op - dagger(one_k @ der.wprime @ one_k_inv))


# The per-draw certifiers: one draw at a time, each functional as its dense
# pairing matrix and its norm through dense_predual_norm.

def dense_commutator_certificate(q, zeta, xi, eta):
    """Oracle of ``certify_commutator_bound`` at one draw: the predual norm of
    the commutator functional from its dense pairing matrix."""
    v = np.kron(zeta, xi.vector)
    eps1 = float(np.linalg.norm(v[inverse(q.w)] - v))
    wz, we = vector_state(zeta), vector_state(eta.vector)
    comm = convolve(q, wz, we) - convolve(q, we, wz)
    eps2 = dense_predual_norm(dense(comm), algebra_decomposition(q))
    eps = max(eps1, eps2)
    return {
        "eps_invariance": eps1,
        "eps_commutation": eps2,
        "eps": eps,
        "lhs": dense_predual_norm(dense(commutator_functional(q, zeta, xi, eta)), tensor_algebra_decomposition(q)),
        "bound": 3.0 * eps,
    }


def commutator_functional(q, zeta, xi, eta):
    """``omega_zeta . x - x . omega_zeta`` for the diagonal ``x`` of ``(xi, eta)``."""
    wz, x = vector_state(zeta), build_diagonal(q, xi, eta).bifunctional
    return module_action_left(q, wz, x) - module_action_right(q, x, wz)


def identity_functional(q, u, zeta):
    """``u * omega_zeta - omega_zeta``."""
    wz = vector_state(zeta)
    return convolve(q, u.functional, wz) - wz


def dense_identity_certificate(q, u, zeta):
    """Oracle of ``certify_identity_bound`` at one draw."""
    der = derived_unitaries(q)
    pair = np.kron(u.xi.vector, zeta)
    t1 = float(np.linalg.norm(pair[der.wprime][inverse(q.w)] - pair))
    triple = np.kron(np.kron(u.xi.vector, u.eta.vector), zeta)
    base = triple[der.three["wprime"][1, 3]]
    t2 = float(np.linalg.norm(base[der.three["w*"][2, 3]] - base))
    lhs = dense_predual_norm(dense(identity_functional(q, u, zeta)), algebra_decomposition(q))
    return {"lhs": lhs, "term_pair": t1, "term_triple": t2, "bound": 2.0 * (t1 + t2)}


def quasicentral_matrices(q, u, zeta):
    """The pairing matrices of the two routes to the quasi-central functional
    ``Lam -> (omega_zeta (x) u)(W'* W'^op Lam W'^op* W' - Lam)``: the
    conjugation as a permutation of the dense pairing matrix, and the
    three-leg vectors with their middle leg traced out."""
    n = q.dim
    der = derived_unitaries(q)
    w_adj, wp_adj, wpo = (der.three[name] for name in ("w*", "wprime*", "wprime_op"))
    # omega(Lam[r][:, r]) = Tr(rho Lam) for rho the pairing matrix of omega
    # with rows and columns moved by r
    back = inverse(chain(inverse(der.wprime_op), der.wprime))
    rho = dense(vector_state(zeta).tensor(u.functional))
    definitional = rho[np.ix_(back, back)] - rho
    triple = np.kron(zeta, np.kron(u.xi.vector, u.eta.vector))
    base = triple[wpo[2, 3]][w_adj[2, 3]]
    moved = base[wp_adj[1, 3]][wpo[1, 3]]
    vectorial = sum(
        c * dense_partial_trace(np.outer(t, t.conj()), (n, n, n), 2) for c, t in ((1.0, moved), (-1.0, base))
    )
    return definitional, vectorial


def dense_quasicentral_certificate(q, u, zeta):
    """Oracle of ``certify_quasicentral_bound`` at one draw: both routes as
    dense pairing matrices, their norms through ``dense_predual_norm``."""
    der = derived_unitaries(q)
    w, w_adj, wp, wp_adj = (der.three[name] for name in ("w", "w*", "wprime", "wprime*"))
    definitional, vectorial = quasicentral_matrices(q, u, zeta)
    decomp = tensor_algebra_decomposition(q)
    triple = np.kron(zeta, np.kron(u.xi.vector, u.eta.vector))
    r1 = float(np.linalg.norm(triple[w_adj[2, 3]][wp[2, 3]] - triple))
    r2 = float(np.linalg.norm(triple[wp_adj[1, 2]] - triple))
    r3 = float(np.linalg.norm(triple[wp_adj[2, 3]][w[2, 3]] - triple))
    return {
        "lhs": dense_predual_norm(definitional, decomp),
        "terms": (r1, r2, r3),
        "bound": 2.0 * (r1 + r2 + r3),
        "consistency": dense_predual_norm(definitional - vectorial, decomp),
    }


# The random-draw certifier bodies: each certified functional paired with a
# stack of drawn dense elements, Lam of M (x) M read as its blocks, or X of M;
# with the norms of those elements.

# relative residual above which an operator is rejected as outside its algebra
MEMBERSHIP_TOL = 1e-8


def doubled_coordinates(q, lam):
    """Coordinates of ``Lam`` in the products of ``q.ortho_basis`` (second index
    fast); ``Lam`` may be a stack.  Raises ``ValueError`` if ``Lam`` is not in
    ``M (x) M``."""
    factors = (q.ortho_basis, q.ortho_basis)
    res = max(projection_residual(factors, x) for x in lam.reshape((-1,) + lam.shape[-2:]))
    if res > MEMBERSHIP_TOL:
        raise ValueError(f"Lam is not in the doubled algebra (residual {res:.3e})")
    return coordinates(factors, lam)


def doubled_stack(q, lams):
    """A list of dense elements of ``M (x) M`` as one stack ``(draws, n^2,
    n^2)``, each checked to lie in ``M (x) M``."""
    lam = np.stack(lams)
    doubled_coordinates(q, lam)
    return lam


def pairings(blocks, compressions):
    """``omega(x) = sum_b tr(x_b compress_b(omega))`` for each stacked pair."""
    return sum(np.einsum("...bpq,...bqp->...", x, c) for x, c in zip(blocks, compressions))


def commutator_pairings(q, zeta, xi, eta, lam):
    """``|(omega_zeta . x - x . omega_zeta)(Lam)|`` and ``||Lam||`` at each
    draw of the stacks ``zeta`` and ``lam`` (dense)."""
    blocks = tensor_algebra_decomposition(q).element_blocks(lam)
    return np.abs(pairings(blocks, at_vectors(_commutator_forms(q, xi, eta), zeta))), block_norms(blocks)


def identity_pairings(q, u, zeta, x):
    """``|X(u * omega_zeta) - X(omega_zeta)|`` and ``||X||`` at each draw of
    the stacks ``zeta`` and ``x`` (dense).  The factor of ``u * omega_{e_e}``
    is ``(u (x) omega_{e_e})`` pushed through ``W``, its products
    ``G_f G_e*`` one dense ``n^2 x n^2`` form."""
    n = q.dim
    ((c, f),) = u.functional.terms
    g = (f[None, :, None, :] * np.eye(n)[:, None, :, None]).reshape(n, n * n, n)[:, inverse(q.w)]
    g = g.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n, n, n * n)
    forms = c * np.einsum("fjr,eir->efij", g, g.conj()).reshape(n * n, n * n)
    zz = (zeta.conj()[:, :, None] * zeta[:, None, :]).reshape(len(zeta), -1)
    conv = np.einsum("dk,dk->d", zz @ forms, x.reshape(len(x), -1))
    values = conv - np.einsum("di,dij,dj->d", zeta.conj(), x, zeta)
    return np.abs(values), np.linalg.svd(x, compute_uv=False)[:, 0]


def quasicentral_pairings(q, u, zeta, lam):
    """The pairings of both routes to the quasi-central functional with
    ``Lam`` and ``||Lam||`` at each draw of the stacks ``zeta`` and ``lam``
    (dense): ``(definitional, vectorial, norms)``."""
    blocks = tensor_algebra_decomposition(q).element_blocks(lam)
    definitional, vectorial = (pairings(blocks, at_vectors(f, zeta)) for f in _quasicentral_forms(q, u))
    return definitional, vectorial, block_norms(blocks)


def slice_convention_oracle(ctx, u, zeta, x):
    """Oracle of ``slice_convention_residual`` at one draw: ``X(u * omega_zeta)``
    through ``funalg.convolve`` on the functional of ``u``, against the
    three-leg inner product through three gathers and ``apply_leg``."""
    n = ctx.dim
    three = derived_unitaries(ctx.q).three
    lhs = convolve(ctx.q, u.functional, vector_state(zeta)).value(x)
    t = np.multiply.outer(np.multiply.outer(u.xi.vector, u.eta.vector), zeta).reshape(-1)
    t = t[three["wprime_op"][1, 2]][three["w*"][1, 2]][three["w*"][2, 3]]
    rhs = inner(apply_leg(x, (3,), t, (n, n, n)), t)
    return abs(lhs - rhs)


# The per-draw and per-state suite bodies: the theta suite one draw at a time,
# and the exact diagonal and approximate identity one basis vector state at a
# time, each through unstacked calls.

def theta_oracle(q, cfg, rng):
    """Oracle of ``suites.run_theta``: its measurements with the compression
    of each draw formed, normed and compared on its own."""
    n, k = q.dim, len(q.ortho_basis) ** 2
    choi = member = 0.0
    for _ in range(suites.THETA_DRAWS):
        xi = random_unit_vector(rng, n)
        lam = suites._unit_doubled(q, suites._coefficients(rng, k))
        theta_lam = commutant_compression(q, xi, lam)
        member = max(member, projection_residual((q.ortho_basis,), theta_lam))
        b = compression_kraus_factor(q, xi)
        choi = max(choi, operator_norm(theta_lam - dagger(b) @ lam @ b))
    xi = random_unit_vector(rng, n)
    x, y = (suites._unit_elements(q, suites._coefficients(rng, len(q.ortho_basis))[None])[0] for _ in range(2))
    variants = compression_variant_residuals(q, xi, x, y)
    commutative = max(algebra_decomposition(q).block_sizes) == 1
    simple_tol = suites._tol(cfg, 1e-10) if commutative else None
    draws = {"draws": suites.THETA_DRAWS}
    return [
        ("choi_consistency", choi, suites._tol(cfg, 1e-9), draws),
        ("range_in_algebra", member, suites._tol(cfg, 1e-9), draws),
        ("simple_tensor_identity", variants["sandwich_star_left/plain"], simple_tol, dict(variants)),
    ]


def basis_states(q):
    return [vector_state(np.eye(q.dim)[s]) for s in range(q.dim)]


def exact_diagonal_oracle(q):
    """Oracle of ``suites._exact_diagonal``'s two residuals, the max of
    ``diagonal_residuals`` over the basis vector states one at a time."""
    xi, eta = exact_nets(q)
    cand = build_diagonal(q, xi, eta)
    r1 = r2 = 0.0
    for a in basis_states(q):
        m1, m2 = diagonal_residuals(q, cand, a)
        r1, r2 = max(r1, float(m1)), max(r2, float(m2))
    return r1, r2


def exact_identity_oracle(q):
    """Oracle of the ``thm44/exact_identity`` record: the max over the basis
    vector states ``a``, one at a time, of ``||u * a - a||`` for the
    approximate identity ``u`` of the exact nets."""
    xi, eta = exact_nets(q)
    u = build_approximate_identity(dual_context(q), xi, eta)
    decomp = algebra_decomposition(q)
    return max(predual_norm(convolve(q, u.functional, a) - a, decomp) for a in basis_states(q))


@pytest.fixture
def z2():
    return get_group("Z2")


@pytest.fixture
def z3():
    return get_group("Z3")


@pytest.fixture
def s3():
    return get_group("S3")


@pytest.fixture
def s3_dual():
    return get_group("S3", "dual")
