"""Construction of quantum groups from Cayley tables, their duals, and the
structural identity catalog."""

import gc
import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    ALL_GROUPS,
    SMALL_GROUPS,
    antilinear,
    antilinear_compose,
    antilinear_conjugate,
    dense_coassociativity_residual,
    dense_derived_unitaries,
    dense_pentagonal_residual,
    GENERATED,
    flip_matrix,
    generated_table,
    get_group,
    left_fixed_vector,
    membership_residual,
    perm_matrix,
    permutation_group,
    svd_slice_span,
    swapped_columns,
    unitarity_residual,
)

from qglab import diagonals, dualside, funalg, qgcore, suites
from qglab.diagonals import exact_nets
from qglab.funalg import tensor_algebra_decomposition
from qglab.groups import builtin_table
from qglab.qgcore import (
    KIND_FUNCTION,
    FiniteQuantumGroup,
    coassociativity_residual,
    comultiply,
    derived_unitaries,
    dual,
    function_algebra,
    structure_identity_residuals,
)
from qglab.tensorlin import apply_leg, dagger, operator_norm, projection_residual, span_basis


def random_algebra_element(q, rng):
    c = rng.standard_normal(len(q.ortho_basis)) + 1j * rng.standard_normal(len(q.ortho_basis))
    return sum(ci * b for ci, b in zip(c, q.ortho_basis))


def cycle(n):
    """The index map of the n-cycle ``s -> s + 1``."""
    return np.roll(np.arange(n), -1)


# broken inputs under which every structure record fires on each side
BROKEN_INPUTS = {
    "swapped_W_columns_1_2": swapped_columns,
    "swapped_W_columns_1_n+1": lambda q: swapped_columns(q, 1, q.dim + 1),
    "J_and_Jhat_exchanged": lambda q: replace(q, j=q.jhat, jhat=q.j, _cache={}),
    "Jhat_set_to_J": lambda q: replace(q, jhat=q.j, _cache={}),
    "n_cycle_Jhat": lambda q: replace(q, jhat=cycle(q.dim), _cache={}),
    "n_cycle_J": lambda q: replace(q, j=cycle(q.dim), _cache={}),
}

# map edits after which a map is no integer permutation of the right length,
# each rejected when the quantum group is built
MAP_BREAKAGES = {
    "repeated_entry": lambda m: np.concatenate([m[:1], m[:-1]]),
    "out_of_range_entry": lambda m: np.concatenate([m[:-1], [len(m)]]),
    "wrong_length": lambda m: m[:-1],
    "float_dtype": lambda m: m.astype(float),
}


def structure_records(q):
    """The structure suite's records of ``q``, coassociativity at a fixed element."""
    x = sum((k + 1) * b for k, b in enumerate(q.ortho_basis))
    return {**structure_identity_residuals(q), "coassociativity": coassociativity_residual(q, x)}


class TestFunctionAlgebra:
    def test_z2_unitary_is_block_swap(self, z2):
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = 1
        expected[3, 2] = expected[2, 3] = 1
        assert np.array_equal(z2.w, [0, 1, 3, 2])
        assert np.abs(perm_matrix(z2.w) - expected).max() == 0

    def test_trivial_group_scalars(self):
        q = get_group("Z1")
        assert np.array_equal(q.w, [0])
        assert np.array_equal(perm_matrix(q.w), np.ones((1, 1)))
        assert max(structure_identity_residuals(q).values()) <= 1e-12

    def test_equality_is_identity_and_hashable(self):
        table = builtin_table("S3")
        a, b = function_algebra(table), function_algebra(table)
        assert a == a and a != b
        assert len({a, b, a}) == 2
        assert hash(a) == hash(a)
        assert dual(a) == dual(a) and dual(a) != a
        assert {dual(a): 1}[dual(a)] == 1

    def test_unitary_is_permutation(self, s3):
        for m, size in ((s3.w, 36), (s3.j, 6), (s3.jhat, 6)):
            assert np.issubdtype(m.dtype, np.integer)
            assert np.array_equal(np.sort(m), np.arange(size))

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_maps_equal_matrices_written_entry_by_entry(self, name):
        # W e_(a, b) = e_(a, ab), J = 1 and Jhat e_s = e_(s^-1), written into
        # dense matrices one entry at a time from the table
        q, table = get_group(name), builtin_table(name)
        n = table.order
        w = np.zeros((n * n, n * n))
        for a in range(n):
            for b in range(n):
                w[a * n + table.product(a, b), a * n + b] = 1.0
        inv = np.zeros((n, n))
        for s, si in enumerate(table.inverses):
            inv[si, s] = 1.0
        assert np.array_equal(perm_matrix(q.w), w)
        assert np.array_equal(perm_matrix(q.j), np.eye(n))
        assert np.array_equal(perm_matrix(q.jhat), inv)

    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_algebra_star_closed_with_identity(self, name):
        q = get_group(name)
        basis = q.algebra_basis
        assert membership_residual(basis, np.eye(q.dim)) <= 1e-10
        for a in basis:
            assert membership_residual(basis, dagger(a)) <= 1e-10
            for b in basis:
                assert membership_residual(basis, a @ b) <= 1e-10


class TestStructureCatalog:
    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_function_algebra_catalog(self, name):
        residuals = structure_identity_residuals(get_group(name))
        assert max(residuals.values()) <= 1e-10, residuals

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_dual_catalog(self, name):
        residuals = structure_identity_residuals(get_group(name, "dual"))
        assert max(residuals.values()) <= 1e-10, residuals

    @pytest.mark.parametrize("name", ["S3", "D4"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_every_record_fires_under_some_broken_input(self, name, side):
        q = get_group(name, side)
        fired = dict.fromkeys(structure_records(q), 0.0)
        for mutate in BROKEN_INPUTS.values():
            for record, value in structure_records(mutate(q)).items():
                fired[record] = max(fired[record], value)
        assert len(fired) == 9
        assert min(fired.values()) > 1e-10, fired

    @pytest.mark.parametrize("name", ["S3", "D4", "Q8"])
    def test_opposite_group_law_fires_only_table_record(self, name):
        # W^op is the multiplicative unitary of the opposite group: a valid
        # quantum group on its own, so only the routes from the table tell:
        # the maps, and the algebra lambda(G) its slices (the right
        # translations) leave
        q = get_group(name)
        opposite = replace(q, w=derived_unitaries(q).wop, _cache={})
        records = structure_records(opposite)
        assert records.pop("W_from_table") > 1e-10
        assert records.pop("W_in_doubled_algebra") > 0.1
        assert max(records.values()) <= 1e-10, records
        lemmas = (
            *dualside.pentagonal_consequence_residuals(opposite),
            *dualside.quasicentral_exchange_residual(opposite),
            dualside.commutant_opposite_consistency(opposite),
            *dualside.identity_shift_exchange_residual(opposite),
        )
        assert max(lemmas) == 0.0
        # Jhat = 1 on the group algebra, so W^op = W there and the same input
        # is the unbroken object
        qd = get_group(name, "dual")
        assert np.array_equal(dense_derived_unitaries(qd).wop, perm_matrix(qd.w))

    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_no_table_records_without_table(self, side):
        q = get_group("S3", side)
        generic = replace(q, kind="generic", _cache={})
        records = structure_identity_residuals(generic)
        assert not {"W_from_table", "J_from_table", "Jhat_from_table"} & set(records)
        assert max(records.values()) <= 1e-10

    def test_z2_catalog_tight(self, z2):
        assert max(structure_identity_residuals(z2).values()) <= 1e-12

    def test_modular_conjugations_commute(self, s3):
        j, jhat = antilinear(s3.j), antilinear(s3.jhat)
        k1 = antilinear_compose(jhat, j)
        k2 = antilinear_compose(j, jhat)
        assert operator_norm(k1 - k2) <= 1e-10

    @pytest.mark.parametrize("name", ALL_GROUPS)
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_doubled_algebra_basis_is_orthonormal(self, name, side):
        q = get_group(name, side)
        # the dense Kronecker list of the orthonormal bases of M and Mhat
        basis = [np.kron(a, b) for a in q.ortho_basis for b in dual(q).ortho_basis]
        stacked = np.stack([b.reshape(-1) for b in basis])
        gram = stacked.conj() @ stacked.T
        assert np.abs(gram - np.eye(len(basis))).max() <= 1e-12
        # re-orthonormalizing the products gives the same membership residual
        residual = structure_identity_residuals(q)["W_in_doubled_algebra"]
        assert abs(residual - membership_residual(basis, perm_matrix(q.w))) <= 1e-12

    @pytest.mark.parametrize("name", ["Z3", "S3"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_swapped_columns_of_w_break_pentagon_and_coassociativity(self, name, side):
        q = get_group(name, side)
        x = sum((k + 1) * b for k, b in enumerate(q.ortho_basis))
        assert structure_identity_residuals(q)["pentagonal"] == 0.0
        assert coassociativity_residual(q, x) == 0.0
        w = q.w.copy()
        w[[1, 2]] = w[[2, 1]]
        # built directly, so no construction check rejects the broken unitary
        broken = FiniteQuantumGroup(
            name=q.name,
            dim=q.dim,
            w=w,
            j=q.j,
            jhat=q.jhat,
            algebra_basis=q.algebra_basis,
            kind=q.kind,
            table=q.table,
        )
        assert structure_identity_residuals(broken)["pentagonal"] > 1e-10
        assert coassociativity_residual(broken, x) > 1e-10


class TestPermutationResiduals:
    """Pentagon and coassociativity from the permutation index of ``W``,
    against the dense residuals on the full three-leg space."""

    @pytest.mark.parametrize("name", ALL_GROUPS)
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_equal_to_dense_oracle(self, name, side, rng):
        q = get_group(name, side)
        x = random_algebra_element(q, rng)
        assert structure_identity_residuals(q)["pentagonal"] == dense_pentagonal_residual(q)
        assert coassociativity_residual(q, x) == dense_coassociativity_residual(q, x)

    @pytest.mark.parametrize("name", ["Z3", "S3", "D4"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_swapped_columns_equal_to_dense_oracle(self, name, side):
        broken = swapped_columns(get_group(name, side))
        x = sum((k + 1) * b for k, b in enumerate(broken.ortho_basis))
        pentagon = structure_identity_residuals(broken)["pentagonal"]
        assert pentagon > 1e-10
        assert pentagon == dense_pentagonal_residual(broken)
        coassociativity = coassociativity_residual(broken, x)
        assert coassociativity > 1e-10
        assert coassociativity == dense_coassociativity_residual(broken, x)

    def test_defect_outside_first_row_block(self):
        # on Z3 this swap breaks coassociativity only in rows 9-26 of the
        # three-leg difference, so every block of rows must be checked
        broken = swapped_columns(get_group("Z3"), 3, 4)
        x = sum((k + 1) * b for k, b in enumerate(broken.ortho_basis))
        coassociativity = coassociativity_residual(broken, x)
        assert coassociativity > 1e-10
        assert coassociativity == dense_coassociativity_residual(broken, x)

    @pytest.mark.parametrize("name", ["Z3", "S3", "D4"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_identity_coassociative_under_swapped_columns(self, name, side):
        # G(1) = 1 for any permutation W, so the support check must read the
        # two sides as equal although W is broken
        broken = swapped_columns(get_group(name, side))
        x = np.eye(broken.dim)
        assert structure_identity_residuals(broken)["pentagonal"] > 1e-10
        assert coassociativity_residual(broken, x) == 0.0
        assert dense_coassociativity_residual(broken, x) == 0.0
        # the check is exact: a defect of 1e-13 is not rounded away
        x = x + 1e-13 * sum((k + 1) * b for k, b in enumerate(broken.ortho_basis))
        assert coassociativity_residual(broken, x) > 0.0
        assert coassociativity_residual(broken, x) == dense_coassociativity_residual(broken, x)

    @pytest.mark.parametrize("name", ["Z3", "S3", "D4"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("k", [1, "n+1"])
    def test_zero_coefficient_equal_to_dense_oracle(self, name, side, k):
        # an entry of x that is exactly zero must not hide a moved support
        q = get_group(name, side)
        broken = swapped_columns(q, 1, 2 if k == 1 else q.dim + 1)
        coeffs = np.arange(1.0, len(q.ortho_basis) + 1)
        coeffs[1] = 0.0
        x = sum(c * b for c, b in zip(coeffs, q.ortho_basis))
        assert coassociativity_residual(q, x) == 0.0
        assert coassociativity_residual(broken, x) == dense_coassociativity_residual(broken, x)

    @pytest.mark.parametrize("side", ["fn", "dual"])
    @pytest.mark.parametrize("field", ["w", "j", "jhat"])
    @pytest.mark.parametrize("breakage", sorted(MAP_BREAKAGES))
    def test_non_permutation_maps_rejected(self, side, field, breakage):
        q = get_group("Z3", side)
        broken = MAP_BREAKAGES[breakage](getattr(q, field))
        with pytest.raises(ValueError, match=rf"^Z3\S* \({q.kind}\): {field} "):
            replace(q, **{field: broken}, _cache={})

    def test_leg_maps_match_dense_legs(self, s3):
        n = s3.dim
        eye = np.eye(n ** 3)
        for legs in [(1, 2), (1, 3), (2, 3)]:
            dense_leg = apply_leg(perm_matrix(s3.w), legs, eye, (n, n, n))
            m = qgcore.leg_map(s3.w, legs, (n, n, n))
            assert np.array_equal(dense_leg, eye[:, m])


@pytest.fixture(scope="module")
def a4():
    return function_algebra(generated_table("A4"))


class TestOrder12:
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_structure_residuals_exact_in_bounded_memory(self, a4, side):
        q = a4 if side == "fn" else dual(a4)
        assert q.dim == 12
        x = sum((k + 1) * b for k, b in enumerate(q.ortho_basis))
        for residual in (lambda: qgcore._pentagonal_residual(q), lambda: coassociativity_residual(q, x)):
            tracemalloc.start()
            try:
                value = residual()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert value == 0.0
            # the dense residuals peak at 114 and 206 MB here
            assert peak < 32 * 2 ** 20
        # coassociativity compares n^4 entries; gathering its two n^3 x n^3
        # sides took 10 MB here
        assert peak < 2 * 2 ** 20


def test_exchange_suites_decompose_nothing(tmp_path, monkeypatch):
    # the structure and lemma suites draw no element of M (x) M, so on A4 they
    # run no block decomposition and take no block norm
    path = tmp_path / "A4.json"
    path.write_text(json.dumps(permutation_group("A4", GENERATED["A4"])))
    calls = []
    for name in ("block_decompose", "block_norms"):
        original = getattr(funalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in (funalg, diagonals, dualside, suites):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    cfg = suites.RunConfig(str(path), suites=("structure", "lemma32", "lemma42", "lemma43"))
    report = suites.run_suites(cfg)
    assert {r.construction for r in report.records} == {"function-algebra", "group-algebra"}
    assert report.all_passed
    assert calls == []


def _table_group(name, side):
    """A builtin from the construction cache, or a generated table's object."""
    if name in ALL_GROUPS:
        return get_group(name, side)
    q = function_algebra(generated_table(name))
    return q if side == "fn" else dual(q)


def _span_residuals(a, b):
    """The largest projection residual of the stack ``a`` onto the span of
    the orthonormal stack ``b``, and of ``b`` onto the span of ``a``."""
    return float(np.max(projection_residual((b,), a))), float(np.max(projection_residual((a,), b)))


class TestTableAlgebras:
    """The algebras and the decomposition of ``M`` written from the Cayley
    table against the SVD routes they replace."""

    @pytest.mark.parametrize("name", ALL_GROUPS + ("A4", "D6"))
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_table_stacks_orthonormal_and_span_slice_oracle(self, name, side):
        q = _table_group(name, side)
        n = q.dim
        # M is spanned by the slices of the dual's W, Mhat by those of W
        for table, oracle in ((q.ortho_basis, svd_slice_span(dual(q))), (qgcore._slice_span(q), svd_slice_span(q))):
            assert table.shape == oracle.shape == (n, n, n)
            flat = table.reshape(n, -1)
            assert np.abs(flat.conj() @ flat.T - np.eye(n)).max() <= 1e-12
            assert max(_span_residuals(table, oracle)) <= 1e-12
        # the held basis spans the same algebra as the stack written for it
        assert max(_span_residuals(q.ortho_basis, span_basis(q.algebra_basis))) <= 1e-12

    @pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4"])
    def test_class_sums_span_commutator_kernel(self, name):
        q = _table_group(name, "dual")
        sums = funalg._class_sums(q)
        flat = sums.reshape(len(sums), -1)
        assert np.abs(flat.conj() @ flat.T - np.eye(len(sums))).max() <= 1e-12
        center = funalg._center_basis(q.ortho_basis)
        assert len(center) == len(sums) == len(q.table.conjugacy_classes())
        assert max(_span_residuals(sums, span_basis(center))) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_broadcast_leg_maps_equal_leg_map(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            m = rng.permutation(n * n)
            maps = qgcore._three_leg_maps(m, n)
            for legs in [(1, 2), (1, 3), (2, 3)]:
                assert np.array_equal(maps[legs], qgcore.leg_map(m, legs, (n, n, n)))

    @pytest.mark.parametrize("name", ["S3", "D4", "Z4"])
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_swapped_columns_leave_doubled_algebra(self, name, side):
        # M (x) Mhat is written from the table, not spanned by the broken W's
        # own slices, so W_in_doubled_algebra compares two routes
        broken = swapped_columns(get_group(name, side), 1, 2)
        assert structure_identity_residuals(broken)["W_in_doubled_algebra"] > 1e-8

    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_decomposition_read_from_table(self, side):
        # a mutant of w keeps the table's algebra and decomposition; the
        # function algebra's is n blocks of size 1 at the e_s
        q = get_group("S3", side)
        broken = swapped_columns(q, 1, 2)
        assert np.array_equal(broken.ortho_basis, q.ortho_basis)
        ours, theirs = funalg.algebra_decomposition(broken), funalg.algebra_decomposition(q)
        assert [b.size for b in ours.blocks] == [b.size for b in theirs.blocks]
        for a, b in zip(ours.blocks, theirs.blocks):
            assert np.array_equal(a.isometry, b.isometry)
        if side == "fn":
            assert all(b.size == b.multiplicity == 1 for b in ours.blocks)
            assert np.array_equal(np.concatenate([b.isometry for b in ours.blocks], axis=1), np.eye(q.dim))


class TestDerivedUnitaries:
    """The index maps against the dense formulas they replace."""

    @pytest.mark.parametrize("name", ALL_GROUPS)
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_maps_equal_dense_oracle(self, name, side):
        q = get_group(name, side)
        der, dense = derived_unitaries(q), dense_derived_unitaries(q)
        for field in ("wprime", "wop", "wprime_op"):
            assert np.array_equal(perm_matrix(getattr(der, field)), getattr(dense, field))
        n = q.dim
        eye = np.eye(n ** 3)
        for field in ("w", "wprime", "wprime_op"):
            u = perm_matrix(q.w) if field == "w" else getattr(dense, field)
            for legs in [(1, 2), (1, 3), (2, 3)]:
                dense_leg = apply_leg(u, legs, eye, (n, n, n))
                assert np.array_equal(eye[:, der.three[field][legs]], dense_leg)
                assert np.array_equal(eye[:, der.three[field + "*"][legs]], dense_leg.T)

    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_commutant_equals_original_for_function_algebras(self, name):
        q = get_group(name)
        assert np.array_equal(derived_unitaries(q).wprime, q.w)

    def test_dual_unitary_entrywise_z2(self, z2):
        f = flip_matrix(2, 2)
        what = perm_matrix(dual(z2).w)
        assert np.array_equal(what, f @ dagger(perm_matrix(z2.w)) @ f)

    def test_dual_right_unitary_equals_commutant(self, s3):
        # the right unitary of the dual, (J (x) J) Sigma What* Sigma (J (x) J),
        # is the commutant unitary of s3
        v_dual = dense_derived_unitaries(dual(s3)).v
        assert np.array_equal(v_dual, perm_matrix(derived_unitaries(s3).wprime))

    def test_all_derived_unitary(self, s3):
        der = derived_unitaries(s3)
        for m in (s3.w, der.wprime, der.wop, der.wprime_op):
            assert np.array_equal(np.sort(m), np.arange(36))
        for u in dense_derived_unitaries(s3):
            assert unitarity_residual(u) <= 1e-12


class TestDual:
    def test_z2_dual_spans_circulants(self, z2):
        qd = dual(z2)
        lam0 = np.eye(2)
        lam1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert membership_residual(qd.algebra_basis, lam0) <= 1e-12
        assert membership_residual(qd.algebra_basis, lam1) <= 1e-12
        assert len(qd.algebra_basis) == 2

    def test_z2_slice_at_point_mass_is_translation(self, z2):
        from qglab.tensorlin import slice_first

        out = slice_first(perm_matrix(z2.w), np.eye(2)[1])
        assert np.abs(out - np.array([[0.0, 1.0], [1.0, 0.0]])).max() <= 1e-14

    def test_dual_of_z3_bidual_restores_unitary(self, z3):
        # A copy of the dual with an empty cache, so the bidual is rebuilt
        # from the slices of What instead of returned from the memo.
        qdd = dual(replace(dual(z3), _cache={}))
        assert qdd is not z3
        assert qdd.kind == KIND_FUNCTION
        assert np.array_equal(qdd.w, z3.w)

    def test_trivial_group_self_dual(self):
        q = get_group("Z1")
        qd = dual(q)
        assert np.array_equal(qd.w, q.w)

    def test_dual_swaps_conjugations(self, s3):
        qd = dual(s3)
        assert np.array_equal(qd.j, s3.jhat)
        assert np.array_equal(qd.jhat, s3.j)

    def test_group_algebra_is_left_translations(self, s3):
        qd = dual(s3)
        table = builtin_table("S3")
        for g in range(6):
            lam = np.zeros((6, 6))
            for h in range(6):
                lam[table.product(g, h), h] = 1.0
            assert membership_residual(qd.algebra_basis, lam) <= 1e-10

    @pytest.mark.parametrize("name", ALL_GROUPS)
    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_exact_left_net_is_left_fixed_vector(self, name, side):
        # the second exact net is fixed by the first-leg action of W: the
        # point mass at the identity on the function algebra, the uniform
        # vector on the group algebra
        q = get_group(name, side)
        expected = left_fixed_vector(perm_matrix(q.w), q.dim)
        net = exact_nets(q)[1].vector
        assert abs(abs(np.vdot(expected, net)) - 1.0) <= 1e-10
        assert np.linalg.norm(net - np.vdot(expected, net) * expected) <= 1e-10

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_bidual_is_the_same_object(self, name):
        q = get_group(name)
        qd = dual(q)
        assert dual(q) is qd
        assert dual(qd) is q

    def test_pair_freed_without_cyclic_collector(self):
        # the dual links back to q weakly, so q and its dual form no cycle
        # and reference counting alone frees them
        q = function_algebra(builtin_table("S3"))
        qd = dual(q)
        tensor_algebra_decomposition(qd)
        refs = [weakref.ref(q), weakref.ref(qd)]
        gc.disable()
        try:
            del q, qd
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_failed_dual_check_caches_nothing(self, monkeypatch):
        q = function_algebra(builtin_table("Z2"))

        def reject(candidate, tol=1e-10):
            raise ValueError(f"{candidate.name}: rejected")

        monkeypatch.setattr(qgcore, "_check_construction", reject)
        with pytest.raises(ValueError, match="rejected"):
            dual(q)
        assert "dual" not in q._cache

    def test_rebuilt_bidual_left_net_is_left_fixed_vector(self, z3):
        qdd = dual(replace(dual(z3), _cache={}))
        assert qdd.kind == KIND_FUNCTION
        net = exact_nets(qdd)[1].vector
        assert np.linalg.norm(net - left_fixed_vector(perm_matrix(qdd.w), 3)) <= 1e-10


class TestComultiplication:
    def test_unital(self, s3):
        assert np.abs(comultiply(s3, np.eye(6)) - np.eye(36)).max() <= 1e-12

    def test_z2_classical_formula(self, z2):
        x = np.diag([2.0, 5.0])
        out = comultiply(z2, x)
        table = builtin_table("Z2")
        vals = [2.0, 5.0]
        expected = np.diag([vals[table.product(s, t)] for s in range(2) for t in range(2)])
        assert np.abs(out - expected).max() <= 1e-12

    @pytest.mark.parametrize("name", ["Z3", "S3"])
    def test_coassociativity(self, name, rng):
        q = get_group(name)
        x = random_algebra_element(q, rng)
        assert coassociativity_residual(q, x) <= 1e-10

    @pytest.mark.parametrize("side", ["fn", "dual"])
    def test_star_homomorphism(self, side, rng):
        q = get_group("S3", side)
        x = random_algebra_element(q, rng)
        y = random_algebra_element(q, rng)
        gx, gy, gxy = comultiply(q, x), comultiply(q, y), comultiply(q, x @ y)
        assert operator_norm(gx @ gy - gxy) <= 1e-10
        assert operator_norm(comultiply(q, dagger(x)) - dagger(gx)) <= 1e-10

    def test_image_commutes_with_doubled_commutant(self, s3, rng):
        x = random_algebra_element(s3, rng)
        gx = comultiply(s3, x)
        for b in s3.ortho_basis[:3]:
            yp = antilinear_conjugate(antilinear(s3.j), b)  # an element of the commutant
            for other in (np.kron(yp, np.eye(6)), np.kron(np.eye(6), yp)):
                assert operator_norm(gx @ other - other @ gx) <= 1e-10


class TestMembershipResidual:
    def test_member(self, s3):
        assert membership_residual(s3.algebra_basis, s3.algebra_basis[0]) <= 1e-12

    def test_orthogonal_unit(self, z2):
        off = np.zeros((2, 2))
        off[0, 1] = 1.0
        assert abs(membership_residual(z2.algebra_basis, off) - 1.0) <= 1e-12

    def test_random_combination(self, s3, rng):
        x = random_algebra_element(s3, rng)
        assert membership_residual(s3.algebra_basis, x) <= 1e-12

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError):
            membership_residual([], np.eye(2))
