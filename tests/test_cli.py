"""Command-line interface, report determinism, and the exit-status contract."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import GENERATED, permutation_group

import qglab
from qglab import diagonals, dualside, qgcore, suites
from qglab.groups import builtin_table
from qglab.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_PASS, main
from qglab.report import CheckRecord, CheckReport, format_float
from qglab.suites import CONSTRUCTIONS, SUITE_FUNCS, SUITE_NAMES, RunConfig, run_suites, run_thm33, run_thm44
from qglab.tensorlin import DimensionCapError, normalize, random_unit_vector


class TestRunSuites:
    def test_determinism_byte_identical(self):
        cfg = RunConfig(
            group_source="Z3",
            suites=("thm33",),
            epsilons=(0.1,),
            seed=7,
            draws=10,
            bound_draws=10,
        )
        first = run_suites(cfg).to_json_bytes()
        second = run_suites(cfg).to_json_bytes()
        assert first == second

    def test_seed_changes_report(self):
        base = dict(group_source="Z3", suites=("thm33",), epsilons=(0.1,), draws=5, bound_draws=5)
        a = run_suites(RunConfig(seed=1, **base)).to_json_bytes()
        b = run_suites(RunConfig(seed=2, **base)).to_json_bytes()
        assert a != b

    def test_empty_suite_list(self):
        report = run_suites(RunConfig(group_source="Z2", suites=()))
        assert report.records == []
        assert report.all_passed

    def test_every_record_has_anchor(self):
        cfg = RunConfig(group_source="Z2", seed=3, draws=5, bound_draws=5)
        report = run_suites(cfg)
        assert report.records
        for record in report.records:
            assert record.anchor

    def test_anchor_map_pinned(self):
        margins = [f"{kind}_bound_margin_t_{t}" for t in ("0.01", "0.1", "0.3")
                   for kind in ("identity", "quasicentral")]
        labels = {
            "Proposition 2.2": ("structure", [
                "J_from_table", "Jhat_from_table", "W_from_table", "conjugate_relation",
                "modular_commutation", "opposite_from_right", "pentagonal",
            ]),
            "definition of the multiplicative unitary": ("structure", ["W_in_doubled_algebra"]),
            "definition of the comultiplication": ("structure", ["coassociativity"]),
            "Lemma 3.2": ("lemma32", ["exchange_first", "exchange_second", "modular_sandwich"]),
            "Lemma 4.2": ("lemma42", [
                "commutant_opposite_consistency", "exchange_identity", "leg_commutation",
            ]),
            "Lemma 4.3": ("lemma43", ["exchange_identity", "leg_commutation"]),
            "Lemma 3.4": ("theta", ["choi_consistency", "range_in_algebra", "simple_tensor_identity"]),
            "Theorem 3.3": ("thm33", [
                "commutator_bound_margin_t_0.01", "commutator_bound_margin_t_0.1",
                "commutator_bound_margin_t_0.3", "commutator_pairing_exact_nets",
            ]),
            "Corollary 3.6": ("obad", ["approximate_identity", "module_commutator"]),
            "Corollary 4.1": ("dual", [
                "dual_approximate_identity", "dual_module_commutator", "flip_relation_dual",
                "flip_relation_dual_commutant", "left_invariance_exact",
                "opposite_comparison_left", "opposite_comparison_right",
                "right_invariance_exact",
            ]),
            "Corollary 3.6 closing remark": ("dual", ["quasicentral_identity_defect"]),
            "Theorem 4.4": ("thm44", ["exact_identity", "slice_convention_oracle"] + margins),
        }
        expected = {
            (suite, check): anchor
            for anchor, (suite, checks) in labels.items()
            for check in checks
        }
        report = run_suites(RunConfig("Z3", seed=7))
        for construction in CONSTRUCTIONS:
            got = {
                (r.suite, r.check): r.anchor
                for r in report.records
                if r.construction == construction
            }
            assert got == expected, construction
        assert len(report.records) == 2 * len(expected)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suites(RunConfig(group_source="Z2", suites=("nonsense",)))

    def test_unknown_construction_rejected(self):
        with pytest.raises(ValueError):
            run_suites(RunConfig(group_source="Z2", construction="sideways", suites=("structure",)))

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("QGLAB_MAX_DIM", "27")
        with pytest.raises(DimensionCapError):
            run_suites(RunConfig(group_source="Z4", suites=("lemma32",)))
        # structure is a two-leg suite: allowed up to twice the three-leg cap
        report = run_suites(RunConfig(group_source="Z4", suites=("structure",)))
        assert report.all_passed
        # the three-leg entries were skipped under the cap
        checks = {r.check for r in report.records}
        assert "pentagonal" not in checks

    def test_single_construction(self):
        cfg = RunConfig(
            group_source="Z2", construction="function-algebra", suites=("structure",)
        )
        report = run_suites(cfg)
        assert {r.construction for r in report.records} == {"function-algebra"}

    def test_one_object_per_side(self, monkeypatch):
        built = []
        check = qgcore._check_construction

        def counting(q, *args, **kwargs):
            built.append(q.kind)
            return check(q, *args, **kwargs)

        monkeypatch.setattr(qgcore, "_check_construction", counting)
        run_suites(RunConfig(group_source="S3"))
        assert sorted(built) == sorted([qgcore.KIND_FUNCTION, qgcore.KIND_DUAL])

    @pytest.mark.parametrize("group, suites", [("S3", ("obad", "dual")), ("Z3", SUITE_NAMES)])
    def test_both_equals_union_of_single_constructions(self, group, suites):
        # both constructions share one function-algebra object; no cached state
        # of one construction may change the records of the other
        both = run_suites(RunConfig(group_source=group, suites=suites, seed=7))
        union = CheckReport(seed=7)
        for construction in CONSTRUCTIONS:
            cfg = RunConfig(group_source=group, construction=construction, suites=suites, seed=7)
            union.extend(run_suites(cfg).records)
        assert both.to_json_bytes() == union.to_json_bytes()

    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_certificate_independent_of_blas_threads(self, construction, tmp_path):
        # no record takes a spectrum or a random eigensolver step whose
        # rounding follows the BLAS thread count, so the bytes do not either;
        # D4's stacked bound products are large enough for OpenBLAS to split,
        # and on the generated A4 both algebras are written from the table
        # rather than spanned by an SVD of the dense W
        a4 = tmp_path / "A4.json"
        a4.write_text(json.dumps(permutation_group("A4", GENERATED["A4"])))

        def certificate(group, threads):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=str(threads),
                PYTHONPATH=str(Path(qglab.__file__).parents[1]),
            )
            return subprocess.run(
                [sys.executable, "-m", "qglab.cli", "verify", "--group", group,
                 "--construction", construction, "--suites", ",".join(SUITE_NAMES), "--seed", "7"],
                env=env, capture_output=True, check=True,
            ).stdout

        for group in ("S3", "D4", str(a4)):
            one = certificate(group, 1)
            assert {r["suite"] for r in json.loads(one)["records"]} == set(SUITE_NAMES)
            assert one == certificate(group, 2), group

    @pytest.mark.parametrize("suite", ["thm33", "thm44"])
    def test_bound_suites_memory_flat(self, suite):
        # each record's draws are certified as one batch with Lam held by its
        # blocks; a stack of dense n^2 x n^2 Lam would take tens of MB here
        fa = qgcore.function_algebra(builtin_table("D4"))
        cfg = RunConfig("D4")
        for q in (fa, qgcore.dual(fa)):
            SUITE_FUNCS[suite](q, cfg, np.random.default_rng(0))  # fill the caches
            tracemalloc.start()
            try:
                SUITE_FUNCS[suite](q, cfg, np.random.default_rng(1))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * 2 ** 20, (q.kind, peak)

    def test_bound_draws_certified_in_batches(self, monkeypatch):
        # at most 100 draws per certifier call, the same draws in the same
        # order as one batch of all of them
        calls = []
        original = diagonals.certify_commutator_bound

        def recording(q, zeta, *args, **kwargs):
            calls.append(len(zeta))
            return original(q, zeta, *args, **kwargs)

        monkeypatch.setattr(diagonals, "certify_commutator_bound", recording)
        q = qgcore.function_algebra(builtin_table("S3"))
        cfg = RunConfig("S3", epsilons=(0.1,), bound_draws=250)
        records = dict((check, (value, detail)) for check, value, _, detail in run_thm33(q, cfg, np.random.default_rng(3)))
        assert calls == [1, 100, 100, 50]
        monkeypatch.setattr(suites, "BOUND_BATCH", 250)
        calls.clear()
        batched = dict((check, (value, detail)) for check, value, _, detail in run_thm33(q, cfg, np.random.default_rng(3)))
        assert calls == [1, 250]
        margin, detail = records["commutator_bound_margin_t_0.1"]
        assert abs(margin - batched["commutator_bound_margin_t_0.1"][0]) <= 1e-15
        assert detail == batched["commutator_bound_margin_t_0.1"][1]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 24, 64, 576])
    def test_unit_rows_equal_normalize(self, n):
        rng = np.random.default_rng(n)
        v = rng.standard_normal((20, n)) + 1j * rng.standard_normal((20, n))
        assert np.array_equal(suites._unit_rows(v), np.stack([normalize(r) for r in v]))

    @pytest.mark.parametrize("group", ["Z1", "S3", "D4"])
    def test_batched_draws_equal_per_draw_stream(self, group, monkeypatch):
        # one standard_normal call per batch gives, bit for bit, the stream of
        # drawing each vector with random_unit_vector and each coefficient
        # vector with _coefficients, one draw at a time; 250 draws cross the
        # 100-draw batch edge in the bound records and in the oracle
        q = qgcore.dual(qgcore.function_algebra(builtin_table(group)))
        n, k = q.dim, len(q.ortho_basis)
        cfg = RunConfig(group, epsilons=(0.1,), draws=250, bound_draws=250)
        seen = {}

        def record(module, name):
            original = getattr(module, name)

            def recording(*args, **kwargs):
                seen.setdefault(name, []).append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, recording)

        record(diagonals, "certify_commutator_bound")
        for name in ("slice_convention_residual", "certify_identity_bound", "certify_quasicentral_bound"):
            record(dualside, name)
        calls = []

        class CountingRng:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def standard_normal(self, size=None):
                calls.append(size)
                return self.rng.standard_normal(size)

        run_thm33(q, cfg, CountingRng(5))
        run_thm44(q, cfg, CountingRng(6))
        # perturbed_vector draws its two parts one call each, for xi and eta;
        # a bound draw is one vector zeta, an oracle draw three vectors and
        # the coefficients of x
        perturb = [n] * 4
        bound_w, oracle_w = 2 * n, 6 * n + 2 * k

        def batched(width):
            return [(100, width), (100, width), (50, width)]

        assert calls == [(1, bound_w), *perturb, *batched(bound_w), *batched(oracle_w), *perturb, *batched(bound_w)]

        def per_draw(rng, count, *widths):
            # each draw: unit vectors for the positive widths, coefficients
            # for the negative ones, in turn
            out = [
                [random_unit_vector(rng, w) if w > 0 else suites._coefficients(rng, -w) for w in widths]
                for _ in range(count)
            ]
            return [np.stack(a) for a in zip(*out)]

        def batches(stack):
            return [stack[i:i + 100] for i in range(0, len(stack), 100)]

        def assert_identical(recorded, expected):
            assert len(recorded) == len(expected)
            for got, want in zip(recorded, expected):
                assert np.array_equal(got, want)

        xi_exact, eta_exact = diagonals.exact_nets(q)
        rng = np.random.default_rng(5)
        (first,) = per_draw(rng, 1, n)
        xi = diagonals.perturbed_vector(xi_exact.vector, 0.1, rng)
        eta = diagonals.perturbed_vector(eta_exact.vector, 0.1, rng)
        (zeta,) = per_draw(rng, 250, n)
        certs = seen["certify_commutator_bound"]
        assert_identical([c[1] for c in certs], [first] + batches(zeta))
        assert_identical([c[2].vector for c in certs[1:]], [xi] * 3)
        assert_identical([c[3].vector for c in certs[1:]], [eta] * 3)

        rng = np.random.default_rng(6)
        oracle = per_draw(rng, 250, n, n, n, -k)
        xi = diagonals.perturbed_vector(xi_exact.vector, 0.1, rng)
        eta = diagonals.perturbed_vector(eta_exact.vector, 0.1, rng)
        (zeta,) = per_draw(rng, 250, n)
        slices = seen["slice_convention_residual"]
        for i in range(3):
            assert_identical([c[1 + i] for c in slices], batches(oracle[i]))
        assert_identical([c[4] for c in slices], [suites._unit_elements(q, c) for c in batches(oracle[3])])
        identity, quasicentral = seen["certify_identity_bound"], seen["certify_quasicentral_bound"]
        assert_identical([c[1].xi.vector for c in identity], [xi] * 3)
        assert_identical([c[1].eta.vector for c in identity], [eta] * 3)
        assert_identical([c[2] for c in identity], batches(zeta))
        assert_identical([c[2] for c in quasicentral], batches(zeta))
        assert len(quasicentral) == len(identity) and all(a[1] is b[1] for a, b in zip(quasicentral, identity))

    @pytest.mark.parametrize("group, history", [("Z5", ("Z1", "Z2", "Z3", "Z4")), ("D4", ("Q8", "S3", "Z8"))])
    def test_certificate_independent_of_process_history(self, group, history):
        # the last certificate a process writes is the same whether other
        # groups ran before it in that process or not
        script = (
            "import sys\n"
            "from qglab.suites import RunConfig, run_suites\n"
            "for name in sys.argv[1:]:\n"
            "    payload = run_suites(RunConfig(group_source=name, seed=7)).to_json_bytes()\n"
            "sys.stdout.buffer.write(payload)\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(Path(qglab.__file__).parents[1]))

        def certificate(*names):
            return subprocess.run(
                [sys.executable, "-c", script, *names], env=env, capture_output=True, check=True,
            ).stdout

        fresh = certificate(group)
        assert {r["suite"] for r in json.loads(fresh)["records"]} == set(SUITE_NAMES)
        assert certificate(*history, group) == fresh


class TestReportFormat:
    def test_float_formatting_17_digits(self):
        assert format_float(1.0 / 3.0) == f"{1.0 / 3.0:.17g}"
        assert float(format_float(1.2345678901234567e-11)) == 1.2345678901234567e-11

    def test_pass_iff_within_tolerance(self):
        good = CheckRecord("s", "c", "g", "fa", "anchor", residual=1e-12, tolerance=1e-10)
        bad = CheckRecord("s", "c", "g", "fa", "anchor", residual=1e-8, tolerance=1e-10)
        assert good.passed and not bad.passed

    def test_informational_records_pass(self):
        rec = CheckRecord("s", "c", "g", "fa", "anchor", residual=0.5)
        assert rec.passed

    def test_json_schema(self):
        cfg = RunConfig(group_source="Z2", suites=("structure",), seed=5)
        payload = run_suites(cfg).to_json_bytes()
        obj = json.loads(payload)
        assert set(obj) == {"version", "seed", "records", "summary"}
        assert obj["seed"] == 5
        record = obj["records"][0]
        assert set(record) == {
            "suite", "check", "group", "construction", "anchor", "residual", "tolerance", "pass",
        }
        assert isinstance(record["residual"], str)
        assert obj["summary"]["total"] == len(obj["records"])

    def test_records_sorted(self):
        cfg = RunConfig(group_source="Z2", suites=("structure", "lemma42"), seed=5, draws=5)
        obj = json.loads(run_suites(cfg).to_json_bytes())
        keys = [
            (r["suite"], r["group"], r["construction"], r["check"]) for r in obj["records"]
        ]
        assert keys == sorted(keys)

    def test_summary_counts(self):
        report = CheckReport(seed=0)
        report.extend([
            CheckRecord("s", "a", "g", "fa", "x", residual=0.0, tolerance=1.0),
            CheckRecord("s", "b", "g", "fa", "x", residual=2.0, tolerance=1.0),
        ])
        assert report.summary() == {"total": 2, "passed": 1, "failed": 1}
        assert not report.all_passed


class TestCli:
    def test_verify_builtin_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--group", "Z2",
                "--suites", "structure",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == EXIT_PASS
        obj = json.loads(out.read_bytes())
        assert obj["summary"]["failed"] == 0

    def test_verify_stdout(self, capsys):
        code = main(["verify", "--group", "Z2", "--suites", "structure", "--seed", "3"])
        assert code == EXIT_PASS
        obj = json.loads(capsys.readouterr().out)
        assert obj["summary"]["total"] > 0

    def test_package_runs_as_module(self, capsys):
        # python -m qglab is the same front end as python -m qglab.cli
        args = ["verify", "--group", "Z2", "--suites", "structure,obad", "--seed", "3"]
        env = dict(os.environ, PYTHONPATH=str(Path(qglab.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "qglab", *args], env=env, capture_output=True)
        assert proc.returncode == EXIT_PASS, proc.stderr
        assert main(args) == EXIT_PASS
        assert proc.stdout == capsys.readouterr().out.encode()
        bad = subprocess.run(
            [sys.executable, "-m", "qglab", "verify", "--group", "NoSuchGroup"], env=env, capture_output=True
        )
        assert bad.returncode == EXIT_INPUT_ERROR

    def test_repeat_runs_identical_bytes(self, tmp_path):
        args = [
            "verify",
            "--group", "Z3",
            "--suites", "thm33",
            "--epsilons", "0.1",
            "--seed", "7",
            "--draws", "10",
            "--bound-draws", "10",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == EXIT_PASS
        assert main(args + ["--out", str(out2)]) == EXIT_PASS
        assert out1.read_bytes() == out2.read_bytes()

    def test_input_error_exit_code(self, capsys):
        assert main(["verify", "--group", "NoSuchGroup"]) == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err

    def test_invalid_table_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name":"bad","order":2,"table":[[0,1],[1,1]]}')
        assert main(["verify", "--group", str(bad)]) == EXIT_INPUT_ERROR

    def test_unreadable_group_path_exit_code(self, tmp_path, capsys):
        assert main(["verify", "--group", str(tmp_path), "--suites", "structure"]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert str(tmp_path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("table", [
        '{"name":"B2","order":2,"table":[[0,true],[true,0]]}',
        '{"name":"B1","order":true,"table":[[0]]}',
    ])
    def test_boolean_table_exit_code(self, table, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(table)
        assert main(["verify", "--group", str(path), "--suites", "structure"]) == EXIT_INPUT_ERROR
        assert "True" in capsys.readouterr().err

    @pytest.mark.parametrize("option, field", [("--draws", "draws"), ("--bound-draws", "bound_draws")])
    def test_zero_draws_exit_code(self, option, field, capsys):
        args = ["verify", "--group", "Z3", "--suites", "lemma32,thm33", option, "0"]
        assert main(args) == EXIT_INPUT_ERROR
        assert f"{field} must be at least 1, got 0" in capsys.readouterr().err

    def test_negative_seed_named(self, capsys):
        assert main(["verify", "--group", "Z2", "--suites", "structure", "--seed", "-3"]) == EXIT_INPUT_ERROR
        assert "seed must be a non-negative integer, got -3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value, field",
        [("--epsilons", "nan", "epsilons"), ("--epsilons", "inf", "epsilons"), ("--tol", "nan", "tol")],
    )
    def test_non_finite_input_named(self, option, value, field, capsys):
        args = ["verify", "--group", "Z2", "--suites", "structure,thm33", option, value]
        assert main(args) == EXIT_INPUT_ERROR
        assert f"{field} must be finite, got {value}" in capsys.readouterr().err

    def test_repeated_suite_named(self, capsys):
        args = ["verify", "--group", "Z2", "--construction", "function-algebra", "--suites", "thm33,thm33"]
        assert main(args) == EXIT_INPUT_ERROR
        assert "suite 'thm33' is repeated" in capsys.readouterr().err

    def test_colliding_epsilon_labels_named(self, capsys):
        args = ["verify", "--group", "Z2", "--construction", "function-algebra", "--suites", "thm33",
                "--epsilons", "0.1,0.1000001"]
        assert main(args) == EXIT_INPUT_ERROR
        assert "epsilons 0.1 and 0.1000001 share the label 0.1" in capsys.readouterr().err

    def test_unknown_suite_exit_code(self, capsys):
        assert main(["verify", "--group", "Z2", "--suites", "bogus"]) == EXIT_INPUT_ERROR

    def test_check_failure_exit_code(self):
        # a negative tolerance override makes every nonnegative residual fail
        code = main(
            [
                "verify",
                "--group", "Z4",
                "--suites", "structure",
                "--seed", "1",
                "--tol", "-1",
                "--out", "/dev/null",
            ]
        )
        assert code == EXIT_CHECK_FAILED

    def test_group_file_roundtrip(self, tmp_path):
        table = {"name": "V4", "order": 4,
                 "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]}
        path = tmp_path / "v4.json"
        path.write_text(json.dumps(table))
        code = main(["verify", "--group", str(path), "--suites", "structure,obad", "--seed", "2"])
        assert code == EXIT_PASS

    def test_all_suite_names_accepted(self):
        assert set(SUITE_NAMES) == {
            "structure", "lemma32", "lemma42", "lemma43", "theta",
            "thm33", "obad", "dual", "thm44",
        }
