"""Command-line interface, report determinism, and the exit-status contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qglab
from qglab import qgcore
from qglab.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_PASS, main
from qglab.report import CheckRecord, CheckReport, format_float
from qglab.suites import CONSTRUCTIONS, SUITE_NAMES, RunConfig, run_suites
from qglab.tensorlin import DimensionCapError


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
        cfg = RunConfig(group_source="Z2", seed=3, draws=5, bound_draws=5, theta_draws=3)
        report = run_suites(cfg)
        assert report.records
        for record in report.records:
            assert record.anchor

    def test_anchor_map_pinned(self):
        margins = [f"{kind}_bound_margin_t_{t}" for t in ("0.01", "0.1", "0.3")
                   for kind in ("identity", "quasicentral")]
        labels = {
            "Proposition 2.2": ("structure", [
                "commutant_equals_dual_right", "conjugate_relation", "dual_of_opposite",
                "dual_right_unitary", "dual_unitary", "modular_commutation",
                "opposite_from_modular", "opposite_from_right", "pentagonal", "right_unitary",
                "unitarity_V", "unitarity_W", "unitarity_What", "unitarity_Wop",
                "unitarity_Wprime",
            ]),
            "definition of the multiplicative unitary": ("structure", ["W_in_doubled_algebra"]),
            "definition of the comultiplication": ("structure", ["coassociativity"]),
            "Lemma 3.2": ("lemma32", ["exchange_first", "exchange_second", "modular_sandwich"]),
            "Lemma 4.2": ("lemma42", [
                "commutant_opposite_consistency", "exchange_identity", "leg_commutation",
            ]),
            "Lemma 4.3": ("lemma43", ["exchange_identity", "leg_commutation"]),
            "Lemma 3.4": ("theta", [
                "choi_negativity", "range_in_algebra", "simple_tensor_identity", "unitality",
            ]),
            "Theorem 3.3": ("thm33", [
                "commutator_bound_margin_t_0.01", "commutator_bound_margin_t_0.1",
                "commutator_bound_margin_t_0.3", "commutator_pairing_exact_nets",
            ]),
            "Corollary 3.6": ("obad", [
                "approximate_identity", "module_commutator", "state_normalization",
            ]),
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

    def test_zero_theta_draws_rejected(self):
        with pytest.raises(ValueError, match="theta_draws must be at least 1, got 0"):
            run_suites(RunConfig(group_source="Z2", suites=("theta",), theta_draws=0))

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
    def test_module_commutator_independent_of_blas_threads(self, construction):
        # the doubled-algebra decomposition has no random eigensolver step, so
        # the module commutator records do not depend on the BLAS thread count
        def records(threads):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=str(threads),
                PYTHONPATH=str(Path(qglab.__file__).parents[1]),
            )
            out = subprocess.run(
                [sys.executable, "-m", "qglab.cli", "verify", "--group", "S3",
                 "--construction", construction, "--suites", "obad,dual", "--seed", "7"],
                env=env, capture_output=True, check=True,
            ).stdout
            return [
                json.dumps(r, sort_keys=True)
                for r in json.loads(out)["records"]
                if r["check"] in ("module_commutator", "dual_module_commutator")
            ]

        one = records(1)
        assert len(one) == 2
        assert one == records(2)


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
        for key in ("suite", "check", "group", "construction", "anchor", "residual", "pass"):
            assert key in record
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
