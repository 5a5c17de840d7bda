import importlib
import json

from hesscells import HessenbergFunction, Monomial, Permutation, poly_from_json, zvar
from hesscells.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestTextCommands:
    def test_cell_gens_text_contains_displayed_entry(self, capsys):
        code, out = run(capsys, "cell-gens", "--n", "4", "--w", "3421")
        assert code == 0
        assert "g_4_2 = -z_1_1 + z_1_3*z_2_1 + z_2_2" in out

    def test_patch_gens_text(self, capsys):
        code, out = run(capsys, "patch-gens", "--n", "4", "--w", "4321")
        assert code == 0
        assert "f_4_1 = -x_1_2 + x_1_3*x_2_2 - x_1_3*x_3_1 + x_2_1" in out

    def test_fixed_points_count(self, capsys):
        code, out = run(capsys, "fixed-points", "--n", "4", "--h", "4,4,4,4")
        assert code == 0
        assert "24 fixed points" in out
        assert len(out.strip().splitlines()) == 25

    def test_ideal_flags_constant(self, capsys):
        code, out = run(
            capsys, "ideal", "--n", "4", "--w", "3421", "--h", "2,3,4,4",
            "--kind", "cell",
        )
        assert code == 0
        assert "certified empty" in out

    def test_paving(self, capsys):
        code, out = run(capsys, "paving", "--n", "4", "--h", "3,3,4,4")
        assert code == 0
        assert "max dimension: 4" in out


class TestJsonCommands:
    def test_cell_gens_json_roundtrip(self, capsys):
        code, doc = run_json(capsys, "cell-gens", "--n", "4", "--w", "3421")
        assert code == 0
        assert doc["w"] == [3, 4, 2, 1]
        assert Permutation(doc["w"]) == Permutation([3, 4, 2, 1])
        for entry in doc["entries"]:
            poly = poly_from_json(entry["poly"])
            assert poly.to_text() == entry["text"]

    def test_ideal_json(self, capsys):
        code, doc = run_json(
            capsys, "ideal", "--n", "4", "--w", "3421", "--h", "3,3,4,4",
            "--kind", "cell",
        )
        assert code == 0
        assert doc["Lambda"] == 2
        assert doc["lambdaSize"] == 2
        assert doc["emptyCertified"] is False
        assert HessenbergFunction(doc["h"]) == HessenbergFunction([3, 3, 4, 4])

    def test_gb_check_json(self, capsys):
        code, doc = run_json(
            capsys, "gb-check", "--n", "4", "--w", "3421", "--h", "3,3,4,4",
        )
        assert code == 0
        assert doc["triangular"] and doc["buchberger"]
        assert doc["freeVariables"] == ["z_1_2", "z_2_1", "z_2_2"]
        assert [t["variable"] for t in doc["initialTerms"]] == ["z_1_1", "z_1_3"]

    def test_gb_check_oracle_flag(self, capsys):
        code, doc = run_json(
            capsys, "gb-check", "--n", "4", "--w", "3421", "--h", "2,3,4,4",
            "--oracle",
        )
        assert code == 1  # not triangular at a non fixed point
        assert doc["unitIdeal"] is True
        assert doc["oracleBasis"] == ["1"]

    def test_hilbert_json(self, capsys):
        code, doc = run_json(
            capsys, "hilbert", "--n", "4", "--w", "3421", "--h", "3,3,4,4",
            "--trunc", "6",
        )
        assert code == 0
        assert doc["numeratorFactors"] == [1, 2]
        assert doc["denominatorFactors"] == [1, 1, 2, 2, 3]
        assert doc["coefficients"] == [1, 1, 2, 3, 4, 5, 7]
        assert doc["oracleAgrees"] is True

    def test_frobenius_check_json(self, capsys):
        code, doc = run_json(
            capsys, "frobenius-check", "--n", "4", "--w", "3421",
            "--h", "3,3,4,4", "--p", "2",
        )
        assert code == 0
        assert doc["allCompatible"] is True
        assert doc["axiomSpotChecks"] is True

    def test_sweep_json(self, capsys):
        code, doc = run_json(
            capsys, "sweep", "--max-n", "3", "--frobenius", "2,3", "--jobs", "1",
        )
        assert code == 0
        assert doc["summary"]["ok"] is True
        assert doc["summary"]["failedCases"] == 0
        fixed = [c for c in doc["cases"] if c["fixedPoint"]]
        assert all("frobeniusOk" in c for c in fixed)


class TestDeterminism:
    def strip_timing(self, doc):
        doc = dict(doc)
        doc.pop("elapsedSeconds", None)
        return doc

    def test_sweep_byte_identical_modulo_timing(self, capsys):
        _, doc1 = run_json(capsys, "sweep", "--max-n", "3", "--jobs", "1")
        _, doc2 = run_json(capsys, "sweep", "--max-n", "3", "--jobs", "1")
        assert json.dumps(self.strip_timing(doc1)) == \
            json.dumps(self.strip_timing(doc2))

    def test_sweep_job_count_does_not_change_output(self, capsys):
        _, serial = run_json(capsys, "sweep", "--max-n", "3", "--jobs", "1")
        _, parallel = run_json(capsys, "sweep", "--max-n", "3", "--jobs", "2")
        assert self.strip_timing(serial) == self.strip_timing(parallel)

    def test_cell_gens_deterministic(self, capsys):
        _, out1 = run(capsys, "cell-gens", "--n", "4", "--w", "3421",
                      "--format", "json")
        _, out2 = run(capsys, "cell-gens", "--n", "4", "--w", "3421",
                      "--format", "json")
        assert out1 == out2


class TestExitCodes:
    def test_usage_error_on_bad_permutation(self, capsys):
        assert main(["cell-gens", "--n", "4", "--w", "34x1"]) == 2

    def test_usage_error_on_size_mismatch(self, capsys):
        assert main(["cell-gens", "--n", "4", "--w", "321"]) == 2

    def test_usage_error_on_nonprime(self, capsys):
        assert main([
            "frobenius-check", "--n", "4", "--w", "3421",
            "--h", "3,3,4,4", "--p", "6",
        ]) == 2

    def test_usage_error_on_decomposable_h(self, capsys):
        assert main([
            "ideal", "--n", "4", "--w", "3421", "--h", "1,2,3,4",
            "--kind", "cell",
        ]) == 2

    def test_usage_error_on_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_usage_error_on_sweep_nonprime(self, capsys):
        assert main(["sweep", "--max-n", "3", "--frobenius", "2,6", "--jobs", "1"]) == 2
        assert "6 is not prime" in capsys.readouterr().err

    def test_sweep_usage_error_writes_no_report(self, capsys):
        argv = ["sweep", "--max-n", "3", "--frobenius", "2,6", "--format", "json"]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_usage_error_on_sweep_ceiling(self, capsys):
        assert main(["sweep", "--max-n", "8"]) == 2
        assert main(["sweep", "--max-n", "5", "--frobenius", "2"]) == 2

    def test_usage_error_above_ceiling_for_permutation_walks(self, capsys):
        assert main(["fixed-points", "--n", "8", "--h", "8,8,8,8,8,8,8,8"]) == 2
        assert capsys.readouterr().err == "error: n must be between 1 and 7\n"
        assert main(["paving", "--n", "8", "--h", "2,3,4,5,6,7,8,8"]) == 2
        assert capsys.readouterr().err == "error: n must be between 1 and 7\n"
        assert main(["fixed-points", "--n", "7", "--h", "2,3,4,5,6,7,7"]) == 0

    def test_usage_error_on_sweep_trunc_below_n_minus_one(self, capsys):
        assert main(["sweep", "--max-n", "4", "--trunc", "2"]) == 2
        assert main(["sweep", "--max-n", "4", "--trunc", "3"]) == 0

    def test_usage_error_on_hilbert_trunc_below_n_minus_one(self, capsys):
        argv = ["hilbert", "--n", "4", "--w", "3421", "--h", "3,3,4,4"]
        assert main(argv + ["--trunc", "1"]) == 2
        assert main(argv + ["--trunc", "3"]) == 0

    def test_usage_error_on_flag_of_another_command(self, capsys):
        assert main(["paving", "--n", "4", "--h", "3,3,4,4", "--jobs", "2"]) == 2
        assert main(["paving", "--n", "4", "--h", "3,3,4,4"]) == 0

    def test_frobenius_check_at_non_fixed_point(self, capsys):
        code = main([
            "frobenius-check", "--n", "4", "--w", "3421",
            "--h", "2,3,4,4", "--p", "2",
        ])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: w=3421 is not a fixed point for h=2,3,4,4\n"

    def test_math_failure_exit_one(self, capsys):
        code = main(["gb-check", "--n", "4", "--w", "3421", "--h", "2,3,4,4"])
        assert code == 1

    def test_budget_exit_three(self, capsys):
        code = main([
            "gb-check", "--n", "4", "--w", "3421", "--h", "3,3,4,4",
            "--oracle", "--budget", "1",
        ])
        assert code == 3

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_broken_invariant_exits_one(self, capsys, monkeypatch):
        # an initial term that is not squarefree trips the first invariant
        # of make_splitting_context
        frobenius = importlib.import_module("hesscells.frobenius")
        monkeypatch.setattr(
            frobenius, "initial_term",
            lambda poly, order: (1, Monomial({zvar(1, 1): 2})),
        )
        code = main([
            "frobenius-check", "--n", "4", "--w", "3421",
            "--h", "3,3,4,4", "--p", "3",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(
            "error: internal error: initial monomial of the generator product"
        )
