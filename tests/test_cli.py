import importlib
import io
import json
import os
import runpy
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from frobenius_reference import is_prime

from hesscells import HessenbergFunction, Monomial, Permutation, poly_from_json, zvar
from hesscells.cli import main, main_script
from hesscells.grading_hilbert import TRUNC_CEILING, check_trunc
from hesscells.sweep import SweepOptions, iter_sweep

ROOT = Path(__file__).resolve().parent.parent


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
        assert "axiomSpotChecks" not in doc
        assert doc["ok"] == doc["allCompatible"]

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

    @pytest.mark.parametrize("argv, message", [
        (["gb-check", "--n", "4", "--w", "4321", "--h", "2,3,4"],
         "Hessenberg function '2,3,4' does not have size 4"),
        (["paving", "--n", "5", "--h", "3,4,5,5"],
         "Hessenberg function '3,4,5,5' does not have size 5"),
        (["cell-gens", "--n", "5", "--w", "5,1,2"],
         "permutation '5,1,2' does not have size 5"),
        (["ideal", "--n", "4", "--w", "4321", "--h", "2,2", "--kind", "cell"],
         "Hessenberg function '2,2' does not have size 4"),
    ])
    def test_a_value_of_another_size_gets_the_size_error(self, argv, message, capsys):
        # each value is checked against --n before it is built: the first
        # three would fail their own validation, and h = 2,2 passes it
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

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

    @pytest.mark.parametrize("primes", ["", ",2", "2,", "2,,3"])
    def test_usage_error_on_an_empty_frobenius_item(self, capsys, primes):
        # "" once ran no Frobenius check and exited 0, and ",2" failed with
        # int()'s message, which names no flag
        argv = ["sweep", "--max-n", "3", "--frobenius", primes, "--format", "json",
                "--jobs", "1"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("error: argument --frobenius: must list primes separated "
                            f"by commas, not {primes!r}\n")

    def test_usage_error_on_sweep_ceiling(self, capsys):
        assert main(["sweep", "--max-n", "8"]) == 2
        assert capsys.readouterr().err == "error: max_n must be between 1 and 7\n"
        # one above each per-prime Frobenius ceiling; the least one applies
        for max_n, primes in (("7", "2"), ("6", "5"), ("5", "7"), ("5", "2,7")):
            argv = ["sweep", "--max-n", max_n, "--frobenius", primes,
                    "--format", "json"]
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (f"error: max_n must be between 1 and {int(max_n) - 1} "
                           f"for Frobenius checks at p = {primes}\n")

    def test_usage_error_on_frobenius_check_ceiling(self, capsys, monkeypatch):
        # the ceiling is checked before any splitting context is built
        def refuse(w, p):
            raise AssertionError("a splitting context was built")

        cli = importlib.import_module("hesscells.cli")
        monkeypatch.setattr(cli, "make_splitting_context", refuse)
        for n, w, p in ((7, "1234567", 2), (6, "123456", 5), (5, "12345", 7)):
            argv = ["frobenius-check", "--n", str(n), "--w", w,
                    "--h", ",".join([str(n)] * n), "--p", str(p), "--format", "json"]
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (f"error: n must be between 1 and {n - 1} "
                           f"for Frobenius checks at p = {p}\n")

    def test_usage_error_on_prime_without_ceiling(self, capsys, monkeypatch):
        # checked before any splitting context is built; a number above the
        # largest listed prime is refused with no primality test
        def refuse(w, p):
            raise AssertionError("a splitting context was built")

        cli = importlib.import_module("hesscells.cli")
        monkeypatch.setattr(cli, "make_splitting_context", refuse)
        primes = "2, 3, 5, 7, 11, 13, 17, 19"
        for argv, bad in (
            (["frobenius-check", "--n", "4", "--w", "4321", "--h", "2,3,4,4",
              "--p", "23"], "23"),
            (["frobenius-check", "--n", "1", "--w", "1", "--h", "1",
              "--p", "101"], "101"),
            (["sweep", "--max-n", "3", "--frobenius", "2,23"], "23"),
            (["sweep", "--max-n", "1", "--frobenius", "29,3", "--jobs", "2"], "29"),
            (["sweep", "--max-n", "3", "--frobenius", "25"], "25"),
        ):
            assert main(argv + ["--format", "json"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (f"error: p = {bad} has no Frobenius ceiling; "
                           f"the primes are {primes}\n")
        # a number that is not prime keeps its message, wherever it is listed
        for argv in (["sweep", "--max-n", "3", "--frobenius", "23,6"],
                     ["frobenius-check", "--n", "4", "--w", "4321",
                      "--h", "2,3,4,4", "--p", "6"]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: 6 is not prime\n"

    def test_large_prime_is_refused_at_once(self, capsys):
        # 2^61 - 1 is prime; trial division up to its square root would hang
        p = 2**61 - 1
        for argv in (["sweep", "--max-n", "3", "--frobenius", str(p)],
                     ["frobenius-check", "--n", "4", "--w", "4321",
                      "--h", "2,3,4,4", "--p", str(p)]):
            start = time.perf_counter()
            assert main(argv) == 2
            assert time.perf_counter() - start < 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (f"error: p = {p} has no Frobenius ceiling; "
                           "the primes are 2, 3, 5, 7, 11, 13, 17, 19\n")

    def test_every_accepted_prime_is_prime_and_has_a_ceiling(self):
        frobenius_mod = importlib.import_module("hesscells.frobenius")
        primes = list(frobenius_mod.FROBENIUS_CEILINGS)
        assert primes == [p for p in range(2, primes[-1] + 1) if is_prime(p)]
        assert frobenius_mod.frobenius_ceiling(primes) == 4
        assert not hasattr(frobenius_mod, "FROBENIUS_DEFAULT_CEILING")

    def test_frobenius_ceiling_of_no_prime_and_of_a_one_shot_iterator(self):
        frobenius_mod = importlib.import_module("hesscells.frobenius")
        with pytest.raises(ValueError, match="^a Frobenius ceiling needs at least one prime$"):
            frobenius_mod.frobenius_ceiling(())
        assert frobenius_mod.frobenius_ceiling(iter([2])) == 6
        assert frobenius_mod.frobenius_ceiling(iter([2, 5])) == 5

    def test_frobenius_check_at_the_largest_prime(self, capsys):
        p = max(importlib.import_module("hesscells.frobenius").FROBENIUS_CEILINGS)
        argv = ["frobenius-check", "--n", "4", "--w", "4321", "--h", "2,3,4,4",
                "--p", str(p)]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith("\ncompatible\n")

    def test_frobenius_check_at_the_ceiling(self, capsys):
        for n, p in ((6, 3), (5, 5), (4, 7)):
            w = "".join(map(str, range(1, n + 1)))
            h = ",".join(map(str, list(range(2, n + 1)) + [n]))
            argv = ["frobenius-check", "--n", str(n), "--w", w, "--h", h,
                    "--p", str(p)]
            assert main(argv) == 0
            assert capsys.readouterr().out.endswith("\ncompatible\n")

    def test_usage_error_above_ceiling_for_permutation_walks(self, capsys):
        assert main(["fixed-points", "--n", "8", "--h", "8,8,8,8,8,8,8,8"]) == 2
        assert capsys.readouterr().err == "error: n must be between 1 and 7\n"
        assert main(["paving", "--n", "8", "--h", "2,3,4,5,6,7,8,8"]) == 2
        assert capsys.readouterr().err == "error: n must be between 1 and 7\n"
        assert main(["fixed-points", "--n", "7", "--h", "2,3,4,5,6,7,7"]) == 0

    def test_usage_error_on_sweep_trunc_below_one(self, capsys):
        # no verdict reads trunc: 1 gives trunc 30's cases
        assert main(["sweep", "--max-n", "4", "--trunc", "0"]) == 2
        assert capsys.readouterr() == ("", "error: trunc must be at least 1, not 0\n")
        reports = [run_json(capsys, "sweep", "--max-n", "4", "--trunc", trunc)
                   for trunc in ("1", "30")]
        assert [code for code, _ in reports] == [0, 0]
        assert reports[0][1]["options"]["trunc"] == 1
        assert reports[0][1]["cases"] == reports[1][1]["cases"]

    def test_usage_error_on_hilbert_trunc_below_one(self, capsys):
        argv = ["hilbert", "--n", "4", "--w", "3421", "--h", "3,3,4,4"]
        assert main(argv + ["--trunc", "0"]) == 2
        assert capsys.readouterr() == ("", "error: trunc must be at least 1, not 0\n")
        assert main(argv + ["--trunc", "1"]) == 0
        assert capsys.readouterr().out.endswith(
            "coefficients (to t^1): [1, 1]\noracle agrees: True\n")

    def test_usage_error_on_trunc_above_the_ceiling(self, capsys):
        for argv in (["hilbert", "--n", "4", "--w", "3421", "--h", "3,3,4,4"],
                     ["sweep", "--max-n", "2"]):
            for trunc in (TRUNC_CEILING + 1, 10**100):
                assert main(argv + ["--trunc", str(trunc), "--format", "json"]) == 2
                assert capsys.readouterr() == (
                    "", f"error: trunc must be at most {TRUNC_CEILING}\n")
        assert main(["sweep", "--max-n", "2", "--trunc", str(TRUNC_CEILING)]) == 0
        check_trunc(TRUNC_CEILING)
        with pytest.raises(ValueError, match="^trunc must be at most 1000000$"):
            iter_sweep(2, SweepOptions(trunc=TRUNC_CEILING + 1))

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

    def test_frobenius_check_has_no_seed(self, capsys):
        argv = ["frobenius-check", "--n", "4", "--w", "3421", "--h", "3,3,4,4",
                "--p", "3", "--seed", "1", "--format", "json"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --seed 1" in err

    def test_usage_error_on_negative_budget(self, capsys):
        for argv in (["sweep", "--max-n", "4", "--budget", "-5"],
                     ["gb-check", "--n", "3", "--w", "321", "--h", "2,3,3",
                      "--oracle", "--budget", "-1"]):
            assert main(argv + ["--format", "json"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "argument --budget: must be at least 0, not -" in err
        argv = ["gb-check", "--n", "3", "--w", "321", "--h", "2,3,3", "--oracle"]
        assert main(argv + ["--budget", "x"]) == 2
        assert "argument --budget: invalid step_count value: 'x'" in \
            capsys.readouterr().err
        assert main(argv + ["--budget", "0"]) == 3  # no step allowed

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

    def test_packed_initial_term_mismatch_exits_one(self, capsys, monkeypatch):
        # initial terms whose product is 1 pass the first invariant, but
        # the packed generator product's largest term is not 1: the second
        # invariant of make_splitting_context
        frobenius = importlib.import_module("hesscells.frobenius")
        monkeypatch.setattr(frobenius, "initial_term",
                            lambda poly, order: (1, Monomial()))
        code = main([
            "frobenius-check", "--n", "4", "--w", "3421",
            "--h", "3,3,4,4", "--p", "3",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: internal error: packed initial term of the generator "
            "product is z_1_1*z_1_3, not the product 1*1 of the generators' "
            "initial terms\n")

    def test_vanishing_initial_coefficient_exits_one(self, capsys, monkeypatch):
        # initial coefficients that vanish mod p (tripled, at p = 3) are
        # caught by the packed cross-check of every prime: their product is
        # 0 there, not the packed G's largest term
        frobenius = importlib.import_module("hesscells.frobenius")
        initial_term = frobenius.initial_term

        def tripled(poly, order):
            c, m = initial_term(poly, order)
            return 3 * c, m

        monkeypatch.setattr(frobenius, "initial_term", tripled)
        code = main([
            "frobenius-check", "--n", "4", "--w", "3421",
            "--h", "3,3,4,4", "--p", "3",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: internal error: packed initial term of the generator "
            "product is z_1_1*z_1_3, not the product 0*z_1_1*z_1_3 of the "
            "generators' initial terms\n")

    def test_index_error_exits_one(self, capsys, monkeypatch):
        # only the bounds checks of Permutation and HessenbergFunction raise
        # IndexError, and no argument reaches them: it is an internal bug,
        # not a usage error
        def broken(args):
            raise IndexError("index 5 out of range 1..4")

        cli = importlib.import_module("hesscells.cli")
        monkeypatch.setattr(cli, "cmd_ideal", broken)
        code = main(["ideal", "--n", "4", "--w", "3421", "--h", "3,3,4,4",
                     "--kind", "cell"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: internal error: index 5 out of range 1..4\n")


def test_closed_stdout_exits_without_a_traceback():
    # the `hesscells` script's path; in-process `main` does not catch it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hesscells.cli",
         "sweep", "--max-n", "5", "--format", "json", "--jobs", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert err == ""  # no Traceback


FIXED_POINTS_ARGV = ["hesscells", "fixed-points", "--n", "3", "--h", "2,3,3"]
FIXED_POINTS_TEXT = "123\n132\n213\n321\n4 fixed points\n"


def run_script(monkeypatch, stdout, call):
    """`call()`'s exit code, run with the `hesscells` script's argv and
    `stdout` as sys.stdout."""
    monkeypatch.setattr(sys, "argv", FIXED_POINTS_ARGV)
    monkeypatch.setattr(sys, "stdout", stdout)
    with pytest.raises(SystemExit) as exc:
        call()
    return exc.value.code


def test_main_script_exits_with_main_code(tmp_path, monkeypatch):
    with open(tmp_path / "out", "w") as out:
        code = run_script(monkeypatch, out, main_script)
    assert code == 0
    assert (tmp_path / "out").read_text() == FIXED_POINTS_TEXT


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: its flush raises BrokenPipeError;
    its descriptor is a file of its own."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def fileno(self):
        return self.fd

    def flush(self):
        raise BrokenPipeError


def test_main_script_exits_141_on_a_closed_stdout(tmp_path, monkeypatch):
    with open(tmp_path / "out", "w") as out:
        stdout = ClosedPipe(out.fileno())
        code = run_script(monkeypatch, stdout, main_script)
        assert stdout.getvalue() == FIXED_POINTS_TEXT
        out.write("after")  # the descriptor now points at devnull
    assert code == 141
    assert (tmp_path / "out").read_text() == ""


def test_running_the_module_calls_main_script(tmp_path, monkeypatch):
    def run_module():
        with warnings.catch_warnings():  # hesscells.cli is imported already
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module("hesscells.cli", run_name="__main__")

    with open(tmp_path / "out", "w") as out:
        code = run_script(monkeypatch, out, run_module)
    assert code == 0
    assert (tmp_path / "out").read_text() == FIXED_POINTS_TEXT
