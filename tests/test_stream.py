"""The streamed sweep report: the per-case JSON formatter and its memo,
the CLI's report against `json.dumps` of `sweep()`, the order of
case-list build and first case, phase A's schedule, and the pool's
fallback and early close."""

import concurrent.futures
import contextlib
import importlib
import io
import json
import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesscells import all_permutations, enumerate_hessenberg
from hesscells.cli import _case_json, _write_json_report, main
from hesscells.sweep import SweepOptions, iter_sweep, run_case, sweep

sweep_mod = importlib.import_module("hesscells.sweep")
cli_mod = importlib.import_module("hesscells.cli")

_ELAPSED = re.compile(r'("elapsedSeconds": )[^\n,}]+')


def reindented(case):
    """The case as `json.dumps(report, indent=2)` writes it in the list."""
    return "\n".join("    " + line for line in json.dumps(case, indent=2).split("\n"))


def cli_out(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def masked(text):
    return _ELAPSED.sub(r'\1"<masked>"', text)


FIXED = run_case(((3, 3, 4, 4), (3, 4, 2, 1), SweepOptions(frobenius_primes=(2,))))
NONFIXED = run_case(((2, 3, 4, 4), (3, 4, 2, 1), SweepOptions()))


class TestCaseFormatter:
    def test_both_key_layouts(self):
        assert FIXED["fixedPoint"] and "frobeniusOk" in FIXED
        assert not NONFIXED["fixedPoint"] and NONFIXED["emptyCertified"] is True
        for case in (FIXED, NONFIXED):
            assert _case_json(case) == reindented(case)

    @pytest.mark.parametrize("failures", [
        [],
        ["budget exhausted in the completion oracle"],
        ['a "quoted" failure', "back\\slash", "non-ASCII: é ∂ \U0001f600",
         "control\n\tcharacters\x00"],
    ])
    def test_budget_exhausted_and_failure_strings(self, failures):
        case = dict(NONFIXED, emptyCertified=None, failures=failures,
                    ok=not failures)
        assert _case_json(case) == reindented(case)

    def test_memo_tells_equal_values_of_other_types_apart(self, monkeypatch):
        # 1 == True == 1.0 and (1,) == (True,): an item memo keyed by the
        # value alone would give each later value the bytes of the first
        monkeypatch.setattr(cli_mod, "_ITEMS", {})
        cases = [{"n": 4, "value": value, "ok": True}
                 for value in (1, True, 1.0, [1], [True], [], ["1"])]
        for case in cases + cases[3:4]:
            assert _case_json(case) == reindented(case)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.text(),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text()
            | st.floats(allow_nan=False),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(), inner, max_size=3),
            max_leaves=8,
        ),
        min_size=1, max_size=6,
    ))
    def test_any_json_value(self, case):
        # types the sweep never emits go through the json.dumps fallback
        assert _case_json(case) == reindented(case)


@pytest.mark.parametrize("cases", [[], [FIXED], [FIXED, NONFIXED]])
def test_report_writer_for_any_number_of_cases(cases):
    head = {"maxN": 4, "options": {"frobeniusPrimes": [], "trunc": 30}}
    tail = {"summary": {"cases": len(cases), "ok": True}, "elapsedSeconds": 0.5}
    out = io.StringIO()
    _write_json_report(out, head, iter(cases), tail)
    report = {**head, "cases": cases, **tail}
    assert out.getvalue() == json.dumps(report, indent=2) + "\n"


class TestStreamedReport:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_json_and_text_equal_the_report(self, jobs):
        argv = ["sweep", "--max-n", "5", "--jobs", str(jobs)]
        code, text = cli_out(*argv, "--format", "json")
        text_code, summary_line = cli_out(*argv)
        report = sweep(5, jobs=1)
        s = report["summary"]
        assert code == text_code == 0
        assert masked(text) == masked(json.dumps(report, indent=2) + "\n")
        assert summary_line == f"{s['cases']} cases, {s['fixedPointCases']} fixed " \
            f"points, {s['failedCases']} failures\n"

    def test_json_with_frobenius_and_oracle_options(self):
        argv = ["sweep", "--max-n", "4", "--frobenius", "2,3", "--oracle-nonfixed",
                "--budget", "500", "--trunc", "5", "--jobs", "1", "--format", "json"]
        code, text = cli_out(*argv)
        report = sweep(4, (2, 3), oracle_nonfixed=True, trunc=5, budget=500)
        assert code == 0
        assert masked(text) == masked(json.dumps(report, indent=2) + "\n")

    def test_failures_in_text_and_json(self, monkeypatch):
        def failing(args):
            case = run_case(args)
            if case["w"][0] == 2:
                case["failures"] = ['made to "fail"']
                case["ok"] = False
            return case

        monkeypatch.setattr(sweep_mod, "run_case", failing)
        code, text = cli_out("sweep", "--max-n", "4", "--jobs", "1")
        json_code, json_text = cli_out("sweep", "--max-n", "4", "--jobs", "1",
                                       "--format", "json")
        report = sweep(4)
        lines = [
            f"FAIL n={c['n']} h={c['h']} w={c['w']}: made to \"fail\""
            for c in report["cases"] if not c["ok"]
        ]
        s = report["summary"]
        lines.append(f"{s['cases']} cases, {s['fixedPointCases']} fixed points, "
                     f"{s['failedCases']} failures")
        assert code == json_code == 1
        assert s["failedCases"] == len(lines) - 1 > 0
        assert text == "\n".join(lines) + "\n"
        assert masked(json_text) == masked(json.dumps(report, indent=2) + "\n")


class TestCaseIterator:
    def test_case_list_is_built_before_the_first_case(self, monkeypatch):
        events = []
        build, run = sweep_mod._case_args, sweep_mod.run_case

        def marked(*args):
            yield from build(*args)
            events.append("built")

        def running(args):
            events.append("case")
            return run(args)

        monkeypatch.setattr(sweep_mod, "_case_args", marked)
        monkeypatch.setattr(sweep_mod, "run_case", running)
        code, _ = cli_out("sweep", "--max-n", "4", "--jobs", "1", "--format", "json")
        assert code == 0
        assert events == ["built"] + ["case"] * (len(events) - 1)
        assert len(events) == 1 + 135

    def test_case_list_shares_each_n_permutation_tuples(self):
        inputs = list(sweep_mod._case_args(4))
        cases = [(h, w) for hs, ws in inputs for h in hs for w in ws]
        assert cases == [
            (h.values, w.images)
            for n in range(1, 5)
            for h in enumerate_hessenberg(n, indecomposable_only=True)
            for w in all_permutations(n)
        ]
        assert len({id(w) for h, w in cases if len(h) == 4}) == 24

    def test_case_args_has_one_entry_per_n(self):
        assert len(list(sweep_mod._case_args(5))) == 5

    def test_pool_that_cannot_start_falls_back_to_serial(self, monkeypatch, caplog):
        def no_pool(*args, **kwargs):
            raise OSError("no pool here")

        _, serial = cli_out("sweep", "--max-n", "4", "--jobs", "1", "--format", "json")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, fallback = cli_out("sweep", "--max-n", "4", "--jobs", "2",
                                 "--format", "json")
        assert code == 0
        assert masked(fallback) == masked(serial)
        [record] = caplog.records
        assert (record.name, record.levelno) == ("hesscells.sweep", logging.WARNING)
        assert "no pool here" in record.getMessage()

    def test_early_close_cancels_the_pending_chunks(self, monkeypatch):
        shutdowns = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append(cancel_futures)
                super().shutdown(wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        _, cases, tail = iter_sweep(5, SweepOptions(), jobs=2)
        first = next(cases)
        cases.close()
        assert (first["n"], first["h"], first["w"]) == (1, [1], [1])
        assert shutdowns == [True]
        assert tail["summary"]["cases"] == 1
        assert tail["elapsedSeconds"] is None


def inversions(w):
    return sum(a > b for i, a in enumerate(w) for b in w[i + 1:])


class TestSchedule:
    @pytest.mark.parametrize("cap", [1, 3, 27, 10_000])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_each_n_goes_longest_first_in_growing_batches(self, n, cap):
        ws = [w.images for w in all_permutations(n)]
        batches = sweep_mod._batches(ws, cap)
        # each w once, by length descending, ties in lexicographic order
        assert [w for b in batches for w in b] == sorted(ws, key=lambda w: (-inversions(w), w))
        assert batches[0] == [tuple(range(n, 0, -1))]
        sizes = [len(b) for b in batches]
        assert sizes[:-1] == [min(cap, 2 ** (i // 2)) for i in range(len(sizes) - 1)]
        assert 0 < sizes[-1] <= cap

    def test_the_pool_gets_each_n_longest_w_first(self, monkeypatch):
        submitted = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, batch, *args, **kwargs):
                submitted.append(batch)
                return super().submit(fn, batch, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        assert sweep(5, jobs=2)["summary"]["ok"]
        ns = [len(batch[0]) for batch in submitted]
        assert ns == sorted(ns)
        assert [submitted[ns.index(n)] for n in range(1, 6)] == [
            [tuple(range(n, 0, -1))] for n in range(1, 6)]
        assert sorted(w for batch in submitted for w in batch) == sorted(
            w.images for n in range(1, 6) for w in all_permutations(n))


class TestBadJobsAndInternalErrors:
    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no pool may start")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

    @pytest.mark.parametrize("jobs", [0, -1, 65])
    def test_jobs_out_of_range(self, jobs, capsys):
        code = main(["sweep", "--max-n", "3", "--jobs", str(jobs), "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: jobs must be between 1 and 64\n"
        with pytest.raises(ValueError, match="jobs must be between 1 and 64"):
            sweep(3, jobs=jobs)

    def test_internal_error_exits_1(self, monkeypatch, capsys):
        def broken(args):
            raise AssertionError("broken invariant")

        monkeypatch.setattr(sweep_mod, "run_case", broken)
        code = main(["sweep", "--max-n", "3", "--jobs", "1", "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error: internal error")
        assert out.startswith("{") and not out.rstrip().endswith("}")
