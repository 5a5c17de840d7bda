"""The streamed sweep report: the JSON writer of the sweep's tables and
its memo, the CLI's report against `json.dumps` of `sweep()`, in any
arrival order of the tables, the order of case-list build and first table,
phase A's schedule, the pool's fallback and early close, and the exit code
of an error raised mid-stream."""

import concurrent.futures
import contextlib
import hashlib
import importlib
import io
import json
import logging
import random
import re
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesscells import (
    Permutation,
    all_permutations,
    enumerate_hessenberg,
    make_splitting_context,
)
from hesscells.cli import _write_json_report, main
from hesscells.sweep import SweepOptions, case_dict, case_rows, iter_sweep, run_case, sweep
from sweep_digest import PINS

sweep_mod = importlib.import_module("hesscells.sweep")
frobenius_mod = importlib.import_module("hesscells.frobenius")

_ELAPSED = re.compile(r'("elapsedSeconds": )[^\n,}]+')

HEAD = {"maxN": 4, "options": {"frobeniusPrimes": [], "trunc": 30}}
TAIL = {"summary": {"cases": 0, "ok": True}, "elapsedSeconds": 0.5}


def stream(grids):
    """An `iter_sweep` stream of hand-made grids (hs, ws, entries), one per
    n, entries[i][j] the entry of the i-th h and the j-th w.  The cases of
    w that share an entry object share its place in w's table, and the
    tables arrive in reverse order of ws."""
    for hs, ws, entries in grids:
        tables = []
        for j, w in enumerate(ws):
            places = {}
            for row in entries:
                places.setdefault(id(row[j]), (len(places), row[j]))
            index = array("H", (places[id(row[j])][0] for row in entries))
            tables.append((w, (tuple(entry for _, entry in places.values()), index)))
        yield hs, ws, iter(tables[::-1])


def written(grids):
    """The report `_write_json_report` writes for `grids`."""
    out = io.StringIO()
    _write_json_report(out, HEAD, stream(grids), TAIL)
    return out.getvalue()


def dumped(grids):
    """`json.dumps` of the same report, each case `case_dict` of its row."""
    report = {**HEAD, "cases": [case_dict(*row) for row in case_rows(stream(grids))],
              **TAIL}
    return json.dumps(report, indent=2) + "\n"


def grid(*rows):
    """The grid of rows (h, w, entry) on their h and w, in order of first
    use, each (h, w) given once."""
    hs, ws = list(dict.fromkeys(h for h, _, _ in rows)), list(dict.fromkeys(w for _, w, _ in rows))
    entries = [[None] * len(ws) for _ in hs]
    for h, w, entry in rows:
        entries[hs.index(h)][ws.index(w)] = entry
    return hs, ws, entries


def cli_out(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def masked(text):
    return _ELAPSED.sub(r'\1"<masked>"', text)


def table_seam(monkeypatch, change):
    """Route phase A through `change(w_images, table)`, the table
    (entries, index); the tables are built here, for the tests that use it
    run with --jobs 1."""
    w_table = sweep_mod._w_table
    monkeypatch.setattr(sweep_mod, "_w_table",
                        lambda w_images, opts: change(w_images, w_table(w_images, opts)))


# rows (h, w, entry) as `case_rows` yields them
FIXED = ((3, 3, 4, 4), (3, 4, 2, 1), ((True, 2, 3, True, True, True, True, True, True), ()))
NONFIXED = ((2, 3, 4, 4), (3, 4, 2, 1), ((False, True, True), ()))
W0 = (4, 3, 2, 1)


class TestCaseFormatter:
    def test_both_key_layouts(self):
        assert case_dict(*FIXED) == run_case(
            FIXED[:2] + (SweepOptions(frobenius_primes=(2,)),))
        assert case_dict(*NONFIXED) == run_case(NONFIXED[:2] + (SweepOptions(),))
        assert "frobeniusOk" in case_dict(*FIXED)
        assert case_dict(*NONFIXED)["emptyCertified"] is True
        both = grid(FIXED, NONFIXED, NONFIXED[:1] + (W0, FIXED[2]),
                    FIXED[:1] + (W0, NONFIXED[2]))
        for grids in ([grid(FIXED)], [grid(NONFIXED)], [both], [grid(FIXED), both]):
            assert written(grids) == dumped(grids)

    @pytest.mark.parametrize("failures", [
        [],
        ["budget exhausted in the completion oracle"],
        ['a "quoted" failure', "back\\slash", "non-ASCII: é ∂ \U0001f600",
         "control\n\tcharacters\x00"],
    ])
    def test_budget_exhausted_and_failure_strings(self, failures):
        row = NONFIXED[:2] + (((False, True, None), tuple(failures)),)
        assert case_dict(*row)["emptyCertified"] is None
        assert case_dict(*row)["ok"] is (not failures)
        grids = [grid(row, NONFIXED[:1] + (W0, NONFIXED[2])), grid(NONFIXED),
                 grid(row[:1] + (W0, row[2]))]
        assert written(grids) == dumped(grids)

    def test_memo_tells_equal_values_of_other_types_apart(self):
        # 1 == True == 1.0 and (True, 1) == (1, True): a memo keyed by the
        # entry alone would give each later entry the bytes of the first
        h, w, _ = FIXED
        entries = [((True, value, 3, True, True, True, True, True), ())
                   for value in (1, True, 1.0)]
        entries += [((fixed, False, None), ()) for fixed in (False, 0, 0.0)]
        entries += [((False, value, None), ("1",)) for value in (0, False, None)]
        entries += [((False, value, None), ()) for value in (0.0, -0.0, (1,), (True,))]
        entries += entries[3:4]
        hs = [(k,) * 4 for k in range(len(entries))]
        ws = [w.images for w in all_permutations(4)][:len(entries)]
        # one h whose entries arrive in one table each, and one w whose
        # table holds them all
        grids = [([h], ws, [entries]), (hs, [w], [[entry] for entry in entries])]
        assert written(grids) == dumped(grids)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.integers(1, 4).flatmap(lambda n: st.tuples(
            st.lists(st.lists(st.integers(), min_size=n, max_size=n).map(tuple),
                     max_size=3, unique=True),
            st.lists(st.lists(st.integers(), min_size=n, max_size=n).map(tuple),
                     min_size=1, max_size=3, unique=True),
        )).flatmap(lambda hw: st.tuples(
            st.just(hw[0]), st.just(hw[1]),
            st.lists(st.lists(st.tuples(
                st.tuples(st.booleans(), st.lists(st.recursive(
                    st.none() | st.booleans() | st.integers() | st.text() | st.floats(),
                    lambda inner: st.lists(inner, max_size=3).map(tuple),
                    max_leaves=4,
                ), max_size=9)).map(lambda fv: (fv[0], *fv[1])),
                st.lists(st.text(), max_size=3).map(tuple),
            ), min_size=len(hw[1]), max_size=len(hw[1])),
                min_size=len(hw[0]), max_size=len(hw[0])),
        )),
        max_size=3,
    ))
    def test_any_json_value(self, grids):
        # any hashable value, repeated or not: equal values such as 0 and
        # -0.0, or (1,) and (True,), must keep their own bytes; types the
        # sweep never emits go through the json.dumps fallback
        assert written(grids + grids) == dumped(grids + grids)


@pytest.mark.parametrize("cases", [[], [FIXED], [FIXED, NONFIXED]])
def test_report_writer_for_any_number_of_cases(cases):
    grids = [grid(case) for case in cases]
    assert written(grids) == dumped(grids)


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
        def failing(w_images, table):
            if w_images[0] != 2:
                return table
            entries, index = table
            return tuple((values, ('made to "fail"',)) for values, _ in entries), index

        table_seam(monkeypatch, failing)
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

    def test_the_text_report_walks_no_row_of_an_n_without_a_failing_entry(self, monkeypatch):
        # one failing entry, of w = 132; the index of every w of another n
        # refuses a lookup, which only a walk of its rows makes
        class Unread(array):
            def __getitem__(self, i):
                raise AssertionError("a row of an n with no failing entry was walked")

        w = (1, 3, 2)
        entries, index = sweep_mod._w_table(w, SweepOptions())
        lines = [f"FAIL n=3 h={list(h)} w={list(w)}: made to \"fail\""
                 for h, place in zip(sweep_mod._h_facts(3), index) if place == 0]

        def failing(w_images, table):
            entries, index = table
            if len(w_images) != 3:
                return entries, Unread("H", index)
            if w_images == w:
                entries = ((entries[0][0], ('made to "fail"',)), *entries[1:])
            return entries, index

        table_seam(monkeypatch, failing)
        code, text = cli_out("sweep", "--max-n", "4", "--jobs", "1")
        assert code == 1
        assert text == "\n".join(lines) + f"\n135 cases, 87 fixed points, {len(lines)} failures\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_the_cli_makes_no_run_case_call(self, fmt, monkeypatch):
        def refuse(args):
            raise AssertionError("the sweep called run_case")

        expected = cli_out("sweep", "--max-n", "4", "--format", fmt)
        monkeypatch.setattr(sweep_mod, "run_case", refuse)
        code, text = cli_out("sweep", "--max-n", "4", "--format", fmt)
        assert code == expected[0] == 0
        assert masked(text) == masked(expected[1])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_arrival_order_cannot_reach_the_report(self, jobs, monkeypatch):
        # one w per batch, in a seeded shuffle: n's tables arrive in an
        # order of w that neither the rows nor the schedule have
        def shuffled(n_ws, cap):
            ws = list(n_ws)
            random.Random(len(ws)).shuffle(ws)
            return [[w] for w in ws]

        monkeypatch.setattr(sweep_mod, "_batches", shuffled)
        argv = ["sweep", "--max-n", "5", "--jobs", str(jobs)]
        code, text = cli_out(*argv, "--format", "json")
        assert code == 0
        assert hashlib.sha256(masked(text).encode()).hexdigest() == PINS[5]
        assert cli_out(*argv, "--format", "text") == (
            0, "1815 cases, 793 fixed points, 0 failures\n")


class TestCaseIterator:
    def test_case_list_is_built_before_the_first_case(self, monkeypatch):
        events = []
        build = sweep_mod._case_args

        def marked(*args):
            yield from build(*args)
            events.append("built")

        def building(w_images, table):
            events.append("table")
            return table

        monkeypatch.setattr(sweep_mod, "_case_args", marked)
        table_seam(monkeypatch, building)
        code, _ = cli_out("sweep", "--max-n", "4", "--jobs", "1", "--format", "json")
        assert code == 0
        assert events == ["built"] + ["table"] * (len(events) - 1)
        assert len(events) == 1 + 1 + 2 + 6 + 24

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

    def test_pool_that_cannot_take_a_task_falls_back_to_serial(self, monkeypatch, caplog):
        shutdowns = []

        class Failing(concurrent.futures.ProcessPoolExecutor):
            submitted = 0

            def submit(self, *args, **kwargs):  # the pool takes two tasks
                Failing.submitted += 1
                if Failing.submitted > 2:
                    raise OSError("no third task")
                return super().submit(*args, **kwargs)

            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append(cancel_futures)
                super().shutdown(wait, cancel_futures=cancel_futures)

        _, serial = cli_out("sweep", "--max-n", "4", "--jobs", "1", "--format", "json")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Failing)
        code, fallback = cli_out("sweep", "--max-n", "4", "--jobs", "2",
                                 "--format", "json")
        assert code == 0
        assert masked(fallback) == masked(serial)
        assert (Failing.submitted, shutdowns) == (3, [True])
        [record] = caplog.records
        assert (record.name, record.levelno) == ("hesscells.sweep", logging.WARNING)
        assert "no third task" in record.getMessage()

    def test_early_close_cancels_the_pending_chunks(self, monkeypatch):
        shutdowns = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append(cancel_futures)
                super().shutdown(wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        _, tables, tail = iter_sweep(5, SweepOptions(), jobs=2)
        rows = case_rows(tables)
        first = case_dict(*next(rows))
        rows.close()
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
            def map(self, fn, batches, *iterables, **kwargs):
                # the queue handed to map; the options repeat without end
                batches = list(batches)
                submitted.extend(batches)
                return super().map(fn, batches, *iterables, **kwargs)

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

    def test_negative_budget_is_refused_before_any_row(self):
        with pytest.raises(ValueError, match="^budget must be at least 0, not -1$"):
            iter_sweep(3, SweepOptions(budget=-1))
        _, tables, _ = iter_sweep(3, SweepOptions(budget=0))
        assert next(case_rows(tables))

    def test_a_list_of_primes_acts_as_a_tuple(self):
        listed, paired = SweepOptions(frobenius_primes=[2]), SweepOptions(frobenius_primes=(2,))
        assert listed == paired and hash(listed) == hash(paired)
        assert list(case_rows(iter_sweep(3, listed)[1])) == list(
            case_rows(iter_sweep(3, paired)[1]))
        assert run_case(FIXED[:2] + (listed,)) == run_case(FIXED[:2] + (paired,))

    def test_repeated_prime_is_refused_alike(self, capsys):
        argv = ["sweep", "--max-n", "3", "--frobenius", "2,3,2", "--format", "json"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: p = 2 is listed more than once\n")
        with pytest.raises(ValueError, match="^p = 3 is listed more than once$"):
            sweep(3, frobenius_primes=(3, 3))

    @pytest.mark.parametrize("probe, message", [
        (lambda: sweep(3.0), "max_n must be an integer, not 3.0"),
        (lambda: sweep(max_n=True), "max_n must be an integer, not True"),
        (lambda: sweep(3, jobs=2.0), "jobs must be an integer, not 2.0"),
        (lambda: sweep(3, jobs=True), "jobs must be an integer, not True"),
        (lambda: sweep(3, trunc=30.5), "trunc must be an integer, not 30.5"),
        (lambda: sweep(3, budget=10.5), "budget must be an integer, not 10.5"),
        (lambda: sweep(3, frobenius_primes=(2.0,)), "p must be an integer, not 2.0"),
        (lambda: sweep(3, frobenius_primes=("2",)), "p must be an integer, not '2'"),
        (lambda: sweep(3, frobenius_primes=(3, True)), "p must be an integer, not True"),
        (lambda: iter_sweep(3.0, SweepOptions()), "max_n must be an integer, not 3.0"),
        (lambda: run_case(FIXED[:2] + (SweepOptions(trunc=30.5),)),
         "trunc must be an integer, not 30.5"),
        (lambda: run_case(FIXED[:2] + (SweepOptions(frobenius_primes=(2.0,)),)),
         "p must be an integer, not 2.0"),
        (lambda: make_splitting_context(Permutation(FIXED[1]), 3.0),
         "p must be an integer, not 3.0"),
        (lambda: SweepOptions(5), "frobenius_primes must be a sequence of integers, not 5"),
        (lambda: sweep(2, frobenius_primes=None),
         "frobenius_primes must be a sequence of integers, not None"),
    ], ids=range(15))
    def test_non_integer_refused_before_any_work(self, monkeypatch, probe, message):
        # a float or bool size, jobs, trunc, budget or prime once reached
        # `range`, or matched a listed prime and failed deep in a context;
        # a prime list that is not iterable raised TypeError
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(sweep_mod, "_w_table", refuse)
        monkeypatch.setattr(frobenius_mod, "_splitting_base", refuse)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            probe()

    def test_auto_jobs_stays_valid(self):
        # None, one worker per CPU, is the one jobs value that is no int
        assert iter_sweep(3, SweepOptions(), None)[0]["maxN"] == 3

    def test_internal_error_exits_1(self, monkeypatch, capsys):
        def broken(w_images, table):
            raise AssertionError("broken invariant")

        table_seam(monkeypatch, broken)
        code = main(["sweep", "--max-n", "3", "--jobs", "1", "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error: internal error")
        assert out.startswith("{") and not out.rstrip().endswith("}")

    def test_value_error_mid_stream_is_internal_but_bad_arguments_are_usage(
            self, monkeypatch, capsys):
        def broken(w_images, table):
            if len(w_images) == 3:
                raise ValueError("no table for n = 3")
            return table

        table_seam(monkeypatch, broken)
        code = main(["sweep", "--max-n", "3", "--jobs", "1", "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == "error: internal error: no table for n = 3\n"
        # the cases of n <= 2 are out, and the report is not terminated
        assert out.startswith("{") and '"w": [\n        2,\n        1\n      ]' in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        code = main(["sweep", "--max-n", "0", "--jobs", "1", "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: max_n must be between 1 and 7\n"
