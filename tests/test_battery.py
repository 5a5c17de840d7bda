"""The sweep's two phases: phase A (`_w_table`) decides every case of w and
checks each distinct cell ideal once, in any order of w and on any number
of pool workers; phase B (the sweep's stream of tables and its rows, and
`run_case` for one case) only looks the case up and gives the results a fresh table gives, in any
case order and for two truncation orders in one process, and every case
still reports the verdict of its own ideal.  `hilbertOk` compares the two Hilbert series exactly, so no
truncation order changes it and no series is expanded."""

import importlib
import io
import random
import re
import sys
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest
from cells_reference import dual_h, dual_w, q_integer_product
from per_w_caches import per_w_caches

from hesscells import (
    HessenbergFunction,
    HilbertSeries,
    Permutation,
    Polynomial,
    PolyMatrix,
    all_permutations,
    build_ideal,
    cell_generators,
    enumerate_hessenberg,
)
from hesscells.cli import _write_json_report
from hesscells.combinat import is_fixed_point, v_of_w
from hesscells.sweep import SweepOptions, case_dict, case_rows, iter_sweep, run_case, sweep

sweep_mod = importlib.import_module("hesscells.sweep")
cells_mod = importlib.import_module("hesscells.cells")
hilbert_mod = importlib.import_module("hesscells.grading_hilbert")


def cases_up_to(max_n):
    return [
        (h, w)
        for n in range(1, max_n + 1)
        for h in enumerate_hessenberg(n, indecomposable_only=True)
        for w in all_permutations(n)
    ]


def fixed_entries(table):
    """The distinct entries of a table (entries, index)'s fixed points, by
    identity: the h with an equal key share one."""
    entries, index = table
    return {id(entries[place]): entries[place] for place in index if entries[place][0][0]}


def key_of(pres, trunc=30):
    """The battery key read off a per-case build, as bits k * n + l."""
    w = pres.w
    n, v = w.n, v_of_w(w)
    nonzero = sum(1 << (k * n + l) for k, l, g in pres.generators if not g.is_zero)
    filtered = sum(1 << (k * n + l) for k, l, _ in pres.generators if v(k) > v(l) + 1)
    return w.images, nonzero, filtered, trunc


def counting_buchberger(monkeypatch, result=None):
    calls = []
    check = sweep_mod.buchberger_check

    def counting(*args):
        calls.append(1)
        return check(*args) if result is None else result

    monkeypatch.setattr(sweep_mod, "buchberger_check", counting)
    return calls


def test_memo_hits_equal_fresh_runs_in_shuffled_order():
    args = [
        (h.values, w.images, SweepOptions(trunc=trunc))
        for h, w in cases_up_to(5)
        for trunc in (4, 30)
    ]
    random.Random(7).shuffle(args)
    memoized = [run_case(a) for a in args]
    fixed = sum(case["fixedPoint"] for case in memoized)
    verdicts = sum(len(fixed_entries(t)) for t in sweep_mod._TABLES.values())
    assert 0 < verdicts < fixed  # hits happened
    fresh = []
    for a in args:
        sweep_mod._TABLES.clear()
        fresh.append(run_case(a))
    assert memoized == fresh


def test_phase_b_matches_the_per_case_build(monkeypatch):
    # phase A with a stub battery: one entry per h, shared by the h of one ideal
    monkeypatch.setattr(sweep_mod, "_run_battery", lambda pres, facts, constant: ((), ()))
    for n in range(1, 7):
        hs = list(enumerate_hessenberg(n, indecomposable_only=True))
        for w in all_permutations(n):
            table = sweep_mod._w_table(w.images, SweepOptions())
            entries, index = table
            assert len(index) == len(hs)
            pairs = set()
            for h, place in zip(hs, index):
                entry = entries[place]
                values, failures = entry
                pres = build_ideal(w, h)
                assert values[0] is is_fixed_point(w, h)
                _, _, positions, _ = sweep_mod._h_facts(n)[h.values]
                assert positions.bit_count() == pres.lambda_size == h.lambda_size()
                assert "generator count differs from the partition size" not in failures
                if values[0]:
                    pairs.add((id(entry), key_of(pres)))
                else:
                    assert values[1] is pres.certifies_empty
            ids, keys = zip(*pairs) if pairs else ((), ())
            assert len(pairs) == len(fixed_entries(table)) == len(set(ids)) == len(set(keys))


def test_one_buchberger_check_per_distinct_ideal(monkeypatch):
    ideals = set()
    fixed = 0
    for h, w in cases_up_to(5):
        if is_fixed_point(w, h):
            fixed += 1
            pres, v = build_ideal(w, h), v_of_w(w)
            ideals.add((
                w.images,
                frozenset((k, l) for k, l, g in pres.generators if not g.is_zero),
                frozenset((k, l) for k, l, _ in pres.generators if v(k) > v(l) + 1),
            ))
    calls = counting_buchberger(monkeypatch)
    report = sweep(5, jobs=1)
    assert report["summary"]["ok"]
    assert report["summary"]["fixedPointCases"] == fixed == 793
    assert len(calls) == len(ideals) == 310


def test_phase_a_checks_each_ideal_once_in_any_order_of_w(monkeypatch):
    calls = counting_buchberger(monkeypatch)
    ws = [w.images for n in range(1, 6) for w in all_permutations(n)]
    tables = []
    for seed in (3, 11):
        random.Random(seed).shuffle(ws)
        del calls[:]
        tables.append({w: sweep_mod._w_table(w, SweepOptions()) for w in ws})
        assert len(calls) == 310
    assert tables[0] == tables[1]


def test_a_pool_gives_the_serial_report():
    pooled, serial = sweep(5, jobs=2), sweep(5, jobs=1)
    del pooled["elapsedSeconds"], serial["elapsedSeconds"]
    assert pooled == serial


def watched_rows(jobs):
    """(`case_rows` of a sweep to n = 4, the tables it has handed on and
    that are still held: the size n of w for each)."""
    handed = []

    def watched(stream):
        for hs, ws, tables in stream:
            yield hs, ws, (handed.append((len(w), weakref.ref(table[1]))) or (w, table)
                           for w, table in tables)

    def held():
        return [n for n, index in handed if index() is not None]

    return case_rows(watched(iter_sweep(4, SweepOptions(), jobs)[1])), held


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_n_drops_its_tables_once_its_cases_are_out(jobs):
    rows, held = watched_rows(jobs)
    for _, w, _ in rows:
        assert set(held()) == {len(w)}
    assert held() == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_n_has_all_its_tables_at_its_first_case(jobs):
    rows, held = watched_rows(jobs)
    first = {}
    for _, w, _ in rows:
        first.setdefault(len(w), len(held()))
    assert first == {1: 1, 2: 2, 3: 6, 4: 24}


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_json_writer_holds_one_n_once_it_reads_a_table(jobs):
    # The writer keeps n's columns, one reference per case, until n's last
    # table is in: once it has read a table of n, every case of n - 1 is
    # written, and neither its columns nor the tables handed on hold n - 1.
    out, handed, checked = io.StringIO(), [], []

    def watched(stream):
        written = 0
        for hs, ws, tables in stream:
            yield hs, ws, watched_tables(tables, written)
            written += len(hs) * len(ws)

    def watched_tables(tables, written):
        for w, table in tables:
            handed.append((len(w), weakref.ref(table[1])))
            yield w, table
            # resumed by the writer, which has read w's table
            columns = sys._getframe(1).f_locals["columns"]
            held = {n for n, index in handed if index() is not None}
            assert {len(v) for v in columns} == held == {len(w)}
            assert out.getvalue().count('\n      "n": ') == written
            checked.append(len(w))

    head, stream, tail = iter_sweep(4, SweepOptions(), jobs)
    _write_json_report(out, head, watched(stream), tail)
    assert Counter(checked) == {1: 1, 2: 2, 3: 6, 4: 24}
    assert [n for n, index in handed if index() is not None] == []
    assert out.getvalue().count('\n      "n": ') == tail["summary"]["cases"] == 135


def test_each_h_of_the_sweep_has_the_paving_generating_function():
    # Anderson-Tymoczko: the sum of t^dim over the fixed points of h is the
    # product of the t-integers [h(j) - j + 1]_t (at t = 1, the number of
    # fixed points), so each row must carry its own case's entry.
    # Flag duality: V_i -> V_{n-i}^perp, for the form with Gram matrix w0,
    # maps the Schubert cell of w onto that of w0 w w0 and, as
    # w0 N^T w0 = N, Hess(N, h) onto Hess(N, h^T); so (h, w) and
    # (h^T, w0 w w0) have the same entry, from separate polynomial work.
    dims, entries = {}, {}
    for row in case_rows(iter_sweep(6, SweepOptions())[1]):
        case = case_dict(*row)
        ds = dims.setdefault(row[0], [])
        if case["fixedPoint"]:
            ds.append(case["dim"])
        entries[row[:2]] = row[2]
    assert len(dims) == 1 + 1 + 2 + 5 + 14 + 42  # Catalan(n - 1) h per n
    for h, ds in dims.items():
        coeffs = [0] * (max(ds) + 1)
        for d in ds:
            coeffs[d] += 1
        assert coeffs == q_integer_product([b - j for j, b in enumerate(h)]), h
        assert dual_h(dual_h(h)) == h
    assert len(entries) == 32_055
    for (h, w), entry in entries.items():
        assert entries[dual_h(h), dual_w(w)] == entry, (h, w)


def test_a_failing_verdict_reaches_every_case_of_the_ideal(monkeypatch):
    calls = counting_buchberger(monkeypatch, result=False)
    report = sweep(4, jobs=1)
    fixed = [case for case in report["cases"] if case["fixedPoint"]]
    assert len(fixed) == 87 > len(calls)
    for case in fixed:
        assert case["gbOk"] is False
        assert case["failures"] == ["gbOk failed"]
    assert not any(case["ok"] for case in fixed)
    assert all(case["ok"] for case in report["cases"] if not case["fixedPoint"])


@pytest.mark.parametrize("homogeneous", [True, False])
def test_a_generator_outside_the_index_filter_fails_homogeneity(homogeneous, monkeypatch):
    # the filter loses the first nonzero generator, which is also made
    # non-homogeneous: a degree lookup giving None would then pass it
    w, h = Permutation((3, 4, 2, 1)), HessenbergFunction((3, 3, 4, 4))
    pres = build_ideal(w, h)
    assert sweep_mod._run_battery(pres, sweep_mod._WFacts(w), False) == (
        (2, 3, True, True, True, True, True), ())
    (k0, l0, g0), *rest = pres.nonzero_generators()
    assert rest
    index_filter, is_homogeneous = sweep_mod.index_filter, sweep_mod.is_homogeneous
    monkeypatch.setattr(sweep_mod, "index_filter", lambda w, positions: [
        e for e in index_filter(w, positions) if e[:2] != (k0, l0)])
    if not homogeneous:
        monkeypatch.setattr(sweep_mod, "is_homogeneous", lambda g, wt:
                            None if g is g0 else is_homogeneous(g, wt))
    # w's facts are taken once per w: take them afresh under the tampering
    values, failures = sweep_mod._run_battery(pres, sweep_mod._WFacts(w), False)
    assert values[5] is False
    assert failures == ("homogeneousOk failed",)


def test_hilbert_verdict_is_the_same_at_every_accepted_truncation():
    for h, w in cases_up_to(5):
        if is_fixed_point(w, h):
            verdicts = {run_case((h.values, w.images, SweepOptions(trunc=trunc)))["hilbertOk"]
                        for trunc in (30, max(1, w.n - 1))}
            assert verdicts == {True}, (h, w)


def test_an_oracle_missing_a_weight_fails_exactly_the_ideals_with_a_free_variable(
        monkeypatch):
    monkeypatch.setattr(sweep_mod, "hilbert_oracle", lambda rep, wt: HilbertSeries(
        (), tuple(wt[var] for var in rep.free_variables[1:])))
    seen = set()
    for h, w in cases_up_to(5):
        if is_fixed_point(w, h):
            for trunc in (30, max(1, w.n - 1)):
                case = run_case((h.values, w.images, SweepOptions(trunc=trunc)))
                free = case["dim"] > 0
                assert case["hilbertOk"] is not free
                assert case["failures"] == (["hilbertOk failed"] if free else [])
                seen.add(free)
    assert seen == {False, True}


def test_the_table_key_separates_options(monkeypatch):
    monkeypatch.setattr(sweep_mod, "compatibility_check",
                        lambda ctx, h: SimpleNamespace(all_compatible=ctx.p == 3))
    options = (SweepOptions(), SweepOptions(frobenius_primes=(2,)),
                SweepOptions(frobenius_primes=(3,)))
    for h, w in cases_up_to(3):
        cases = [run_case((h.values, w.images, opts)) for opts in options]
        if cases[0]["fixedPoint"]:
            assert [case.get("frobeniusOk") for case in cases] == [None, False, True]
        assert len({c["ok"] for c in cases}) == (2 if cases[0]["fixedPoint"] else 1)
    ws = {w.images for _, w in cases_up_to(3)}
    assert set(sweep_mod._TABLES) == {(w, opts) for w in ws for opts in options}


def test_a_failed_splitting_is_named_last_among_the_failures(monkeypatch):
    # one context fails along with the Buchberger check: the failures keep
    # the report's order of keys, frobeniusOk last
    monkeypatch.setattr(sweep_mod, "compatibility_check",
                        lambda ctx, h: SimpleNamespace(all_compatible=ctx.p == 2))
    monkeypatch.setattr(sweep_mod, "buchberger_check", lambda polys, order: False)
    seen = 0
    for h, w in cases_up_to(4):
        case = run_case((h.values, w.images, SweepOptions(frobenius_primes=(2, 3))))
        if case["fixedPoint"]:
            assert (case["gbOk"], case["frobeniusOk"]) == (False, False)
            assert case["failures"] == ["gbOk failed", "frobeniusOk failed"]
            seen += 1
    assert seen


def test_the_sweep_expands_no_series(monkeypatch):
    expected = sweep(5, jobs=1)

    def refuse(*args, **kwargs):
        raise AssertionError("a Hilbert series was expanded")

    monkeypatch.setattr(HilbertSeries, "expand", refuse)
    for name in ("series_div_one_minus", "series_mul_one_minus"):
        monkeypatch.setattr(hilbert_mod, name, refuse)
    report = sweep(5, jobs=1)
    del expected["elapsedSeconds"], report["elapsedSeconds"]
    assert report == expected


def test_each_non_fixed_case_gets_the_oracle_verdict_of_its_own_ideal(monkeypatch):
    # a stub oracle whose verdict depends on the ideal: the unit ideal
    # exactly when the ideal has an odd number of nonzero generators
    monkeypatch.setattr(sweep_mod, "reduced_gb_oracle", lambda polys, order, budget:
                        [Polynomial.one()] if len(polys) % 2 else [])
    verdicts = set()
    for h, w in cases_up_to(4):
        case = run_case((h.values, w.images, SweepOptions()))
        if not case["fixedPoint"]:
            odd = len(build_ideal(w, h).generator_polys()) % 2 == 1
            assert case["emptyCertified"] is odd
            verdicts.add(odd)
    assert verdicts == {False, True}


def drop_first_generator(monkeypatch, h, w):
    """Zero the first nonzero generator of I_{w,h} in w's cell matrix, which
    both the masks and build_ideal read."""
    k, l, _ = build_ideal(w, h).nonzero_generators()[0]
    clean = cells_mod.cell_generators

    def tampered(u):
        rows = [list(row) for row in clean(u).rows]
        if u == w:
            rows[k - 1][l - 1] = Polynomial.zero()
        return PolyMatrix(rows)

    monkeypatch.setattr(cells_mod, "cell_generators", tampered)
    monkeypatch.setattr(sweep_mod, "cell_generators", tampered)


def add_zero_generator_passing_the_filter(monkeypatch, h, w):
    """Add position (2, 1) to h's positions and a zero generator there to
    its ideal: v(2) = 3 > v(1) + 1 = 2 at w = 312, and (2, 1) is not a
    generator at h = 333."""
    facts, build = sweep_mod._h_facts, sweep_mod.build_ideal

    def more_positions(n):
        out = dict(facts(n))
        if h.values in out:
            i, g, positions, _ = out[h.values]
            positions |= 1 << (2 * n + 1)
            out[h.values] = i, g, positions, () if positions.bit_count() == g.lambda_size() \
                else ("generator count differs from the partition size",)
        return out

    def more_generators(u, g, kind="cell"):
        pres = build(u, g, kind)
        if g == h:
            pres.generators.append((2, 1, Polynomial.zero()))
            pres.height += 1
        return pres

    monkeypatch.setattr(sweep_mod, "_h_facts", more_positions)
    monkeypatch.setattr(sweep_mod, "build_ideal", more_generators)


@pytest.mark.parametrize("h, w, tamper", [
    ((3, 3, 4, 4), (3, 4, 2, 1), drop_first_generator),
    ((3, 3, 3), (3, 1, 2), add_zero_generator_passing_the_filter),
])
def test_a_changed_mask_gets_its_own_verdict(h, w, tamper, monkeypatch):
    args = (h, w, SweepOptions())
    assert run_case(args)["ok"]
    clean = sweep_mod._TABLES.pop((w, args[2]))
    hf, wp = HessenbergFunction(h), Permutation(w)

    tamper(monkeypatch, hf, wp)
    assert "nonzero generator count disagrees with the index filter" in (
        run_case(args)["failures"]
    )
    entries, index = sweep_mod._TABLES[w, args[2]]
    assert entries[index[sweep_mod._h_facts(len(w))[h][0]]] not in clean[0]


def test_a_zeroed_generator_fails_exactly_the_ideals_that_hold_it(monkeypatch):
    # Zeroing g_{4,1} of w = 3421 changes the nonzero mask but not the index
    # filter, so h = 3444 (which holds (4, 1)) and h = 4444 (which does not)
    # then have equal nonzero positions: only the filter mask tells them apart.
    h, w = HessenbergFunction((3, 3, 4, 4)), Permutation((3, 4, 2, 1))
    k, l, _ = build_ideal(w, h).nonzero_generators()[0]
    assert (k, l) == (4, 1)
    drop_first_generator(monkeypatch, h, w)
    fixing = [g for g in enumerate_hessenberg(4, indecomposable_only=True)
              if is_fixed_point(w, g)]
    assert {(3, 4, 4, 4), (4, 4, 4, 4)} <= {g.values for g in fixing}
    for g in fixing:
        case = run_case((g.values, w.images, SweepOptions()))
        assert ("nonzero generator count disagrees with the index filter"
                in case["failures"]) is (k > g(l)), g


def test_a_constant_entry_at_a_fixed_point_fails_the_case(monkeypatch):
    # g_{3,1} of the identity is 0, in the ideal of h = 233, which the
    # identity fixes: a constant there in the matrix phase A reads its masks
    # off is the one fault, since the battery reads the ideal's own matrix
    h, w = (2, 3, 3), (1, 2, 3)
    assert is_fixed_point(Permutation(w), HessenbergFunction(h))
    matrix = cell_generators(Permutation(w))
    assert matrix.entry(3, 1).is_zero
    rows = [list(row) for row in matrix.rows]
    rows[2][0] = Polynomial.one()
    monkeypatch.setattr(sweep_mod, "cell_generators", lambda u: PolyMatrix(rows))
    case = run_case((h, w, SweepOptions()))
    assert case["failures"] == ["constant generator at a fixed point"]
    assert case["fixedPoint"] and not case["ok"]


def test_an_oracle_out_of_budget_fails_the_case(monkeypatch):
    # w = 3421 does not fix h = 2344; with its constant generator taken out
    # of the ideal, the oracle must reduce, and budget 0 allows no step
    h, w = (2, 3, 4, 4), (3, 4, 2, 1)
    assert not is_fixed_point(Permutation(w), HessenbergFunction(h))
    build = sweep_mod.build_ideal

    def without_constants(u, g):
        pres = build(u, g)
        pres.generators = [(k, l, f) for k, l, f in pres.generators
                           if f.is_zero or not f.is_constant]
        return pres

    monkeypatch.setattr(sweep_mod, "build_ideal", without_constants)
    case = run_case((h, w, SweepOptions(budget=0)))
    assert case["failures"] == ["budget exhausted in the completion oracle"]
    assert (case["constantGenerator"], case["emptyCertified"]) == (True, None)


@pytest.mark.parametrize("h, w", [
    ((1, 2, 3), (1, 2, 3)),  # decomposable
    ((5, 5, 5, 5, 5), (3, 2, 1)),  # of another size than w
    ((2, 3, 3), (5, 4, 3, 2, 1)),
])
def test_run_case_rejects_an_h_that_is_not_indecomposable_of_w_size(h, w):
    with pytest.raises(ValueError, match="not an indecomposable Hessenberg function"):
        run_case((h, w, SweepOptions()))


@pytest.mark.parametrize("options", [{}, {"frobenius_primes": (2,)}])
def test_run_case_gives_the_case_of_the_sweep(options):
    report = sweep(4, **options)
    opts = SweepOptions(**options)
    sweep_mod._TABLES.clear()
    assert len(report["cases"]) == 135
    for case in report["cases"]:
        assert run_case((tuple(case["h"]), tuple(case["w"]), opts)) == case


@pytest.mark.parametrize("opts, message", [
    (SweepOptions(frobenius_primes=(19,)),
     "^n must be between 1 and 4 for Frobenius checks at p = 19$"),
    (SweepOptions(), "^n must be between 1 and 7$"),
    (SweepOptions(trunc=7), "^trunc must be at least 8 for n = 9$"),
])
def test_run_case_checks_its_arguments_before_any_work(opts, message):
    # as iter_sweep checks them for max_n = n, before `_h_facts(n)`, which
    # at n = 9 alone would walk all Catalan(8) = 1430 h
    misses = sweep_mod._h_facts.cache_info().misses
    with pytest.raises(ValueError, match=message):
        run_case(((2, 3, 4, 5, 6, 7, 8, 9, 9), tuple(range(9, 0, -1)), opts))
    assert sweep_mod._h_facts.cache_info().misses == misses
    with pytest.raises(ValueError, match="^budget must be at least 0, not -1$"):
        run_case(((2, 3, 3), (3, 2, 1), SweepOptions(budget=-1)))


@pytest.mark.parametrize("h, w, message", [
    ((2, 2), (2.0, 1.0), "w(1) must be an integer, not 2.0"),
    ((2, 2), (2, True), "w(2) must be an integer, not True"),
    ((2, 2), ("2", "1"), "w(1) must be an integer, not '2'"),
    ((2.0, 2), (2, 1), "h(1) must be an integer, not 2.0"),
    ((2, True), (2, 1), "h(2) must be an integer, not True"),
])
@pytest.mark.parametrize("hit", [False, True])
def test_run_case_refuses_a_non_integer_on_a_hit_as_on_a_miss(h, w, message, hit):
    # an equal float or bool has the int's hash: a table hit, or a hit in
    # `_h_facts`, would echo it in the case
    if hit:
        run_case(((2, 2), (2, 1), SweepOptions()))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_case((h, w, SweepOptions()))
    assert len(sweep_mod._TABLES) == hit


def test_phase_b_does_no_per_case_work(monkeypatch):
    args = [(h.values, w.images, SweepOptions()) for h, w in cases_up_to(5)]
    filled = [run_case(a) for a in args]
    misses = sweep_mod._h_facts.cache_info().misses

    def refuse(*args, **kwargs):
        raise AssertionError("phase B did per-case work")

    for name in ("least_hessenberg", "build_ideal", "cell_generators", "_run_battery",
                 "_w_table", "_WFacts"):
        monkeypatch.setattr(sweep_mod, name, refuse)
    assert [run_case(a) for a in args] == filled
    # phase B reads h's place from the per-n facts and computes none of them
    assert sweep_mod._h_facts.cache_info().misses == misses


def test_per_w_caches_hold_only_the_w_being_checked():
    # each maxsize=1 cache misses once per w it serves, and never again for
    # that w: phase A runs w-major and derives each fact of w once (the
    # patch route is not run)
    sweep(5, frobenius_primes=(2, 3), jobs=1)
    misses = {cached.__name__: cached.cache_info().misses for cached in per_w_caches()}
    assert len(misses) == 8
    assert {name: m for name, m in misses.items() if m not in (0, 153)} == {}


@pytest.mark.parametrize("value", ["yes", 1, 0, 1.0, None])
def test_oracle_nonfixed_must_be_a_bool(value):
    # 1 == True: an equal int would pass for the flag and echo in the report
    opts = SweepOptions(oracle_nonfixed=value)
    message = f"^oracle_nonfixed must be a bool, not {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        iter_sweep(2, opts)
    with pytest.raises(ValueError, match=message):
        run_case(((2, 2), (2, 1), opts))
    with pytest.raises(ValueError, match=message):
        sweep(2, oracle_nonfixed=value)
    assert sweep_mod._TABLES == {}


def test_the_identity_script_passes_the_sweep_and_kills_a_dim_off_by_one(
        monkeypatch, capsys):
    import sweep_identities

    assert sweep_identities.main(["--max-n", "4"]) == 0
    clean = "flag duality 0 mismatches, product formula 0 mismatches"
    assert capsys.readouterr().out.splitlines() == [
        f"n = 1: 1 cases, 1 h; {clean}", f"n = 2: 2 cases, 1 h; {clean}",
        f"n = 3: 12 cases, 2 h; {clean}", f"n = 4: 120 cases, 5 h; {clean}"]
    w_table = sweep_mod._w_table

    def one_dim_off(w_images, opts):
        # one case, (h, w) = ((4, 4, 4, 4), 3421), gets its own entry, dim + 1
        entries, index = w_table(w_images, opts)
        if w_images == (3, 4, 2, 1):
            values, failures = entries[index[-1]]
            entries += ((values[:2] + (values[2] + 1,) + values[3:], failures),)
            index[-1] = len(entries) - 1
        return entries, index

    monkeypatch.setattr(sweep_mod, "_w_table", one_dim_off)
    assert sweep_identities.main(["--max-n", "4"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "n = 4: 120 cases, 5 h; flag duality 2 mismatches, product formula 1 mismatches")
