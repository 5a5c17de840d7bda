"""The sweep's two phases: phase A (`_w_table`) checks each distinct cell
ideal once, in any order of w and on any number of pool workers; phase B
(`run_case`) reads the table and gives the results a fresh table gives,
in any case order and for two truncation orders in one process, and every
case still reports the verdict of its own ideal."""

import importlib
import random

import pytest

from hesscells import (
    Polynomial,
    PolyMatrix,
    all_permutations,
    build_ideal,
    enumerate_hessenberg,
)
from hesscells.combinat import is_fixed_point, v_of_w
from hesscells.sweep import SweepOptions, iter_sweep, run_case, sweep

sweep_mod = importlib.import_module("hesscells.sweep")
cells_mod = importlib.import_module("hesscells.cells")


@pytest.fixture(autouse=True)
def empty_memo():
    sweep_mod._TABLES.clear()
    yield
    sweep_mod._TABLES.clear()


def cases_up_to(max_n):
    return [
        (h, w)
        for n in range(1, max_n + 1)
        for h in enumerate_hessenberg(n, indecomposable_only=True)
        for w in all_permutations(n)
    ]


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
    verdicts = sum(len(t.verdicts) for t in sweep_mod._TABLES.values())
    assert 0 < verdicts < fixed  # hits happened
    fresh = []
    for a in args:
        sweep_mod._TABLES.clear()
        fresh.append(run_case(a))
    assert memoized == fresh


def test_phase_b_matches_the_per_case_build(monkeypatch):
    # phase A with a stub battery: w's masks and one key per distinct ideal
    monkeypatch.setattr(sweep_mod, "_run_battery", lambda pres, order, trunc: ((), ()))
    for n in range(1, 7):
        hs = [(h, sweep_mod._positions(h))
              for h in enumerate_hessenberg(n, indecomposable_only=True)]
        for w in all_permutations(n):
            table = sweep_mod._w_table(w.images, SweepOptions())
            keys = set()
            for h, positions in hs:
                pres = build_ideal(w, h)
                assert ((table.constant & positions) != 0) is pres.certifies_empty
                assert positions.bit_count() == pres.lambda_size == h.lambda_size()
                if is_fixed_point(w, h):
                    keys.add(key_of(pres))
                    assert sweep_mod._battery_key(table, positions, 30) == key_of(pres)
            assert set(table.verdicts) == keys


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_n_drops_its_tables_once_its_cases_are_out(jobs):
    _, cases, _ = iter_sweep(4, SweepOptions(), jobs)
    for case in cases:
        assert {len(w) for w, _ in sweep_mod._TABLES} == {case["n"]}
    assert sweep_mod._TABLES == {}


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


def test_truncation_order_is_part_of_the_key(monkeypatch):
    oracle = sweep_mod.hilbert_oracle

    def wrong_at_4(rep, wt, trunc):
        coeffs = oracle(rep, wt, trunc)
        return coeffs[:-1] + [coeffs[-1] + 1] if trunc == 4 else coeffs

    monkeypatch.setattr(sweep_mod, "hilbert_oracle", wrong_at_4)
    for h, w in cases_up_to(4):
        for trunc in (30, 4):
            case = run_case((h.values, w.images, SweepOptions(trunc=trunc)))
            if case["fixedPoint"]:
                assert case["hilbertOk"] is (trunc == 30)


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
    positions, build = sweep_mod._positions, sweep_mod.build_ideal

    def more_positions(u):
        return positions(u) | (1 << (2 * u.n + 1) if u == h else 0)

    def more_generators(u, g, kind="cell"):
        pres = build(u, g, kind)
        if g == h:
            pres.generators.append((2, 1, Polynomial.zero()))
            pres.height += 1
        return pres

    monkeypatch.setattr(sweep_mod, "_positions", more_positions)
    monkeypatch.setattr(sweep_mod, "build_ideal", more_generators)


@pytest.mark.parametrize("h, w, tamper", [
    ((3, 3, 4, 4), (3, 4, 2, 1), drop_first_generator),
    ((3, 3, 3), (3, 1, 2), add_zero_generator_passing_the_filter),
])
def test_a_changed_mask_gets_its_own_verdict(h, w, tamper, monkeypatch):
    args = (h, w, SweepOptions())
    assert run_case(args)["ok"]
    clean = sweep_mod._TABLES.pop((w, args[2]))
    hf, wp = sweep_mod._hessenberg(h), sweep_mod._permutation(w)

    tamper(monkeypatch, hf, wp)
    assert "nonzero generator count disagrees with the index filter" in (
        run_case(args)["failures"]
    )
    tampered = sweep_mod._TABLES[w, args[2]]
    key = sweep_mod._battery_key(tampered, sweep_mod._positions(hf), 30)
    assert key not in clean.verdicts
