"""The fixed-point battery runs once per distinct cell ideal: memo hits
give the results a fresh run gives, in any case order and for two
truncation orders in one process, and every case still reports the
verdict of its own ideal."""

import importlib
import random

import pytest

from hesscells import (
    Polynomial,
    all_permutations,
    build_ideal,
    enumerate_hessenberg,
)
from hesscells.combinat import is_fixed_point, v_of_w
from hesscells.sweep import SweepOptions, run_case, sweep

sweep_mod = importlib.import_module("hesscells.sweep")


@pytest.fixture(autouse=True)
def empty_memo():
    sweep_mod._BATTERIES.clear()
    yield
    sweep_mod._BATTERIES.clear()


def cases_up_to(max_n):
    return [
        (h, w)
        for n in range(1, max_n + 1)
        for h in enumerate_hessenberg(n, indecomposable_only=True)
        for w in all_permutations(n)
    ]


def test_memo_hits_equal_fresh_runs_in_shuffled_order():
    args = [
        (h.values, w.images, SweepOptions(trunc=trunc))
        for h, w in cases_up_to(5)
        for trunc in (4, 30)
    ]
    random.Random(7).shuffle(args)
    memoized = [run_case(a) for a in args]
    fixed = sum(case["fixedPoint"] for case in memoized)
    assert 0 < len(sweep_mod._BATTERIES) < fixed  # hits happened
    fresh = []
    for a in args:
        sweep_mod._BATTERIES.clear()
        fresh.append(run_case(a))
    assert memoized == fresh


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
    calls = []
    check = sweep_mod.buchberger_check

    def counting(*args):
        calls.append(1)
        return check(*args)

    monkeypatch.setattr(sweep_mod, "buchberger_check", counting)
    report = sweep(5, jobs=1)
    assert report["summary"]["ok"]
    assert report["summary"]["fixedPointCases"] == fixed == 793
    assert len(calls) == len(ideals) == 310


def test_a_failing_verdict_reaches_every_case_of_the_ideal(monkeypatch):
    monkeypatch.setattr(sweep_mod, "buchberger_check", lambda polys, order: False)
    report = sweep(4, jobs=1)
    fixed = [case for case in report["cases"] if case["fixedPoint"]]
    assert len(fixed) == 87 > len(sweep_mod._BATTERIES)
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


def drop_first_generator(pres):
    k, l, _ = pres.nonzero_generators()[0]
    pres.generators = [
        (a, b, Polynomial.zero() if (a, b) == (k, l) else g)
        for a, b, g in pres.generators
    ]


def add_zero_generator_passing_the_filter(pres):
    # v(2) = 3 > v(1) + 1 = 2 at w = 312, and (2, 1) is not a generator at h = 333
    pres.generators.append((2, 1, Polynomial.zero()))
    pres.height += 1


@pytest.mark.parametrize("h, w, tamper", [
    ((3, 3, 4, 4), (3, 4, 2, 1), drop_first_generator),
    ((3, 3, 3), (3, 1, 2), add_zero_generator_passing_the_filter),
])
def test_a_changed_mask_gets_its_own_verdict(h, w, tamper, monkeypatch):
    args = (h, w, SweepOptions())
    assert run_case(args)["ok"]

    def tampered(w, h, kind):
        pres = build_ideal(w, h, kind)
        tamper(pres)
        return pres

    monkeypatch.setattr(sweep_mod, "build_ideal", tampered)
    assert "nonzero generator count disagrees with the index filter" in (
        run_case(args)["failures"]
    )


def test_a_pool_chunk_starts_from_an_empty_memo(monkeypatch):
    calls = []
    check = sweep_mod.buchberger_check

    def counting(*args):
        calls.append(1)
        return check(*args)

    monkeypatch.setattr(sweep_mod, "buchberger_check", counting)
    chunk = list(sweep_mod._case_args(4, SweepOptions()))
    first = sweep_mod._run_chunk(chunk)
    cold = len(calls)
    assert sweep_mod._run_chunk(chunk) == first
    assert len(calls) == 2 * cold > 0
