"""The completion oracle on exponent vectors against the `Monomial` reference."""

from functools import lru_cache

import oracle_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesscells import (
    BudgetExceededError,
    HessenbergFunction,
    Monomial,
    MonomialOrder,
    Permutation,
    Polynomial,
    all_permutations,
    build_ideal,
    enumerate_hessenberg,
    order_n_w,
    reduced_gb_oracle,
    xvar,
)
from hesscells import groebner

X, Y, Z = xvar(1, 1), xvar(1, 2), xvar(1, 3)


def outcome(oracle, polys, order, budget):
    """The oracle's basis, or BudgetExceededError if it raised one."""
    try:
        return oracle(polys, order, budget)
    except BudgetExceededError:
        return BudgetExceededError


def assert_same_outcome(polys, order, budget=100_000):
    got = outcome(reduced_gb_oracle, polys, order, budget)
    assert got == outcome(oracle_reference.reduced_gb_oracle, polys, order, budget)
    return got


@lru_cache(maxsize=None)
def cell_ideals(max_n):
    """(w, h, generators) for every indecomposable h and every w."""
    return [
        (w, h, build_ideal(w, h).generator_polys())
        for n in range(1, max_n + 1)
        for h in enumerate_hessenberg(n, indecomposable_only=True)
        for w in all_permutations(n)
    ]


def test_every_cell_ideal_up_to_n4_matches_the_reference():
    for w, h, gens in cell_ideals(4):
        assert assert_same_outcome(gens, order_n_w(w)) is not BudgetExceededError, (w, h)


@st.composite
def oracle_problems(draw):
    """(generators, order, budget): up to three integer polynomials in x, y,
    z of degree at most 3 with coefficients in [-3, 3], a random lex order
    and a budget from 0 to 60."""
    exponents = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda e: sum(e) <= 3)
    monomials = exponents.map(lambda e: Monomial(zip((X, Y, Z), e)))
    polys = st.dictionaries(monomials, st.integers(-3, 3).filter(bool), min_size=1,
                            max_size=4)
    order = MonomialOrder(draw(st.permutations((X, Y, Z))))
    gens = draw(st.lists(polys.map(Polynomial), min_size=1, max_size=3))
    return gens, order, draw(st.integers(0, 60))


@given(problem=oracle_problems())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_random_problems_match_the_reference(problem):
    assert_same_outcome(*problem)


@pytest.mark.parametrize("w, h, budget", [
    ((4, 3, 2, 1), (2, 3, 4, 4), 21),
    ((5, 4, 3, 2, 1), (2, 3, 4, 5, 5), 192),
    ((6, 5, 4, 3, 2, 1), (2, 3, 4, 5, 6, 6), 1358),
    ((3, 4, 2, 1), (3, 3, 4, 4), 9),
])
def test_the_step_count_is_pinned(w, h, budget):
    # the least budget that completes; one step fewer runs out
    w = Permutation(w)
    gens, order = build_ideal(w, HessenbergFunction(h)).generator_polys(), order_n_w(w)
    reduced_gb_oracle(gens, order, budget)
    with pytest.raises(BudgetExceededError,
                       match=f"^exceeded budget of {budget - 1} reduction steps$"):
        reduced_gb_oracle(gens, order, budget - 1)


def test_the_pairs_are_taken_first_in_first_out():
    # the first pair's S-polynomial x*(3xy) - (3x^2y + 1) is -1, one step;
    # the last pair first would add z and take three steps
    x, y, z = (Polynomial.variable(v) for v in (X, Y, Z))
    gens, order = [3 * x * y, 3 * x**2 * y + 1, x**2 * z], MonomialOrder((X, Y, Z))
    for oracle in (reduced_gb_oracle, oracle_reference.reduced_gb_oracle):
        assert oracle(gens, order, 1) == [Polynomial.one()]
        with pytest.raises(BudgetExceededError):
            oracle(gens, order, 0)


def test_a_zero_generator_is_skipped():
    x = Polynomial.variable(X)
    assert reduced_gb_oracle([Polynomial.zero(), x], MonomialOrder((X, Y))) == [x]


def test_a_variable_outside_the_order_is_refused():
    with pytest.raises(ValueError, match="^variable x_1_3 is not in the order's universe$"):
        reduced_gb_oracle([Polynomial.variable(Z)], MonomialOrder((X, Y)))


def test_the_order_keys_only_the_input_terms(monkeypatch):
    # w0 at n = 5 takes 192 steps, none of which may key a monomial, take
    # an initial term or touch the packed kernel
    w = Permutation((5, 4, 3, 2, 1))
    gens, order = build_ideal(w, HessenbergFunction((2, 3, 4, 5, 5))).generator_polys(), order_n_w(w)
    key, calls = MonomialOrder.key, []
    monkeypatch.setattr(MonomialOrder, "key", lambda self, m: calls.append(m) or key(self, m))
    for name in ("initial_term", "_divide", "_Packing", "_field_bits"):
        monkeypatch.setattr(groebner, name, None)
    for name in ("__mul__", "__truediv__", "lcm", "divides"):
        monkeypatch.setattr(Monomial, name, None)
    basis = reduced_gb_oracle(gens, order)
    assert len(basis) == len(gens)
    assert sorted(calls, key=repr) == sorted((m for g in gens for m in g.terms), key=repr)
