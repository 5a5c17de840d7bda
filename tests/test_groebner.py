import random
from dataclasses import replace

import pytest
from division_reference import reference_reduce
from hypothesis import given, settings
from hypothesis import strategies as st
from triangular_reference import later_divisions

from hesscells import (
    BudgetExceededError,
    HessenbergFunction,
    MonomialOrder,
    Monomial,
    Permutation,
    Polynomial,
    all_permutations,
    build_ideal,
    buchberger_check,
    cell_generators,
    enumerate_hessenberg,
    fixed_points,
    initial_term,
    is_fixed_point,
    order_n,
    order_n_w,
    patch_generators,
    reduced_gb_oracle,
    s_polynomial,
    triangular_analysis,
    xvar,
    zvar,
)
from hesscells.groebner import _field_bits
from hesscells.groebner import reduce as poly_reduce

W3421 = Permutation([3, 4, 2, 1])
H3344 = HessenbergFunction([3, 3, 4, 4])
H2344 = HessenbergFunction([2, 3, 4, 4])


class TestOrders:
    def test_order_n4_priority(self):
        assert list(order_n(4).priority) == [
            xvar(1, 1), xvar(1, 2), xvar(1, 3),
            xvar(2, 1), xvar(2, 2), xvar(3, 1),
        ]

    def test_order_n_w_3421(self):
        # derived by evaluating the comparison rule on all pairs
        assert list(order_n_w(W3421).priority) == [
            zvar(1, 2), zvar(1, 1), zvar(1, 3), zvar(2, 2), zvar(2, 1),
        ]

    def test_order_at_longest_matches_patch_order(self):
        w0 = Permutation.longest_element(4)
        got = [(v.row, v.col) for v in order_n_w(w0).priority]
        want = [(v.row, v.col) for v in order_n(4).priority]
        assert got == want

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError, match="^priority list contains duplicates$"):
            MonomialOrder([zvar(1, 1), zvar(1, 2), zvar(1, 1)])

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            order_n(3).key(Monomial({xvar(9, 9): 1}))


class TestInitialTerm:
    def test_patch_generator_41(self):
        f41 = patch_generators(Permutation.longest_element(4)).entry(4, 1)
        coeff, mono = initial_term(f41, order_n(4))
        assert (coeff, mono) == (-1, Monomial({xvar(1, 2): 1}))

    def test_cell_generator_42(self):
        g42 = cell_generators(W3421).entry(4, 2)
        coeff, mono = initial_term(g42, order_n_w(W3421))
        assert (coeff, mono) == (-1, Monomial({zvar(1, 1): 1}))

    def test_constant(self):
        coeff, mono = initial_term(Polynomial.const(5), order_n(3))
        assert coeff == 5 and mono.is_one

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            initial_term(Polynomial.zero(), order_n(3))


class TestReduce:
    def test_self_reduction(self):
        g = cell_generators(W3421).entry(4, 1)
        _, r = poly_reduce(g, [g], order_n_w(W3421))
        assert r.is_zero

    def test_division_by_zero_is_refused(self):
        g = cell_generators(W3421).entry(4, 1)
        with pytest.raises(ValueError, match="^cannot divide by the zero polynomial$"):
            poly_reduce(g, [g, Polynomial.zero()], order_n_w(W3421))

    def test_single_step_by_hand(self):
        order = order_n_w(W3421)
        g41 = cell_generators(W3421).entry(4, 1)
        z21 = Polynomial.variable(zvar(2, 1))
        z22 = Polynomial.variable(zvar(2, 2))
        quotients, r = poly_reduce(z21 * g41 + z22, [g41], order)
        assert r == z22
        assert quotients == [z21]

    def test_reconstruction_contract(self):
        order = order_n_w(W3421)
        gens = build_ideal(W3421, H3344, "cell").generator_polys()
        rng = random.Random(11)
        zvars = [zvar(1, 1), zvar(1, 2), zvar(1, 3), zvar(2, 1), zvar(2, 2)]
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                mono = Monomial(
                    {v: rng.randint(0, 2) for v in rng.sample(zvars, 3)}
                )
                terms[mono] = terms.get(mono, 0) + rng.randint(-9, 9)
            p = Polynomial(terms)
            quotients, r = poly_reduce(p, gens, order)
            rebuilt = r
            for q, g in zip(quotients, gens):
                rebuilt = rebuilt + q * g
            assert rebuilt == p
            # no remainder term is divisible by a leading monomial
            for g in gens:
                _, lm = initial_term(g, order)
                assert all(not lm.divides(m) for m in r.terms)

    def test_non_unit_leading_coefficient_rejected(self):
        x = Polynomial.variable(xvar(1, 1))
        with pytest.raises(ValueError):
            poly_reduce(x, [2 * x], order_n(3))


class TestBuchberger:
    def test_cell_ideal_3421(self):
        pres = build_ideal(W3421, H3344, "cell")
        assert buchberger_check(pres.generator_polys(), order_n_w(W3421))

    def test_patch_ideal_w0(self):
        w0 = Permutation.longest_element(4)
        pres = build_ideal(w0, H2344, "patch")
        assert buchberger_check(pres.generator_polys(), order_n(4))

    def test_classic_failure(self):
        # x^2 and x*y + 1 are not a Groebner basis of their ideal
        x = xvar(1, 1)
        y = xvar(1, 2)
        order = MonomialOrder([x, y])
        f = Polynomial({Monomial({x: 2}): 1})
        g = Polynomial({Monomial({x: 1, y: 1}): 1, Monomial(): 1})
        assert not buchberger_check([f, g], order)

    def test_s_polynomial_cancels_leads(self):
        order = order_n_w(W3421)
        gens = build_ideal(W3421, H3344, "cell").generator_polys()
        s = s_polynomial(gens[0], gens[1], order)
        _, lm0 = initial_term(gens[0], order)
        _, lm1 = initial_term(gens[1], order)
        lcm = lm0.lcm(lm1)
        if not s.is_zero:
            _, lms = initial_term(s, order)
            assert order.key(lms) < order.key(lcm)


class TestTriangularAnalysis:
    def test_cell_ideal_3421_report(self):
        pres = build_ideal(W3421, H3344, "cell")
        rep = triangular_analysis(pres, order_n_w(W3421))
        assert rep.is_triangular
        assert [(s, v.name) for s, v in rep.initial_terms] == [
            (-1, "z_1_1"), (-1, "z_1_3"),
        ]
        assert rep.height == 2
        assert [v.name for v in rep.free_variables] == ["z_1_2", "z_2_1", "z_2_2"]
        assert rep.dimension == 3

    def test_patch_ideal_w0_report(self):
        w0 = Permutation.longest_element(4)
        pres = build_ideal(w0, H2344, "patch")
        rep = triangular_analysis(pres, order_n(4))
        assert rep.is_triangular
        assert rep.height == 3
        assert [(s, v.name) for s, v in rep.initial_terms] == [
            (-1, "x_1_2"), (-1, "x_1_3"), (-1, "x_2_2"),
        ]

    def test_empty_generator_list(self):
        pres = build_ideal(W3421, HessenbergFunction.full(4), "cell")
        rep = triangular_analysis(pres, order_n_w(W3421))
        assert rep.is_triangular
        assert rep.height == 0
        assert len(rep.free_variables) == W3421.length()

    def test_constant_generator_flags_not_raises(self):
        pres = build_ideal(W3421, H2344, "cell")
        rep = triangular_analysis(pres, order_n_w(W3421))
        assert not rep.is_triangular
        assert rep.notes == [
            "generator (3,1) has initial term 1*1, not a signed variable"]

    def test_notes_name_each_failed_condition(self):
        # a repeated initial variable, then also an initial term that is
        # not a signed variable
        def z(i, j):
            return Polynomial.variable(zvar(i, j))

        pres = build_ideal(W3421, H3344, "cell")
        pres.generators = [(4, 1, -z(1, 1) + z(2, 2)), (4, 2, -z(1, 1))]
        rep = triangular_analysis(pres, order_n_w(W3421))
        assert rep.notes == ["initial variable z_1_1 repeats"]
        assert (rep.height, rep.dimension) == (2, 4)
        assert not rep.is_triangular
        pres.generators.append((3, 1, 2 * z(1, 2) ** 2 - z(2, 2)))
        rep = triangular_analysis(pres, order_n_w(W3421))
        assert rep.notes == [
            "generator (3,1) has initial term 2*z_1_2^2, not a signed variable",
            "initial variable z_1_1 repeats",
        ]
        assert rep.initial_terms[0] == (1, None)

    def test_signs_over_a_prime_field(self):
        # over F_p the units among the initial coefficients are 1 and p - 1
        z11, z13, z22 = (Polynomial.variable(zvar(i, j)).reduce_mod(5)
                         for i, j in ((1, 1), (1, 3), (2, 2)))
        pres = build_ideal(W3421, H3344, "cell")
        pres.generators = [(4, 1, 4 * z11 + z22), (4, 2, z13)]
        rep = triangular_analysis(pres, order_n_w(W3421))
        assert [(s, v.name) for s, v in rep.initial_terms] == [(-1, "z_1_1"), (1, "z_1_3")]
        assert rep.is_triangular
        pres.generators = [(4, 1, 2 * z11 + z22)]
        rep = triangular_analysis(pres, order_n_w(W3421))
        assert rep.notes == [
            "generator (4,1) has initial term 2*z_1_1, not a signed variable"]

    def test_agreement_of_certifications_n4(self):
        for n in range(1, 5):
            for h in enumerate_hessenberg(n, indecomposable_only=True):
                for w in fixed_points(h):
                    pres = build_ideal(w, h, "cell")
                    order = order_n_w(w)
                    assert triangular_analysis(pres, order).is_triangular
                    assert buchberger_check(pres.generator_polys(), order)


def assert_two_conditions_suffice(rep, order):
    """The verdict is the two conditions, and the dropped later-generator
    scan (tests/triangular_reference.py) finds nothing they let pass: each
    of its hits is a later generator whose initial monomial is x itself."""
    init_vars = [var for _, var in rep.initial_terms]
    assert rep.is_triangular == (
        None not in init_vars and len(set(init_vars)) == len(init_vars))
    hits = later_divisions(rep)
    for var, j in hits:
        assert initial_term(rep.ordered_generators[j][2], order)[1] == Monomial({var: 1})
    if rep.is_triangular:
        assert hits == []


CELL_VARS = build_ideal(W3421, H3344, "cell").ambient_variables


@st.composite
def lex_presentations(draw):
    """(presentation, order): a random lex order on the cell coordinates of
    3421 and random generators over Q or F_p.  A generator is random, or a
    signed variable x plus a random tail, or x plus a tail below x, so that
    many lists of several generators pass both conditions."""
    char = draw(st.sampled_from((0, 2, 3)))
    order = MonomialOrder(draw(st.permutations(CELL_VARS)))
    monomials = st.dictionaries(
        st.sampled_from(CELL_VARS), st.integers(1, 2), max_size=2).map(Monomial)
    gens = []
    for k in range(draw(st.integers(1, 4))):
        terms = draw(st.dictionaries(monomials, st.integers(-2, 2).filter(bool),
                                     max_size=2))
        kind = draw(st.sampled_from(("random", "tail", "lower tail")))
        if kind != "random":
            x = Monomial({draw(st.sampled_from(CELL_VARS)): 1})
            if kind == "lower tail":
                terms = {m: c for m, c in terms.items() if order.key(m) < order.key(x)}
            terms[x] = terms.get(x, 0) + draw(st.sampled_from((1, -1)))
        gens.append((k + 2, 1, Polynomial(terms, char)))
    pres = replace(build_ideal(W3421, H3344, "cell"), generators=gens)
    return pres, order


class TestTwoConditions:
    def test_every_cell_presentation_up_to_n5(self):
        count = 0
        for n in range(1, 6):
            hs = list(enumerate_hessenberg(n, indecomposable_only=True))
            for w in all_permutations(n):
                order = order_n_w(w)
                for h in hs:
                    rep = triangular_analysis(build_ideal(w, h, "cell"), order)
                    assert_two_conditions_suffice(rep, order)
                    assert rep.is_triangular == is_fixed_point(w, h)
                    count += 1
        assert count == 1815

    @given(data=st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_random_generators_under_random_lex_orders(self, data):
        pres, order = data.draw(lex_presentations())
        assert_two_conditions_suffice(triangular_analysis(pres, order), order)


class TestReducedGbOracle:
    def test_unit_from_explicit_one(self):
        one = Polynomial.one()
        x = Polynomial.variable(xvar(1, 1))
        basis = reduced_gb_oracle([one, x * x], order_n(3))
        assert basis == [Polynomial.one()]

    def test_unit_for_nonfixed_cell(self):
        pres = build_ideal(W3421, H2344, "cell")
        basis = reduced_gb_oracle(pres.generator_polys(), order_n_w(W3421))
        assert basis == [Polynomial.one()]

    def test_negative_budget_is_refused(self):
        gens = build_ideal(W3421, H3344, "cell").generator_polys()
        with pytest.raises(ValueError, match="^budget must be at least 0, not -1$"):
            reduced_gb_oracle(gens, order_n_w(W3421), -1)
        with pytest.raises(BudgetExceededError):
            reduced_gb_oracle(gens, order_n_w(W3421), 0)

    def test_hidden_unit_ideal(self):
        # x*(xy + 1) - y*x^2 = x, so 1 = (xy + 1) - y*x lies in the ideal
        x = xvar(1, 1)
        y = xvar(1, 2)
        order = MonomialOrder([x, y])
        f = Polynomial({Monomial({x: 2}): 1})
        g = Polynomial({Monomial({x: 1, y: 1}): 1, Monomial(): 1})
        assert reduced_gb_oracle([f, g], order) == [Polynomial.one()]

    def test_cell_ideal_3421_canonical_basis(self):
        order = order_n_w(W3421)
        gens = build_ideal(W3421, H3344, "cell").generator_polys()
        basis = reduced_gb_oracle(gens, order)
        # canonical reduced basis, derived by one division step by hand:
        # the tail z_1_3*z_2_1 of the second generator reduces by the first
        assert [p.to_text() for p in basis] == [
            "z_1_1 - z_2_1^2 - z_2_2",
            "z_1_3 - z_2_1",
        ]
        # mutual membership with the original pair
        for g in gens:
            _, r = poly_reduce(g, basis, order)
            assert r.is_zero
        for b in basis:
            _, r = poly_reduce(b, gens, order)
            assert r.is_zero

    def test_budget_error(self):
        pres = build_ideal(W3421, H3344, "cell")
        with pytest.raises(BudgetExceededError):
            reduced_gb_oracle(pres.generator_polys(), order_n_w(W3421), max_steps=1)

    def test_oracle_requires_integer_input(self):
        with pytest.raises(ValueError):
            reduced_gb_oracle([Polynomial.one(5)], order_n(3))


class TestInitialTermFormula:
    def test_formula_n4(self):
        # in(g_{k,l}) = -z_{n+1-v(k), v^{-1}(v(l)+1)} for every nonzero
        # generator at every fixed point
        from hesscells import v_of_w

        n = 4
        for h in enumerate_hessenberg(n, indecomposable_only=True):
            for w in fixed_points(h):
                v = v_of_w(w)
                vinv = v.inverse()
                pres = build_ideal(w, h, "cell")
                order = order_n_w(w)
                for k, l, g in pres.nonzero_generators():
                    coeff, mono = initial_term(g, order)
                    assert coeff == -1
                    assert mono == Monomial(
                        {zvar(n + 1 - v(k), vinv(v(l) + 1)): 1}
                    )


# The packed kernel against the plain dict-based division it replaced.

X11, X12, X21 = xvar(1, 1), xvar(1, 2), xvar(2, 1)
# a priority that differs from the canonical variable order
PROP_ORDER = MonomialOrder((X21, X11, X12))

prop_monomials = st.dictionaries(
    st.sampled_from((X11, X12, X21)), st.integers(1, 3), max_size=3
).map(Monomial)


def prop_polys(char, max_size, min_size=0):
    return st.dictionaries(
        prop_monomials,
        st.integers(-9, 9).filter(bool),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda terms: Polynomial(terms, char))


@st.composite
def division_problems(draw, char):
    """(dividend, divisors) with unit lead coefficients; the dividend is
    a random combination of the divisors plus a random polynomial, so
    that most draws divide."""
    p = draw(prop_polys(char, 6))
    divisors = []
    for g in draw(st.lists(prop_polys(char, 4, 1), min_size=1, max_size=3)):
        if g.is_zero:
            continue
        if not char:
            c, m = initial_term(g, PROP_ORDER)
            g = g + Polynomial({m: draw(st.sampled_from((1, -1))) - c})
        divisors.append(g)
        p = p + draw(prop_polys(char, 3, 1)) * g
    return p, divisors


def division_terms(result):
    """Quotients and remainder as (char, ordered term list) pairs."""
    quotients, remainder = result
    return [(q.char, list(q.terms.items())) for q in quotients + [remainder]]


def assert_matches_reference(p, divisors, order):
    got = poly_reduce(p, divisors, order)
    assert division_terms(got) == division_terms(
        reference_reduce(p, divisors, order)
    )
    return got


class TestPackedReduce:
    @pytest.mark.parametrize("char", [0, 2, 3, 7])
    @given(data=st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_matches_reference(self, char, data):
        p, divisors = data.draw(division_problems(char))
        assert_matches_reference(p, divisors, PROP_ORDER)

    def test_exponent_past_two_to_the_fifteen(self):
        x, y = Polynomial.variable(X11), Polynomial.variable(X12)
        big = 2**15
        p = x**big * y + 3 * y**big
        g = x**big - y**2
        quotients, r = assert_matches_reference(p, [g], order_n(3))
        assert quotients == [y]
        assert r == y**3 + 3 * y**big

    def test_field_overflow_partway_restarts(self):
        # x^a = (x - y^b) * q + y^(ab) in lex with x > y; y^(ab) outgrows
        # the field width the inputs ask for
        a = b = 100
        x, y = Polynomial.variable(X11), Polynomial.variable(X12)
        p, g = x**a, x - y**b
        assert a * b >= 1 << (_field_bits([p, g]) - 1)
        _, r = assert_matches_reference(p, [g], order_n(3))
        assert r == y ** (a * b)
