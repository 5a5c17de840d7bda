import random
from functools import lru_cache

import pytest
from frobenius_reference import (
    reference_products,
    reference_splitting_apply,
    reference_trace,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from hesscells import (
    HessenbergFunction,
    Monomial,
    Permutation,
    Polynomial,
    compatibility_check,
    enumerate_hessenberg,
    fixed_points,
    initial_term,
    make_splitting_context,
    splitting_apply,
    trace,
    zvar,
)
from hesscells import groebner
from hesscells.frobenius import is_prime

W3421 = Permutation([3, 4, 2, 1])
H3344 = HessenbergFunction([3, 3, 4, 4])


def two_variable_context(p):
    # w = 231 has exactly two cell coordinates, z_1_1 and z_1_2; the full
    # Hessenberg function gives no generators, so F is the product of the
    # variables and trace examples are easy to state
    w = Permutation([2, 3, 1])
    return make_splitting_context(w, HessenbergFunction.full(3), p, "cell")


def random_poly(ctx, rng, max_terms=6):
    vars = list(ctx.variables)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        if vars:
            mono = Monomial(
                {v: rng.randint(0, 3) for v in rng.sample(vars, min(3, len(vars)))}
            )
        else:
            mono = Monomial()
        terms[mono] = terms.get(mono, 0) + rng.randint(1, max(1, ctx.p - 1))
    return Polynomial(terms, ctx.p)


class TestIsPrime:
    def test_small_values(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


class TestTrace:
    def test_full_product_maps_to_one(self):
        ctx = two_variable_context(2)
        z1, z2 = ctx.variables
        m = Polynomial({Monomial({z1: 1, z2: 1}): 1}, 2)
        assert trace(m, ctx) == Polynomial.one(2)

    def test_odd_pattern_maps_to_zero(self):
        ctx = two_variable_context(2)
        z1, _ = ctx.variables
        m = Polynomial({Monomial({z1: 1}): 1}, 2)
        assert trace(m, ctx) == Polynomial.zero(2)

    def test_cube_times_other(self):
        ctx = two_variable_context(2)
        z1, z2 = ctx.variables
        m = Polynomial({Monomial({z1: 3, z2: 1}): 1}, 2)
        assert trace(m, ctx) == Polynomial.variable(z1, 2)

    def test_additivity(self):
        ctx = two_variable_context(3)
        rng = random.Random(0)
        for _ in range(20):
            a, b = random_poly(ctx, rng), random_poly(ctx, rng)
            assert trace(a + b, ctx) == trace(a, ctx) + trace(b, ctx)

    def test_rejects_wrong_characteristic(self):
        ctx = two_variable_context(2)
        with pytest.raises(ValueError):
            trace(Polynomial.one(3), ctx)

    def test_rejects_foreign_variables(self):
        ctx = two_variable_context(2)
        with pytest.raises(ValueError):
            trace(Polynomial.variable(zvar(9, 9), 2), ctx)


class TestSplittingContext:
    def test_invalid_prime(self):
        with pytest.raises(ValueError):
            make_splitting_context(W3421, H3344, 6, "cell")

    def test_requires_fixed_point(self):
        with pytest.raises(ValueError):
            make_splitting_context(W3421, HessenbergFunction([2, 3, 4, 4]), 2)

    def test_patch_kind_requires_longest(self):
        with pytest.raises(ValueError):
            make_splitting_context(W3421, H3344, 2, "patch")

    def test_initial_term_of_F_is_product_of_all_variables(self):
        for n in range(2, 4):
            for h in enumerate_hessenberg(n, indecomposable_only=True):
                for w in fixed_points(h):
                    for p in (2, 3):
                        ctx = make_splitting_context(w, h, p, "cell")
                        coeff, mono = initial_term(ctx.F, ctx.order)
                        assert mono == ctx.Z
                        assert coeff in (1, p - 1)
                        assert ctx.sign == (1 if coeff == 1 else -1)

    def test_no_generators_makes_F_the_variable_product(self):
        ctx = two_variable_context(3)
        assert ctx.F == Polynomial({ctx.Z: 1}, 3)


class TestSplittingAxioms:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_axioms_on_random_inputs(self, p):
        w0 = Permutation.longest_element(3)
        h = HessenbergFunction([2, 3, 3])
        ctx = make_splitting_context(w0, h, p, "cell")
        one = Polynomial.one(p)
        assert splitting_apply(one, ctx) == one
        rng = random.Random(p)
        vars = list(ctx.variables)
        for _ in range(50):
            a, b = random_poly(ctx, rng), random_poly(ctx, rng)
            assert splitting_apply(a + b, ctx) == \
                splitting_apply(a, ctx) + splitting_apply(b, ctx)
            z = rng.choice(vars)
            zp = Polynomial.variable(z, p) ** p
            assert splitting_apply(zp * a, ctx) == \
                Polynomial.variable(z, p) * splitting_apply(a, ctx)

    def test_splits_one_with_no_variables(self):
        w = Permutation.identity(3)
        ctx = make_splitting_context(w, HessenbergFunction.full(3), 5, "cell")
        assert splitting_apply(Polynomial.one(5), ctx) == Polynomial.one(5)


class TestCompatibility:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_3421_cell_ideal(self, p):
        ctx = make_splitting_context(W3421, H3344, p, "cell")
        report = compatibility_check(ctx)
        assert report.splits_one
        assert report.all_compatible
        assert all(r.is_zero for _, _, r in report.entries)

    def test_generator_image_reduces_to_zero(self):
        from hesscells.groebner import reduce as poly_reduce

        ctx = make_splitting_context(W3421, H3344, 2, "cell")
        gens = [g for _, _, g in ctx.generators]
        phi = splitting_apply(gens[0], ctx)
        _, r = poly_reduce(phi, gens, ctx.order)
        assert r.is_zero

    def test_vacuous_with_no_generators(self):
        w = Permutation([2, 3, 1])
        ctx = make_splitting_context(w, HessenbergFunction.full(3), 3, "cell")
        report = compatibility_check(ctx)
        assert report.all_compatible
        assert report.entries == []

    def test_patch_ideal_at_longest(self):
        w0 = Permutation.longest_element(4)
        ctx = make_splitting_context(
            w0, HessenbergFunction([2, 3, 4, 4]), 3, "patch"
        )
        report = compatibility_check(ctx)
        assert report.all_compatible

    def test_all_cases_n3(self):
        for h in enumerate_hessenberg(3, indecomposable_only=True):
            for w in fixed_points(h):
                for p in (2, 3, 5):
                    ctx = make_splitting_context(w, h, p, "cell")
                    assert compatibility_check(ctx).all_compatible

    def test_json_report_shape(self):
        ctx = make_splitting_context(W3421, H3344, 2, "cell")
        doc = compatibility_check(ctx).to_json()
        assert doc["allCompatible"] is True
        assert doc["p"] == 2
        assert len(doc["generators"]) == 2
        assert all(entry["compatible"] for entry in doc["generators"])


# The packed, residue-bucketed kernel against the plain route it replaced.

KERNEL_CASES = (
    (Permutation.identity(3), HessenbergFunction.full(3), "cell"),
    (Permutation([2, 3, 1]), HessenbergFunction.full(3), "cell"),
    (W3421, H3344, "cell"),
    (Permutation.longest_element(4), HessenbergFunction([2, 3, 4, 4]), "cell"),
    (Permutation.longest_element(3), HessenbergFunction([2, 3, 3]), "patch"),
)


@lru_cache(maxsize=None)
def kernel_context(case, p):
    w, h, kind = KERNEL_CASES[case]
    return make_splitting_context(w, h, p, kind)


@st.composite
def kernel_inputs(draw, p):
    """A context and a polynomial over F_p in its variables.  Exponents
    are often p - 1 mod p, so that many terms survive the bare trace."""
    ctx = kernel_context(draw(st.integers(0, len(KERNEL_CASES) - 1)), p)
    exponent = st.builds(
        lambda q, r: p * q + r,
        st.integers(0, 2),
        st.one_of(st.just(p - 1), st.integers(0, p - 1)),
    )
    monomials = st.just(Monomial())
    if ctx.variables:
        monomials = st.dictionaries(
            st.sampled_from(ctx.variables), exponent, max_size=len(ctx.variables)
        ).map(Monomial)
    terms = draw(st.dictionaries(monomials, st.integers(1, p - 1), max_size=6))
    return ctx, Polynomial(terms, p)


def assert_kernel_matches_reference(f, ctx):
    assert trace(f, ctx).terms == reference_trace(f, ctx).terms
    assert splitting_apply(f, ctx).terms == \
        reference_splitting_apply(f, ctx).terms


class TestPackedKernel:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @given(data=st.data())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_matches_reference(self, p, data):
        ctx, f = data.draw(kernel_inputs(p))
        assert_kernel_matches_reference(f, ctx)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("big", [200, 2**15])
    def test_wide_exponents(self, p, big):
        # exponents far past F^(p-1)'s own, so the fields must widen for f
        ctx = make_splitting_context(W3421, H3344, p, "cell")
        z11, z12, z13, z21, z22 = (Polynomial.variable(v, p) for v in ctx.variables)
        for f in (
            z11**big,
            z11**big * z12 * z22 ** (p - 1) + z13 ** (big + 1) * z21,
            (z11 + z22) ** p * z12**big + z13 ** (p * big - 1),
            z11 ** (p * big - 1) * z12 ** (p - 1) * z13 ** (p - 1)
            * z21 ** (p - 1) * z22 ** (p - 1),
        ):
            assert_kernel_matches_reference(f, ctx)
        assert splitting_apply(z11 ** (p * big), ctx) == z11**big

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_power_matches_repeated_products(self, p):
        # _power squares with _square; F^k for k <= 6 fits 23-bit fields
        ctx = make_splitting_context(W3421, H3344, p, "cell")
        F = ctx.order._packing(24).encode(ctx.F)
        want = {0: 1}
        for k in range(1, 7):
            want = groebner._multiply(want, F, p)
            assert groebner._power(F, k, p) == want

    def test_products_match_polynomial_products(self):
        for n in range(1, 5):
            w0 = Permutation.longest_element(n)
            for h in enumerate_hessenberg(n, indecomposable_only=True):
                contexts = [(w, "cell") for w in fixed_points(h)] + [(w0, "patch")]
                for w, kind in contexts:
                    for p in (2, 3):
                        ctx = make_splitting_context(w, h, p, kind)
                        G, F, F_pow = reference_products(ctx)
                        assert ctx.G == G
                        assert ctx.F == F
                        assert ctx.F_pow == F_pow
