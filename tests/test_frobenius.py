import dataclasses
import importlib
import itertools
import random
import time
import types
from functools import lru_cache

import pytest
from frobenius_reference import (
    is_prime,
    reference_products,
    reference_splitting_apply,
    reference_trace,
    variable_product,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from hesscells import (
    HessenbergFunction,
    Monomial,
    Permutation,
    Polynomial,
    all_permutations,
    build_ideal,
    compatibility_check,
    enumerate_hessenberg,
    fixed_points,
    initial_term,
    is_fixed_point,
    make_splitting_context,
    splitting_apply,
    trace,
    zvar,
)
from hesscells import groebner
from hesscells.frobenius import FROBENIUS_CEILINGS, SplittingContext, _kernel_bits

W3421 = Permutation([3, 4, 2, 1])
H3344 = HessenbergFunction([3, 3, 4, 4])


def two_variable_context(p):
    # w = 231 has exactly two cell coordinates, z_1_1 and z_1_2; the full
    # Hessenberg function gives no generators, so F is the product of the
    # variables and trace examples are easy to state
    w = Permutation([2, 3, 1])
    return make_splitting_context(w, p)


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
            make_splitting_context(W3421, 6)

    def test_unlisted_number_is_refused_at_once(self):
        # the table of primes gates the library as it gates the CLI; 2^61 - 1
        # is prime, and trial division up to its square root would hang
        for p in (2**61 - 1, 23, 21):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"^p = {p} has no Frobenius ceiling"):
                make_splitting_context(W3421, p)
            assert time.perf_counter() - start < 1

    def test_requires_fixed_point(self):
        ctx = make_splitting_context(W3421, 2)
        with pytest.raises(ValueError):
            compatibility_check(ctx, HessenbergFunction([2, 3, 4, 4]))

    def test_initial_term_of_F_is_product_of_all_variables(self):
        for n in range(2, 4):
            for w in all_permutations(n):
                for p in (2, 3):
                    ctx = make_splitting_context(w, p)
                    G, _, _ = reference_products(ctx)
                    coeff, mono = initial_term(ctx.F, ctx.order)
                    assert mono == variable_product(ctx)
                    assert coeff in (1, p - 1)
                    assert coeff == initial_term(G, ctx.order)[0]

    def test_no_generators_makes_F_the_variable_product(self):
        ctx = two_variable_context(3)
        assert ctx.F == Polynomial({variable_product(ctx): 1}, 3)

    def test_no_field_holds_a_polynomial(self):
        # F is kept once, as packed codes; G, Z and the decoded F are not
        # stored, and the properties F and F_pow decode on request
        for w in (W3421, Permutation.longest_element(4), Permutation([2, 3, 1])):
            for p in (2, 3):
                ctx = make_splitting_context(w, p)
                compatibility_check(ctx, fixing(w)[0])
                for f in dataclasses.fields(ctx):
                    assert not isinstance(getattr(ctx, f.name), Polynomial), f.name
                assert isinstance(ctx.F, Polynomial)
                assert isinstance(ctx.F_pow, Polynomial)


class TestSplittingAxioms:
    # phi(a + b) = phi(a) + phi(b) and phi(z^p * a) = z * phi(a) hold for
    # every F, by the definition of the trace (Brion-Kumar 2005): checked on
    # seeded random inputs at every listed prime, at w0 and at 3421, n = 4
    @pytest.mark.parametrize("p", list(FROBENIUS_CEILINGS))
    def test_axioms_on_random_inputs(self, p):
        w0, h_least = Permutation.longest_element(4), HessenbergFunction([2, 3, 4, 4])
        for w, h in ((w0, h_least), (W3421, H3344)):
            ctx = make_splitting_context(w, p)
            assert compatibility_check(ctx, h).all_compatible
            one = Polynomial.one(p)
            assert splitting_apply(one, ctx) == one
            rng = random.Random(p)
            vars = list(ctx.variables)
            for _ in range(10):
                a, b = random_poly(ctx, rng), random_poly(ctx, rng)
                assert splitting_apply(a + b, ctx) == \
                    splitting_apply(a, ctx) + splitting_apply(b, ctx)
                z = rng.choice(vars)
                zp = Polynomial.variable(z, p) ** p
                assert splitting_apply(zp * a, ctx) == \
                    Polynomial.variable(z, p) * splitting_apply(a, ctx)

    def test_splits_one_with_no_variables(self):
        w = Permutation.identity(3)
        ctx = make_splitting_context(w, 5)
        assert splitting_apply(Polynomial.one(5), ctx) == Polynomial.one(5)


class TestCompatibility:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_3421_cell_ideal(self, p):
        ctx = make_splitting_context(W3421, p)
        report = compatibility_check(ctx, H3344)
        assert report.splits_one
        assert report.all_compatible
        assert all(r.is_zero for _, _, r in report.entries)

    def test_generator_image_reduces_to_zero(self):
        from hesscells.groebner import reduce as poly_reduce

        ctx = make_splitting_context(W3421, 2)
        gens = [g for _, _, g in ctx.generators]
        phi = splitting_apply(gens[0], ctx)
        _, r = poly_reduce(phi, gens, ctx.order)
        assert r.is_zero

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_a_nonzero_image_gets_its_remainder(self, p):
        # With F tampered to Z * g for the first generator g, F^(p-1) * g is
        # Z^(p-1) * g^p, so phi(g) = g: nonzero, and in the ideal.  The
        # check must still divide it, and report reduce's remainder 0.
        ctx = make_splitting_context(W3421, p)
        g0 = ctx.generators[0][2]
        packing = ctx.order._packing(_kernel_bits(ctx._top, 0))
        tampered = dataclasses.replace(ctx, _F=packing.encode(
            Polynomial({variable_product(ctx): 1}, p) * g0))
        assert splitting_apply(g0, tampered) == g0
        report = compatibility_check(tampered, H3344)
        gens = [g for _, _, g in ctx.generators]
        assert [(k, l) for k, l, _ in report.entries] == [(k, l) for k, l, _ in ctx.generators]
        for k, l, r in report.entries:
            g = next(g for kk, ll, g in ctx.generators if (kk, ll) == (k, l))
            assert r == groebner.reduce(splitting_apply(g, tampered), gens, ctx.order)[1]
        assert report.entries[0][2].is_zero

    def test_vacuous_with_no_generators(self):
        w = Permutation([2, 3, 1])
        ctx = make_splitting_context(w, 3)
        report = compatibility_check(ctx, HessenbergFunction.full(3))
        assert report.all_compatible
        assert report.entries == []

    def test_all_cases_n3(self):
        for h in enumerate_hessenberg(3, indecomposable_only=True):
            for w in fixed_points(h):
                for p in (2, 3, 5):
                    ctx = make_splitting_context(w, p)
                    assert compatibility_check(ctx, h).all_compatible

    def test_json_report_shape(self):
        ctx = make_splitting_context(W3421, 2)
        doc = compatibility_check(ctx, H3344).to_json()
        assert doc["allCompatible"] is True
        assert doc["p"] == 2
        assert len(doc["generators"]) == 2
        assert all(entry["compatible"] for entry in doc["generators"])


# The packed, residue-bucketed kernel against the plain route it replaced.

KERNEL_CASES = (
    Permutation.identity(3),
    Permutation([2, 3, 1]),
    W3421,
    Permutation.longest_element(4),
    Permutation.longest_element(3),
)


@lru_cache(maxsize=None)
def kernel_context(case, p):
    return make_splitting_context(KERNEL_CASES[case], p)


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
        ctx = make_splitting_context(W3421, p)
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
        ctx = make_splitting_context(W3421, p)
        F = ctx.order._packing(24).encode(ctx.F)
        want = {0: 1}
        for k in range(1, 7):
            want = groebner._multiply(want, F, p)
            assert groebner._power(F, k, p) == want

    def test_products_match_polynomial_products(self):
        for n in range(1, 5):
            for w in all_permutations(n):
                for p in (2, 3):
                    ctx = make_splitting_context(w, p)
                    G, F, F_pow = reference_products(ctx)
                    # F is the product G of the generators shifted by Z/in(G)
                    _, m = initial_term(G, ctx.order)
                    assert ctx.F == Polynomial({variable_product(ctx) / m: 1}, p) * G
                    assert ctx.F == F
                    assert ctx.F_pow == F_pow

    @pytest.mark.parametrize("p,max_n", [(2, 5), (3, 5), (5, 4)])
    def test_phi_of_one_and_every_generator_matches_reference(self, p, max_n):
        values = 0
        for n in range(1, max_n + 1):
            for w in all_permutations(n):
                ctx = make_splitting_context(w, p)
                F_pow = reference_products(ctx)[2]
                for f in [Polynomial.one(p)] + [g for _, _, g in ctx.generators]:
                    assert splitting_apply(f, ctx).terms == \
                        reference_splitting_apply(f, ctx, F_pow).terms, (w, f)
                    values += 1
        # phi(1) and phi(g) for each of the n <= max_n contexts' generators
        assert values == {4: 46, 5: 283}[max_n]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_residue_sum_is_the_field_wise_sum_mod_p(self, p):
        # The join of `_twisted_trace` sums the residue codes of a term a of
        # f and a term b of B field-wise mod p, and reads the one bucket of
        # A that the pair can survive with: p - 1 minus that sum.  Here B
        # holds every b with exponents in `exps`, its index i in a field of
        # residue 0, and A one term per residue code c, its index j in a
        # field of residue p - 1, so that a pair survives with c exactly.
        # phi(a) then holds, per b, the monomial of exponents
        # floor((a + b) / p), i and j: j names the bucket the join read.
        variables = (zvar(1, 1), zvar(1, 2), zvar(2, 1))
        order = groebner.MonomialOrder(variables + (zvar(3, 1), zvar(3, 2)))
        exps = sorted({0, 1, p // 2, p - 2, p - 1})
        cubes = list(itertools.product(exps, repeat=3))
        residues = list(itertools.product(range(p), repeat=3))
        ctx = SplittingContext(p, None, order.priority, order, [], {0: 1}, 8 * p**4)
        bits = _kernel_bits(ctx._top, 0)
        packing = order._packing(bits)

        def code(e):
            return next(iter(packing.encode(Polynomial({monomial(e): 1}))))

        def monomial(e):
            return Monomial(dict(zip(order.priority, e)))

        B = tuple((code(b + (p * i, 0)), code(tuple(e % p for e in b) + (0, 0)), 1)
                  for i, b in enumerate(cubes))
        buckets = {code(c + (p - 1, p - 1)): [(code(c + (p - 1, p - 1 + p * j))
                                               + packing.ones, 1)]
                   for j, c in enumerate(residues)}
        ctx._kernels[bits, True] = packing, buckets, B
        for a in cubes:
            want = {}
            for i, b in enumerate(cubes):
                c = tuple((p - 1 - x - y) % p for x, y in zip(a, b))
                want[monomial(tuple((x + y) // p for x, y in zip(a, b))
                              + (i, residues.index(c)))] = 1
            assert splitting_apply(Polynomial({monomial(a): 1}, p), ctx) == \
                Polynomial(want, p), a

    @pytest.mark.parametrize("p", list(FROBENIUS_CEILINGS))
    def test_residues_is_the_field_wise_residue(self, p):
        # random codes whose fields are below, at and above p, at widths
        # whose fields hold p and at widths whose fields do not; the
        # per-field definition is read off the decoded monomial
        variables = (zvar(1, 1), zvar(1, 2), zvar(2, 1), zvar(2, 2))
        order = groebner.MonomialOrder(variables)
        rng = random.Random(p)
        own = set()
        for bits in range(2, 12):
            packing, top = order._packing(bits), (1 << (bits - 1)) - 1
            values = [v for v in (0, 1, p - 1, p, p + 1, 2 * p - 1, 2 * p, top)
                      if v <= top]
            for _ in range(200):
                mono = Monomial({v: rng.choice(values) for v in variables})
                code = next(iter(packing.encode(Polynomial({mono: 1}))))
                want = Monomial({v: e % p for v, e in mono.exps})
                got = packing.residues(code, p)
                assert packing.decode({got: 1}, 0) == Polynomial({want: 1}), (bits, mono)
                own.add(want == mono)
        assert own == {True, False}  # codes that are their own residue, and others

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_no_stored_kernel_holds_the_full_power(self, p):
        # the kernels keep A = F^a and B = F^b, a = ceil((p - 1) / 2) and
        # b = p - 1 - a, at each field width phi was evaluated at (A = B = 1
        # for Tr); F^(p-1) is formed only on request and is not kept
        ctx = make_splitting_context(Permutation.longest_element(4), p)
        z = Polynomial.variable(ctx.variables[0], p)
        for f in (Polynomial.one(p), z**200, z ** (p * 2**15 - 1)):
            splitting_apply(f, ctx)
            trace(f, ctx)
        _, F, F_pow = reference_products(ctx)
        a = p // 2
        kernels = list(stored_kernels(ctx))
        assert sorted(twisted for twisted, _, _ in kernels) == [False] * 3 + [True] * 3
        for twisted, A, B in kernels:
            one = Polynomial.one(p)
            assert A == (F**a if twisted else one)
            assert B == (F ** (p - 1 - a) if twisted else one)
        if p > 2:  # at p = 2, F^(p-1) is F itself
            stored = [getattr(ctx, f.name) for f in dataclasses.fields(ctx)]
            stored += [poly for _, A, B in kernels for poly in (A, B)]
            assert F_pow not in stored
        assert ctx.F_pow == F_pow
        assert list(stored_kernels(ctx)) == kernels


def stored_kernels(ctx):
    """(twisted, A, B) for each trace kernel the context keeps, with each
    stored residue code checked against its monomial."""
    p = ctx.p
    for (_, twisted), (packing, buckets, B) in ctx._kernels.items():
        ones = packing.ones
        A = {t - ones: c for bucket in buckets.values() for t, c in bucket}
        assert all(packing.residues(t - ones, p) == r
                   for r, bucket in buckets.items() for t, _ in bucket)
        assert all(packing.residues(code, p) == r for code, r, _ in B)
        yield twisted, packing.decode(A, p), packing.decode({b: c for b, _, c in B}, p)


def fixing(w):
    """Every indecomposable Hessenberg function fixing w."""
    return [
        h for h in enumerate_hessenberg(w.n, indecomposable_only=True)
        if is_fixed_point(w, h)
    ]


def ideal_mod_p(w, h, p):
    return [g.reduce_mod(p) for _, _, g in build_ideal(w, h).nonzero_generators()]


class TestOneSplittingPerCell:
    @pytest.mark.parametrize("p,max_n", [(2, 5), (3, 5), (5, 4)])
    def test_one_context_splits_every_ideal_of_the_cell(self, p, max_n):
        checks = 0
        for n in range(1, max_n + 1):
            for w in all_permutations(n):
                ctx = make_splitting_context(w, p)
                for h in fixing(w):
                    report = compatibility_check(ctx, h)
                    assert report.all_compatible, (w, h)
                    assert [(k, l) for k, l, _ in report.entries] == \
                        [(k, l) for k, l, _ in build_ideal(w, h).nonzero_generators()]
                    checks += 1
        want = sum(
            len(fixed_points(h))
            for n in range(1, max_n + 1)
            for h in enumerate_hessenberg(n, indecomposable_only=True)
        )
        assert checks == want

    def test_entries_keep_the_context_generator_order(self):
        for n in range(1, 5):
            for w in all_permutations(n):
                ctx = make_splitting_context(w, 2)
                for h in fixing(w):
                    entries = [(k, l) for k, l, _ in compatibility_check(ctx, h).entries]
                    assert entries == [(k, l) for k, l, _ in ctx.generators
                                       if (k, l) in entries], (w, h)

    def test_phi_computed_once_per_context_and_generator(self, monkeypatch):
        # phi(1) and phi(g) do not depend on h: the context keeps them, and
        # the verdicts equal those of phi computed afresh for each h
        frobenius = importlib.import_module("hesscells.frobenius")
        calls = []

        def counting(f, ctx):
            calls.append(ctx.w.n)
            return splitting_apply(f, ctx)

        monkeypatch.setattr(frobenius, "splitting_apply", counting)
        contexts = 0
        for p in (2, 3):
            for n in range(1, 6):
                for w in all_permutations(n):
                    ctx = make_splitting_context(w, p)
                    contexts += n == 5
                    for h in fixing(w):
                        report = compatibility_check(ctx, h)
                        gens = [g for k, l, g in ctx.generators if k > h(l)]
                        fresh = [
                            groebner.reduce(splitting_apply(g, ctx), gens, ctx.order)[1]
                            for g in gens
                        ]
                        assert report.splits_one
                        assert [r for _, _, r in report.entries] == fresh
                        assert report.all_compatible == all(r.is_zero for r in fresh)
        # the n = 5 cells at p = 2, 3, as the frob5 benchmark meets them
        assert contexts == 240
        assert calls.count(5) == 474

    def test_rejects_decomposable_h(self):
        ctx = make_splitting_context(Permutation.identity(3), 2)
        with pytest.raises(ValueError):
            compatibility_check(ctx, HessenbergFunction([1, 3, 3]))

    def test_sweep_builds_one_context_per_cell_and_prime(self, monkeypatch):
        sweep_mod = importlib.import_module("hesscells.sweep")
        calls = []

        def counting(w, p):
            calls.append((w, p))
            return make_splitting_context(w, p)

        monkeypatch.setattr(sweep_mod, "make_splitting_context", counting)
        sweep_mod._TABLES.clear()
        report = sweep_mod.sweep(4, frobenius_primes=(2, 3), jobs=1)
        assert report["summary"]["ok"]
        assert len(calls) == len(set(calls)) == 2 * (1 + 2 + 6 + 24)


class TestFedder:
    """Fedder's criterion for the compatible splitting: F^(p-1) I lies in
    I^[p] = <g^p>.  The g^p have distinct single-variable leading
    monomials, so they are a Groebner basis and reduction decides it."""

    @staticmethod
    def in_frobenius_power(f, gens, order, p):
        return groebner.reduce(f, [g**p for g in gens], order)[1].is_zero

    def test_cell_splitting_satisfies_fedder(self):
        checks = passed = standard_passed = 0
        for n in range(1, 5):
            for w in all_permutations(n):
                for p in (2, 3, 5):
                    ctx = make_splitting_context(w, p)
                    F_pow = reference_products(ctx)[2]
                    standard = Polynomial({variable_product(ctx): 1}, p) ** (p - 1)
                    for h in fixing(w):
                        gens = ideal_mod_p(w, h, p)
                        for g in gens:
                            checks += 1
                            passed += self.in_frobenius_power(
                                F_pow * g, gens, ctx.order, p)
                            standard_passed += self.in_frobenius_power(
                                standard * g, gens, ctx.order, p)
        # the standard splitting F = Z fails every one of them
        assert (checks, passed, standard_passed) == (72, 72, 0)

    def test_phi_of_ideal_in_ideal_is_not_enough(self):
        # the standard splitting F = Z, which fails Fedder above, still maps
        # every generator of every cell ideal back into the ideal
        checks = 0
        for n in range(1, 5):
            for w in all_permutations(n):
                for p in (2, 3):
                    ctx = make_splitting_context(w, p)
                    standard = types.SimpleNamespace(
                        p=p, variables=ctx.variables,
                        F=Polynomial({variable_product(ctx): 1}, p),
                    )
                    one = Polynomial.one(p)
                    assert reference_splitting_apply(one, standard) == one
                    for h in fixing(w):
                        gens = ideal_mod_p(w, h, p)
                        for g in gens:
                            phi = reference_splitting_apply(g, standard)
                            assert groebner.reduce(phi, gens, ctx.order)[1].is_zero
                        checks += 1
        assert checks == 174
