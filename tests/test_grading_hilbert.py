import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesscells import (
    HessenbergFunction,
    HilbertSeries,
    InternalError,
    Permutation,
    Polynomial,
    all_permutations,
    build_ideal,
    enumerate_hessenberg,
    fixed_points,
    hilbert_formula,
    hilbert_oracle,
    is_fixed_point,
    is_homogeneous,
    order_n_w,
    triangular_analysis,
    v_of_w,
    weights_for,
    z_universe,
    zvar,
)
from hesscells.grading_hilbert import TRUNC_CEILING
from hilbert_reference import canonical as reference_canonical
from hilbert_reference import same_series

W3421 = Permutation([3, 4, 2, 1])
H3344 = HessenbergFunction([3, 3, 4, 4])


def count_partitions(k, parts):
    """Brute-force count of partitions of k into the given parts."""
    if k == 0:
        return 1
    if not parts:
        return 0
    first, rest = parts[0], parts[1:]
    return sum(
        count_partitions(k - m * first, rest)
        for m in range(k // first + 1)
    )


class TestWeights:
    def test_paper_table_3421(self):
        wt = weights_for(W3421)
        table = {v.name: wt[v] for v in z_universe(W3421)}
        assert table == {
            "z_1_1": 2, "z_1_2": 3, "z_1_3": 1, "z_2_1": 1, "z_2_2": 2,
        }

    def test_longest_element_weights(self):
        n = 4
        wt = weights_for(Permutation.longest_element(n))
        for v in z_universe(Permutation.longest_element(n)):
            assert wt[v] == (n + 1 - v.col) - v.row

    def test_all_weights_positive_up_to_n6(self):
        for n in range(1, 7):
            for w in all_permutations(n):
                wt = weights_for(w)
                assert all(value >= 1 for _, value in wt.items())

    def test_both_formulas_agree_up_to_n6(self):
        # weights_for asserts agreement internally; replay it here
        for n in range(1, 7):
            for w in all_permutations(n):
                v = v_of_w(w)
                wt = weights_for(w)
                for var in z_universe(w):
                    assert wt[var] == w(var.col) - var.row
                    assert wt[var] == (n + 1 - v(var.col)) - var.row
                    assert wt[var] >= 1

    def test_disagreeing_formulas_are_an_internal_error(self, monkeypatch):
        # a wrong v = w0 w makes the pullback formula disagree; that is a bug
        # in the package, not a usage error
        grading_hilbert = importlib.import_module("hesscells.grading_hilbert")
        monkeypatch.setattr(grading_hilbert, "v_of_w", lambda w: w)
        with pytest.raises(InternalError, match="weight formulas at z_1_1"):
            weights_for(W3421)


class TestIsHomogeneous:
    def test_paper_degrees(self):
        from hesscells import cell_generators

        wt = weights_for(W3421)
        conj = cell_generators(W3421)
        assert is_homogeneous(conj.entry(4, 2), wt) == 2
        assert is_homogeneous(conj.entry(4, 1), wt) == 1

    def test_inhomogeneous_returns_none(self):
        wt = weights_for(W3421)
        p = Polynomial.variable(zvar(1, 1)) + Polynomial.variable(zvar(1, 2))
        assert is_homogeneous(p, wt) is None

    def test_constants_have_degree_zero(self):
        wt = weights_for(W3421)
        assert is_homogeneous(Polynomial.const(5), wt) == 0
        assert is_homogeneous(Polynomial.zero(), wt) == 0

    def test_degree_formula_n4(self):
        for h in enumerate_hessenberg(4, indecomposable_only=True):
            for w in fixed_points(h):
                v = v_of_w(w)
                wt = weights_for(w)
                pres = build_ideal(w, h, "cell")
                for k, l, g in pres.nonzero_generators():
                    assert is_homogeneous(g, wt) == v(k) - v(l) - 1


class TestHilbertSeries:
    def test_formula_3421(self):
        series = hilbert_formula(W3421, H3344)
        assert series.numerator_factors == (1, 2)
        assert series.denominator_factors == (1, 1, 2, 2, 3)
        canon = series.canonical()
        assert canon.numerator_factors == ()
        assert canon.denominator_factors == (1, 2, 3)

    def test_expansion_is_partition_counting(self):
        series = hilbert_formula(W3421, H3344)
        coeffs = series.expand(6)
        assert coeffs == [1, 1, 2, 3, 4, 5, 7]
        assert coeffs == [count_partitions(k, (1, 2, 3)) for k in range(7)]

    def test_full_h_no_numerator(self):
        for w in all_permutations(3):
            series = hilbert_formula(w, HessenbergFunction.full(3))
            assert series.numerator_factors == ()
            assert len(series.denominator_factors) == w.length()

    def test_staircase_at_longest_degrees(self):
        # at the longest element the degree of generator (k, l) is
        # k - l - 1, and for the staircase function k runs over l+2..n
        for n in range(3, 6):
            h = HessenbergFunction(list(range(2, n + 1)) + [n])
            series = hilbert_formula(Permutation.longest_element(n), h)
            expected = sorted(
                k - l - 1
                for l in range(1, n)
                for k in range(h(l) + 1, n + 1)
            )
            assert list(series.numerator_factors) == expected
            assert len(expected) == h.lambda_size()

    def test_rejects_non_fixed_point(self):
        with pytest.raises(ValueError):
            hilbert_formula(W3421, HessenbergFunction([2, 3, 4, 4]))

    def test_rejects_decomposable(self):
        with pytest.raises(ValueError):
            hilbert_formula(
                Permutation.identity(3), HessenbergFunction([1, 2, 3])
            )


class TestHilbertOracle:
    def report_and_weights(self, w, h):
        rep = triangular_analysis(build_ideal(w, h, "cell"), order_n_w(w))
        return rep, weights_for(w)

    def test_3421_against_partition_count(self):
        rep, wt = self.report_and_weights(W3421, H3344)
        assert hilbert_oracle(rep, wt).expand(6) == [1, 1, 2, 3, 4, 5, 7]

    def test_refuses_a_report_that_is_not_triangular(self):
        # w = 3421 does not fix h = 2344: its ideal holds a constant
        rep, wt = self.report_and_weights(W3421, HessenbergFunction([2, 3, 4, 4]))
        assert not rep.is_triangular
        with pytest.raises(ValueError, match="^oracle requires a passing triangular analysis$"):
            hilbert_oracle(rep, wt)

    def test_no_free_variables_constant_one(self):
        w = Permutation.identity(3)
        rep, wt = self.report_and_weights(w, HessenbergFunction.full(3))
        assert hilbert_oracle(rep, wt).expand(5) == [1, 0, 0, 0, 0, 0]

    def test_truncation_validation(self):
        rep, wt = self.report_and_weights(W3421, H3344)
        with pytest.raises(ValueError):
            hilbert_oracle(rep, wt).expand(0)

    def test_expansion_is_bounded_by_the_trunc_ceiling(self):
        series = hilbert_formula(W3421, H3344)
        with pytest.raises(ValueError, match=f"^trunc must be at most {TRUNC_CEILING}$"):
            series.expand(TRUNC_CEILING + 1)
        assert series.expand(1) == [1, 1]

    def test_formula_matches_oracle_n4_order20(self):
        for n in range(1, 5):
            for h in enumerate_hessenberg(n, indecomposable_only=True):
                for w in fixed_points(h):
                    rep, wt = self.report_and_weights(w, h)
                    formula = hilbert_formula(w, h).expand(20)
                    assert formula == hilbert_oracle(rep, wt).expand(20)

    def test_exact_comparison_gives_the_truncated_verdict_n6(self):
        # the sweep's exact hilbertOk against the comparison of expansions
        # to t^(n-1) it replaced, on each true pair and on an oracle that
        # misses its largest free-variable weight
        compared = 0
        for n in range(1, 7):
            hs = enumerate_hessenberg(n, indecomposable_only=True)
            for w in all_permutations(n):
                wt = weights_for(w)
                for h in hs:
                    if not is_fixed_point(w, h):
                        continue
                    rep, _ = self.report_and_weights(w, h)
                    formula, oracle = hilbert_formula(w, h), hilbert_oracle(rep, wt)
                    free = oracle.denominator_factors
                    pairs = [(formula, oracle), (formula, HilbertSeries((), free[:-1]))]
                    for a, b in pairs[:1 + bool(free)]:
                        trunc = max(1, n - 1)
                        exact = a.equals(b)
                        assert exact is (a.canonical() == b.canonical()), (w, h)
                        assert exact is (a.expand(trunc) == b.expand(trunc)), (w, h)
                        assert exact is (b is oracle), (w, h)
                    compared += 1
        assert compared == 8955

    def test_coefficients_start_at_one_and_stay_nonnegative(self):
        for h in enumerate_hessenberg(4, indecomposable_only=True):
            for w in fixed_points(h):
                coeffs = hilbert_formula(w, h).expand(15)
                assert coeffs[0] == 1
                assert all(c >= 0 for c in coeffs)


class TestSeriesArithmetic:
    def test_factor_validation(self):
        with pytest.raises(ValueError):
            HilbertSeries((0,), ())

    def test_expand_multiply_then_divide_roundtrip(self):
        series = HilbertSeries((2, 3), (2, 3, 1))
        same = HilbertSeries((), (1,))
        assert series.expand(12) == same.expand(12)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_canonical_equality_is_agreement_up_to_the_sum_of_exponents(self, data):
        # at most 8 factors a series, exponents 1 to 6
        factors = st.lists(st.integers(1, 6), max_size=4)
        num, den = data.draw(factors), data.draw(factors)
        if data.draw(st.booleans()):  # an equal series: common factors added on both sides
            common = tuple(data.draw(st.lists(st.integers(1, 6),
                                              max_size=(8 - len(num) - len(den)) // 2)))
            other = HilbertSeries(tuple(num[::-1]) + common, tuple(den) + common)
        else:
            other = HilbertSeries(tuple(data.draw(factors)), tuple(data.draw(factors)))
        series = HilbertSeries(tuple(num), tuple(den))
        top = sum(series.numerator_factors + series.denominator_factors
                  + other.numerator_factors + other.denominator_factors)
        agree = series.expand(max(1, top)) == other.expand(max(1, top))
        assert (series.canonical() == other.canonical()) is agree
        assert series.equals(other) is agree

    @pytest.mark.parametrize("a, b, same", [
        # equal only once the common factors are cancelled
        (((1, 2), (1, 1, 2)), ((), (1,)), True),
        (((3, 1, 3), (3, 3, 1, 2)), ((1,), (1, 2)), True),
        # unequal, with equal factor counts and sums
        (((1, 4), (2, 3)), ((2, 3), (1, 4)), False),
        (((1, 1), (2,)), ((2,), (1, 1)), False),
        (((), (1, 3)), ((), (2, 2)), False),
        # 1/(1 - t) once cancelled, against 1
        (((2,), (1, 2)), ((), ()), False),
    ])
    def test_the_comparison_is_the_reference_cancellation(self, a, b, same):
        a, b = HilbertSeries(*a), HilbertSeries(*b)
        assert a.equals(b) is b.equals(a) is same_series(a, b) is same
        assert a.canonical() == reference_canonical(a)

    def test_the_comparison_is_the_reference_on_every_fixed_ideal_to_n5(self):
        # each formula against its oracle, and against the oracle less its
        # last or first free-variable weight
        compared = 0
        for n in range(1, 6):
            hs = enumerate_hessenberg(n, indecomposable_only=True)
            for w in all_permutations(n):
                wt = weights_for(w)
                for h in hs:
                    if not is_fixed_point(w, h):
                        continue
                    rep = triangular_analysis(build_ideal(w, h, "cell"), order_n_w(w))
                    formula, oracle = hilbert_formula(w, h), hilbert_oracle(rep, wt)
                    free = oracle.denominator_factors
                    for b in (oracle, HilbertSeries((), free[:-1]), HilbertSeries((), free[1:])):
                        assert formula.equals(b) is b.equals(formula) is same_series(formula, b)
                        assert formula.equals(b) is (b is oracle or not free)
                    for series in (formula, oracle):
                        assert series.canonical() == reference_canonical(series)
                    compared += 1
        assert compared == 793

    def test_json(self):
        series = hilbert_formula(W3421, H3344)
        assert series.to_json() == {
            "numeratorFactors": [1, 2],
            "denominatorFactors": [1, 1, 2, 2, 3],
        }
