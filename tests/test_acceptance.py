"""Acceptance suite: one test per criterion, exact assertions only.

Each test prints a single PASS line once its criterion has been verified
at full scale (run pytest with -s or -rP to see them).
"""

import random
import time

from hesscells import (
    HessenbergFunction,
    Monomial,
    Permutation,
    Polynomial,
    PsiMap,
    all_permutations,
    build_ideal,
    buchberger_check,
    cell_generators,
    compatibility_check,
    enumerate_hessenberg,
    fixed_points,
    hilbert_formula,
    hilbert_oracle,
    initial_term,
    is_homogeneous,
    make_splitting_context,
    order_n_w,
    patch_generators,
    paving,
    poly_parse_text,
    random_point_check,
    reduced_gb_oracle,
    splitting_apply,
    triangular_analysis,
    v_of_w,
    weights_for,
    xvar,
    z_universe,
    zvar,
)
from hesscells.cells import conjugate_generators_by_v

W3421 = Permutation([3, 4, 2, 1])
H3344 = HessenbergFunction([3, 3, 4, 4])


def fixed_cases(max_n):
    for n in range(1, max_n + 1):
        for h in enumerate_hessenberg(n, indecomposable_only=True):
            for w in fixed_points(h):
                yield n, h, w


def test_criterion_1_worked_example_fidelity():
    start = time.monotonic()

    # (a) the patch generator matrix at the longest element of S_4
    w0 = Permutation.longest_element(4)
    conj = patch_generators(w0)
    expected_rows = [
        ["0", "0", "0", "0"],
        ["1", "0", "0", "0"],
        ["-x_2_2 + x_3_1", "1", "0", "0"],
        ["-x_1_2 + x_1_3*x_2_2 - x_1_3*x_3_1 + x_2_1", "-x_1_3 + x_2_2", "1", "0"],
    ]
    got_rows = [[conj.entry(i, j).to_text() for j in range(1, 5)]
                for i in range(1, 5)]
    assert got_rows == expected_rows
    assert conj.entry(4, 1) == poly_parse_text(
        "-x_1_2 + x_1_3*x_2_2 - x_1_3*x_3_1 + x_2_1"
    )

    # (b) the full displayed cell conjugate for w = 3421
    cell = cell_generators(W3421)
    expected_cell = [
        ["0", "1", "0", "0"],
        ["0", "0", "0", "0"],
        ["1", "-z_2_1", "0", "0"],
        ["-z_1_3 + z_2_1", "-z_1_1 + z_1_3*z_2_1 + z_2_2", "1", "0"],
    ]
    got_cell = [[cell.entry(i, j).to_text() for j in range(1, 5)]
                for i in range(1, 5)]
    assert got_cell == expected_cell

    # (c) the specialization data for w = 3421
    psi = PsiMap(W3421)
    assert psi.zeroed_vars == frozenset({xvar(3, 1)})
    assert psi.assignment[xvar(1, 2)] == zvar(1, 1)
    assert psi.assignment[xvar(1, 1)] == zvar(1, 2)

    # (d) grading table and generator degrees
    wt = weights_for(W3421)
    assert [wt[v] for v in z_universe(W3421)] == [2, 3, 1, 1, 2]
    pres = build_ideal(W3421, H3344, "cell")
    degrees = [is_homogeneous(g, wt) for _, _, g in pres.nonzero_generators()]
    assert degrees == [1, 2]

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (worked-example fidelity): PASS ({elapsed:.3f}s)")


def test_criterion_2_main_theorem_exhaustive_n5():
    start = time.monotonic()
    cases = 0
    for n, h, w in fixed_cases(5):
        v = v_of_w(w)
        vinv = v.inverse()
        pres = build_ideal(w, h, "cell")
        order = order_n_w(w)
        seen = set()
        for k, l, g in pres.nonzero_generators():
            coeff, mono = initial_term(g, order)
            assert coeff == -1, (w, h, k, l)
            expected = Monomial({zvar(n + 1 - v(k), vinv(v(l) + 1)): 1})
            assert mono == expected, (w, h, k, l)
            assert mono not in seen, (w, h, k, l)
            seen.add(mono)
        assert buchberger_check(pres.generator_polys(), order), (w, h)
        cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"ACCEPTANCE 2 (main theorem, {cases} cases, n<=5): "
          f"PASS ({elapsed:.1f}s)")


def test_criterion_3_psi_consistency_n5():
    start = time.monotonic()
    count = 0
    for n in range(1, 6):
        for w in all_permutations(n):
            direct = cell_generators(w)
            routed = PsiMap(w).apply_matrix(conjugate_generators_by_v(w))
            assert direct == routed, w
            count += 1
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE 3 (psi consistency, {count} permutations, n<=5): "
          f"PASS ({elapsed:.1f}s)")


def test_criterion_4_nonemptiness_oracle_n4():
    start = time.monotonic()
    checked = 0
    for n in range(1, 5):
        for h in enumerate_hessenberg(n, indecomposable_only=True):
            fixed = set(fixed_points(h))
            for w in all_permutations(n):
                pres = build_ideal(w, h, "cell")
                basis = reduced_gb_oracle(
                    pres.generator_polys(), order_n_w(w)
                )
                unit = basis == [Polynomial.one()]
                assert unit == (w not in fixed), (w, h)
                checked += 1
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE 4 (non-emptiness oracle, {checked} pairs, n<=4): "
          f"PASS ({elapsed:.1f}s)")


def test_criterion_5_complete_intersection_and_paving():
    start = time.monotonic()
    for n in range(1, 6):
        for h in enumerate_hessenberg(n, indecomposable_only=True):
            fixed = fixed_points(h)
            for w in all_permutations(n):
                pres = build_ideal(w, h, "cell")
                assert pres.lambda_size == h.lambda_size(), (w, h)
            dims = {}
            for w in fixed:
                pres = build_ideal(w, h, "cell")
                rep = triangular_analysis(pres, order_n_w(w))
                assert rep.is_triangular, (w, h)
                dim = w.length() - pres.height
                assert dim >= 0 and dim == rep.dimension, (w, h)
                dims[w] = dim
            expected_max = sum(h(i) - i for i in range(1, n + 1))
            assert max(dims.values()) == expected_max, h
            assert dims[Permutation.longest_element(n)] == expected_max, h
            table = paving(h)
            assert table.max_dim == expected_max
            assert {r.w: r.dim for r in table.rows} == dims
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE 5 (complete intersection / paving, n<=5): "
          f"PASS ({elapsed:.1f}s)")


def test_criterion_6_hilbert_series():
    start = time.monotonic()
    for n, h, w in fixed_cases(5):
        rep = triangular_analysis(build_ideal(w, h, "cell"), order_n_w(w))
        wt = weights_for(w)
        formula = hilbert_formula(w, h).expand(20)
        oracle = hilbert_oracle(rep, wt, 20)
        assert formula == oracle, (w, h)
    series = hilbert_formula(W3421, H3344)
    assert series.expand(6) == [1, 1, 2, 3, 4, 5, 7]
    canon = series.canonical()
    assert canon.numerator_factors == ()
    assert canon.denominator_factors == (1, 2, 3)
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE 6 (Hilbert formula vs oracle to order 20, n<=5): "
          f"PASS ({elapsed:.1f}s)")


def test_criterion_7_homogeneity():
    start = time.monotonic()
    for n, h, w in fixed_cases(5):
        v = v_of_w(w)
        wt = weights_for(w)
        for k, l, g in build_ideal(w, h, "cell").nonzero_generators():
            assert is_homogeneous(g, wt) == v(k) - v(l) - 1, (w, h, k, l)
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE 7 (homogeneity of all generators, n<=5): "
          f"PASS ({elapsed:.1f}s)")


def _random_mod_p_poly(ctx, rng, max_terms=6):
    vars = list(ctx.variables)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        if vars:
            mono = Monomial({
                v: rng.randint(0, 3)
                for v in rng.sample(vars, min(3, len(vars)))
            })
        else:
            mono = Monomial()
        terms[mono] = terms.get(mono, 0) + rng.randint(1, max(1, ctx.p - 1))
    return Polynomial(terms, ctx.p)


def test_criterion_8_frobenius_splitting():
    start = time.monotonic()
    rng = random.Random(2024)
    contexts = 0
    for n, h, w in fixed_cases(4):
        for p in (2, 3, 5):
            ctx = make_splitting_context(w, h, p, "cell")
            one = Polynomial.one(p)
            assert splitting_apply(one, ctx) == one, (w, h, p)
            report = compatibility_check(ctx)
            assert report.all_compatible, (w, h, p)
            vars = list(ctx.variables)
            if vars:  # the p-th power pullout is vacuous on a point
                for _ in range(50):
                    f = _random_mod_p_poly(ctx, rng)
                    z = rng.choice(vars)
                    zp = Polynomial.variable(z, p) ** p
                    assert splitting_apply(zp * f, ctx) == \
                        Polynomial.variable(z, p) * splitting_apply(f, ctx), \
                        (w, h, p)
            contexts += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 8 (Frobenius splitting, {contexts} contexts, "
          f"n<=4, p in 2,3,5): PASS ({elapsed:.1f}s)")


def test_criterion_9_random_point_vanishing():
    start = time.monotonic()
    cases = 0
    for n, h, w in fixed_cases(4):
        assert random_point_check(w, h, trials=10, seed=1234 + cases), (w, h)
        cases += 1
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE 9 (random-point vanishing, {cases} cases, n<=4): "
          f"PASS ({elapsed:.1f}s)")
