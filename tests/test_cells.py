import pytest

from hesscells import (
    HessenbergFunction,
    Permutation,
    Polynomial,
    PolyMatrix,
    PsiMap,
    all_permutations,
    build_Omega,
    build_ideal,
    build_wM,
    cell_generators,
    cell_generators_via_psi,
    enumerate_hessenberg,
    fixed_points,
    patch_generators,
    paving,
    poly_parse_text,
    random_point_check,
    solve_cell_point,
    substitute,
    v_of_w,
    x_universe,
    xvar,
    z_universe,
    zvar,
)
from hesscells.cells import conjugate_generators_by_v

W3421 = Permutation([3, 4, 2, 1])
H3344 = HessenbergFunction([3, 3, 4, 4])
H2344 = HessenbergFunction([2, 3, 4, 4])


def X(i, j):
    return Polynomial.variable(xvar(i, j))


def Z(i, j):
    return Polynomial.variable(zvar(i, j))


class TestBuildWM:
    def test_longest_n4(self):
        w0 = Permutation.longest_element(4)
        expected = PolyMatrix([
            [X(1, 1), X(1, 2), X(1, 3), 1],
            [X(2, 1), X(2, 2), 1, 0],
            [X(3, 1), 1, 0, 0],
            [1, 0, 0, 0],
        ])
        assert build_wM(w0) == expected

    def test_longest_n2(self):
        w0 = Permutation.longest_element(2)
        assert build_wM(w0) == PolyMatrix([[X(1, 1), 1], [1, 0]])

    def test_identity_is_generic_unitriangular(self):
        # the patch at the identity is the full unipotent group, so the
        # matrix keeps one variable per position below the diagonal
        m = build_wM(Permutation.identity(3))
        expected = PolyMatrix([
            [1, 0, 0],
            [X(2, 1), 1, 0],
            [X(3, 1), X(3, 2), 1],
        ])
        assert m == expected

    def test_variable_support_at_longest_is_x_universe(self):
        for n in range(2, 6):
            m = build_wM(Permutation.longest_element(n))
            seen = set()
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    seen |= set(m.entry(i, j).variables())
            assert seen == set(x_universe(n))


class TestBuildOmega:
    def test_3421(self):
        expected = PolyMatrix([
            [Z(1, 1), Z(1, 2), Z(1, 3), 1],
            [Z(2, 1), Z(2, 2), 1, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ])
        assert build_Omega(W3421) == expected

    def test_identity_cell_is_a_point(self):
        assert build_Omega(Permutation.identity(4)) == PolyMatrix.identity(4)

    def test_longest_has_same_support_shape_as_patch(self):
        n = 4
        w0 = Permutation.longest_element(n)
        omega = build_Omega(w0)
        wm = build_wM(w0)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                zs = {(v.row, v.col) for v in omega.entry(i, j).variables()}
                xs = {(v.row, v.col) for v in wm.entry(i, j).variables()}
                assert zs == xs

    def test_variable_count_is_length(self):
        for n in range(1, 6):
            for w in all_permutations(n):
                omega = build_Omega(w)
                seen = set()
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        seen |= set(omega.entry(i, j).variables())
                assert len(seen) == w.length()
                assert seen == set(z_universe(w))


class TestPatchGenerators:
    def test_full_matrix_n4(self):
        w0 = Permutation.longest_element(4)
        conj = patch_generators(w0)
        rows = [[conj.entry(i, j).to_text() for j in range(1, 5)]
                for i in range(1, 5)]
        assert rows == [
            ["0", "0", "0", "0"],
            ["1", "0", "0", "0"],
            ["-x_2_2 + x_3_1", "1", "0", "0"],
            ["-x_1_2 + x_1_3*x_2_2 - x_1_3*x_3_1 + x_2_1",
             "-x_1_3 + x_2_2", "1", "0"],
        ]

    def test_n2_single_one(self):
        w0 = Permutation.longest_element(2)
        conj = patch_generators(w0)
        for i in range(1, 3):
            for j in range(1, 3):
                if (i, j) == (2, 1):
                    assert conj.entry(i, j) == Polynomial.one()
                else:
                    assert conj.entry(i, j).is_zero

    def test_initial_term_formula_n5(self):
        from hesscells import initial_term, order_n
        from hesscells.polyring import Monomial

        n = 5
        conj = patch_generators(Permutation.longest_element(n))
        order = order_n(n)
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                if k > l + 1:
                    coeff, mono = initial_term(conj.entry(k, l), order)
                    assert coeff == -1
                    assert mono == Monomial({xvar(n + 1 - k, l + 1): 1})

    def test_shape_below_and_on_subdiagonal(self):
        # entries vanish on and above the diagonal; the subdiagonal is 1
        for n in range(2, 6):
            conj = patch_generators(Permutation.longest_element(n))
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    if k <= l:
                        assert conj.entry(k, l).is_zero
                    elif k == l + 1:
                        assert conj.entry(k, l) == Polynomial.one()


class TestCellGenerators:
    def test_displayed_entries_3421(self):
        conj = cell_generators(W3421)
        assert conj.entry(3, 2) == -Z(2, 1)
        assert conj.entry(4, 1) == -Z(1, 3) + Z(2, 1)
        assert conj.entry(4, 2) == poly_parse_text("-z_1_1 + z_1_3*z_2_1 + z_2_2")
        assert conj.entry(1, 2) == Polynomial.one()

    def test_identity_gives_shift(self):
        assert cell_generators(Permutation.identity(4)) == \
            PolyMatrix.nilpotent_shift(4)

    def test_matches_psi_route_exhaustively_n4(self):
        for w in all_permutations(4):
            direct = cell_generators(w)
            routed = PsiMap(w).apply_matrix(conjugate_generators_by_v(w))
            assert direct == routed


class TestPsiMap:
    def test_3421_zeroed_and_identifications(self):
        psi = PsiMap(W3421)
        assert psi.zeroed_vars == frozenset({xvar(3, 1)})
        assert psi.assignment[xvar(1, 2)] == zvar(1, 1)
        assert psi.assignment[xvar(1, 1)] == zvar(1, 2)
        assert psi.assignment[xvar(2, 2)] == zvar(2, 1)

    def test_longest_is_pure_relabeling(self):
        psi = PsiMap(Permutation.longest_element(4))
        assert not psi.zeroed_vars
        for var, img in psi.assignment.items():
            assert (img.row, img.col) == (var.row, var.col)

    def test_apply_paper_example(self):
        psi = PsiMap(W3421)
        assert psi.apply(-X(2, 2) + X(3, 1)) == -Z(2, 1)

    def test_injective_off_zeroed_and_onto_cell(self):
        for n in range(1, 6):
            for w in all_permutations(n):
                psi = PsiMap(w)
                images = [
                    img for var, img in psi.assignment.items()
                    if img is not None
                ]
                assert len(images) == len(set(images))
                assert set(images) == set(z_universe(w))

    def test_rejects_foreign_variable(self):
        psi = PsiMap(W3421)
        with pytest.raises(ValueError):
            psi.apply(Polynomial.variable(xvar(4, 4)))


class TestCellGeneratorsViaPsi:
    def test_paper_entry_32(self):
        assert cell_generators_via_psi(W3421, 3, 2) == -Z(2, 1)

    def test_longest_reduces_to_relabeling(self):
        w0 = Permutation.longest_element(4)
        f = patch_generators(w0)
        for k in range(1, 5):
            for l in range(1, 5):
                got = cell_generators_via_psi(w0, k, l)
                relabeled = substitute(
                    f.entry(k, l),
                    {v: Polynomial.variable(zvar(v.row, v.col))
                     for v in x_universe(4)},
                )
                assert got == relabeled

    def test_equals_direct_everywhere_n4(self):
        for w in all_permutations(4):
            direct = cell_generators(w)
            for k in range(1, 5):
                for l in range(1, 5):
                    assert cell_generators_via_psi(w, k, l) == direct.entry(k, l)


class TestBuildIdeal:
    def test_patch_w0_h2344(self):
        w0 = Permutation.longest_element(4)
        pres = build_ideal(w0, H2344, "patch")
        assert [(k, l) for k, l, _ in pres.generators] == [(4, 1), (4, 2), (3, 1)]
        texts = [g.to_text() for _, _, g in pres.generators]
        assert texts == [
            "-x_1_2 + x_1_3*x_2_2 - x_1_3*x_3_1 + x_2_1",
            "-x_1_3 + x_2_2",
            "-x_2_2 + x_3_1",
        ]
        assert pres.lambda_size == 3 == H2344.lambda_size()
        assert pres.height == 3
        assert not pres.certifies_empty

    def test_cell_3421_h3344(self):
        pres = build_ideal(W3421, H3344, "cell")
        assert [(k, l) for k, l, _ in pres.generators] == [(4, 1), (4, 2)]
        assert pres.height == 2
        assert not pres.certifies_empty

    def test_cell_3421_h2344_flags_constant(self):
        pres = build_ideal(W3421, H2344, "cell")
        assert pres.certifies_empty
        assert (3, 1, 1) in pres.constant_generators()
        assert W3421 not in fixed_points(H2344)

    def test_rejects_decomposable(self):
        with pytest.raises(ValueError):
            build_ideal(W3421, HessenbergFunction([1, 2, 3, 4]), "cell")

    def test_generator_count_is_lambda_size(self):
        for n in range(1, 5):
            for h in enumerate_hessenberg(n, indecomposable_only=True):
                for w in all_permutations(n):
                    pres = build_ideal(w, h, "cell")
                    assert pres.lambda_size == h.lambda_size()

    def test_reading_order(self):
        pres = build_ideal(
            Permutation.longest_element(4),
            HessenbergFunction([2, 3, 4, 4]),
            "cell",
        )
        ks = [k for k, _, _ in pres.generators]
        assert ks == sorted(ks, reverse=True)

    def test_height_equals_nonzero_count_on_fixed_points(self):
        for n in range(1, 5):
            for h in enumerate_hessenberg(n, indecomposable_only=True):
                for w in fixed_points(h):
                    pres = build_ideal(w, h, "cell")
                    assert pres.height == len(pres.nonzero_generators())


class TestNonEmptinessDichotomy:
    def test_constant_generator_iff_not_fixed_point_n4(self):
        for n in range(1, 5):
            for h in enumerate_hessenberg(n, indecomposable_only=True):
                fixed = set(fixed_points(h))
                for w in all_permutations(n):
                    pres = build_ideal(w, h, "cell")
                    if w in fixed:
                        assert not pres.certifies_empty, (w, h)
                    else:
                        assert pres.certifies_empty, (w, h)


def poincare_polynomial(n):
    coeffs = [1]
    for i in range(2, n + 1):
        out = [0] * (len(coeffs) + i - 1)
        for d, c in enumerate(coeffs):
            for e in range(i):
                out[d + e] += c
        coeffs = out
    return coeffs


class TestPaving:
    def test_full_h_gives_flag_poincare(self):
        for n in range(1, 6):
            table = paving(HessenbergFunction.full(n))
            assert table.coefficients == poincare_polynomial(n)
            for row in table.rows:
                assert row.dim == row.length

    def test_3421_cell_dimension(self):
        table = paving(H3344)
        row = next(r for r in table.rows if r.w == W3421)
        assert row.length == 5 and row.height == 2 and row.dim == 3

    def test_max_dim_formula_attained_at_longest(self):
        for n in range(2, 5):
            w0 = Permutation.longest_element(n)
            for h in enumerate_hessenberg(n, indecomposable_only=True):
                table = paving(h)
                expected = sum(h(i) - i for i in range(1, n + 1))
                assert table.max_dim == expected
                top = next(r for r in table.rows if r.w == w0)
                assert top.dim == expected

    def test_cell_count_matches_fixed_points(self):
        for h in enumerate_hessenberg(4, indecomposable_only=True):
            assert len(paving(h).rows) == len(fixed_points(h))


class TestPointChecks:
    def test_solve_cell_point_satisfies_generators(self):
        free = {zvar(1, 2): 3, zvar(2, 1): -2, zvar(2, 2): 5}
        point = solve_cell_point(W3421, H3344, free)
        for _, _, g in build_ideal(W3421, H3344, "cell").nonzero_generators():
            assert g.evaluate(point) == 0

    def test_random_points_vanish_n3(self):
        for h in enumerate_hessenberg(3, indecomposable_only=True):
            for w in fixed_points(h):
                assert random_point_check(w, h, trials=10, seed=5)

    def test_random_points_vanish_3421(self):
        assert random_point_check(W3421, H3344, trials=10, seed=42)


class TestOmegaInverseBothRoutes:
    def test_direct_inversion_matches_psi_route(self):
        # the standalone route inverts w^{-1} Omega as a unitriangular
        # matrix; the cross-check route pushes (w0 M)^{-1} through the
        # specialization after permuting rows by v
        from hesscells.polyring import (
            inverse_unitriangular_conjugate,
            left_mul_perm,
            unitriangular_inverse,
        )

        for n in (3, 4):
            w0 = Permutation.longest_element(n)
            wm = build_wM(w0)
            wm_inv = inverse_unitriangular_conjugate(
                w0, left_mul_perm(w0.inverse(), wm)
            )
            for w in all_permutations(n):
                omega = build_Omega(w)
                lower = left_mul_perm(w.inverse(), omega)
                direct = unitriangular_inverse(lower) @ PolyMatrix.permutation(
                    w.inverse()
                )
                v = v_of_w(w)
                routed = PsiMap(w).apply_matrix(
                    left_mul_perm(v.inverse(), wm_inv)
                )
                assert direct == routed, w
                assert direct @ omega == PolyMatrix.identity(n), w


class TestPaperMatrixProduct:
    def test_w0M_inverse_product_check(self):
        from hesscells.polyring import (
            inverse_unitriangular_conjugate,
            left_mul_perm,
        )

        w0 = Permutation.longest_element(4)
        wm = build_wM(w0)
        inv = inverse_unitriangular_conjugate(w0, left_mul_perm(w0.inverse(), wm))
        assert inv @ wm == PolyMatrix.identity(4)

    def test_w0M_times_v_w_column_permutes(self):
        # right multiplication permutes columns; specializing the zeroed
        # variable reproduces the displayed cell representative
        w0 = Permutation.longest_element(4)
        v = v_of_w(W3421)
        prod = build_wM(w0) @ PolyMatrix.permutation(v)
        specialized = prod.map_entries(
            lambda e: substitute(e, {xvar(3, 1): 0})
        )
        relabel = {
            var: Polynomial.variable(img)
            for var, img in PsiMap(W3421).assignment.items()
            if img is not None
        }
        as_cell = specialized.map_entries(lambda e: substitute(e, relabel))
        assert as_cell == build_Omega(W3421)
