import importlib

import pytest
from cells_reference import (
    PsiMap,
    cell_generators_via_psi,
    q_integer_product,
    random_point_check,
    solve_cell_point,
)
from matrix_reference import (
    conjugate_generators_by_v,
    matmul,
    permute_columns,
    shift,
)

from hesscells import (
    HessenbergFunction,
    Monomial,
    Permutation,
    Polynomial,
    PolyMatrix,
    all_permutations,
    build_Omega,
    build_ideal,
    build_wM,
    cell_generators,
    enumerate_hessenberg,
    fixed_points,
    is_homogeneous,
    order_n,
    order_n_w,
    patch_generators,
    paving,
    poly_parse_text,
    v_of_w,
    weights_for,
    x_universe,
    xvar,
    z_universe,
    zvar,
)
from hesscells.cells import cell_degrees, ideal_positions
from hesscells.sweep import _h_facts, sweep

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


class TestSharedEntries:
    def test_no_sweep_or_conjugation_changes_an_entry_of_a_generic_point(self):
        # the generic points share one 0, one 1 and one Polynomial per
        # variable: a conjugation that changed one in place would change
        # every matrix that holds it
        assert build_wM(W3421).entry(1, 1) is build_wM(W3421).entry(1, 1)
        assert sweep(5)["summary"]["ok"]
        for n in range(1, 5):
            for w in all_permutations(n):
                patch_generators(w)
        for n in range(1, 6):
            for w in all_permutations(n):
                winv = w.inverse()
                for m, var, below in ((build_Omega(w), zvar, True), (build_wM(w), xvar, False)):
                    for i in range(1, n + 1):
                        for j in range(1, n + 1):
                            if i == w(j):
                                fresh = Polynomial.one()
                            elif j > winv(i) or below and i > w(j):
                                fresh = Polynomial.zero()
                            else:
                                fresh = Polynomial.variable(var(i, j))
                            assert m.entry(i, j) == fresh, (w, i, j)


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
        assert build_Omega(Permutation.identity(4)) == PolyMatrix(
            [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        )

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
        assert cell_generators(Permutation.identity(4)) == shift(4)

    def test_matches_psi_route_exhaustively_n4(self):
        for w in all_permutations(4):
            direct = cell_generators(w)
            routed = PsiMap(w).apply_matrix(conjugate_generators_by_v(w))
            assert direct == routed

    def test_solve_satisfies_defining_equation_n5(self):
        # X = m^{-1} N m exactly when m X = N m, for m = Omega(w) and wM
        for n in range(1, 6):
            for w in all_permutations(n):
                for m, x in ((build_Omega(w), cell_generators(w)),
                             (build_wM(w), patch_generators(w))):
                    assert matmul(m, x) == matmul(shift(n), m), w


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
                relabeled = poly_parse_text(
                    f.entry(k, l).to_text().replace("x_", "z_")
                )
                assert got == relabeled

    def test_equals_direct_everywhere_n4(self):
        for w in all_permutations(4):
            direct = cell_generators(w)
            for k in range(1, 5):
                for l in range(1, 5):
                    assert cell_generators_via_psi(w, k, l) == direct.entry(k, l)


def x_to_z(f):
    """f with every patch variable x_{i,j} renamed z_{i,j}."""
    return Polynomial(
        {
            Monomial({zvar(v.row, v.col): e for v, e in mono.exps}): c
            for mono, c in f.terms.items()
        },
        f.char,
    )


class TestPatchIsCellAtLongest:
    # At w0 the patch and the cell are the same space, with x written for z

    def test_generator_matrices(self):
        for n in range(1, 7):
            w0 = Permutation.longest_element(n)
            patch, cell = patch_generators(w0), cell_generators(w0)
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    assert x_to_z(patch.entry(k, l)) == cell.entry(k, l)

    def test_orders_and_psi(self):
        for n in range(1, 7):
            w0 = Permutation.longest_element(n)
            relabeled = [zvar(v.row, v.col) for v in order_n(n).priority]
            assert relabeled == list(order_n_w(w0).priority)
            assert PsiMap(w0).zeroed_vars == frozenset()

    def test_ideals(self):
        for n in range(1, 7):
            w0 = Permutation.longest_element(n)
            for h in enumerate_hessenberg(n, indecomposable_only=True):
                patch = build_ideal(w0, h, "patch")
                cell = build_ideal(w0, h, "cell")
                assert [(k, l, x_to_z(g)) for k, l, g in patch.generators] \
                    == cell.generators
                assert patch.height == cell.height
                assert [zvar(v.row, v.col) for v in patch.ambient_variables] \
                    == list(cell.ambient_variables)


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

    def test_bad_kind_and_sizes_are_refused(self):
        with pytest.raises(ValueError, match="^kind must be 'patch' or 'cell', got 'cells'$"):
            build_ideal(W3421, H3344, "cells")
        with pytest.raises(ValueError, match="^permutation and Hessenberg function sizes differ$"):
            build_ideal(Permutation([2, 3, 1]), H3344)

    def test_cell_3421_h3344(self):
        pres = build_ideal(W3421, H3344, "cell")
        assert [(k, l) for k, l, _ in pres.generators] == [(4, 1), (4, 2)]
        assert pres.height == 2
        assert not pres.certifies_empty

    def test_cell_3421_h2344_flags_constant(self):
        pres = build_ideal(W3421, H2344, "cell")
        assert pres.certifies_empty
        assert (3, 1, Polynomial.one()) in pres.generators
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

    def test_cell_degrees_are_the_nonzero_generator_degrees_in_reading_order(self):
        for n in range(1, 5):
            for h in enumerate_hessenberg(n, indecomposable_only=True):
                for w in fixed_points(h):
                    wt, gens = weights_for(w), build_ideal(w, h).nonzero_generators()
                    assert cell_degrees(w, h) == [is_homogeneous(g, wt) for _, _, g in gens]

    def test_ideal_positions_is_the_one_positions_rule(self):
        # every reader of the positions k > h(l) agrees with it: the
        # generators of build_ideal and the sweep's bit masks
        for n in range(1, 8):
            for h in enumerate_hessenberg(n, indecomposable_only=True):
                positions = ideal_positions(h)
                assert list(positions) == sorted(positions, key=lambda kl: (-kl[0], kl[1]))
                assert len(positions) == h.lambda_size()
                assert all(k > h(l) for k, l in positions)
                bits = _h_facts(n)[h.values][2]
                assert [(k, l) for k in range(n, 0, -1) for l in range(1, n + 1)
                        if bits >> (k * n + l) & 1] == list(positions)
                if n <= 5:
                    for w in all_permutations(n):
                        assert [(k, l) for k, l, _ in build_ideal(w, h).generators] \
                            == list(positions), (w, h)


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


class TestPaving:
    def test_full_h_gives_flag_poincare(self):
        for n in range(1, 6):
            table = paving(HessenbergFunction.full(n))
            assert table.coefficients == q_integer_product(range(1, n + 1))
            for row in table.rows:
                assert row.dim == row.length

    def test_decomposable_h_is_refused(self):
        with pytest.raises(ValueError, match="^Hessenberg function 1,3,3 is decomposable$"):
            paving(HessenbergFunction([1, 3, 3]))

    def test_poincare_polynomial_every_h_n6(self):
        # Anderson-Tymoczko: the Poincare polynomial of the regular
        # nilpotent Hessenberg variety is the product of [h(j) - j + 1]_q
        for n in range(1, 7):
            for h in enumerate_hessenberg(n, indecomposable_only=True):
                sizes = [h(j) - j + 1 for j in range(1, n + 1)]
                assert paving(h).coefficients == q_integer_product(sizes), h

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

    def test_random_point_check_builds_the_ideal_once(self, monkeypatch):
        reference = importlib.import_module("cells_reference")
        calls = []

        def counting_build_ideal(*args):
            calls.append(args)
            return build_ideal(*args)

        monkeypatch.setattr(reference, "build_ideal", counting_build_ideal)
        assert random_point_check(W3421, H3344, trials=10, seed=42)
        assert len(calls) == 1


class TestOmegaInverseBothRoutes:
    def test_direct_inversion_matches_psi_route(self):
        # the standalone route solves for Omega^{-1} N Omega directly; the
        # cross-check route pushes w0 M, columns permuted by v, through the
        # specialization, which must give Omega itself
        for n in (3, 4):
            wm = build_wM(Permutation.longest_element(n))
            for w in all_permutations(n):
                omega = build_Omega(w)
                routed = PsiMap(w).apply_matrix(permute_columns(wm, v_of_w(w)))
                assert routed == omega, w
                assert matmul(omega, cell_generators(w)) == \
                    matmul(shift(n), omega), w


class TestPaperMatrixProduct:
    def test_w0M_inverse_product_check(self):
        # the displayed patch generators are (w0 M)^{-1} N (w0 M)
        wm = build_wM(Permutation.longest_element(4))
        f = patch_generators(Permutation.longest_element(4))
        assert matmul(wm, f) == matmul(shift(4), wm)

    def test_w0M_times_v_w_column_permutes(self):
        # right multiplication by v permutes columns; specializing by psi
        # zeroes x_3_1 and relabels the rest, giving the displayed cell
        # representative
        w0 = Permutation.longest_element(4)
        prod = permute_columns(build_wM(w0), v_of_w(W3421))
        assert PsiMap(W3421).zeroed_vars == {xvar(3, 1)}
        assert PsiMap(W3421).apply_matrix(prod) == build_Omega(W3421)
