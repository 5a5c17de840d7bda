import itertools
import math
import re

import pytest

from hesscells import (
    HessenbergFunction,
    Permutation,
    all_permutations,
    enumerate_hessenberg,
    fixed_points,
    is_fixed_point,
    least_hessenberg,
    v_of_w,
)


def brute_inversions(images):
    return sum(
        1
        for a in range(len(images))
        for b in range(a + 1, len(images))
        if images[a] > images[b]
    )


def reference_is_fixed_point(w, h):
    """w^{-1}(w(j) - 1) <= h(j) for every j with w(j) > 1, read off
    position by position in O(n); other sizes are never fixed points."""
    n = h.n
    if w.n != n:
        return False
    images, hv = w.images, h.values
    inv = [0] * (n + 1)
    for pos, val in enumerate(images, start=1):
        inv[val] = pos
    return all(
        images[j] == 1 or inv[images[j] - 1] <= hv[j] for j in range(n)
    )


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


# (values, the first one that is no int, its place): each once passed
# through int() and was truncated or parsed, not refused
NON_INTEGERS = [
    ([2.5, 1.2], 2.5, 1),
    ([2.0, 1.0], 2.0, 1),
    ([2, 1.0], 1.0, 2),
    (["2", "1"], "2", 1),
    ([True, 2], True, 1),
    ([2, True], True, 2),
]


class TestPermutation:
    def test_parse_digit_and_comma_forms(self):
        assert Permutation.parse("3421") == Permutation([3, 4, 2, 1])
        assert Permutation.parse("3,4,2,1") == Permutation([3, 4, 2, 1])

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Permutation.parse("34x1")
        with pytest.raises(ValueError):
            Permutation([1, 1, 2])

    @pytest.mark.parametrize("images, value, i", NON_INTEGERS)
    def test_non_integer_image_is_refused(self, images, value, i):
        with pytest.raises(ValueError, match=re.escape(
                f"w({i}) must be an integer, not {value!r}")):
            Permutation(images)

    def test_str_uses_digits_for_small_n(self):
        assert str(Permutation([3, 4, 2, 1])) == "3421"
        big = Permutation(list(range(1, 11)))
        assert str(big) == "1,2,3,4,5,6,7,8,9,10"

    def test_longest_element(self):
        assert Permutation.longest_element(4) == Permutation([4, 3, 2, 1])

    def test_compose_is_function_composition(self):
        w = Permutation([3, 4, 2, 1])
        u = Permutation([2, 1, 4, 3])
        wu = w * u
        for j in range(1, 5):
            assert wu(j) == w(u(j))

    def test_inverse(self):
        w = Permutation([3, 4, 2, 1])
        assert w.inverse() == Permutation([4, 3, 1, 2])
        assert (w * w.inverse()).is_identity()

    def test_inverse_builds_no_checked_permutation(self, monkeypatch):
        def refuse(self, images):
            raise AssertionError("Permutation.__init__ ran")

        w = Permutation([3, 4, 2, 1])
        monkeypatch.setattr(Permutation, "__init__", refuse)
        assert w.inverse().images == (4, 3, 1, 2)

    def test_length_identity(self):
        assert Permutation.identity(5).length() == 0

    def test_length_3421_matches_brute_force(self):
        w = Permutation([3, 4, 2, 1])
        assert w.length() == brute_inversions(w.images) == 5

    def test_length_symmetric_under_inverse(self):
        for n in range(1, 7):
            for w in all_permutations(n):
                assert w.length() == w.inverse().length()

    def test_roundtrip_json(self):
        w = Permutation([3, 4, 2, 1])
        assert Permutation(w.to_json()) == w


class TestVofW:
    def test_paper_case(self):
        assert v_of_w(Permutation([3, 4, 2, 1])) == Permutation([2, 1, 3, 4])

    def test_longest_maps_to_identity(self):
        assert v_of_w(Permutation.longest_element(4)).is_identity()

    def test_identity_maps_to_longest(self):
        assert v_of_w(Permutation.identity(5)) == Permutation([5, 4, 3, 2, 1])

    def test_involution(self):
        for n in range(1, 6):
            for w in all_permutations(n):
                assert v_of_w(v_of_w(w)) == w


class TestHessenbergFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            HessenbergFunction([1, 1, 2])  # h(3) = 2 < 3
        with pytest.raises(ValueError):
            HessenbergFunction([3, 2, 3])  # decreasing
        with pytest.raises(ValueError):
            HessenbergFunction([2, 3, 4])  # h(3) = 4 > 3

    @pytest.mark.parametrize("values, value, i", NON_INTEGERS + [([2.7, 2.2], 2.7, 1)])
    def test_non_integer_value_is_refused(self, values, value, i):
        with pytest.raises(ValueError, match=re.escape(
                f"h({i}) must be an integer, not {value!r}")):
            HessenbergFunction(values)

    def test_indecomposable_flag(self):
        assert HessenbergFunction([2, 3, 4, 4]).is_indecomposable
        assert not HessenbergFunction([1, 2, 3, 4]).is_indecomposable

    def test_lambda_partition(self):
        h = HessenbergFunction([2, 3, 4, 4])
        assert h.lambda_partition() == (2, 1, 0, 0)
        assert h.lambda_size() == 3

    def test_lambda_full_h_is_zero(self):
        for n in range(1, 6):
            h = HessenbergFunction.full(n)
            assert h.lambda_partition() == (0,) * n
            assert h.lambda_size() == 0

    def test_lambda_staircase(self):
        for n in range(2, 7):
            h = HessenbergFunction(list(range(2, n + 1)) + [n])
            assert h.lambda_size() == (n - 1) * (n - 2) // 2

    def test_parse_and_str(self):
        h = HessenbergFunction.parse("2,3,4,4")
        assert h == HessenbergFunction([2, 3, 4, 4])
        assert str(h) == "2,3,4,4"


class TestEnumerateHessenberg:
    def brute(self, n, indecomposable):
        out = []
        # every h(i) in [i, n]: n! tuples, the nondecreasing ones kept
        for values in itertools.product(*(range(i, n + 1) for i in range(1, n + 1))):
            if any(values[i + 1] < values[i] for i in range(n - 1)):
                continue
            if indecomposable and any(values[i] < i + 2 for i in range(n - 1)):
                continue
            out.append(values)
        return sorted(out)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("flag", [False, True])
    def test_matches_brute_force(self, n, flag):
        got = [h.values for h in enumerate_hessenberg(n, flag)]
        assert got == self.brute(n, flag)

    def test_counts_are_catalan(self):
        for n in range(1, 7):
            assert len(enumerate_hessenberg(n)) == catalan(n)
        for n in range(2, 7):
            assert len(enumerate_hessenberg(n, True)) == catalan(n - 1)

    def test_n3_cases(self):
        assert len(enumerate_hessenberg(3)) == 5
        indec = enumerate_hessenberg(3, indecomposable_only=True)
        assert [h.values for h in indec] == [(2, 3, 3), (3, 3, 3)]

    def test_n1(self):
        assert [h.values for h in enumerate_hessenberg(1)] == [(1,)]


class TestFixedPoints:
    def test_full_h_gives_everything(self):
        for n in range(1, 6):
            assert len(fixed_points(HessenbergFunction.full(n))) == math.factorial(n)

    def test_3344_contains_3421(self):
        pts = fixed_points(HessenbergFunction([3, 3, 4, 4]))
        assert Permutation([3, 4, 2, 1]) in pts

    def test_2344_excludes_3421(self):
        pts = fixed_points(HessenbergFunction([2, 3, 4, 4]))
        assert Permutation([3, 4, 2, 1]) not in pts

    def test_longest_element_always_fixed(self):
        for n in range(2, 6):
            w0 = Permutation.longest_element(n)
            for h in enumerate_hessenberg(n, indecomposable_only=True):
                assert w0 in fixed_points(h)

    def test_identity_always_fixed(self):
        for n in range(1, 6):
            for h in enumerate_hessenberg(n):
                assert Permutation.identity(n) in fixed_points(h)

    def test_count_monotone_in_h(self):
        for n in range(1, 6):
            funcs = enumerate_hessenberg(n)
            counts = {h: len(fixed_points(h)) for h in funcs}
            for h1 in funcs:
                for h2 in funcs:
                    if all(a <= b for a, b in zip(h1.values, h2.values)):
                        assert counts[h1] <= counts[h2]

    def test_is_fixed_point_agrees_with_fixed_points(self):
        for n in range(1, 7):
            perms = list(all_permutations(n))
            for h in enumerate_hessenberg(n, indecomposable_only=True):
                fixed = set(fixed_points(h))
                for w in perms:
                    assert is_fixed_point(w, h) == (w in fixed)

    def test_is_fixed_point_rejects_other_sizes(self):
        h = HessenbergFunction([3, 3, 4, 4])
        assert not is_fixed_point(Permutation([2, 1]), h)

    def test_definition_brute_force(self):
        # replay the defining inequality independently at n = 4
        h = HessenbergFunction([3, 3, 4, 4])
        expected = []
        for images in itertools.permutations(range(1, 5)):
            w = Permutation(images)
            winv = w.inverse()
            if all(w(j) == 1 or winv(w(j) - 1) <= h(j) for j in range(1, 5)):
                expected.append(w)
        assert list(fixed_points(h)) == expected


class TestLeastHessenberg:
    # all 196 Hessenberg functions with n <= 6, decomposable ones included
    ALL_H = [h for n in range(1, 7) for h in enumerate_hessenberg(n)]

    def test_is_fixed_point_matches_reference(self):
        assert len(self.ALL_H) == 196
        perms = {n: list(all_permutations(n)) for n in range(1, 7)}
        for h in self.ALL_H:
            for w in perms[h.n]:
                assert is_fixed_point(w, h) == reference_is_fixed_point(w, h)

    def test_is_a_hessenberg_function_fixing_w(self):
        for n in range(1, 7):
            for w in all_permutations(n):
                h_w = HessenbergFunction(least_hessenberg(w))
                assert reference_is_fixed_point(w, h_w)

    def test_fixed_point_count_is_a_product(self):
        for h in self.ALL_H:
            want = math.prod(h(j) - j + 1 for j in range(1, h.n + 1))
            assert len(fixed_points(h)) == want, h

    def test_paper_example(self):
        assert least_hessenberg(Permutation([3, 4, 2, 1])) == (3, 3, 4, 4)
        assert least_hessenberg(Permutation.identity(4)) == (1, 2, 3, 4)
        assert least_hessenberg(Permutation.longest_element(4)) == (2, 3, 4, 4)
