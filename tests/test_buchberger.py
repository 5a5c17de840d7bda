"""The packed `buchberger_check` against the `Polynomial` reference loop."""

import itertools
from functools import lru_cache

import pytest
from buchberger_reference import reference_buchberger_check
from hypothesis import given, settings
from hypothesis import strategies as st

from hesscells import (
    Monomial,
    MonomialOrder,
    Permutation,
    Polynomial,
    all_permutations,
    build_ideal,
    buchberger_check,
    enumerate_hessenberg,
    order_n,
    order_n_w,
    xvar,
)
from hesscells import groebner
from hesscells.combinat import is_fixed_point

X, Y, Z = xvar(1, 1), xvar(1, 2), xvar(1, 3)
ORDER = MonomialOrder((X, Y, Z))


def var(v, char=0):
    return Polynomial.variable(v, char)


def outcome(check, polys, order):
    """The check's answer, or ValueError if it raised one."""
    try:
        return check(polys, order)
    except ValueError:
        return ValueError


def assert_same_outcome(polys, order):
    got = outcome(buchberger_check, polys, order)
    assert got == outcome(reference_buchberger_check, polys, order)
    return got


@lru_cache(maxsize=None)
def cell_ideals(max_n):
    """(w, h, generators, order) for every indecomposable h and every w."""
    out = []
    for n in range(1, max_n + 1):
        for h in enumerate_hessenberg(n, indecomposable_only=True):
            for w in all_permutations(n):
                gens = build_ideal(w, h, "cell").generator_polys()
                out.append((w, h, gens, order_n_w(w)))
    return out


class TestAgainstReference:
    def test_every_cell_ideal_up_to_n5(self):
        # a non-fixed point's generators hold a constant +-1, so they are
        # a basis of the unit ideal and pass too
        for w, h, gens, order in cell_ideals(5):
            assert assert_same_outcome(gens, order) is True, (w, h)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_patch_ideals_at_w0(self, n):
        w0 = Permutation.longest_element(n)
        for h in enumerate_hessenberg(n, indecomposable_only=True):
            gens = build_ideal(w0, h, "patch").generator_polys()
            assert assert_same_outcome(gens, order_n(n)) is True

    def test_not_a_groebner_basis(self):
        # {x^2, xy + 1}: the S-polynomial y reduces to itself
        x, y = var(X), var(Y)
        assert assert_same_outcome([x**2, x * y + 1], ORDER) is False

    def test_fewer_than_two_generators(self):
        x = var(X)
        assert buchberger_check([], ORDER)
        assert buchberger_check([Polynomial.zero(), 2 * x + 1], ORDER)


prop_monomials = st.dictionaries(
    st.sampled_from((X, Y, Z)), st.integers(1, 3), max_size=3
).map(Monomial)


def prop_polys(char, max_size, min_size=1):
    return st.dictionaries(
        prop_monomials,
        st.integers(-9, 9).filter(bool),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda terms: Polynomial(terms, char))


@st.composite
def generator_sets(draw, char):
    """Two to four polynomials; over ZZ, most get a unit lead coefficient."""
    out = []
    for g in draw(st.lists(prop_polys(char, 4), min_size=2, max_size=4)):
        if not char and not g.is_zero and draw(st.integers(0, 3)):
            c, m = groebner.initial_term(g, ORDER)
            g = g + Polynomial({m: draw(st.sampled_from((1, -1))) - c})
        out.append(g)
    return out


@st.composite
def groebner_bases(draw, char):
    """x - p(y, z), y^a - q, z^b - r with q, r below the leads, plus
    monomial multiples of them; the leads x, y^a, z^b make it a basis."""
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def below(variables, cap):
        terms = draw(st.dictionaries(
            st.tuples(*(st.integers(0, cap) for _ in variables)),
            st.integers(-9, 9).filter(bool),
            max_size=3,
        ))
        return Polynomial(
            {Monomial(dict(zip(variables, e))): c for e, c in terms.items()},
            char,
        )

    gens = [
        var(X, char) - below((Y, Z), 3),
        var(Y, char) ** a - below((Y, Z), a - 1),
        var(Z, char) ** b - below((Z,), b - 1),
    ]
    for _ in range(draw(st.integers(0, 2))):
        g = draw(st.sampled_from(gens[:3]))
        m = Monomial(draw(st.dictionaries(
            st.sampled_from((X, Y, Z)), st.integers(1, 2), max_size=2
        )))
        gens.append(Polynomial({m: draw(st.sampled_from((1, -1)))}, char) * g)
    return draw(st.permutations(gens))


class TestHypothesis:
    @pytest.mark.parametrize("char", [0, 2, 3, 7])
    @given(data=st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_random_sets_match_reference(self, char, data):
        assert_same_outcome(data.draw(generator_sets(char)), ORDER)

    @pytest.mark.parametrize("char", [0, 2, 3, 7])
    @given(data=st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_constructed_bases_pass(self, char, data):
        assert assert_same_outcome(data.draw(groebner_bases(char)), ORDER) is True


def test_packed_lcm_is_the_field_wise_maximum():
    packing = ORDER._packing(8)  # exponents up to 127
    exps = (0, 1, 63, 64, 127)
    monos = [
        Monomial(dict(zip((X, Y, Z), e)))
        for e in itertools.product(exps, repeat=3)
    ]

    def code(m):
        return next(iter(packing.encode(Polynomial({m: 1}))))

    codes = [code(m) for m in monos]
    for a, ca in zip(monos, codes):
        for b, cb in zip(monos, codes):
            assert packing.lcm(ca, cb) == code(a.lcm(b))


class TestFieldOverflow:
    def record_widths(self, monkeypatch):
        """Field widths the check runs at, in order."""
        widths = []
        packed_check = groebner._packed_check

        def spy(gens, packing, char):
            widths.append(packing._low + 1)
            return packed_check(gens, packing, char)

        monkeypatch.setattr(groebner, "_packed_check", spy)
        return widths

    def test_restart_finds_a_nonzero_remainder(self, monkeypatch):
        # S(x^100, x - y^100) = x^99 y^100 reduces to y^10000, which
        # outgrows the field width the generators ask for
        x, y = var(X), var(Y)
        gens = [x - y**100, x**100]
        assert 100**2 >= 1 << (groebner._field_bits(gens) - 1)
        assert assert_same_outcome(gens, ORDER) is False
        widths = self.record_widths(monkeypatch)
        assert buchberger_check(gens, ORDER) is False
        assert widths == [groebner._field_bits(gens), 2 * groebner._field_bits(gens)]

    def test_restart_then_reduces_to_zero(self, monkeypatch):
        x, y = var(X), var(Y)
        gens = [x - y**100, x**100, y**200]
        assert assert_same_outcome(gens, ORDER) is True
        widths = self.record_widths(monkeypatch)
        assert buchberger_check(gens, ORDER) is True
        assert widths == [groebner._field_bits(gens), 2 * groebner._field_bits(gens)]


class TestInvalidInput:
    def test_mixed_coefficient_domains(self):
        with pytest.raises(ValueError, match="domain"):
            buchberger_check([var(X), var(Y, 3)], ORDER)

    def test_variable_outside_the_order(self):
        with pytest.raises(ValueError, match="not in the order"):
            buchberger_check([var(X), var(xvar(2, 1))], ORDER)

    def test_non_unit_lead_a_division_needs(self):
        # S(2x + 1, y) = y is nonzero, so it is divided by 2x + 1
        with pytest.raises(ValueError, match="not a unit"):
            buchberger_check([2 * var(X) + 1, var(Y)], ORDER)

    def test_non_unit_lead_without_a_division(self):
        # S(2x, 2y) = 0: nothing is divided, as in the reference
        assert assert_same_outcome([2 * var(X), 2 * var(Y)], ORDER) is True


def test_work_matches_reference_at_every_fixed_point_up_to_n5(monkeypatch):
    """Divisions and their steps (quotient terms plus remainder terms) of
    the packed check equal the reference's `reduce` calls and steps."""
    work = []

    def counted(fn, steps):
        def call(*args):
            result = fn(*args)
            work[-1][0] += 1
            work[-1][1] += steps(*result)
            return result
        return call

    divide = counted(
        groebner._divide, lambda qs, r: sum(map(len, qs)) + len(r)
    )
    reduce = counted(
        groebner.reduce,
        lambda qs, r: sum(len(q.terms) for q in qs) + len(r.terms),
    )
    total = [0, 0]
    for w, h, gens, order in cell_ideals(5):
        if not is_fixed_point(w, h):
            continue
        work.append([0, 0])
        with monkeypatch.context() as m:
            m.setattr(groebner, "reduce", reduce)
            assert reference_buchberger_check(gens, order)
        work.append([0, 0])
        with monkeypatch.context() as m:
            m.setattr(groebner, "_divide", divide)
            assert buchberger_check(gens, order)
        assert work[-1] == work[-2], (w, h)
        total = [total[0] + work[-1][0], total[1] + work[-1][1]]
    assert total[0] > 0 and total[1] > total[0]
