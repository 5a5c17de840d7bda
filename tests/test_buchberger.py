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

    @pytest.mark.parametrize("char", [0, 2, 3, 7])
    @given(data=st.data())
    @settings(max_examples=20, derandomize=True, deadline=None)
    def test_outcome_is_the_same_in_every_input_order(self, char, data):
        # the reference divides in list order, so each permutation is one
        # more selection rule; by Buchberger's criterion no rule moves the
        # verdict
        polys = data.draw(st.one_of(generator_sets(char), groebner_bases(char)))
        outcomes = {
            outcome(check, list(perm), ORDER)
            for perm in itertools.permutations(polys)
            for check in (buchberger_check, reference_buchberger_check)
        }
        assert len(outcomes) == 1, outcomes


def divide_outcome(p, gens, bits):
    """Whether `_divide` leaves p an empty remainder at `bits`-bit fields,
    or _FieldOverflow."""
    packing, char = ORDER._packing(bits), p.char
    divisors = groebner._divisor_triples(
        groebner._encode_divisors(packing, gens, char), char
    )
    try:
        return not groebner._divide(packing.encode(p), divisors, packing.guard, char)[1]
    except groebner._FieldOverflow:
        return groebner._FieldOverflow


class TestKernel:
    def test_each_outcome(self):
        x, y, z = var(X), var(Y), var(Z)
        # S(x^2, xy + 1) = -y, which no lead divides
        assert divide_outcome(-y, [x**2, x * y + 1], 8) is False
        # x (x - y^2) + y * y^3 by the basis x - y^2, y^3
        assert divide_outcome(x**2 - x * y**2 + y**4, [x - y**2, y**3], 8) is True
        # x^99 y^100 by x - y^100 reaches y^600 at 10 bits (exponents to 511)
        over = groebner._FieldOverflow
        assert divide_outcome(x**99 * y**100, [x - y**100], 10) is over
        # x is irreducible and comes first; the division goes on to the
        # overflow of y^99 by y - z^100
        assert divide_outcome(x + y**99, [y - z**100], 10) is over


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
        # The natural width leaves room for four times the largest input
        # exponent, and a lead y^a that divides first keeps y's exponent
        # below twice the largest, so the first width is forced down to 4
        # bits (exponents up to 7): S(x - y^3, x^3) = -x^2 y^3 reduces by
        # x to -x y^6, then to -y^9, which overflows; at 8 bits y^7
        # divides it.
        x, y = var(X), var(Y)
        gens = [x - y**3, x**3, y**7]
        assert assert_same_outcome(gens, ORDER) is True
        monkeypatch.setattr(groebner, "_field_bits", lambda polys: 4)
        widths = self.record_widths(monkeypatch)
        assert buchberger_check(gens, ORDER) is True
        assert widths == [4, 8]

    def test_an_irreducible_term_does_not_stop_the_division(self, monkeypatch):
        # S(y - z^3, xy + y^3) = -x z^3 - y^3: no lead divides x z^3, which
        # comes first; y^3 then reduces by y to -z^9, which overflows 4 bits
        # (exponents up to 7), so the check restarts and fails at 8 bits
        x, y, z = var(X), var(Y), var(Z)
        gens = [y - z**3, x * y + y**3]
        assert assert_same_outcome(gens, ORDER) is False
        monkeypatch.setattr(groebner, "_field_bits", lambda polys: 4)
        widths = self.record_widths(monkeypatch)
        assert buchberger_check(gens, ORDER) is False
        assert widths == [4, 8]


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
    the packed check equal the reference's `reduce` calls and steps, with
    the reference's divisors listed by ascending initial term: the check
    divides by every generator once, smallest lead first."""
    work = []
    poly_reduce, divide = groebner.reduce, groebner._divide

    def count(steps):
        work[-1][0] += 1
        work[-1][1] += steps

    def reduce(*args):
        qs, r = result = poly_reduce(*args)
        count(sum(len(q.terms) for q in qs) + len(r.terms))
        return result

    def kernel(rem, divisors, guard, char):
        steps, r = result = divide(rem, divisors, guard, char)
        count(len(steps) + len(r))
        assert guard == packing.guard
        assert [lm for lm, _, _ in divisors] == leads
        return result

    total = [0, 0]
    for w, h, gens, order in cell_ideals(5):
        if not is_fixed_point(w, h):
            continue
        gens = [g for g in gens if not g.is_zero]
        gens.sort(key=lambda g: order.key(groebner.initial_term(g, order)[1]))
        packing = order._packing(groebner._field_bits(gens))
        leads = [
            max(packing.encode(Polynomial({groebner.initial_term(g, order)[1]: 1})))
            for g in gens
        ]
        work.append([0, 0])
        with monkeypatch.context() as m:
            m.setattr(groebner, "reduce", reduce)
            assert reference_buchberger_check(gens, order)
        work.append([0, 0])
        with monkeypatch.context() as m:
            m.setattr(groebner, "_divide", kernel)
            assert buchberger_check(gens[::-1], order)
        assert work[-1] == work[-2], (w, h)
        total = [total[0] + work[-1][0], total[1] + work[-1][1]]
    assert total[0] > 0 and total[1] > total[0]
