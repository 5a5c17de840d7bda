"""The packed `buchberger_check` against the `Polynomial` reference loop,
and against standard representations of its S-pairs (tests/gb_certificates.py)."""

import itertools
from collections import Counter
from functools import lru_cache

import gb_certificates
import pytest
from buchberger_reference import reference_buchberger_check
from division_reference import heap_divide
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


class TestCertificates:
    def test_every_fixed_ideal_up_to_n5_certifies(self):
        # (fixed ideals distinct per w, nonzero S-pairs, failed pairs)
        assert [gb_certificates.check_n(n) for n in range(1, 6)] == [
            (1, 0, 0), (2, 0, 0), (7, 0, 0), (37, 7, 0), (263, 253, 0)]

    def test_a_non_basis_fails_its_certificate(self):
        # {x^2, xy + 1}: S = -y, which no lead divides
        x, y = var(X), var(Y)
        assert gb_certificates.certify([x**2, x * y + 1], ORDER) == (
            1, [(0, 1, "remainder is not 0")])

    @pytest.mark.parametrize("char", [0, 2, 3, 7])
    @given(data=st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_the_check_passes_exactly_when_every_pair_certifies(self, char, data):
        polys = data.draw(st.one_of(generator_sets(char), groebner_bases(char)))
        certified = outcome(lambda p, o: not gb_certificates.certify(p, o)[1],
                            polys, ORDER)
        assert outcome(buchberger_check, polys, ORDER) == certified


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
        """Field widths the check runs at, in order: `_at_width` asks the
        order for one packing per run."""
        widths = []
        packing = MonomialOrder._packing

        def spy(order, bits):
            widths.append(bits)
            return packing(order, bits)

        monkeypatch.setattr(MonomialOrder, "_packing", spy)
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


def narrowest_bits(polys):
    """The least field width that holds every exponent of `polys` below
    its guard bit: no room to grow, so most divisions overflow it."""
    return max(2, max(map(groebner._top_exponent, polys), default=0).bit_length() + 1)


def narrow_width_problems():
    """(dividend, divisors, order) triples: per fixed cell ideal with
    n <= 4, the sum of its generators' squares by its generators, and
    three small problems whose check fails."""
    x, y, z = var(X), var(Y), var(Z)
    out = [(x**100, [x - y**100, x**100], ORDER), (x**3, [x - y**3, x**3, y**7], ORDER),
           (x * y**2, [y - z**3, x * y + y**3], ORDER), (y, [x**2, x * y + 1], ORDER)]
    for w, h, gens, order in cell_ideals(4):
        gens = [g for g in gens if not g.is_zero]
        if gens and is_fixed_point(w, h):
            out.append((sum((g * g for g in gens), Polynomial.zero()), gens, order))
    return out


def test_a_too_narrow_width_gives_the_default_width_results(monkeypatch):
    # `reduce` and `buchberger_check` restart at double width from scratch
    # after an overflow, so the first width moves no result
    problems = narrow_width_problems()
    expected = [(groebner.reduce(p, gens, order), buchberger_check(gens, order))
                for p, gens, order in problems]
    assert {check for _, check in expected} == {True, False}
    widths = []
    packing = MonomialOrder._packing

    def spy(order, bits):
        widths.append(bits)
        return packing(order, bits)

    def widths_of(call, *args):
        """(call's result, the widths it ran at)."""
        widths.clear()
        return call(*args), widths[:]

    monkeypatch.setattr(groebner, "_field_bits", narrowest_bits)
    monkeypatch.setattr(MonomialOrder, "_packing", spy)
    got = [(widths_of(groebner.reduce, p, gens, order), widths_of(buchberger_check, gens, order))
           for p, gens, order in problems]
    assert [(r, c) for (r, _), (c, _) in got] == expected
    # each of the two restarted, at double width, on some problem
    for ran in zip(*[(r_widths, c_widths) for (_, r_widths), (_, c_widths) in got]):
        assert any(w[1:2] == [2 * w[0]] for w in ran)


def divisions(monkeypatch, call):
    """(call()'s outcome, the inputs it hands `groebner._divide`)."""
    seen, divide = [], groebner._divide

    def recording(rem, divisors, guard, char):
        seen.append((dict(rem), list(divisors), guard, char))
        return divide(rem, divisors, guard, char)

    monkeypatch.setattr(groebner, "_divide", recording)
    try:
        return call(), seen
    finally:
        monkeypatch.setattr(groebner, "_divide", divide)


@st.composite
def memo_runs(draw):
    """A pool of polynomials, and calls that each check a few of them, in
    some order, under one of two lex orders, some at the narrowest width."""
    char = draw(st.sampled_from((0, 3)))
    pool = draw(generator_sets(char)) + draw(groebner_bases(char))
    calls = draw(st.lists(st.tuples(
        st.lists(st.sampled_from(range(len(pool))), min_size=2, max_size=5, unique=True),
        st.sampled_from((ORDER, MonomialOrder((Z, X, Y)))),
        st.booleans(),
    ), min_size=1, max_size=8))
    return pool, calls


class TestMemo:
    """A memo kept across `buchberger_check` calls holds codes and
    S-polynomials only: every call gives the verdict, and divides what, a
    memo-less call gives and divides."""

    @given(memo_runs())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_a_shared_memo_changes_no_call(self, run):
        pool, calls = run
        memo = {}
        for picks, order, narrow in calls:
            polys = [pool[i] for i in picks]
            with pytest.MonkeyPatch.context() as mp:
                if narrow:  # most divisions overflow it and restart
                    mp.setattr(groebner, "_field_bits", narrowest_bits)
                fresh = divisions(mp, lambda: outcome(buchberger_check, polys, order))
                shared = divisions(mp, lambda: outcome(
                    lambda p, o: buchberger_check(p, o, memo), polys, order))
            assert shared == fresh

    def test_fresh_polynomials_on_one_memo_match_memo_less_calls(self):
        # each round builds its polynomials afresh and drops them; CPython
        # would hand their ids out again, and a memo that did not keep each
        # polynomial would answer for a new one with a dead one's code
        memo, x, y, z = {}, var(X), var(Y), var(Z)
        verdicts, ids = Counter(), []
        for k in range(240):
            a = k % 7 + 1
            if k % 2:  # leads x, y^a, z: pairwise coprime, a basis
                gens = [x - y * z, y**a - z**2, z + 1]
            else:  # S(x^2, xy + a) = -a x, which no lead divides
                gens = [x**2, x * y + a]
            got = buchberger_check(gens, ORDER, memo)
            assert got == buchberger_check(gens, ORDER), k
            verdicts[got] += 1
            ids += map(id, gens)
        assert verdicts == {True: 120, False: 120}
        assert len(set(ids)) == len(ids)  # the memo keeps every one alive


class TestInvalidInput:
    def test_mixed_coefficient_domains(self):
        with pytest.raises(ValueError, match="domain"):
            buchberger_check([var(X), var(Y, 3)], ORDER)

    def test_mixed_coefficient_domains_on_a_shared_memo(self):
        # x's code is in the memo from a call over the integers; a call
        # over F_3 that meets it again must refuse it as a memo-less call does
        memo, x = {}, var(X)
        assert buchberger_check([x, var(Y)], ORDER, memo)
        with pytest.raises(ValueError, match="domain"):
            buchberger_check([var(Y, 3), x], ORDER, memo)

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


def test_the_heap_referee_agrees_at_every_fixed_point_up_to_n4(monkeypatch):
    """`_divide` and the heap loop it replaced return the same (steps,
    remainder) on every division the check makes at a fixed point."""
    divide, divisions = groebner._divide, []

    def both(rem, divisors, guard, char):
        expected = heap_divide(dict(rem), divisors, guard, char)
        got = divide(rem, divisors, guard, char)
        assert got == expected
        divisions.append(got)
        return got

    monkeypatch.setattr(groebner, "_divide", both)
    for w, h, gens, order in cell_ideals(4):
        if is_fixed_point(w, h):
            assert buchberger_check(gens, order), (w, h)
    assert any(steps for steps, _ in divisions)
