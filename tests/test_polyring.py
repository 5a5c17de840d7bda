import importlib
import json
import operator
import re
from types import MappingProxyType

import pytest
from cells_reference import PsiMap
from hypothesis import given, settings
from hypothesis import strategies as st

from hesscells import (
    Monomial,
    Permutation,
    Polynomial,
    PolyMatrix,
    all_permutations,
    poly_from_json,
    poly_parse_text,
    x_universe,
    xvar,
    z_universe,
    zvar,
)
from hesscells.polyring import parse_var

X11, X12, X13 = xvar(1, 1), xvar(1, 2), xvar(1, 3)
X21, X22, X31 = xvar(2, 1), xvar(2, 2), xvar(3, 1)


def V(var):
    return Polynomial.variable(var)


XVARS = list(x_universe(4))

monomials = st.dictionaries(
    st.sampled_from(XVARS), st.integers(1, 3), max_size=3
).map(Monomial)

polynomials = st.dictionaries(
    monomials, st.integers(-9, 9).filter(bool), max_size=8
).map(Polynomial)


class TestMonomial:
    def test_one(self):
        assert Monomial().is_one
        assert Monomial({X11: 0}).is_one

    def test_mul_merges_exponents(self):
        m = Monomial({X11: 1, X12: 2}) * Monomial({X12: 1, X13: 1})
        assert m == Monomial({X11: 1, X12: 3, X13: 1})

    def test_divides_and_div(self):
        a = Monomial({X11: 2, X12: 1})
        b = Monomial({X11: 1})
        assert b.divides(a)
        assert not a.divides(b)
        assert a / b == Monomial({X11: 1, X12: 1})
        with pytest.raises(ValueError):
            b / a

    def test_lcm(self):
        a = Monomial({X11: 2})
        b = Monomial({X11: 1, X12: 1})
        assert a.lcm(b) == Monomial({X11: 2, X12: 1})

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Monomial({X11: -1})

    @pytest.mark.parametrize("e", [1.5, 2.0, True, "2"])
    def test_rejects_non_integer_exponents(self, e):
        with pytest.raises(ValueError, match="^the exponent of x_1_1 must be an integer"):
            Monomial({X11: e})


class TestArithmetic:
    def test_difference_of_squares(self):
        p = (V(X11) + 1) * (V(X11) - 1)
        assert p == Polynomial({Monomial({X11: 2}): 1, Monomial(): -1})

    def test_additive_identity(self):
        p = V(X12) * 3 - V(X21)
        assert p + Polynomial.zero() == p

    def test_patch_generator_by_hand(self):
        # assembling the (4,1) patch generator from smaller pieces
        prod = (-V(X22) + V(X31)) * V(X13)
        assert prod == Polynomial(
            {Monomial({X13: 1, X31: 1}): 1, Monomial({X13: 1, X22: 1}): -1}
        )
        f41 = V(X13) * (V(X22) - V(X31)) + (-V(X12) + V(X21))
        assert f41 == poly_parse_text("-x_1_2 + x_1_3*x_2_2 - x_1_3*x_3_1 + x_2_1")

    def test_domain_mismatch_raises(self):
        with pytest.raises(ValueError):
            Polynomial.one() + Polynomial.one(5)

    @pytest.mark.parametrize("c", [1.5, 1.0, False, "1"])
    def test_rejects_non_integer_coefficients(self, c):
        with pytest.raises(ValueError, match="^the coefficient of 1 must be an integer"):
            Polynomial({Monomial(): c})
        with pytest.raises(ValueError, match="must be an integer"):
            Polynomial.const(c, 5)

    def test_mod_p_normalization(self):
        p = Polynomial({Monomial({X11: 1}): 7, Monomial(): -3}, char=5)
        assert p.terms == {Monomial({X11: 1}): 2, Monomial(): 2}

    def test_pow(self):
        p = V(X11) + 1
        assert p**0 == Polynomial.one()
        assert p**3 == p * p * p

    def test_evaluate(self):
        p = V(X11) * V(X12) - 2
        assert p.evaluate({X11: 3, X12: 4}) == 10

    @given(polynomials, polynomials, polynomials)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestSubstitute:
    """Variable substitution, as the specialization psi of the reference
    `cells_reference.PsiMap`; for w = 3421 it zeroes x_3_1."""

    psi = PsiMap(Permutation([3, 4, 2, 1]))

    def test_paper_specialization(self):
        p = -V(X22) + V(X31)
        assert self.psi.apply(p) == -Polynomial.variable(zvar(2, 1))

    def test_zero_polynomial(self):
        assert self.psi.apply(Polynomial.zero()) == Polynomial.zero()
        assert self.psi.apply(Polynomial.zero(5)) == Polynomial.zero(5)

    def test_monomial_multiplicativity(self):
        p = V(X11) * V(X22)
        z12, z21 = Polynomial.variable(zvar(1, 2)), Polynomial.variable(zvar(2, 1))
        assert self.psi.apply(p) == z12 * z21

    def test_unmapped_variable_outside_universe_raises(self):
        # a cell coordinate is not a patch coordinate, and a foreign
        # variable raises even inside a term that psi would zero
        with pytest.raises(ValueError):
            self.psi.apply(Polynomial.variable(zvar(1, 1)))
        with pytest.raises(ValueError):
            self.psi.apply(V(X31) * V(xvar(4, 4)))

    @given(polynomials, polynomials)
    @settings(max_examples=40)
    def test_homomorphism(self, p, q):
        apply = self.psi.apply
        assert apply(p * q + p) == apply(p) * apply(q) + apply(p)


class TestSerialization:
    def test_text_examples(self):
        assert Polynomial.zero().to_text() == "0"
        assert Polynomial.const(-7).to_text() == "-7"
        p = poly_parse_text("-x_1_2 + x_1_3*x_2_2 - x_1_3*x_3_1 + x_2_1")
        assert p.to_text() == "-x_1_2 + x_1_3*x_2_2 - x_1_3*x_3_1 + x_2_1"
        q = Polynomial({Monomial({X11: 2}): 3, Monomial(): 1})
        assert q.to_text() == "3*x_1_1^2 + 1"
        assert poly_parse_text(q.to_text()) == q

    @pytest.mark.parametrize("text", [
        "x_1_1 - + x_1_2", "x_1_1 +", "+", "-", "x_1_1 -- x_1_2", "2*x_1_1 - - 3",
    ])
    def test_a_sign_no_term_follows_is_refused(self, text):
        with pytest.raises(ValueError, match="^dangling sign in "):
            poly_parse_text(text)

    def test_json_schema_shape(self):
        p = -V(X12) + V(X21)
        doc = p.to_json_dict()
        assert doc == {
            "terms": [
                {"c": "-1", "m": {"x_1_2": 1}},
                {"c": "1", "m": {"x_2_1": 1}},
            ]
        }
        assert poly_from_json(json.loads(json.dumps(doc))) == p

    @given(polynomials)
    @settings(max_examples=80)
    def test_text_roundtrip(self, p):
        assert poly_parse_text(p.to_text()) == p

    @given(polynomials)
    @settings(max_examples=80)
    def test_json_roundtrip(self, p):
        assert poly_from_json(p.to_json_dict()) == p

    @pytest.mark.parametrize("term", [
        {"c": "1", "m": {"x_1_1": 1.5}}, {"c": 2.7, "m": {"x_1_1": 1}},
        {"c": "2.0", "m": {}}, {"c": True, "m": {}},
    ])
    def test_json_refuses_non_integers(self, term):
        with pytest.raises(ValueError):
            poly_from_json({"terms": [term]})

    def test_mod_p_roundtrip(self):
        p = Polynomial({Monomial({X11: 1}): 2, Monomial(): 4}, char=5)
        assert poly_from_json(p.to_json_dict()) == p


class TestMatrices:
    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            PolyMatrix([[1, 0], [0]])

    def test_domain_mismatch(self):
        with pytest.raises(ValueError):
            PolyMatrix([[Polynomial.one(), Polynomial.one(3)], [0, 1]])


class TestUniverses:
    def test_x_universe_n4(self):
        assert list(x_universe(4)) == [
            xvar(1, 1), xvar(1, 2), xvar(1, 3),
            xvar(2, 1), xvar(2, 2),
            xvar(3, 1),
        ]

    def test_z_universe_size_is_length(self):
        for n in range(1, 6):
            for w in all_permutations(n):
                assert len(z_universe(w)) == w.length()


class TestChar:
    @pytest.mark.parametrize("char", [1, 4, 6, 9, -3])
    def test_a_char_neither_zero_nor_prime_is_refused(self, char):
        with pytest.raises(ValueError, match="^char must be 0 or a prime$"):
            Polynomial.const(3, char)
        with pytest.raises(ValueError, match="^char must be 0 or a prime$"):
            poly_from_json({"terms": [{"c": "3", "m": {}}], "char": char})

    @pytest.mark.parametrize("char", [2, 3, 5, 101, 2**61 - 1])
    def test_a_prime_char_is_accepted(self, char):
        p = Polynomial.const(3, char)
        assert p.char == char and p.terms == ({Monomial(): 3 % char} if 3 % char else {})
        assert poly_from_json(p.to_json_dict()) == p

    def test_the_test_decides_every_small_char(self):
        primes = {q for q in range(2, 2000) if all(q % d for d in range(2, q))}
        accepted = set()
        for char in range(2000):
            try:
                Polynomial.zero(char)
                accepted.add(char)
            except ValueError:
                pass
        assert accepted == primes | {0}

    def test_a_strong_pseudoprime_to_the_first_twelve_primes_is_refused(self):
        # composite, yet a strong probable prime to the bases 2, ..., 37
        with pytest.raises(ValueError, match="^char must be 0 or a prime$"):
            Polynomial.zero(318665857834031151167461)

    def test_a_char_past_the_exact_bound_is_refused_as_such(self):
        bound = 3_317_044_064_679_887_385_961_981
        message = f"^char {bound} is past 3.3e24, the bound of the primality test$"
        with pytest.raises(ValueError, match=message):
            Polynomial.zero(bound)
        with pytest.raises(ValueError, match="^char must be 0 or a prime$"):
            Polynomial.zero(bound - 1)  # below the bound: decided, and even

    @pytest.mark.parametrize("char", [2.0, True, "3", None])
    def test_a_char_that_is_not_an_int_is_refused(self, char):
        Polynomial.zero(2)  # an equal float or bool finds no accepted int
        with pytest.raises(ValueError, match="^char must be an integer"):
            Polynomial.zero(char)

    @pytest.mark.parametrize("char", [7.5, 3.0, True])
    def test_json_refuses_a_char_that_is_not_an_integer(self, char):
        # int() would take 7.5 as 7, and true as 1
        with pytest.raises(ValueError, match="invalid literal for int"):
            poly_from_json({"terms": [{"c": "3", "m": {}}], "char": char})

    def test_each_char_is_tested_once(self):
        polyring = importlib.import_module("hesscells.polyring")
        Polynomial.zero(7)
        misses = polyring._is_prime.cache_info().misses
        for _ in range(3):
            Polynomial.const(4, 7)
        assert polyring._is_prime.cache_info().misses == misses


class TestInputChecks:
    def test_variable_indices(self):
        with pytest.raises(ValueError, match="must be positive"):
            xvar(0, 1)
        with pytest.raises(ValueError, match="must be positive"):
            zvar(1, 0)

    def test_unparsable_variable_name(self):
        with pytest.raises(ValueError, match="cannot parse variable name 'y_1_2'"):
            parse_var("y_1_2")

    def test_term_key_that_is_not_a_monomial(self):
        with pytest.raises(TypeError, match="not a Monomial"):
            Polynomial({"x_1_1": 1})

    @pytest.mark.parametrize("name", ["__add__", "__sub__", "__mul__"])
    def test_an_operand_that_is_not_an_int_or_polynomial(self, name):
        assert getattr(V(X11), name)(1.5) is NotImplemented
        with pytest.raises(TypeError):
            getattr(operator, name.strip("_"))(V(X11), 1.5)

    def test_int_minus_polynomial(self):
        assert 1 - V(X11) == Polynomial({Monomial(): 1, Monomial({X11: 1}): -1})
        assert 1 - Polynomial.one(3) == Polynomial.zero(3)

    def test_negative_power(self):
        with pytest.raises(ValueError, match="nonnegative"):
            V(X11) ** -1

    def test_reduce_mod_of_a_char_p_polynomial(self):
        with pytest.raises(ValueError, match="expects integer coefficients"):
            Polynomial.one(3).reduce_mod(5)

    def test_evaluate_mod_p(self):
        p = Polynomial({Monomial({X11: 2}): 1, Monomial(): 1}, 5)
        assert p.evaluate({X11: 3}) == 0  # 9 + 1 = 10
        assert p.evaluate({X11: 4}) == 2  # 16 + 1 = 17

    @pytest.mark.parametrize("text", ["", "   "])
    def test_empty_text(self, text):
        with pytest.raises(ValueError, match="^empty polynomial text$"):
            poly_parse_text(text)

    def test_unparsable_text(self):
        with pytest.raises(ValueError, match="cannot parse factor 'y' in 'x_1_1\\*y'"):
            poly_parse_text("x_1_1*y")

    def test_bad_matrix_entry(self):
        with pytest.raises(TypeError, match="bad matrix entry: 1.5"):
            PolyMatrix([[1.5]])

    def test_matrix_repr(self):
        m = PolyMatrix([[V(X11), 0], [1, V(X11) - 2]])
        assert repr(m) == "PolyMatrix(\n [x_1_1, 0],\n [1, x_1_1 - 2])"


class TestReadersAndEquality:
    def test_a_polynomial_is_never_equal_to_a_bool(self):
        p = Polynomial.one()
        assert (p == True) is False  # noqa: E712
        assert (p != True) is True  # noqa: E712
        assert (Polynomial.zero() == False) is False  # noqa: E712
        assert [True, p].index(p) == 1
        assert p == 1 and Polynomial.zero(3) == 3
        with pytest.raises(ValueError, match="^the coefficient of 1 must be an integer, not True$"):
            p + True

    @pytest.mark.parametrize("name", ["x_0_1", "x_1_0", "z_0_1", "z_2_0", "x_00_1"])
    def test_both_readers_refuse_a_variable_the_constructors_refuse(self, name):
        message = "^variable indices must be positive, got "
        with pytest.raises(ValueError, match=message):
            parse_var(name)
        with pytest.raises(ValueError, match=message):
            poly_parse_text(f"2*{name}^2 + 1")
        with pytest.raises(ValueError, match=message):
            poly_from_json({"terms": [{"c": "1", "m": {name: 1}}]})

    @pytest.mark.parametrize("doc", [{}, {"terms": None}, [], None, "x_1_1", 0,
                                     {"terms": {}}, {"terms": "x_1_1"}, {"char": 3}])
    def test_a_document_without_a_terms_list_is_refused(self, doc):
        message = f'^a polynomial is an object with a "terms" list, not {re.escape(repr(doc))}$'
        with pytest.raises(ValueError, match=message):
            poly_from_json(doc)

    @pytest.mark.parametrize("term", [5, None, [], "c", {"m": {}}, {"c": "1"},
                                      {"c": "1", "m": []}, {"c": "1", "m": None},
                                      {"c": "1", "m": "x_1_1"}])
    def test_a_malformed_term_is_refused(self, term):
        message = f'^a term is an object with "c" and an object "m", not {re.escape(repr(term))}$'
        with pytest.raises(ValueError, match=message):
            poly_from_json({"terms": [{"c": "2", "m": {"x_1_1": 1}}, term]})

    @pytest.mark.parametrize("name", [1, None, ("x", 1, 1)])
    def test_a_variable_name_that_is_no_string_is_refused(self, name):
        message = f"^cannot parse variable name {re.escape(repr(name))}$"
        with pytest.raises(ValueError, match=message):
            parse_var(name)
        with pytest.raises(ValueError, match=message):
            poly_from_json({"terms": [{"c": "1", "m": {name: 1}}]})

    @pytest.mark.parametrize("pairs, text", [
        ([(X11, 1), (X11, 2)], "x_1_1^1 * x_1_1^2"),
        ([(X12, 2), (X11, 1), (X12, 0)], "x_1_2^2 * x_1_1^1 * x_1_2^0"),
        (iter([(X11, 1), (X12, 1), (X11, 1)]), "x_1_1^1 * x_1_2^1 * x_1_1^1"),
    ])
    def test_a_monomial_refuses_a_repeated_variable(self, pairs, text):
        with pytest.raises(ValueError, match=f"^repeated variable in {re.escape(text)}$"):
            Monomial(pairs)

    def test_a_monomial_takes_distinct_pairs_from_any_iterable(self):
        m = Monomial({X11: 1, X12: 2})
        assert Monomial([(X12, 2), (X11, 1)]) == m
        assert Monomial(zip((X11, X12, X13), (1, 2, 0))) == m
        assert Monomial(iter([(X11, 1), (X12, 2)])) == m
        assert Monomial(MappingProxyType({X11: 1, X12: 2})) == m
